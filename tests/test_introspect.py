"""System views: SQL-queryable introspection of engine internals.

The five ``repro_stat_*`` relations must behave like ordinary tables in
the SQL pipeline (filters, joins, grouping, EXPLAIN, plan cache) while
reporting storage/index access state without perturbing it.
"""

import pytest

from repro.core.loader import Loader
from repro.core.queries import Workload
from repro.engine import Database
from repro.engine.errors import CatalogError, ProgrammingError
from repro.engine.obs.introspect import (
    INTROSPECTION_METRICS,
    SYSTEM_VIEWS,
    is_system_view,
    view_columns,
)
from repro.engine.obs.telemetry import validate_openmetrics
from repro.systems import make_system


def _insert(db, lo, hi):
    for i in range(lo, hi):
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES "
            f"({i}, 'n{i}', {float(i)}, 0, 100)"
        )


# -- resolution --------------------------------------------------------------


class TestResolution:
    def test_catalogue_shape(self):
        assert set(SYSTEM_VIEWS) == {
            "repro_stat_tables", "repro_stat_indexes", "repro_stat_history",
            "repro_stat_statements", "repro_stat_metrics",
        }
        for name, columns in SYSTEM_VIEWS.items():
            assert is_system_view(name)
            assert view_columns(name) == tuple(columns)

    def test_ordinary_names_resolve_to_none(self):
        assert view_columns("item") is None
        assert not is_system_view("item")

    @pytest.mark.parametrize("name", sorted(SYSTEM_VIEWS))
    def test_select_star_matches_declared_layout(self, db, name):
        result = db.execute(f"SELECT * FROM {name}")
        assert tuple(result.columns) == view_columns(name)

    def test_resolution_is_case_insensitive(self, db):
        result = db.execute("SELECT * FROM REPRO_STAT_TABLES")
        assert tuple(result.columns) == view_columns("repro_stat_tables")

    def test_temporal_clause_is_rejected(self, db):
        with pytest.raises(ProgrammingError, match="system view"):
            db.execute(
                "SELECT * FROM repro_stat_tables FOR SYSTEM_TIME AS OF 1"
            )

    def test_create_table_with_reserved_prefix_fails(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute(
                "CREATE TABLE repro_stat_mine (id integer NOT NULL, "
                "PRIMARY KEY (id))"
            )

    def test_create_view_with_reserved_prefix_fails(self, db):
        with pytest.raises(CatalogError, match="reserved"):
            db.execute(
                "CREATE VIEW repro_stat_v AS SELECT id FROM item"
            )


# -- composability: the views are ordinary relations to the planner ---------


class TestComposability:
    def test_filter_composes(self, db):
        _insert(db, 0, 3)
        rows = db.execute(
            "SELECT partition, row_count FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert rows == [("current", 3)]

    def test_order_by_and_limit_compose(self, db):
        _insert(db, 0, 2)
        rows = db.execute(
            "SELECT name FROM repro_stat_metrics ORDER BY name LIMIT 3"
        ).rows
        assert len(rows) == 3
        assert rows == sorted(rows)

    def test_group_by_composes(self, db):
        _insert(db, 0, 4)
        db.execute("UPDATE item SET price = 9.0 WHERE id = 0")
        (row,) = db.execute(
            "SELECT table_name, SUM(row_count) FROM repro_stat_tables "
            "WHERE table_name = 'item' GROUP BY table_name"
        ).rows
        assert row == ("item", 5)  # 4 current + 1 history version

    def test_view_joins_view(self, db):
        _insert(db, 0, 2)
        db.execute("UPDATE item SET price = 5.0 WHERE id = 1")
        rows = db.execute(
            "SELECT t.partition, h.chain_depth "
            "FROM repro_stat_tables t "
            "JOIN repro_stat_history h "
            "  ON t.table_name = h.table_name AND t.partition = h.partition "
            "WHERE t.table_name = 'item'"
        ).rows
        assert rows  # both sides produced matching partitions

    def test_view_joins_real_table(self, db):
        _insert(db, 0, 2)
        rows = db.execute(
            "SELECT i.id, t.row_count FROM item i "
            "JOIN repro_stat_tables t ON t.table_name = 'item' "
            "WHERE t.partition = 'current'"
        ).rows
        assert sorted(rows) == [(0, 2), (1, 2)]

    def test_explain_shows_virtual_scan(self, db):
        plan = db.explain(
            "SELECT * FROM repro_stat_tables WHERE partition = 'history'"
        )
        assert "VirtualScan(repro_stat_tables)" in plan

    def test_cached_plan_reassembles_rows(self, db):
        sql = (
            "SELECT row_count FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        )
        _insert(db, 0, 1)
        assert db.execute(sql).rows == [(1,)]
        _insert(db, 1, 3)
        # second execution hits the plan cache but must see fresh rows
        before = db.metrics.counter("plan.cache_hit")
        assert db.execute(sql).rows == [(3,)]
        assert db.metrics.counter("plan.cache_hit") == before + 1


# -- repro_stat_tables: scan accounting and freshness ------------------------


class TestStatTables:
    def test_scans_and_rows_read_accumulate(self, db):
        _insert(db, 0, 5)
        db.execute("SELECT id FROM item WHERE price > 1")
        db.execute("SELECT id FROM item WHERE price > 2")
        (row,) = db.execute(
            "SELECT scans, rows_read, scan_share FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        scans, rows_read, share = row
        assert scans >= 2
        assert rows_read >= 10
        assert share == 1.0  # history never scanned yet

    def test_view_queries_do_not_perturb_counters(self, db):
        _insert(db, 0, 3)
        db.execute("SELECT id FROM item")
        sql = (
            "SELECT scans, rows_read FROM repro_stat_tables "
            "WHERE table_name = 'item'"
        )
        first = db.execute(sql).rows
        second = db.execute(sql).rows
        assert first == second  # introspection is side-effect free

    def test_scan_partition_quiet_is_silent(self, db):
        _insert(db, 0, 3)
        table = db.table("item")
        part = table._partitions["current"]
        metrics_before = db.metrics.counter("storage.current_scans")
        access_before = part.access.scans
        rows = list(table.scan_partition_quiet("current"))
        assert len(rows) == 3
        assert db.metrics.counter("storage.current_scans") == metrics_before
        assert part.access.scans == access_before

    def test_est_bytes_positive_for_populated_partition(self, db):
        _insert(db, 0, 3)
        (row,) = db.execute(
            "SELECT est_bytes FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert row[0] > 0

    def test_freshness_lifecycle(self, db):
        _insert(db, 0, 3)
        (row,) = db.execute(
            "SELECT last_analyze, stats_stale FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert row == (None, None)  # never analyzed
        db.analyze("item")
        (row,) = db.execute(
            "SELECT last_analyze, stats_stale FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert row[0] is not None
        assert row[1] == 0  # fresh
        _insert(db, 3, 4)  # DML invalidates the snapshot
        (row,) = db.execute(
            "SELECT stats_stale FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert row == (1,)


# -- repro_stat_indexes ------------------------------------------------------


class TestStatIndexes:
    def test_probe_accounting(self, db):
        _insert(db, 0, 8)
        db.execute("CREATE INDEX item_price ON item (price)")
        (row,) = db.execute(
            "SELECT kind, columns, entries FROM repro_stat_indexes "
            "WHERE index_name = 'item_price'"
        ).rows
        assert row[0] == "btree"
        assert row[1] == "price"
        assert row[2] == 8
        db.execute("SELECT id FROM item WHERE price = 3.0")
        (row,) = db.execute(
            "SELECT probes, range_scans, rows_returned "
            "FROM repro_stat_indexes WHERE index_name = 'item_price'"
        ).rows
        assert row[0] + row[1] >= 1  # the lookup went through the index
        assert row[2] >= 1

    def test_timeline_index_row_on_system_e(self, tiny_workload):
        system = make_system("E")
        Loader(system, tiny_workload).load()
        rows = system.execute(
            "SELECT index_name, partition, kind FROM repro_stat_indexes "
            "WHERE kind = 'timeline'"
        ).rows
        assert rows  # every System E table carries a timeline index
        assert all(name.endswith("_timeline") for name, _, _ in rows)
        assert all(partition == "all" for _, partition, _ in rows)


# -- repro_stat_history: version-chain shape ---------------------------------


class TestStatHistory:
    def test_chain_depth_buckets(self, db):
        _insert(db, 0, 4)
        for _ in range(3):
            db.execute("UPDATE item SET price = price + 1 WHERE id = 0")
        rows = db.execute(
            "SELECT chain_depth, chains, versions, live_versions, "
            "dead_versions FROM repro_stat_history "
            "WHERE table_name = 'item' AND partition = 'history' "
            "ORDER BY chain_depth"
        ).rows
        (depth, chains, versions, live, dead) = rows[0]
        assert (depth, chains) == (3, 1)  # id 0 left three closed versions
        assert versions == dead == 3
        assert live == 0  # history holds only superseded versions

    def test_current_chains_are_live(self, db):
        _insert(db, 0, 2)
        (row,) = db.execute(
            "SELECT chains, live_versions, dead_versions "
            "FROM repro_stat_history "
            "WHERE table_name = 'item' AND partition = 'current'"
        ).rows
        assert row == (2, 2, 0)

    def test_temporal_extents(self, db):
        _insert(db, 0, 1)
        db.execute("UPDATE item SET price = 2.0 WHERE id = 0")
        (row,) = db.execute(
            "SELECT sys_time_min, sys_time_max, app_time_min, app_time_max "
            "FROM repro_stat_history "
            "WHERE table_name = 'item' AND partition = 'history'"
        ).rows
        sys_min, sys_max, app_min, app_max = row
        assert sys_min is not None and sys_max is not None
        assert sys_min <= sys_max
        assert (app_min, app_max) == (0, 100)


# -- repro_stat_statements and repro_stat_metrics ----------------------------


class TestStatStatements:
    def test_statement_store_is_queryable(self, db):
        db.enable_telemetry()
        _insert(db, 0, 3)
        db.execute("SELECT id FROM item WHERE price > 1")
        rows = db.execute(
            "SELECT query, calls FROM repro_stat_statements "
            "WHERE query LIKE 'select id from item%'"
        ).rows
        assert rows == [("select id from item where price > ?", 1)]

    def test_empty_while_telemetry_off(self, db):
        _insert(db, 0, 2)
        db.execute("SELECT id FROM item")
        assert db.execute("SELECT * FROM repro_stat_statements").rows == []


class TestStatMetrics:
    def test_counters_and_histograms_are_rows(self, db):
        _insert(db, 0, 2)
        (row,) = db.execute(
            "SELECT kind, value FROM repro_stat_metrics "
            "WHERE name = 'txn.commits'"
        ).rows
        assert row[0] == "counter"
        assert row[1] >= 2
        (row,) = db.execute(
            "SELECT kind, value, obs_count, p50 FROM repro_stat_metrics "
            "WHERE name = 'query.execute_s'"
        ).rows
        assert row[0] == "histogram"
        assert row[1] is None  # counter-only column
        assert row[2] >= 1 and row[3] is not None  # the SELECT above observed


# -- fig02-style run: the split the paper measures ---------------------------


class TestWorkloadConsistency:
    @pytest.fixture(scope="class")
    def driven_system_a(self, tiny_workload):
        system = make_system("A")
        Loader(system, tiny_workload).load()
        # no reset_metrics(): the registry and the access counters must
        # have seen the exact same history for the consistency check
        for query in Workload():
            system.execute(query.sql, query.params(tiny_workload.meta))
        return system

    def test_scan_split_is_non_trivial(self, driven_system_a):
        rows = driven_system_a.execute(
            "SELECT partition, SUM(scans) FROM repro_stat_tables "
            "GROUP BY partition"
        ).rows
        split = dict(rows)
        assert split.get("current", 0) > 0
        assert split.get("history", 0) > 0  # temporal queries hit history

    def test_view_totals_match_registry(self, driven_system_a):
        counters = driven_system_a.db.metrics.counters()
        rows = driven_system_a.execute(
            "SELECT partition, SUM(scans), SUM(rows_read) "
            "FROM repro_stat_tables GROUP BY partition"
        ).rows
        split = {partition: (scans, read) for partition, scans, read in rows}
        # unsplit (non-temporal) tables scan their SINGLE partition through
        # the current-scan path, so the registry folds both together
        current = [
            split.get(name, (0, 0)) for name in ("current", "single")
        ]
        assert (
            sum(scans for scans, _ in current)
            == counters["storage.current_scans"]
        )
        assert split["history"][0] == counters["storage.history_scans"]
        assert (
            sum(read for _, read in current)
            == counters["storage.current_rows_scanned"]
        )
        assert split["history"][1] == counters["storage.history_rows_scanned"]


# -- OpenMetrics exposition of the new families ------------------------------


class TestIntrospectionOpenMetrics:
    @pytest.mark.parametrize("name", "ABCDE")
    def test_exposition_validates_mid_workload(self, tiny_workload, name):
        system = make_system(name)
        Loader(system, tiny_workload).load()
        system.enable_telemetry()
        for query in list(Workload())[:4]:  # mid-workload, counters hot
            system.execute(query.sql, query.params(tiny_workload.meta))
        text = system.openmetrics()
        assert validate_openmetrics(text) == []
        for family, (kind, _help) in INTROSPECTION_METRICS.items():
            assert f"# TYPE {family} {kind}" in text
        assert 'repro_partition_scans_total{' in text
        assert 'partition="current"' in text or 'partition="single"' in text


# -- auto-ANALYZE: armed by the long-lived entry points ----------------------


class TestAutoAnalyzeArming:
    def test_prepare_systems_arms_the_default_threshold(self, tiny_workload):
        from repro.bench.experiments import prepare_systems
        from repro.engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD

        systems = prepare_systems(tiny_workload, names="A")
        (system,) = systems.values()
        assert (
            system.db.auto_analyze_threshold == DEFAULT_AUTO_ANALYZE_THRESHOLD
        )

    def test_plain_database_stays_manual(self):
        assert Database().auto_analyze_threshold is None

    def test_last_analyze_proves_the_trigger_fired(self, db):
        view = (
            "SELECT last_analyze, stats_stale FROM repro_stat_tables "
            "WHERE table_name = 'item' AND partition = 'current'"
        )
        db.auto_analyze_threshold = 8
        _insert(db, 0, 8)  # crosses the threshold, but a write never fires it
        assert db.execute(view).rows == [(None, None)]  # nor does the view
        db.execute("SELECT count(*) FROM item")  # the first planned statement
        assert db.metrics.counter("stats.auto_analyze_runs") == 1
        (row,) = db.execute(view).rows
        assert row[0] is not None  # the view shows the auto snapshot
        assert row[1] == 0  # taken by the statement that needed it: fresh
