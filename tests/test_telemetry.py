"""Workload telemetry: fingerprints and the statement store."""

import threading

import pytest

from repro.engine import Database
from repro.engine.obs import SYSTEM_VIEWS
from repro.engine.obs.telemetry import (
    StatementStatsStore,
    fingerprint,
    normalize_statement,
)
from repro.engine.expr import Env
from repro.engine.plan.operators import NodeMetrics
from repro.engine.sql import parse_statement
from repro.systems import make_system


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE n (v integer NOT NULL, PRIMARY KEY (v))")
    for i in range(50):
        database.execute("INSERT INTO n (v) VALUES (?)", [i])
    database.enable_telemetry()
    return database


# -- fingerprinting ---------------------------------------------------------


class TestFingerprint:
    def test_literals_collapse_to_placeholder(self):
        a = normalize_statement("SELECT v FROM n WHERE v = 7")
        b = normalize_statement("SELECT v FROM n WHERE v = 42")
        assert a == b
        assert "?" in a
        assert "7" not in a

    def test_case_and_whitespace_fold(self):
        assert fingerprint("SELECT  v  FROM n")[0] == fingerprint(
            "select v from n"
        )[0]

    def test_string_literals_and_params_collapse(self):
        a = normalize_statement("SELECT v FROM n WHERE v = ?")
        b = normalize_statement("SELECT v FROM n WHERE v = 'x'")
        assert a == b

    def test_different_shapes_differ(self):
        assert fingerprint("SELECT v FROM n")[0] != fingerprint(
            "SELECT v FROM n WHERE v = 1"
        )[0]

    def test_untokenizable_text_falls_back_to_folding(self):
        # '#' is not a lexer token; the fallback must still normalize case
        # and whitespace instead of raising
        normalized = normalize_statement("SELECT   # broken")
        assert normalized == "select # broken"

    def test_hash_is_stable_and_short(self):
        fp, normalized = fingerprint("SELECT v FROM n")
        assert len(fp) == 12
        assert int(fp, 16) >= 0  # hex digits
        assert fingerprint("SELECT v FROM n") == (fp, normalized)


# -- the statement store ----------------------------------------------------


class TestStatementStatsStore:
    def test_record_accumulates_per_shape(self):
        store = StatementStatsStore(enabled=True)
        store.record("SELECT v FROM n WHERE v = 1", 0.010, rows=1, cache_hit=False)
        store.record("SELECT v FROM n WHERE v = 2", 0.030, rows=1, cache_hit=True)
        assert len(store) == 1
        (row,) = store.snapshot()
        assert row["calls"] == 2
        assert row["rows"] == 2
        assert abs(row["time_total_s"] - 0.040) < 1e-9
        assert row["time_min_s"] == 0.010
        assert row["time_max_s"] == 0.030
        assert row["cache_hits"] == 1
        assert row["cache_misses"] == 1
        assert row["cache_hit_ratio"] == 0.5

    def test_snapshot_rows_carry_exactly_the_declared_fields(self):
        store = StatementStatsStore(enabled=True)
        store.record("SELECT v FROM n", 0.001)
        (row,) = store.snapshot()
        assert tuple(row) == tuple(SYSTEM_VIEWS["repro_stat_statements"])

    def test_lru_eviction_drops_cold_entries(self):
        store = StatementStatsStore(capacity=2, enabled=True)
        store.record("SELECT v FROM n", 0.001)
        store.record("SELECT count(*) FROM n", 0.001)
        store.record("SELECT v FROM n", 0.001)  # refresh: count(*) is now cold
        store.record("INSERT INTO n (v) VALUES (1)", 0.001)
        assert len(store) == 2
        assert store.evicted == 1
        queries = {row["query"] for row in store.snapshot()}
        assert any("insert" in q for q in queries)
        assert any("select v" in q for q in queries)
        assert not any("count" in q for q in queries)

    def test_timeout_and_abort_counters(self):
        store = StatementStatsStore(enabled=True)
        store.record("SELECT v FROM n", 0.5, timed_out=True)
        store.record("SELECT v FROM n", 0.1, aborted=True)
        (row,) = store.snapshot()
        assert row["timeouts"] == 1
        assert row["aborts"] == 1
        assert row["calls"] == 2

    def test_resource_counters_fold_in(self):
        """rows_scanned / batches / peak_ws_bytes fold from the operator map."""

        def node(leaf, rows, batches, ws_bytes):
            metrics = NodeMetrics(leaf=leaf)
            metrics.rows, metrics.batches, metrics.ws_bytes = rows, batches, ws_bytes
            return metrics

        store = StatementStatsStore(enabled=True)
        # a scan under a filter: only the leaf's rows were scanned
        store.record("SELECT v FROM n", 0.001, metrics={
            1: node(True, 100, 2, 4096), 2: node(False, 40, 1, 1024),
        })
        store.record("SELECT v FROM n", 0.001, metrics={
            1: node(True, 10, 1, 512), 2: node(False, 4, 1, 128),
        })
        store.record("SELECT v FROM n", 0.001)  # no operator record
        (row,) = store.snapshot()
        assert row["calls"] == 3
        assert row["rows_scanned"] == 110
        assert row["batches"] == 5
        assert row["peak_ws_bytes"] == 4096  # peak, not sum

    def test_note_diagnostics_only_touches_existing_entries(self):
        store = StatementStatsStore(enabled=True)
        store.note_diagnostics("SELECT v FROM n", 2)  # never executed
        assert len(store) == 0
        store.record("SELECT v FROM n", 0.001)
        store.note_diagnostics("SELECT v FROM n", 2)
        (row,) = store.snapshot()
        assert row["diagnostics"] == 2

    def test_snapshot_sort_keys(self):
        store = StatementStatsStore(enabled=True)
        store.record("SELECT v FROM n", 0.001, rows=100)
        store.record("SELECT count(*) FROM n", 0.050, rows=1)
        store.record("SELECT count(*) FROM n", 0.050, rows=1)
        by_time = store.snapshot(sort="time")
        assert "count" in by_time[0]["query"]
        by_rows = store.snapshot(sort="rows")
        assert "select v" in by_rows[0]["query"]
        by_calls = store.snapshot(sort="calls")
        assert by_calls[0]["calls"] == 2
        assert store.snapshot(top=1, sort="time") == by_time[:1]

    def test_unknown_sort_raises(self):
        with pytest.raises(ValueError, match="unknown sort"):
            StatementStatsStore(enabled=True).snapshot(sort="mean")

    def test_reset_keeps_enabled_flag(self):
        store = StatementStatsStore(enabled=True)
        store.record("SELECT v FROM n", 0.001)
        store.reset()
        assert len(store) == 0
        assert store.evicted == 0
        assert store.enabled

    def test_concurrent_records_are_not_lost(self):
        store = StatementStatsStore(enabled=True)

        def worker():
            for i in range(200):
                store.record(f"SELECT v FROM n WHERE v = {i % 3}", 0.001)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        rows = store.snapshot()
        assert len(rows) == 1  # literals collapse to one shape
        assert rows[0]["calls"] == 800


# -- engine integration -----------------------------------------------------


class TestEngineTelemetry:
    def test_disabled_by_default(self):
        database = Database()
        assert not database.telemetry.enabled
        database.execute("CREATE TABLE t (v integer NOT NULL, PRIMARY KEY (v))")
        database.execute("SELECT v FROM t")
        assert len(database.telemetry) == 0

    def test_one_row_per_query_shape(self, db):
        for i in range(6):
            db.execute("SELECT v FROM n WHERE v = ?", [i])
        db.execute("SELECT count(*) FROM n")
        rows = db.telemetry.snapshot()
        by_query = {row["query"]: row for row in rows}
        shape = "select v from n where v = ?"
        assert by_query[shape]["calls"] == 6
        assert by_query["select count (*) from n"]["calls"] == 1

    def test_cache_hits_and_resources_recorded(self, db):
        db.execute("SELECT v FROM n WHERE v < 25")
        db.execute("SELECT v FROM n WHERE v < 25")
        (row,) = [
            r for r in db.telemetry.snapshot() if "v < ?" in r["query"]
        ]
        assert row["cache_misses"] == 1
        assert row["cache_hits"] == 1
        assert row["rows_scanned"] > 0
        assert row["batches"] > 0
        assert row["peak_ws_bytes"] > 0
        assert row["time_total_s"] > 0

    def test_timeout_is_classified(self, db):
        from repro.engine.errors import QueryTimeout

        with pytest.raises(QueryTimeout):
            db.execute("SELECT a.v FROM n a, n b, n c", timeout_s=0.0)
        rows = [r for r in db.telemetry.snapshot() if r["timeouts"]]
        assert rows and rows[0]["aborts"] == 0

    def test_snapshot_api_shape(self, db):
        db.execute("SELECT v FROM n")
        snapshot = db.telemetry_snapshot(top=5)
        assert snapshot["statements_tracked"] >= 1
        assert snapshot["statements_evicted"] == 0
        assert snapshot["statements"][0]["calls"] >= 1
        assert "counters" in snapshot and "histograms" in snapshot


# -- the fold equals the EXPLAIN ANALYZE record --------------------------------


def _operators(planned):
    """Every operator of *planned*, its expression subplans' included."""
    plans, ops = [planned], []
    while plans:
        plan = plans.pop()
        plans.extend(plan.subplans)
        stack = [plan.op]
        while stack:
            op = stack.pop()
            ops.append(op)
            stack.extend(op.children)
    return ops


class TestFoldMatchesExplainAnalyze:
    """A statement's ``rows_scanned`` / ``batches`` / ``peak_ws_bytes`` are
    what the same statement's per-operator record implies: the rows of its
    leaf operators, all batches, the largest working set.  In the correlated
    EXISTS the nested contexts share one record."""

    QUERIES = (
        "SELECT o.g, count(*), sum(l.q) FROM o, l FOR SYSTEM_TIME ALL "
        "WHERE o.k = l.k GROUP BY o.g",
        "SELECT o.k FROM o WHERE EXISTS "
        "(SELECT 1 FROM l WHERE l.k = o.k AND l.q > 2)",
    )

    @staticmethod
    def _system(name):
        system = make_system(name)
        for table, columns in (("o", "k integer NOT NULL, g integer"),
                               ("l", "k integer NOT NULL, q integer")):
            system.execute(
                f"CREATE TABLE {table} ({columns}, sb timestamp, se timestamp,"
                " PRIMARY KEY (k), PERIOD FOR system_time (sb, se))"
            )
        for k in range(1, 81):
            system.execute("INSERT INTO o (k, g) VALUES (?, ?)", [k, k % 7])
            system.execute("INSERT INTO l (k, q) VALUES (?, ?)", [k, k % 5])
        for k in range(1, 81, 3):  # history versions (B: some still in undo)
            system.execute("UPDATE l SET q = q + 1 WHERE k = ?", [k])
        return system

    @pytest.mark.parametrize("name", ["A", "B"])
    @pytest.mark.parametrize("sql", QUERIES, ids=["join_aggregate", "exists"])
    def test_statement_row_equals_operator_record(self, name, sql):
        system = self._system(name)
        system.enable_telemetry()
        system.execute(sql)
        (row,) = system.db.telemetry.snapshot()

        planned = system.db._sql_engine.planner.plan_select(parse_statement(sql))
        env = Env({}, metrics={})
        planned.rows(env)
        nodes = env.metrics
        assert any(node.calls > 1 for node in nodes.values()) == ("EXISTS" in sql)
        leaves = [nodes[id(op)] for op in _operators(planned)
                  if not op.children and id(op) in nodes]
        assert row["rows_scanned"] == sum(node.rows for node in leaves) > 0
        assert row["batches"] == sum(node.batches for node in nodes.values())
        assert row["peak_ws_bytes"] == max(node.ws_bytes for node in nodes.values())
