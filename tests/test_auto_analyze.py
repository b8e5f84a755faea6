"""Auto-ANALYZE: statistics refresh when the planner asks, never on a write.

``Database.auto_analyze_threshold`` (default None = manual-only) is
compared in exactly one place, ``Database.stats_for`` — the door the
planner reads statistics through.  A write only moves the table's
mutation marker; the first statement *planned* over a table whose marker
drifted at least the threshold since its last snapshot (or ever, when
never analyzed) re-runs ANALYZE on that table and bumps
``stats.auto_analyze_runs``.  Below the threshold a drifted snapshot is
stale and the planner gets ``None``.
"""

import pytest

from repro.engine import Database
from repro.engine import stats as stats_mod
from repro.engine.database import ArchitectureProfile
from repro.engine.obs import introspect

SELECT_T = "SELECT count(*) FROM t WHERE b >= 0"


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (a integer NOT NULL, b integer,"
        " sb timestamp, se timestamp,"
        " PRIMARY KEY (a), PERIOD FOR system_time (sb, se))"
    )
    return database


def _insert(db, lo, hi):
    for i in range(lo, hi):
        db.execute("INSERT INTO t (a, b) VALUES (?, ?)", [i, i * 10])


def _auto_runs(db):
    return db.metrics.counter("stats.auto_analyze_runs")


class TestDisabledByDefault:
    def test_threshold_defaults_to_none(self, db):
        assert db.auto_analyze_threshold is None

    def test_no_snapshot_appears_without_opt_in(self, db):
        _insert(db, 0, 50)
        db.execute(SELECT_T)
        assert db.catalog.stats_of("t") is None
        assert _auto_runs(db) == 0


class TestTrigger:
    def test_fires_when_a_statement_is_planned_past_the_threshold(self, db):
        db.auto_analyze_threshold = 10
        _insert(db, 0, 9)
        assert db.stats_for("t") is None  # drift 9: below the threshold
        assert db.catalog.stats_of("t") is None
        _insert(db, 9, 10)
        assert db.catalog.stats_of("t") is None  # the write took no snapshot
        assert _auto_runs(db) == 0
        db.execute(SELECT_T)
        snap = db.catalog.stats_of("t")
        assert snap is not None
        assert snap.row_count == 10
        assert _auto_runs(db) == 1

    def test_snapshot_is_fresh_for_the_planner(self, db):
        db.auto_analyze_threshold = 5
        _insert(db, 0, 5)
        # the refresh hands its snapshot to the caller, and the next lookup
        # accepts it (marker and catalog version match) without another run
        assert db.stats_for("t") is db.catalog.stats_of("t") is not None
        assert db.stats_for("t") is not None
        assert _auto_runs(db) == 1
        assert db.metrics.counter("stats.hits") == 1

    def test_counts_mutations_since_last_snapshot(self, db):
        db.auto_analyze_threshold = 10
        _insert(db, 0, 10)
        assert db.stats_for("t").row_count == 10
        _insert(db, 10, 19)  # 9 mutations: below threshold
        assert db.stats_for("t") is None
        assert _auto_runs(db) == 1
        assert db.metrics.counter("stats.stale") == 1
        _insert(db, 19, 20)  # 10th since the auto snapshot
        assert db.stats_for("t").row_count == 20
        assert _auto_runs(db) == 2

    def test_manual_analyze_resets_the_baseline(self, db):
        db.auto_analyze_threshold = 10
        _insert(db, 0, 8)
        db.analyze("t")
        _insert(db, 8, 12)  # only 4 since the manual snapshot
        assert db.stats_for("t") is None
        assert _auto_runs(db) == 0
        _insert(db, 12, 18)  # 10th since the manual snapshot
        assert db.stats_for("t").row_count == 18
        assert _auto_runs(db) == 1

    def test_updates_and_deletes_count_as_mutations(self, db):
        db.auto_analyze_threshold = 5
        _insert(db, 0, 2)
        # a versioned UPDATE invalidates + inserts, a DELETE invalidates
        db.execute("UPDATE t SET b = 99 WHERE a = 1")
        assert db.stats_for("t") is None  # drift 4
        db.execute("DELETE FROM t WHERE a = 0")
        assert _auto_runs(db) == 0
        snap = db.stats_for("t")  # drift 5
        assert _auto_runs(db) == 1
        assert snap.mutation_marker == stats_mod.mutation_marker(db.table("t")) == 5

    def test_threshold_is_per_table_and_only_read_tables_refresh(self, db):
        db.execute("CREATE TABLE u (k integer NOT NULL, PRIMARY KEY (k))")
        db.auto_analyze_threshold = 3
        _insert(db, 0, 3)
        for k in range(3):
            db.execute("INSERT INTO u (k) VALUES (?)", [k])
        db.execute(SELECT_T)  # reads t only
        assert db.catalog.stats_of("t") is not None
        assert db.catalog.stats_of("u") is None
        db.execute("SELECT count(*) FROM u, t WHERE u.k = t.a")
        assert db.catalog.stats_of("u") is not None
        assert _auto_runs(db) == 2  # t was still fresh


class TestPlanCache:
    def test_refreshing_statement_hits_the_cache_next_time(self, db):
        # the refresh bumps the catalog version of t; that must land before
        # the plan captures its dependencies, or the plan evicts itself
        db.auto_analyze_threshold = 4
        _insert(db, 0, 4)
        first = db.execute(SELECT_T).rows
        assert _auto_runs(db) == 1
        hits = db.metrics.counter("plan.cache_hit")
        assert db.execute(SELECT_T).rows == first
        assert db.metrics.counter("plan.cache_hit") == hits + 1
        assert db.metrics.counter("plan.cache_invalidate") == 0

    def test_cache_hits_and_system_views_never_refresh(self, db):
        db.auto_analyze_threshold = 4
        _insert(db, 0, 4)
        db.execute(SELECT_T)
        _insert(db, 4, 12)  # drift 8 >= threshold again
        runs = db.metrics.counter("stats.analyze_runs")
        marker = db.catalog.stats_of("t").mutation_marker
        db.execute(SELECT_T)  # cached plan: no planning, no lookup
        for view in sorted(introspect.SYSTEM_VIEWS):
            db.execute(f"SELECT * FROM {view}")
        assert introspect._stats_freshness(db, db.table("t"))[1] == 1
        assert db.metrics.counter("stats.analyze_runs") == runs
        assert db.catalog.stats_of("t").mutation_marker == marker
        assert _auto_runs(db) == 1
        # a new statement text is planned, and planning pays the refresh
        db.execute("SELECT max(b) FROM t")
        assert _auto_runs(db) == 2


class TestWritesNeverAnalyze:
    """The counter guard: no clock, so it cannot flake."""

    def test_a_thousand_mixed_dml_calls_collect_nothing(self):
        db = Database(profile=ArchitectureProfile(manual_system_time=True))
        db.execute(
            "CREATE TABLE v (k integer NOT NULL, x integer,"
            " ab date, ae date, sb timestamp, se timestamp,"
            " PRIMARY KEY (k), PERIOD FOR app_time (ab, ae),"
            " PERIOD FOR system_time (sb, se))"
        )
        db.execute("CREATE TABLE p (k integer NOT NULL, x integer, PRIMARY KEY (k))")
        db.auto_analyze_threshold = 16
        calls = 0
        for k in range(150):
            db.insert_row("v", {"k": k, "x": k, "ab": 0, "ae": 100})
            db.insert_row("p", {"k": k, "x": k})
            db.update_by_key("v", (k,), {"x": -k})
            db.update_by_key("p", (k,), {"x": -k})
            db.sequenced_update_by_key("v", (k,), {"x": 7}, "app_time", 10, 20)
            db.sequenced_delete_by_key("v", (k,), "app_time", 40, 50)
            calls += 6
            if k % 3 == 0:
                db.delete_by_key("v", (k,))
                db.delete_by_key("p", (k,))
                db.insert_row_explicit(
                    "v", {"k": 1000 + k, "x": k, "ab": 0, "ae": 9}, db.now() + 1, 10**9
                )
                calls += 3
        assert calls >= 1000
        assert stats_mod.mutation_marker(db.table("v")) > 16
        assert db.metrics.counter("stats.analyze_runs") == 0
        assert _auto_runs(db) == 0
        assert db.catalog.stats_of("v") is None
        assert db.catalog.stats_of("p") is None
