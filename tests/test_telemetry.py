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
from repro.engine.plan.context import ResourceCounters


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
        store = StatementStatsStore(enabled=True)
        resources = ResourceCounters()
        resources.rows_scanned = 100
        resources.batches = 3
        resources.peak_ws_bytes = 4096
        store.record("SELECT v FROM n", 0.001, resources=resources)
        smaller = ResourceCounters()
        smaller.rows_scanned = 10
        smaller.batches = 1
        smaller.peak_ws_bytes = 512
        store.record("SELECT v FROM n", 0.001, resources=smaller)
        (row,) = store.snapshot()
        assert row["rows_scanned"] == 110
        assert row["batches"] == 4
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
