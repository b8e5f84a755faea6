"""EXPLAIN ANALYZE: per-operator row counts, timings and access choices."""

import re

import pytest

from repro.engine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE item ("
        " id integer NOT NULL, price integer,"
        " sb timestamp, se timestamp,"
        " PRIMARY KEY (id), PERIOD FOR system_time (sb, se))"
    )
    for i in range(30):
        database.execute(
            "INSERT INTO item (id, price) VALUES (?, ?)", [i, i * 10]
        )
    for i in range(0, 30, 3):
        database.execute("UPDATE item SET price = ? WHERE id = ?", [i, i])
    return database


class TestExplainAnalyze:
    def test_reports_actual_rows_and_time(self, db):
        text = db.explain_analyze("SELECT id FROM item WHERE price > 100")
        assert "actual rows=" in text
        assert re.search(r"time=\d+\.\d+ ms", text)
        assert "loops=1" in text

    def test_statement_form_returns_plan_rows(self, db):
        result = db.execute("EXPLAIN ANALYZE SELECT count(*) FROM item")
        assert result.columns == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "Aggregate" in text
        assert "actual rows=1" in text

    def test_plain_explain_statement_has_no_counters(self, db):
        result = db.execute("EXPLAIN SELECT id FROM item")
        text = "\n".join(row[0] for row in result.rows)
        assert "Access(item" in text
        assert "actual rows" not in text

    def test_time_travel_golden_row_counts(self, db):
        """Fig. 2-style time-travel: the counters expose exactly how many
        versions each operator saw."""
        text = db.explain_analyze(
            "SELECT id, price FROM item FOR SYSTEM_TIME AS OF ? WHERE id < 10",
            [31],  # after all 30 inserts, before the updates
        )
        lines = text.splitlines()
        access = next(line for line in lines if "Access(item" in line)
        final = next(line for line in lines if "Finalize" in line)
        # both partitions are read (no pruning, Fig 6) ...
        assert "partitions=['current', 'history']" in access
        # ... and the access path reports its per-partition strategy
        assert "current: scan" in access
        # at tick 31 all 30 rows exist; 10 satisfy id < 10
        assert "actual rows=10" in final

    def test_access_detail_shows_index_choice(self, db):
        db.execute("CREATE INDEX i_price ON item (price)")
        text = db.explain_analyze(
            "SELECT id FROM item WHERE price = ?", [50]
        )
        access = next(
            line for line in text.splitlines() if "Access(item" in line
        )
        assert "index[i_price]" in access

    def test_correlated_subquery_reports_loops(self, db):
        text = db.explain_analyze(
            "SELECT id FROM item i WHERE price = "
            "(SELECT max(price) FROM item x WHERE x.id = i.id)"
        )
        loops = [
            int(m.group(1)) for m in re.finditer(r"loops=(\d+)", text)
        ]
        assert max(loops) == 30  # inner plan ran once per outer row

    def test_rejects_non_select(self, db):
        from repro.engine.errors import ProgrammingError, SqlSyntaxError

        with pytest.raises((ProgrammingError, SqlSyntaxError)):
            db.execute("EXPLAIN ANALYZE DELETE FROM item")


class TestPlanCacheLine:
    """explain_analyze reports the plan-cache outcome (plan.cache_* reuse)."""

    def test_first_call_is_a_miss(self, db):
        text = db.explain_analyze("SELECT id FROM item WHERE id = 3")
        assert text.endswith("plan cache: miss")

    def test_repeat_call_is_a_hit(self, db):
        sql = "SELECT id FROM item WHERE id = 3"
        db.explain_analyze(sql)
        assert db.explain_analyze(sql).endswith("plan cache: hit")
        # the counters behind the report are the shared plan.cache_* metrics
        assert db.metrics.counter("plan.cache_hit") >= 1

    def test_shares_cache_with_execute(self, db):
        sql = "SELECT id FROM item WHERE id = 4"
        db.execute(sql)  # populates the cache
        assert db.explain_analyze(sql).endswith("plan cache: hit")
        # and the other way round: analyze primes execute's cache
        db.metrics.reset()
        db.execute(sql)
        assert db.metrics.counter("plan.cache_hit") == 1

    def test_cache_hit_still_reports_working_set(self, db):
        """Regression: a cached plan re-runs under a fresh metrics-collecting
        Env, so the per-operator ``ws≈`` bytes must not vanish
        (or zero out) just because planning was skipped."""
        sql = "SELECT id FROM item WHERE price > 100"
        db.execute(sql)  # populates the cache
        text = db.explain_analyze(sql)
        assert text.endswith("plan cache: hit")
        ws = [
            m.group(1)
            for m in re.finditer(r"ws≈(\S+?B)", text)
        ]
        plan_lines = [
            line for line in text.splitlines() if "actual rows=" in line
        ]
        assert len(ws) == len(plan_lines)  # every operator reports a ws
        assert any(value not in ("0B", "0.0B") for value in ws)

    def test_statement_form_bypasses(self, db):
        result = db.execute("EXPLAIN ANALYZE SELECT id FROM item")
        text = "\n".join(row[0] for row in result.rows)
        assert "plan cache: bypass" in text
        # the wrapped text must not shadow the inner SELECT's cache slot
        rows = db.execute("EXPLAIN ANALYZE SELECT id FROM item")
        assert rows.columns == ["plan"]


class TestDbapiSurface:
    def test_explain_analyze_through_cursor(self, db):
        conn = __import__(
            "repro.engine.dbapi", fromlist=["connect"]
        ).connect(database=db)
        cur = conn.cursor()
        cur.execute("EXPLAIN ANALYZE SELECT id FROM item WHERE id = 3")
        rows = cur.fetchall()
        assert cur.description[0][0] == "plan"
        assert any("actual rows=1" in row[0] for row in rows)
