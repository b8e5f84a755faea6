"""Cooperative timeout through the execution environment's deadline."""

import time

import pytest

from repro.engine import Database
from repro.engine.errors import OperationalError, QueryTimeout
from repro.engine.expr import Env
from repro.bench.service import BenchmarkService


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE n (v integer NOT NULL, PRIMARY KEY (v))"
    )
    for i in range(200):
        database.execute("INSERT INTO n (v) VALUES (?)", [i])
    return database


class TestExecutionContext:
    def test_expired_deadline_raises_on_next_operator(self, db):
        planned = db._sql_engine.planner.plan_select(
            __import__("repro.engine.sql", fromlist=["parse_statement"])
            .parse_statement("SELECT v FROM n")
        )
        env = Env(timeout_s=0)
        with pytest.raises(QueryTimeout):
            planned.rows(env)

    def test_timeout_is_operational_error(self):
        assert issubclass(QueryTimeout, OperationalError)

    def test_no_deadline_executes_normally(self, db):
        assert len(db.execute("SELECT v FROM n", timeout_s=None).rows) == 200

    def test_guard_iter_is_identity_without_deadline(self):
        env = Env()
        items = [1, 2, 3]
        assert env.guard_iter(items) is items

    def test_guard_iter_polls_deadline(self):
        env = Env(timeout_s=0)
        with pytest.raises(QueryTimeout):
            list(env.guard_iter(iter(range(10_000)), every=64))


class TestEngineTimeout:
    def test_zero_timeout_aborts_query(self, db):
        with pytest.raises(QueryTimeout):
            db.execute(
                "SELECT a.v FROM n a, n b WHERE a.v + b.v > 0", timeout_s=0
            )

    def test_cached_plan_respects_timeout(self, db):
        sql = "SELECT v FROM n WHERE v < 5"
        assert len(db.execute(sql).rows) == 5  # plan is now cached
        with pytest.raises(QueryTimeout):
            db.execute(sql, timeout_s=0)

    def test_timed_out_query_stops_early(self, db):
        # a cross-product of 200x200x200 rows takes far longer than the
        # budget; cooperative abort must return well before completing it
        started = time.perf_counter()
        with pytest.raises(QueryTimeout):
            db.execute(
                "SELECT count(*) FROM n a, n b, n c"
                " WHERE a.v + b.v + c.v > 999999",
                timeout_s=0.02,
            )
        assert time.perf_counter() - started < 5.0

    def test_dbapi_connection_timeout(self, db):
        from repro.engine import dbapi

        conn = dbapi.connect(database=db)
        conn.timeout_s = 0
        cur = conn.cursor()
        with pytest.raises(QueryTimeout):
            cur.execute("SELECT v FROM n")
        conn.timeout_s = None
        assert len(cur.execute("SELECT v FROM n").fetchall()) == 200


class TestBenchServiceIntegration:
    def test_timeout_measurement_flagged_and_early(self, db):
        service = BenchmarkService(repetitions=5, discard=1, timeout_s=0.02)
        m = service.measure_sql(
            db,
            "SELECT count(*) FROM n a, n b, n c WHERE a.v + b.v + c.v > 999999",
            qid="Q-timeout",
        )
        assert m.timed_out
        assert m.times  # the cutoff instant was recorded
        assert m.label().startswith("Q-timeout")
        assert "TIMEOUT" in m.label()

    def test_fast_queries_unaffected_by_timeout_setting(self, db):
        # disable fluctuation adaptation: the repetition count must be exact
        service = BenchmarkService(
            repetitions=4, discard=1, timeout_s=10.0,
            fluctuation_threshold=float("inf"),
        )
        m = service.measure_sql(db, "SELECT count(*) FROM n", qid="Q-fast")
        assert not m.timed_out
        assert len(m.times) == 3
