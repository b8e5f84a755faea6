"""Observability layer: tracer spans, metrics registry, sinks."""

import json

import pytest

from repro.engine import Database
from repro.engine.errors import ProgrammingError, QueryTimeout
from repro.engine.expr import Env
from repro.engine.obs import (
    COUNTERS,
    HISTOGRAMS,
    Histogram,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    render_span_tree,
)
from repro.engine.plan import operators
from repro.engine.sql import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE n (v integer NOT NULL, PRIMARY KEY (v))")
    for i in range(100):
        database.execute("INSERT INTO n (v) VALUES (?)", [i])
    return database


@pytest.fixture
def traced_db(db):
    """A database with a ring-buffer sink installed (tracing active)."""
    ring = RingBufferSink()
    db.tracer.add_sink(ring)
    return db, ring


# -- metrics registry -------------------------------------------------------


class TestMetricsRegistry:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("txn.commits")
        registry.inc("txn.commits", 2)
        assert registry.counter("txn.commits") == 3

    def test_all_declared_counters_start_at_zero(self):
        registry = MetricsRegistry()
        counters = registry.counters()
        assert set(counters) == set(COUNTERS)
        assert all(v == 0 for v in counters.values())

    def test_undeclared_counter_raises_with_clear_message(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError) as excinfo:
            registry.inc("txn.comits")  # typo
        assert "COUNTERS" in str(excinfo.value)
        assert "txn.comits" in str(excinfo.value)

    def test_undeclared_histogram_raises(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError) as excinfo:
            registry.observe("no.such_histogram", 1.0)
        assert "HISTOGRAMS" in str(excinfo.value)

    def test_nonzero_filter(self):
        registry = MetricsRegistry()
        registry.inc("index.btree_probes")
        assert registry.counters(nonzero=True) == {"index.btree_probes": 1}

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("txn.commits")
        registry.observe("query.execute_s", 0.5)
        registry.reset()
        assert registry.counters(nonzero=True) == {}
        assert registry.histogram("query.execute_s").count == 0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.observe("query.execute_s", 0.25)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "histograms"}
        assert set(snapshot["histograms"]) == set(HISTOGRAMS)
        summary = snapshot["histograms"]["query.execute_s"]
        assert summary["count"] == 1
        assert summary["mean"] == 0.25


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert abs(summary["mean"] - 2.0) < 1e-9

    def test_percentile_interpolates(self):
        hist = Histogram()
        for v in range(1, 101):
            hist.observe(float(v))
        assert abs(hist.percentile(95) - 95.05) < 0.01

    def test_empty_summary_is_none(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["mean"] is None
        assert summary["p95"] is None

    def test_reservoir_is_bounded(self):
        hist = Histogram(reservoir=4)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100  # statistics keep counting
        assert hist.percentile(0) == 96.0  # reservoir holds the last 4


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_inactive_tracer_is_a_noop(self):
        tracer = Tracer()
        assert tracer.active is False
        assert tracer.start("anything") is None
        null_a = tracer.span("a")
        null_b = tracer.span("b")
        assert null_a is null_b  # shared no-op instance, nothing allocated
        with null_a as span:
            span.set(whatever=1)

    def test_sink_activates_tracing(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        assert tracer.active is True
        tracer.remove_sink(ring)
        assert tracer.active is False

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        with tracer.span("root"):
            with tracer.span("child1"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child2"):
                pass
        (root,) = ring.roots()
        assert [c.name for c in root.children] == ["child1", "child2"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert root.children[0].parent_id == root.span_id

    def test_children_emitted_before_parents(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in ring.spans()] == ["inner", "outer"]

    def test_exception_marks_span_aborted(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = ring.spans()
        assert span.status == "aborted"
        assert span.attrs["aborted"] is True
        assert span.duration is not None

    def test_finish_unwinds_abandoned_descendants(self):
        # an exception that unwinds several frames at once may leave inner
        # spans open; finishing the outer span must close them all
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        outer = tracer.start("outer")
        tracer.start("middle")
        tracer.start("inner")
        tracer.finish(outer, aborted=True)
        spans = {s.name: s for s in ring.spans()}
        assert set(spans) == {"outer", "middle", "inner"}
        assert all(s.duration is not None for s in spans.values())
        assert all(s.status == "aborted" for s in spans.values())

    def test_double_finish_is_ignored(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink())
        span = tracer.start("once")
        tracer.finish(span)
        tracer.finish(span)
        assert len(ring) == 1

    def test_to_dict_recursive(self):
        tracer = Tracer()
        tracer.add_sink(ring := RingBufferSink())
        with tracer.span("root", sql="SELECT 1"):
            with tracer.span("leaf"):
                pass
        payload = ring.roots()[0].to_dict(recursive=True)
        assert payload["name"] == "root"
        assert payload["attrs"] == {"sql": "SELECT 1"}
        assert payload["children"][0]["name"] == "leaf"
        json.dumps(payload)  # JSONL-serialisable as-is

    def test_render_span_tree(self):
        tracer = Tracer()
        tracer.add_sink(ring := RingBufferSink())
        with tracer.span("query", sql="SELECT 1") as span:
            span.set(rows=1)
            with tracer.span("parse"):
                pass
        text = render_span_tree(ring.roots()[0])
        assert "query [sql=SELECT 1, rows=1]" in text
        assert "\n  parse" in text  # indented child
        assert "ms" in text


# -- sinks -------------------------------------------------------------------


class TestSinks:
    def test_ring_buffer_capacity(self):
        tracer = Tracer()
        ring = tracer.add_sink(RingBufferSink(capacity=2))
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in ring.spans()] == ["b", "c"]
        ring.clear()
        assert len(ring) == 0

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer()
        with JsonlSink(path) as sink:
            tracer.add_sink(sink)
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_id = {r["span_id"]: r for r in records}
        inner = by_id[records[0]["span_id"]]
        assert by_id[inner["parent_id"]]["name"] == "outer"

    def test_jsonl_sink_is_line_atomic_under_concurrency(self, tmp_path):
        # Many sessions may share one sink; every emitted line must parse
        # on its own — whole lines interleave, fragments never do.
        import threading

        path = tmp_path / "concurrent.jsonl"
        per_thread = 50
        with JsonlSink(path) as sink:
            def worker(label):
                tracer = Tracer()
                tracer.add_sink(sink)
                for i in range(per_thread):
                    with tracer.span(f"{label}-{i}", attrs={"payload": "x" * 256}):
                        pass

            threads = [
                threading.Thread(target=worker, args=(f"t{n}",)) for n in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        lines = path.read_text().splitlines()
        assert len(lines) == 8 * per_thread
        names = {json.loads(line)["name"] for line in lines}  # every line parses
        assert len(names) == 8 * per_thread


# -- engine tracing ----------------------------------------------------------


class TestEngineTracing:
    def test_lifecycle_spans(self, traced_db):
        db, ring = traced_db
        ring.clear()
        db.execute("SELECT v FROM n WHERE v < 5")
        (root,) = ring.roots()
        assert root.name == "query"
        assert root.attrs["sql"] == "SELECT v FROM n WHERE v < 5"
        assert root.attrs["rows"] == 5
        names = [c.name for c in root.children]
        assert names == [
            "plan_cache.lookup", "parse", "plan.analyze", "plan.rewrite",
            "plan.physical", "execute",
        ]

    def test_cache_hit_skips_planning_spans(self, traced_db):
        db, ring = traced_db
        db.execute("SELECT v FROM n WHERE v < 5")
        ring.clear()
        db.execute("SELECT v FROM n WHERE v < 5")
        (root,) = ring.roots()
        names = [c.name for c in root.children]
        assert names == ["plan_cache.lookup", "execute"]
        assert root.children[0].attrs["outcome"] == "hit"

    def test_operator_spans_under_execute(self, traced_db):
        db, ring = traced_db
        ring.clear()
        db.execute("SELECT count(*) FROM n")
        (root,) = ring.roots()
        execute = next(c for c in root.children if c.name == "execute")
        operators = [s for s in execute.walk() if s.name == "operator"]
        assert operators  # at least the Access leaf
        assert all("op" in s.attrs and "rows" in s.attrs for s in operators)

    def test_phase_durations_sum_within_root(self, traced_db):
        db, ring = traced_db
        ring.clear()
        db.execute("SELECT v FROM n WHERE v < 50")
        (root,) = ring.roots()
        phase_total = sum(c.duration for c in root.children)
        assert 0 < phase_total <= root.duration

    def test_no_spans_without_sinks(self, db):
        assert db.tracer.active is False
        db.execute("SELECT v FROM n WHERE v < 5")
        assert db.tracer._stack == []

    def test_dml_and_ddl_also_traced(self, traced_db):
        db, ring = traced_db
        ring.clear()
        db.execute("INSERT INTO n (v) VALUES (1000)")
        db.execute("UPDATE n SET v = 1001 WHERE v = 1000")
        roots = ring.roots()
        assert [r.name for r in roots] == ["query", "query"]
        assert roots[0].attrs["rows"] == 1  # rowcount


class TestTracingUnderAbort:
    """Satellite: an aborted query still emits a complete span tree."""

    def _assert_complete(self, root):
        for span in root.walk():
            assert span.duration is not None, f"{span.name} left open"
        for child in root.children:
            assert child.parent_id == root.span_id

    def test_timeout_emits_complete_aborted_tree(self, traced_db):
        db, ring = traced_db
        ring.clear()
        with pytest.raises(QueryTimeout):
            db.execute("SELECT a.v FROM n a, n b, n c", timeout_s=0)
        (root,) = ring.roots()
        assert root.name == "query"
        assert root.status == "aborted"
        assert root.attrs["aborted"] is True
        self._assert_complete(root)
        # the execute phase (where the deadline fired) is aborted too
        execute = next(c for c in root.children if c.name == "execute")
        assert execute.attrs.get("aborted") is True

    def test_timeout_on_cached_plan(self, traced_db):
        db, ring = traced_db
        sql = "SELECT a.v FROM n a, n b, n c"
        with pytest.raises(QueryTimeout):
            db.execute(sql, timeout_s=0)
        ring.clear()
        with pytest.raises(QueryTimeout):
            db.execute(sql, timeout_s=0)
        (root,) = ring.roots()
        assert [c.name for c in root.children] == [
            "plan_cache.lookup", "execute",
        ]
        self._assert_complete(root)

    def test_failed_operators_emit_aborted_spans(self, db):
        ring = db.tracer.add_sink(RingBufferSink())
        planned = db._sql_engine.planner.plan_select(
            parse_statement("SELECT (SELECT v FROM n) FROM n")
        )
        ring.clear()  # drop the planning spans; the abort path is the target
        # the scan under the projection finishes, then the projection's
        # scalar subquery raises: it returns 100 rows
        with pytest.raises(ProgrammingError):
            planned.rows(Env(tracer=db.tracer))
        assert ring.spans()  # operator spans were recorded, not lost
        assert all(s.duration is not None for s in ring.spans())
        assert any(s.status == "aborted" for s in ring.spans())
        assert db.tracer._stack == []

    def test_aborted_tree_serialises_whole(self, traced_db):
        # what a span consumer (``repro trace --jsonl``) reads back from an
        # aborted query: one root whose recursive dict holds every span
        db, ring = traced_db
        ring.clear()
        with pytest.raises(QueryTimeout):
            db.execute("SELECT a.v FROM n a, n b", timeout_s=0)
        (root,) = ring.roots()
        payload = json.loads(json.dumps(root.to_dict(recursive=True)))
        assert payload["status"] == "aborted"
        assert payload["attrs"]["aborted"] is True

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        nodes = list(walk(payload))
        assert len(nodes) == len(ring.spans())
        assert all(node["duration_s"] >= 0 for node in nodes)

    def test_parse_error_emits_aborted_root(self, traced_db):
        db, ring = traced_db
        ring.clear()
        with pytest.raises(Exception):
            db.execute("SELECT FROM WHERE")
        (root,) = ring.roots()
        assert root.status == "aborted"
        self._assert_complete(root)


# -- engine metrics ----------------------------------------------------------


class TestEngineMetrics:
    def test_scan_counters(self, db):
        db.metrics.reset()
        db.execute("SELECT v FROM n")
        counters = db.metrics.counters(nonzero=True)
        assert counters["storage.current_scans"] == 1
        assert counters["storage.current_rows_scanned"] >= 100

    def test_plan_cache_counters(self, db):
        db.metrics.reset()
        db.execute("SELECT v FROM n WHERE v = 1")
        db.execute("SELECT v FROM n WHERE v = 1")
        assert db.metrics.counter("plan.cache_miss") == 1
        assert db.metrics.counter("plan.cache_hit") == 1

    def test_version_and_txn_counters(self):
        database = Database()
        database.execute(
            "CREATE TABLE t (a integer, b integer, sb timestamp,"
            " se timestamp, PRIMARY KEY (a),"
            " PERIOD FOR system_time (sb, se))"
        )
        database.metrics.reset()
        database.execute("INSERT INTO t (a, b) VALUES (1, 10)")
        database.execute("UPDATE t SET b = 20 WHERE a = 1")
        counters = database.metrics.counters(nonzero=True)
        assert counters["txn.versions_written"] == 2  # insert + new version
        assert counters["storage.versions_invalidated"] == 1
        assert counters["txn.commits"] == 2

    def test_execute_histogram_observed(self, db):
        db.metrics.reset()
        db.execute("SELECT v FROM n WHERE v < 5")
        hist = db.metrics.histogram("query.execute_s")
        assert hist.count == 1
        assert hist.max > 0

    def test_btree_probe_counter(self):
        # index a non-key column: equality on the primary key would take the
        # pk-probe access path instead of the secondary B+-tree
        database = Database()
        database.execute(
            "CREATE TABLE u (a integer, b integer, PRIMARY KEY (a))"
        )
        for i in range(50):
            database.execute("INSERT INTO u (a, b) VALUES (?, ?)", [i, i * 2])
        database.execute("CREATE INDEX u_b ON u (b)")
        database.metrics.reset()
        database.execute("SELECT a FROM u WHERE b = 42")
        assert database.metrics.counter("index.btree_probes") >= 1

    def test_system_surface(self):
        from repro.systems import make_system

        system = make_system("A")
        system.db.execute("CREATE TABLE t (a integer, PRIMARY KEY (a))")
        system.db.execute("INSERT INTO t (a) VALUES (1)")
        system.reset_metrics()
        system.execute("SELECT a FROM t")
        snapshot = system.metrics()
        assert snapshot["counters"]["storage.current_scans"] == 1
        assert system.tracer is system.db.tracer


class TestCacheHitPathDeltas:
    """Satellite pin: a plan-cache hit must still update the statement
    store and the query.execute_s histogram, while the span tree keeps
    skipping parse/plan.* work."""

    def test_cache_hit_still_updates_telemetry_and_histogram(self, db):
        db.enable_telemetry()
        ring = db.tracer.add_sink(RingBufferSink())
        sql = "SELECT v FROM n WHERE v < 5"
        db.execute(sql)  # miss: parse + plan + execute
        db.metrics.reset()
        ring.clear()
        before = {r["fingerprint"]: dict(r) for r in db.telemetry.snapshot()}
        db.execute(sql)  # hit
        # the span tree proves the hit skipped parse/rewrite work...
        (root,) = ring.roots()
        names = [c.name for c in root.children]
        assert names == ["plan_cache.lookup", "execute"]
        assert root.children[0].attrs["outcome"] == "hit"
        # ...yet the histogram observed the execute phase anyway...
        assert db.metrics.histogram("query.execute_s").count == 1
        assert db.metrics.counter("plan.cache_hit") == 1
        # ...and the statement entry advanced by exactly one hit call
        (after,) = db.telemetry.snapshot()
        prior = before[after["fingerprint"]]
        assert after["calls"] == prior["calls"] + 1
        assert after["cache_hits"] == prior["cache_hits"] + 1
        assert after["cache_misses"] == prior["cache_misses"]
        assert after["time_total_s"] > prior["time_total_s"]
        assert after["rows_scanned"] > prior["rows_scanned"]

    def test_telemetry_without_tracing_keeps_histogram_updates(self, db):
        db.enable_telemetry()
        assert db.tracer.active is False
        sql = "SELECT count(*) FROM n"
        db.execute(sql)
        db.metrics.reset()
        db.execute(sql)  # cache hit, no tracer
        assert db.metrics.histogram("query.execute_s").count == 1
        (row,) = [
            r for r in db.telemetry.snapshot() if "count" in r["query"]
        ]
        assert row["calls"] == 2
        assert row["cache_hits"] == 1


class TestIdleFastPath:
    """With telemetry off, no sink and no timeout, a SELECT takes the
    session's allocation-free path on a plan-cache miss and hit alike."""

    def test_idle_select_builds_no_context_and_records_nothing(
        self, db, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the idle fast path was left")

        monkeypatch.setattr(operators, "NodeMetrics", forbidden)
        monkeypatch.setattr("repro.engine.obs.tracer.Span", forbidden)
        monkeypatch.setattr(db.telemetry, "record", forbidden)
        assert not db.telemetry.enabled and not db.tracer.active
        sql = "SELECT count(*) FROM n WHERE v < 50"
        for outcome in ("plan.cache_miss", "plan.cache_hit"):
            before = db.metrics.counter(outcome)
            assert db.execute(sql).rows == [(50,)]
            assert db.metrics.counter(outcome) == before + 1
        assert len(db.telemetry) == 0
