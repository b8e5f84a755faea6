"""Benchmark service and report-formatting tests."""

import math
import time

import pytest

from repro.bench.report import (
    format_figure,
    format_latency_table,
    format_ratio_table,
    format_series,
    geometric_mean,
)
from repro.bench.service import BenchmarkService, Measurement


class TestMeasurement:
    def _measurement(self, times):
        m = Measurement(qid="q", system="A")
        m.times = times
        return m

    def test_statistics(self):
        m = self._measurement([0.3, 0.1, 0.2])
        assert m.median == 0.2
        assert abs(m.mean - 0.2) < 1e-9
        assert m.best == 0.1

    def test_percentile(self):
        m = self._measurement([float(i) for i in range(1, 101)])
        assert abs(m.percentile(97) - 97.03) < 0.01
        assert m.percentile(50) == m.median

    def test_percentile_linear_interpolation_pinned(self):
        # Linear interpolation between order statistics, rank = p/100*(n-1):
        # nearest-rank would return 3.0 and 4.0 for p50/p95 here.
        m = self._measurement([4.0, 1.0, 3.0, 2.0])
        assert m.percentile(50) == pytest.approx(2.5)
        assert m.percentile(95) == pytest.approx(3.85)
        assert m.percentile(99) == pytest.approx(3.97)

    def test_percentile_endpoints_and_singleton(self):
        m = self._measurement([4.0, 1.0, 3.0, 2.0])
        assert m.percentile(0) == 1.0
        assert m.percentile(100) == 4.0
        single = self._measurement([0.125])
        for pct in (0, 50, 95, 99, 100):
            assert single.percentile(pct) == 0.125

    def test_empty_is_infinite(self):
        m = self._measurement([])
        assert math.isinf(m.median)

    def test_percentile_of_empty_raises(self):
        m = self._measurement([])
        with pytest.raises(ValueError) as excinfo:
            m.percentile(95)
        # the message names the cell, not just "index out of range"
        assert "q/A" in str(excinfo.value)
        assert "no recorded samples" in str(excinfo.value)

    def test_label(self):
        m = self._measurement([0.001])
        assert "1.00 ms" in m.label()
        m.timed_out = True
        m.timeout_s = 5
        assert "TIMEOUT" in m.label()

    def test_label_includes_setting(self):
        m = Measurement(qid="q", system="A", setting="with index")
        m.times = [0.001]
        assert "[with index]" in m.label()
        m.timed_out = True
        m.timeout_s = 5
        assert "[with index]" in m.label()


class TestService:
    def test_discard_warmup(self):
        # disable the variance adaptation: nanosecond no-op timings are
        # noisy enough to trigger it spuriously
        service = BenchmarkService(
            repetitions=5, discard=2, fluctuation_threshold=float("inf")
        )
        calls = []
        measurement = service.measure_callable(lambda: calls.append(1))
        assert len(measurement.discarded) == 2
        assert len(measurement.times) == 3
        assert len(calls) == 5

    def test_discard_must_be_smaller(self):
        with pytest.raises(ValueError):
            BenchmarkService(repetitions=3, discard=3)

    def test_rows_counted(self):
        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_callable(lambda: [1, 2, 3])
        assert measurement.rows == 3

    def test_fluctuation_adds_repetitions(self):
        # a bimodal callable triggers the adaptation path
        state = {"slow": False}

        def flaky():
            state["slow"] = not state["slow"]
            time.sleep(0.003 if state["slow"] else 0.0001)

        service = BenchmarkService(
            repetitions=3, discard=1, max_repetitions=8,
            fluctuation_threshold=0.2,
        )
        measurement = service.measure_callable(flaky)
        assert len(measurement.times) + len(measurement.discarded) > 3

    def test_timeout_stops_early(self):
        service = BenchmarkService(repetitions=5, discard=1, timeout_s=0.001)
        measurement = service.measure_callable(lambda: time.sleep(0.01))
        assert measurement.timed_out
        assert len(measurement.times) + len(measurement.discarded) <= 2

    def test_measure_sql(self):
        from repro.engine import Database

        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_sql(db, "SELECT a FROM t", qid="probe")
        assert measurement.rows == 1
        assert measurement.qid == "probe"

    def test_measure_sql_attaches_diagnostics(self):
        from repro.systems import make_system

        system = make_system("A")
        system.db.execute(
            "CREATE TABLE t (a integer, sb timestamp, se timestamp,"
            " PERIOD FOR system_time (sb, se))"
        )
        system.db.execute("INSERT INTO t (a) VALUES (1)")
        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_sql(
            system, "SELECT * FROM t FOR SYSTEM_TIME ALL", qid="probe"
        )
        assert [d.code for d in measurement.diagnostics] == ["TQ010"]

    def test_measure_sql_captures_metric_deltas(self):
        from repro.engine import Database

        db = Database()
        db.execute("CREATE TABLE t (a integer)")
        db.execute("INSERT INTO t (a) VALUES (1)")
        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_sql(db, "SELECT a FROM t", qid="probe")
        # two repetitions scanned the current partition twice
        assert measurement.metrics.get("storage.current_scans") == 2
        # deltas are per-cell: a second measurement starts from zero
        again = service.measure_sql(db, "SELECT a FROM t", qid="probe")
        assert again.metrics.get("storage.current_scans") == 2

    def test_measure_sql_captures_statement_telemetry(self):
        from repro.systems import make_system

        system = make_system("A")
        system.db.execute(
            "CREATE TABLE t (a integer, sb timestamp, se timestamp,"
            " PERIOD FOR system_time (sb, se))"
        )
        system.db.execute("INSERT INTO t (a) VALUES (1)")
        system.enable_telemetry()
        # disable fluctuation adaptation: the call count must be exact
        service = BenchmarkService(
            repetitions=3, discard=1, fluctuation_threshold=float("inf")
        )
        sql = "SELECT * FROM t FOR SYSTEM_TIME ALL"
        measurement = service.measure_sql(system, sql, qid="probe")
        (row,) = measurement.statements
        # per-cell delta: exactly this cell's repetitions, incl. warm-up
        assert row["calls"] == 3
        assert row["cache_misses"] == 1 and row["cache_hits"] == 2
        assert row["rows_scanned"] >= 3
        # the analyzer finding (TQ010) is attributed to the statement
        assert row["diagnostics"] == len(measurement.diagnostics) == 1
        # a second cell starts from a fresh store
        again = service.measure_sql(system, sql, qid="probe")
        assert again.statements[0]["calls"] == 3

    def test_measure_sql_without_telemetry_store(self):
        from repro.engine import Database

        db = Database()  # telemetry disabled by default
        db.execute("CREATE TABLE t (a integer)")
        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_sql(db, "SELECT a FROM t")
        assert measurement.statements == []

    def test_measure_sql_without_lint_surface(self):
        from repro.engine import Database

        db = Database()
        db.execute("CREATE TABLE t (a integer)")

        # a target without a .lint attribute: diagnostics stay empty

        class Bare:
            def execute(self, sql, params=None, timeout_s=None):
                return db.execute(sql, params)

        service = BenchmarkService(repetitions=2, discard=1)
        measurement = service.measure_sql(Bare(), "SELECT a FROM t")
        assert measurement.diagnostics == []


class TestReports:
    def test_geometric_mean(self):
        assert abs(geometric_mean([1, 100]) - 10.0) < 1e-9
        assert math.isnan(geometric_mean([]))
        assert abs(geometric_mean([2.0]) - 2.0) < 1e-9

    def test_format_figure(self):
        m = Measurement(qid="T1", system="A")
        m.times = [0.002]
        text = format_figure("My Figure", [m])
        assert "My Figure" in text
        assert "T1" in text and "2.00 ms" in text and "*" in text

    def test_format_figure_timeout(self):
        m = Measurement(qid="T1", system="A", timeout_s=5.0)
        m.timed_out = True
        text = format_figure("F", [m])
        assert "TIMEOUT" in text

    def test_format_ratio_table(self):
        text = format_ratio_table(
            "Fig", {"A": {1: 2.0, 2: 8.0}, "B": {1: 3.0, 2: 27.0}},
            {"A": [], "B": []},
        )
        assert "gm" in text
        assert "4.00" in text  # gm of 2 and 8
        assert "9.00" in text  # gm of 3 and 27

    def test_format_ratio_table_marks_timeouts(self):
        text = format_ratio_table("Fig", {"A": {1: 2.0}}, {"A": [2]})
        assert "timeout" in text

    def test_format_series(self):
        text = format_series(
            "S", "m", {"A": [(1, 0.001), (2, 0.002)], "B": [(1, 0.003)]}
        )
        assert "1.00ms" in text and "3.00ms" in text

    def test_format_latency_table(self):
        text = format_latency_table(
            "L", {"A": {"median": 0.001, "p97": 0.005}}
        )
        assert "median" in text and "p97" in text and "5.000ms" in text

    def test_format_lint_summary_tallies_by_code(self):
        from types import SimpleNamespace

        from repro.bench.report import format_lint_summary

        diag = SimpleNamespace(code="TQ001", severity="info")
        a = Measurement(qid="T1", system="A")
        a.diagnostics = [diag]
        b = Measurement(qid="T2", system="B")
        b.diagnostics = [diag]
        text = format_lint_summary("Findings", [a, b])
        assert "TQ001" in text
        assert "A,B" in text
        assert " 2" in text  # two distinct qids

    def test_format_lint_summary_empty(self):
        from repro.bench.report import format_lint_summary

        assert format_lint_summary("Findings", [Measurement(qid="q", system="A")]) == ""

    def test_format_cache_stats(self):
        from repro.bench.report import format_cache_stats

        text = format_cache_stats("Plan cache", {
            "A": {"size": 3, "hits": 9, "misses": 1, "invalidations": 0},
        })
        assert "90.0%" in text
        assert "hit rate" in text

    def test_format_cache_stats_no_lookups(self):
        from repro.bench.report import format_cache_stats

        text = format_cache_stats("Plan cache", {"A": {}})
        assert "0.0%" in text
