"""Unit tests for the experiment harness (micro scale, fast)."""

import pytest

from repro.bench.experiments import (
    ExperimentResult,
    fig02_basic_time_travel,
    fig06_implicit_explicit,
    fig07_tpch,
    fig16_loading,
    generate_workload,
    join_ordering,
    prepare_systems,
    table1_scenario_mix,
    table2_operations,
)
from repro.bench.service import BenchmarkService
from repro.core.queries import tpch
from repro.engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD
from repro.engine.plan.logical import scans_in_order
from repro.engine.sql.parser import parse_statement


@pytest.fixture(scope="module")
def micro():
    workload = generate_workload(h=0.0004, m=0.00005)
    systems = prepare_systems(workload, "AB")
    service = BenchmarkService(repetitions=2, discard=1)
    return workload, systems, service


def test_generate_workload_scales(micro):
    workload, _systems, _service = micro
    assert len(workload.transactions) == 50
    assert workload.meta.initial_counts["customer"] == 60


def test_prepare_systems_loads_named_subset(micro):
    _workload, systems, _service = micro
    assert set(systems) == {"A", "B"}
    for system in systems.values():
        assert system.execute("SELECT count(*) FROM orders").scalar() > 0


def test_statistics_free_host_is_unarmed_and_stays_greedy(micro):
    # `repro bench joins --no-stats` is the cost-model A/B baseline: an
    # armed threshold would make it cost-based at its first planned statement
    workload, analysed, service = micro
    for system in analysed.values():
        assert system.db.auto_analyze_threshold == DEFAULT_AUTO_ANALYZE_THRESHOLD
    systems = prepare_systems(workload, "A", analyze=False)
    db = systems["A"].db
    assert db.auto_analyze_threshold is None
    join_ordering(systems, workload, service)
    assert db.metrics.counter("stats.analyze_runs") == 0
    assert db.metrics.counter("plan.cost_based_joins") == 0
    assert db.metrics.counter("plan.greedy_joins") > 0
    lookups = db.metrics.counter("stats.lookups")
    assert db.metrics.counter("stats.misses") == lookups > 0  # all answered None
    q3 = db._engine().planner.logical_plan(parse_statement(tpch.tpch_query(3, "sys")))
    scans = scans_in_order(q3.relation)
    assert len(scans) == 3
    assert {scan.est_source for scan in scans} == {"heuristic"}


def test_table_experiments_return_structure(micro):
    workload, _systems, _service = micro
    t1 = table1_scenario_mix(workload)
    assert isinstance(t1, ExperimentResult)
    assert abs(sum(t1.extra["mix"].values()) - 1.0) < 1e-9
    t2 = table2_operations(workload)
    assert {row["table"] for row in t2.extra["rows"]} >= {"orders", "lineitem"}


def test_fig02_measurement_grid(micro):
    workload, systems, service = micro
    result = fig02_basic_time_travel(systems, workload, service)
    # 5 queries x 2 systems
    assert len(result.measurements) == 10
    assert "Fig 2" in result.text
    qids = {m.qid for m in result.measurements}
    assert qids == {"T1.app", "T1.sys", "T2.app", "T2.sys", "T5.all"}


def test_fig06_counts_history_scans(micro):
    workload, systems, service = micro
    result = fig06_implicit_explicit(systems, workload, service)
    assert set(result.extra["history_scans"]) == {"A", "B"}
    assert all(v >= 1 for v in result.extra["history_scans"].values())


def test_fig07_sys_mode_structure(micro):
    workload, systems, service = micro
    result = fig07_tpch(systems, workload, service, mode="sys", numbers=[1, 6])
    assert set(result.series) == {"A", "B"}
    for per_query in result.series.values():
        assert set(per_query) == {1, 6}
        assert all(value > 0 for value in per_query.values())
    assert "gm" in result.text


def test_fig07_app_mode_includes_slice(micro):
    workload, systems, service = micro
    result = fig07_tpch(systems, workload, service, mode="app", numbers=[1, 6])
    assert result.extra["slice_ratios"] is not None
    assert "app_slice" in result.text


def test_fig16_structure(micro):
    workload, _systems, _service = micro
    result = fig16_loading(workload, names="A", include_bulk_d=True)
    assert "A" in result.extra["cells"]
    assert "D(bulk)" in result.extra["totals"]
    assert result.extra["cells"]["A"]["p97"] >= result.extra["cells"]["A"]["median"]
