"""One function per paper table/figure (the per-experiment index of DESIGN.md).

Every function takes prepared systems (see :func:`prepare_systems`) plus the
generator workload and a :class:`BenchmarkService`, and returns an
:class:`ExperimentResult` holding raw measurements and the rendered,
paper-style report.  The pytest benches under ``benchmarks/`` are thin
wrappers over these functions; examples reuse them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..core.generator import BitemporalDataGenerator, GeneratorConfig
from ..core.loader import Loader, load_nontemporal_baseline
from ..core.queries import Workload
from ..core.queries import tpch
from ..core.stats import format_operations_table, operations_table, scenario_mix
from ..engine.database import Database
from ..systems import IndexSetting, apply_index_setting, drop_tuning_indexes, make_system
from ..systems.system_e import SystemE
from .report import (
    format_figure,
    format_latency_table,
    format_ratio_table,
    format_series,
)
from .service import Measurement

WORKLOAD = Workload()


@dataclass
class ExperimentResult:
    name: str
    text: str
    measurements: List[Measurement] = field(default_factory=list)
    series: Dict = field(default_factory=dict)
    extra: Dict = field(default_factory=dict)

    def __str__(self):
        return self.text


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------


def generate_workload(h=0.001, m=0.0005, seed=None, **kwargs):
    config = GeneratorConfig(h=h, m=m, **({"seed": seed} if seed else {}), **kwargs)
    return BitemporalDataGenerator(config).generate()


def prepare_systems(
    workload, names: Sequence[str] = "ABCD", batch_size=1, analyze=True
) -> Dict[str, object]:
    """Load the workload into fresh instances of the named archetypes.

    Statistics are collected after loading (like any benchmark run on a
    real system would ANALYZE after bulk load), so multi-table cells run
    under cost-based join ordering; pass ``analyze=False`` to benchmark
    the statistics-free greedy planner instead.

    Analysed databases are long-lived workload hosts, so the default
    auto-ANALYZE threshold is armed with the snapshot: once DML churn has
    drifted a table that far, the next statement *planned* over it
    refreshes its statistics (``repro_stat_tables.last_analyze`` shows
    it); writes themselves never ANALYZE.  An ``analyze=False`` host
    stays statistics-free for good — the threshold is left unarmed, or
    its first planned statement would quietly make it cost-based.
    """
    from ..engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD

    systems = {}
    for name in names:
        system = make_system(name)
        Loader(system, workload).load(batch_size=batch_size)
        if analyze:
            system.analyze()
            system.db.auto_analyze_threshold = DEFAULT_AUTO_ANALYZE_THRESHOLD
        systems[name] = system
    return systems


def _measure_queries(service, systems, qids, meta, setting="no index"):
    measurements = []
    for qid in qids:
        query = WORKLOAD.query(qid)
        for name, system in systems.items():
            measurements.append(
                service.measure_query(system, query, meta, setting=setting)
            )
    return measurements


# ---------------------------------------------------------------------------
# Table 1 / Table 2: the generator itself
# ---------------------------------------------------------------------------


def table1_scenario_mix(workload) -> ExperimentResult:
    mix = scenario_mix(workload)
    lines = ["Table 1: observed scenario mix", "=" * 31]
    for name, share in mix.items():
        lines.append(f"  {name:<22} {share:6.3f}")
    return ExperimentResult("table1", "\n".join(lines), extra={"mix": mix})


def table2_operations(workload) -> ExperimentResult:
    text = format_operations_table(workload)
    return ExperimentResult(
        "table2", text, extra={"rows": operations_table(workload)}
    )


# ---------------------------------------------------------------------------
# Fig 2 / Fig 3: basic point time travel and index impact
# ---------------------------------------------------------------------------

_FIG2_QIDS = ["T1.app", "T1.sys", "T2.app", "T2.sys", "T5.all"]


def fig02_basic_time_travel(systems, workload, service) -> ExperimentResult:
    measurements = _measure_queries(service, systems, _FIG2_QIDS, workload.meta)
    text = format_figure(
        "Fig 2: Basic Time Travel (out-of-the-box, no extra indexes)", measurements
    )
    return ExperimentResult("fig02", text, measurements)


def fig03_index_impact(systems, workload, service) -> ExperimentResult:
    """No-index vs Time-Index (B-Tree), plus GiST on System D (§5.3.2)."""
    measurements = []
    qids = ["T1.app", "T1.sys", "T2.app", "T2.sys", "T5.all"]
    measurements += _measure_queries(service, systems, qids, workload.meta, "no index")
    for name, system in systems.items():
        apply_index_setting(system, IndexSetting.TIME)
    measurements += _measure_queries(service, systems, qids, workload.meta, "B-Tree")
    if "D" in systems:
        drop_tuning_indexes(systems["D"])
        apply_index_setting(systems["D"], IndexSetting.TIME, kind="rtree")
        measurements += _measure_queries(
            service, {"D": systems["D"]}, qids, workload.meta, "GiST"
        )
    for system in systems.values():
        drop_tuning_indexes(system)
    text = format_figure("Fig 3: Index Impact for Basic Time Travel", measurements)
    return ExperimentResult("fig03", text, measurements)


# ---------------------------------------------------------------------------
# Fig 4 / Fig 12: sensitivity to history length
# ---------------------------------------------------------------------------


def fig04_history_scaling(
    service,
    h=0.0002,
    m_values=(0.0005, 0.001, 0.002),
    names="ABCD",
    with_index=True,
) -> ExperimentResult:
    """T1 with *fixed* temporal parameters on growing histories (§5.3.3):
    constant result, so indexed plans can be constant while scans grow."""
    query = WORKLOAD.query("T1.sys")
    series: Dict[str, List[tuple]] = {}
    for m in m_values:
        workload = generate_workload(h=h, m=m)
        params = {
            # fixed: just after the initial version, maximum app time
            "sys_point": workload.meta.initial_tick,
            "app_point": workload.meta.first_history_day - 1,
        }
        systems = prepare_systems(workload, names)
        for name, system in systems.items():
            cell = service.measure_sql(system, query.sql, params, qid="T1.sys", setting="no index")
            series.setdefault(f"{name}/noidx", []).append((m, cell.median))
            if with_index and system.db.profile.uses_indexes:
                apply_index_setting(system, IndexSetting.TIME)
                cell = service.measure_sql(system, query.sql, params, qid="T1.sys", setting="B-Tree")
                series.setdefault(f"{name}/btree", []).append((m, cell.median))
                drop_tuning_indexes(system)
    text = format_series(
        "Fig 4: T1 for Variable History Size (fixed parameters)", "m (scale)", series
    )
    return ExperimentResult("fig04", text, series=series)


def fig12_keyrange_history_scaling(
    service,
    h=0.0002,
    m_values=(0.0005, 0.001, 0.002),
    names="ABCD",
) -> ExperimentResult:
    """Key-in-time at fixed system time over growing histories (§5.5.4),
    with Key+Time indexes applied."""
    query = WORKLOAD.query("K1.app_past")
    series: Dict[str, List[tuple]] = {}
    for m in m_values:
        workload = generate_workload(h=h, m=m)
        params = dict(query.params(workload.meta))
        params["sys_past"] = workload.meta.first_scenario_tick + 1
        systems = prepare_systems(workload, names)
        for name, system in systems.items():
            apply_index_setting(system, IndexSetting.KEY_TIME)
            cell = service.measure_sql(
                system, query.sql, params, qid="K1.app_past", setting="Key+Time"
            )
            series.setdefault(name, []).append((m, cell.median))
    text = format_series(
        "Fig 12: Key-Range for Variable History Size (Key+Time index)",
        "m (scale)",
        series,
    )
    return ExperimentResult("fig12", text, series=series)


# ---------------------------------------------------------------------------
# Fig 5: temporal slicing
# ---------------------------------------------------------------------------


def fig05_temporal_slicing(systems, workload, service) -> ExperimentResult:
    qids = ["T6.appslice", "T9", "T6.sysslice", "T5.all"]
    measurements = _measure_queries(service, systems, qids, workload.meta)
    text = format_figure("Fig 5: Temporal Slicing", measurements)
    return ExperimentResult("fig05", text, measurements)


# ---------------------------------------------------------------------------
# Fig 6: implicit vs explicit current time travel
# ---------------------------------------------------------------------------


def fig06_implicit_explicit(systems, workload, service) -> ExperimentResult:
    native = {n: s for n, s in systems.items() if n in ("A", "B", "C")}
    measurements = _measure_queries(
        service, native, ["T7.implicit", "T7.explicit"], workload.meta
    )
    # verify the architectural claim: explicit AS OF touches the history
    probes = {}
    for name, system in native.items():
        table = system.db.table("orders")
        before = table.stats.history_scans
        system.execute(WORKLOAD.query("T7.explicit").sql,
                       WORKLOAD.query("T7.explicit").params(workload.meta))
        probes[name] = table.stats.history_scans - before
    text = format_figure(
        "Fig 6: Current TT, Implicit vs Explicit (history access not pruned)",
        measurements,
    )
    text += "\nhistory-partition scans per explicit query: " + str(probes)
    return ExperimentResult("fig06", text, measurements, extra={"history_scans": probes})


# ---------------------------------------------------------------------------
# Fig 7: TPC-H with time travel
# ---------------------------------------------------------------------------


def fig07_tpch(
    systems,
    workload,
    service,
    mode: str,
    numbers: Optional[Sequence[int]] = None,
    baseline_version=None,
) -> ExperimentResult:
    """Fig 7(a) mode="app" / Fig 7(b) mode="sys": slowdown of the temporal
    tables vs a non-temporal baseline with the same data (§5.4)."""
    numbers = list(numbers or tpch.all_numbers())
    baseline_version = baseline_version or ("final" if mode == "app" else "initial")

    ratios: Dict[str, Dict[int, float]] = {}
    timeouts: Dict[str, List[int]] = {}
    base_times: Dict[str, Dict[int, float]] = {}
    for name, system in systems.items():
        # the paper normalises per system: the baseline runs on the *same*
        # architecture (same store kind and optimizer profile), only the
        # tables are non-temporal
        baseline = Database(
            options=system.db.default_options, profile=system.db.profile
        )
        load_nontemporal_baseline(baseline, workload, version=baseline_version)
        base_times[name] = {}
        ratios[name] = {}
        timeouts[name] = []
        for number in numbers:
            sql = tpch.tpch_query(number, "plain")
            cell = service.measure_sql(
                baseline, sql, {}, qid=f"Q{number}", setting="baseline"
            )
            base_times[name][number] = cell.median
        for number in numbers:
            sql = tpch.tpch_query(number, mode)
            params = tpch.tpch_params(workload.meta, mode)
            cell = service.measure_sql(system, sql, params, qid=f"Q{number}", setting=mode)
            if cell.timed_out:
                timeouts[name].append(number)
                continue
            base = max(base_times[name][number], 1e-9)
            ratios[name][number] = cell.median / base
    label = "application" if mode.startswith("app") else "system"
    text = format_ratio_table(
        f"Fig 7({'a' if mode.startswith('app') else 'b'}): TPC-H with {label} "
        f"time travel, mode={mode} (ratio temporal/non-temporal)",
        ratios,
        timeouts,
    )
    slice_ratios = None
    if mode == "app":
        # complementary measurement: the application-time *slice*, which
        # exposes the version-volume overhead of the bitemporal tables
        # (see EXPERIMENTS.md for why the point variant can run *faster*
        # than the baseline on this engine)
        slice_result = fig07_tpch(
            systems, workload, service, mode="app_slice",
            numbers=numbers, baseline_version=baseline_version,
        )
        slice_ratios = slice_result.series
        text += "\n\n" + slice_result.text
    return ExperimentResult(
        f"fig07{mode}", text, series=ratios,
        extra={"timeouts": timeouts, "base": base_times,
               "slice_ratios": slice_ratios},
    )


# ---------------------------------------------------------------------------
# Join ordering: multi-join TPC-H cells (cost-model demonstration)
# ---------------------------------------------------------------------------

#: 3+-table TPC-H joins whose plans are join-order sensitive: Q8 and Q9
#: reorder under statistics (update-heavy histories inflate the greedy
#: size heuristic); Q3 mostly keeps its order (near-control cell).  Q2 is
#: deliberately absent: its correlated subquery cost is not modelled and
#: reordering it can backfire (see docs/COST_MODEL.md, limitations).
_JOIN_NUMBERS = (3, 8, 9)


def join_ordering(systems, workload, service) -> ExperimentResult:
    """Multi-join TPC-H queries under system time travel, as plain cells.

    Unlike Fig 7 (which reports temporal/non-temporal *ratios*), this
    experiment keeps the raw measurements so ``bench --compare-to`` /
    ``bench-diff`` can diff them cell by cell — the A/B surface for the
    cost-based join ordering: run ``bench joins --no-stats --json base``
    for the greedy order, then ``bench joins --compare-to base`` with
    statistics armed (the default; see docs/COST_MODEL.md).
    """
    measurements = []
    params = tpch.tpch_params(workload.meta, "sys")
    for number in _JOIN_NUMBERS:
        sql = tpch.tpch_query(number, "sys")
        for name, system in systems.items():
            measurements.append(
                service.measure_sql(
                    system, sql, params, qid=f"H{number}.sys",
                    setting="multi-join",
                )
            )
    text = format_figure(
        "Join ordering: multi-join TPC-H under system time travel",
        measurements,
    )
    return ExperimentResult("joins", text, measurements)


# ---------------------------------------------------------------------------
# temporal operators: native sweep/align vs the SQL:2011 rewrites
# ---------------------------------------------------------------------------


_TEMPORAL_AGG_NATIVE = {
    "R3a": (
        "SELECT TEMPORAL(system_time) AS t, count(*)"
        " FROM orders FOR SYSTEM_TIME ALL"
        " GROUP BY TEMPORAL(system_time)"
    ),
    "R3b": (
        "SELECT TEMPORAL(system_time) AS t, sum(o_totalprice)"
        " FROM orders FOR SYSTEM_TIME ALL"
        " GROUP BY TEMPORAL(system_time)"
    ),
}

_ALIGN_REWRITE = (
    "SELECT count(*)"
    " FROM customer FOR SYSTEM_TIME ALL c,"
    "      orders FOR SYSTEM_TIME ALL o"
    " WHERE c.c_custkey = o.o_custkey"
    "   AND c.sys_begin < o.sys_end AND o.sys_begin < c.sys_end"
)
_ALIGN_NATIVE = (
    "SELECT count(*)"
    " FROM customer FOR SYSTEM_TIME ALL c"
    " TEMPORAL JOIN orders FOR SYSTEM_TIME ALL o"
    " ON c.c_custkey = o.o_custkey"
)


class _SystemENoFusion(SystemE):
    """System E with ``temporal-fusion`` masked.

    The honest rewrite arm of the temporal-ops experiment: on stock E
    the optimizer fuses the rewrite back into the native operator, and
    the comparison would measure the native plan twice.
    """

    def profile(self):
        base = super().profile()
        return replace(
            base,
            rewrite_rules=tuple(
                rule
                for rule in base.rewrite_rules
                if rule != "temporal-fusion"
            ),
        )


def temporal_ops(systems, workload, service) -> ExperimentResult:
    """Native temporal aggregation / align join vs their SQL:2011 rewrites.

    The paper's §5.6 headline: temporal aggregation through the
    boundaries-self-join rewrite costs *"more than two orders of
    magnitude more ... than a full access to the history"*.  Each
    archetype runs the (corrected, both-endpoints) rewrite against the
    native operators — explicit ``GROUP BY TEMPORAL`` / ``TEMPORAL
    JOIN`` dialect — with result equivalence checked inline before any
    timing.  Raw cells are kept so ``bench-diff`` can gate on them.
    """
    native_e = make_system("E")
    Loader(native_e, workload).load()
    native_e.analyze()
    rewrite_e = _SystemENoFusion()
    Loader(rewrite_e, workload).load()
    rewrite_e.analyze()

    pairs = [
        ("R3a", WORKLOAD.query("R3a").sql, _TEMPORAL_AGG_NATIVE["R3a"]),
        ("R3b", WORKLOAD.query("R3b").sql, _TEMPORAL_AGG_NATIVE["R3b"]),
        ("R5.align", _ALIGN_REWRITE, _ALIGN_NATIVE),
    ]
    measurements = []
    speedups: Dict[str, Dict[str, float]] = {}
    for qid, rewrite_sql, native_sql in pairs:
        for name in "ABCDE":
            rewrite_system = rewrite_e if name == "E" else systems[name]
            native_system = native_e if name == "E" else systems[name]
            expected = sorted(rewrite_system.execute(rewrite_sql).rows)
            got = sorted(native_system.execute(native_sql).rows)
            if got != expected:
                raise AssertionError(
                    f"native {qid} diverged from the rewrite on system {name}"
                )
            rewrite_cell = service.measure_sql(
                rewrite_system, rewrite_sql, qid=qid, setting="rewrite"
            )
            native_cell = service.measure_sql(
                native_system, native_sql, qid=qid, setting="native"
            )
            measurements.extend((rewrite_cell, native_cell))
            speedups.setdefault(qid, {})[name] = (
                rewrite_cell.median / native_cell.median
                if native_cell.median > 0
                else float("inf")
            )
    text = format_figure(
        "Temporal operators: native sweep/align vs SQL:2011 rewrite",
        measurements,
    )
    lines = ["", "", "speedup (rewrite median / native median)"]
    for qid, per in speedups.items():
        row = "  ".join(f"{name} {ratio:7.1f}x" for name, ratio in per.items())
        lines.append(f"  {qid:<10} {row}")
    text += "\n".join(lines)
    return ExperimentResult(
        "temporal-ops", text, measurements, extra={"speedups": speedups}
    )


# ---------------------------------------------------------------------------
# Fig 8-11: key in time / audit
# ---------------------------------------------------------------------------


def _with_and_without_indexes(systems, workload, service, qids, setting=IndexSetting.KEY_TIME,
                              value_column=None, value_table=None):
    measurements = _measure_queries(service, systems, qids, workload.meta, "no index")
    for system in systems.values():
        apply_index_setting(
            system, setting, value_column=value_column, value_table=value_table
        )
    label = "B-Tree" if setting is not IndexSetting.VALUE else "Value idx"
    measurements += _measure_queries(service, systems, qids, workload.meta, label)
    for system in systems.values():
        drop_tuning_indexes(system)
    return measurements


def fig08_key_in_time(systems, workload, service) -> ExperimentResult:
    qids = ["K1.app", "K1.app_past", "K1.both", "K1.sys"]
    measurements = _with_and_without_indexes(systems, workload, service, qids)
    text = format_figure("Fig 8: Key in Time - Full Range", measurements)
    return ExperimentResult("fig08", text, measurements)


def fig09_time_restriction(systems, workload, service) -> ExperimentResult:
    qids = ["K2.app", "K2.sys", "K3.app", "K3.sys"]
    measurements = _with_and_without_indexes(systems, workload, service, qids)
    text = format_figure("Fig 9: Key in Time - Time Restriction", measurements)
    return ExperimentResult("fig09", text, measurements)


def fig10_version_restriction(systems, workload, service) -> ExperimentResult:
    qids = ["K4.app", "K4.sys", "K5.sys"]
    measurements = _with_and_without_indexes(systems, workload, service, qids)
    text = format_figure("Fig 10: Key in Time - Version Restriction", measurements)
    return ExperimentResult("fig10", text, measurements)


def fig11_value_in_time(systems, workload, service) -> ExperimentResult:
    qids = ["K6.app", "K6.app_past", "K6.sys"]
    measurements = _with_and_without_indexes(
        systems, workload, service, qids,
        setting=IndexSetting.VALUE, value_table="customer", value_column="c_acctbal",
    )
    text = format_figure("Fig 11: Value in Time (selective filter)", measurements)
    return ExperimentResult("fig11", text, measurements)


# ---------------------------------------------------------------------------
# Fig 13: batch size sensitivity
# ---------------------------------------------------------------------------


def fig13_batch_size(service, h=0.0005, m=0.0005, batch_sizes=(1, 10, 100), names="ABCD") -> ExperimentResult:
    """Combine scenarios into transactions of growing size (§4.2, §5.5.4)
    and observe the key-range query cost afterwards."""
    workload = generate_workload(h=h, m=m)
    query = WORKLOAD.query("K1.both")
    series: Dict[str, List[tuple]] = {}
    load_series: Dict[str, List[tuple]] = {}
    for batch in batch_sizes:
        systems = prepare_systems(workload, names, batch_size=batch)
        for name, system in systems.items():
            apply_index_setting(system, IndexSetting.KEY_TIME)
            cell = service.measure_query(system, query, workload.meta, setting=f"batch={batch}")
            series.setdefault(name, []).append((batch, cell.median))
    text = format_series(
        "Fig 13: Key-Range query for Variable Batch Size", "batch", series
    )
    return ExperimentResult("fig13", text, series=series)


# ---------------------------------------------------------------------------
# Fig 14: range-timeslice
# ---------------------------------------------------------------------------


def fig14_range_timeslice(systems, workload, service) -> ExperimentResult:
    qids = ["R1", "R2", "R3a", "R3b", "R4", "R5", "R7", "T5.all"]
    measurements = _measure_queries(service, systems, qids, workload.meta)
    text = format_figure("Fig 14: Range Timeslice (small scale)", measurements)
    return ExperimentResult("fig14", text, measurements)


# ---------------------------------------------------------------------------
# Fig 15: bitemporal dimensions
# ---------------------------------------------------------------------------


def fig15_bitemporal(systems, workload, service) -> ExperimentResult:
    qids = ["B3"] + [f"B3.{i}" for i in range(1, 12)]
    measurements = _with_and_without_indexes(systems, workload, service, qids)
    text = format_figure("Fig 15: Bitemporal dimensions", measurements)
    return ExperimentResult("fig15", text, measurements)


# ---------------------------------------------------------------------------
# Fig 16 / §5.8: loading and updates
# ---------------------------------------------------------------------------


def fig16_loading(workload, names="ABCD", include_bulk_d=True) -> ExperimentResult:
    cells: Dict[str, Dict[str, float]] = {}
    totals: Dict[str, float] = {}
    for name in names:
        system = make_system(name)
        report = Loader(system, workload).load(collect_latencies=True)
        cells[name] = {
            "median": report.median_latency(),
            "p97": report.p97_latency(),
        }
        totals[name] = report.seconds
    if include_bulk_d:
        # §5.8: D's alternative to transaction replay — manual timestamps
        # and a bulk load; measured twice, best-of, to keep the cell stable
        seconds = []
        for _attempt in range(2):
            system = make_system("D")
            report = Loader(system, workload).bulk_load()
            seconds.append(report.seconds)
        totals["D(bulk)"] = min(seconds)
        cells["D(bulk)"] = {
            "median": totals["D(bulk)"] / max(1, len(workload.transactions)),
            "p97": totals["D(bulk)"] / max(1, len(workload.transactions)),
        }
    text = format_latency_table(
        "Fig 16: Loading Time per Scenario (median / 97th percentile)", cells
    )
    text += "\ntotal load seconds: " + ", ".join(
        f"{k}={v:.2f}s" for k, v in totals.items()
    )
    return ExperimentResult("fig16", text, extra={"cells": cells, "totals": totals})
