"""Analyzer cliffs: each performance rule's flagged query against its rewrite.

Every warning/info performance rule of :mod:`repro.engine.analyze` claims
that the rewrite it suggests avoids a cliff.  This bench times one flagged
query per rule against that rewrite on A-E at ``scan.history``'s scale, the
two alternating execution by execution, and checks the claim — median
flagged time / median rewrite time >= ``MARGIN`` — on every archetype whose
profile does not list the rule in ``lint_suppressions``.  The re-measured
table behind those lists is ``benchmarks/reports/analyzer_cliffs.md``.

The error rules (TQ004, TQ009, TQ012, TQ015) and the semantic warnings
(TQ005, TQ006, TQ011, TQ013) change answers, not speed; they are not timed.
"""

import statistics
import time
from types import SimpleNamespace

import pytest

from repro.bench.experiments import generate_workload, prepare_systems
from repro.systems.tuning import IndexSetting, apply_index_setting

MARGIN = 1.5
#: perf's ``scan.history`` scale
H, M = 0.0005, 0.0025
ARCHETYPES = "ABCDE"
RULES = ("TQ002", "TQ003", "TQ007", "TQ010", "TQ016", "TQ017")
#: alternating executions per side; TQ017's flagged side runs two orders of
#: magnitude slower than anything else, so it gets fewer
REPS = 30
REPS_TQ017 = 3


def cliff_cells(meta, now):
    """rule -> (flagged SQL, rewrite SQL, flagged set, rewrite set).

    A set is ``"plain"`` (no index) or ``"indexed"`` (the paper's Key+Time
    setting, which includes the time indexes TQ003's rewrite can use)."""
    recent = meta.last_tick - 10  # versions of the last ten commits
    probe = (
        f"SELECT o_totalprice FROM orders FOR SYSTEM_TIME AS OF {meta.mid_tick()}"
        f" WHERE o_orderkey = {meta.hottest_order}"
    )
    return {
        "TQ002": (
            f"SELECT sum(o_totalprice) FROM orders FOR SYSTEM_TIME AS OF {now + 1}",
            "SELECT sum(o_totalprice) FROM orders",
            "plain", "plain",
        ),
        "TQ003": (
            "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL"
            f" WHERE sys_begin + 0 >= {recent}",
            f"SELECT count(*) FROM orders FOR SYSTEM_TIME ALL WHERE sys_begin >= {recent}",
            "indexed", "indexed",
        ),
        "TQ007": (probe, probe, "plain", "indexed"),
        "TQ010": (
            "SELECT * FROM orders FOR SYSTEM_TIME ALL",
            "SELECT o_orderkey, o_totalprice FROM orders FOR SYSTEM_TIME ALL",
            "plain", "plain",
        ),
        "TQ016": (
            "SELECT count(*) FROM orders FOR active_time"
            " BETWEEN DATE '1900-01-01' AND DATE '2199-12-31'",
            "SELECT count(*) FROM orders",
            "plain", "plain",
        ),
        "TQ017": (
            "SELECT b.t, count(*)"
            " FROM (SELECT sys_begin AS t FROM orders FOR SYSTEM_TIME ALL"
            "       UNION"
            "       SELECT sys_end AS t FROM orders FOR SYSTEM_TIME ALL) b,"
            "      orders FOR SYSTEM_TIME ALL o"
            " WHERE o.sys_begin <= b.t AND o.sys_end > b.t"
            " GROUP BY b.t",
            "SELECT TEMPORAL(system_time) AS t, count(*)"
            " FROM orders FOR SYSTEM_TIME ALL"
            " GROUP BY TEMPORAL(system_time)",
            "plain", "plain",
        ),
    }


def load_cliff_systems(seed):
    """(workload metadata, {"plain": systems, "indexed": systems}) for *seed*."""
    data = generate_workload(h=H, m=M, seed=seed)
    sets = {"plain": prepare_systems(data, ARCHETYPES)}
    sets["indexed"] = prepare_systems(data, ARCHETYPES)
    for system in sets["indexed"].values():
        apply_index_setting(system, IndexSetting.KEY_TIME)
    return data.meta, sets


def _timed(system, sql):
    started = time.perf_counter()
    system.execute(sql)
    return time.perf_counter() - started


def _cell(meta, sets, rule, name):
    """(flagged system, flagged SQL, rewrite system, rewrite SQL)."""
    now = sets["plain"][name].db.now()
    flagged_sql, rewrite_sql, flagged_set, rewrite_set = cliff_cells(meta, now)[rule]
    return sets[flagged_set][name], flagged_sql, sets[rewrite_set][name], rewrite_sql


def time_cell(meta, sets, rule, name, reps=None):
    """(median flagged s, median rewrite s) of one (rule, archetype) cell,
    flagged and rewrite executions alternating after one warm-up each."""
    reps = reps or (REPS_TQ017 if rule == "TQ017" else REPS)
    flagged, flagged_sql, rewrite, rewrite_sql = _cell(meta, sets, rule, name)
    flagged.execute(flagged_sql)
    rewrite.execute(rewrite_sql)
    flagged_times, rewrite_times = [], []
    for _ in range(reps):
        flagged_times.append(_timed(flagged, flagged_sql))
        rewrite_times.append(_timed(rewrite, rewrite_sql))
    return statistics.median(flagged_times), statistics.median(rewrite_times)


def flagged_fires(meta, sets, rule, name):
    """Whether the analyzer reports *rule* on the cell's flagged query."""
    flagged, flagged_sql, _rewrite, _sql = _cell(meta, sets, rule, name)
    return rule in {d.code for d in flagged.lint(flagged_sql)}


def measure_cliffs(meta, sets):
    ratios = {}
    for rule in RULES:
        for name in ARCHETYPES:
            flagged, rewrite = time_cell(meta, sets, rule, name)
            ratios[(rule, name)] = flagged / rewrite
    lines = ["Analyzer cliffs: median flagged / median rewrite (seed 7)", ""]
    lines.append("rule   " + "".join(f"{name:>9}" for name in ARCHETYPES))
    for rule in RULES:
        lines.append(
            f"{rule}  " + "".join(f"{ratios[(rule, n)]:>9.2f}" for n in ARCHETYPES)
        )
    return SimpleNamespace(name="analyzer_cliffs", text="\n".join(lines), ratios=ratios)


@pytest.fixture(scope="module")
def cliff_systems():
    return load_cliff_systems(seed=7)


def test_analyzer_cliffs(benchmark, cliff_systems, save):
    meta, sets = cliff_systems
    result = benchmark.pedantic(
        lambda: measure_cliffs(meta, sets), rounds=1, iterations=1
    )
    save(result)
    missed = []
    for (rule, name), ratio in result.ratios.items():
        suppressed = rule in sets["plain"][name].db.profile.lint_suppressions
        # the rule fires exactly where the profile leaves it on
        assert flagged_fires(meta, sets, rule, name) is not suppressed, (rule, name)
        if not suppressed and ratio < MARGIN:
            missed.append(f"{rule} on {name}: {ratio:.2f}x < {MARGIN}x")
    assert not missed, "\n".join(missed)
