"""Paper-style rendering of experiment results.

The figures in the paper are grouped bar charts on a log axis; the closest
terminal-friendly equivalent is a table of medians plus a log-scaled ASCII
bar per cell.  ``format_figure`` renders a list of measurements grouped by
query and system; ``format_ratio_table`` renders the Fig 7 slowdown-ratio
layout with geometric means.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from .service import Measurement


def geometric_mean(values: Sequence[float]) -> float:
    cleaned = [v for v in values if v > 0 and not math.isinf(v)]
    if not cleaned:
        return float("nan")
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def _log_bar(value_ms: float, max_width: int = 30, floor_ms: float = 0.01) -> str:
    """Bar length proportional to log10(time), like the paper's log axes."""
    if math.isinf(value_ms):
        return "#" * max_width
    span = math.log10(max(value_ms, floor_ms) / floor_ms)
    width = int(round(span * 6))  # 6 chars per decade
    return "*" * max(1, min(max_width, width))


def format_figure(
    title: str,
    measurements: Iterable[Measurement],
    group_by: str = "qid",
) -> str:
    """Render measurements as a grouped, log-bar annotated table."""
    rows = list(measurements)
    lines = [title, "=" * len(title)]
    groups: Dict[str, List[Measurement]] = {}
    for m in rows:
        key = getattr(m, group_by)
        groups.setdefault(key, []).append(m)
    for key, cells in groups.items():
        lines.append(f"\n{key}")
        for m in cells:
            if m.timed_out:
                value = f">{m.timeout_s:.0f}s TIMEOUT"
                bar = "#" * 30
            else:
                value = f"{m.median * 1000:10.2f} ms"
                bar = _log_bar(m.median * 1000)
            label = f"{m.system} [{m.setting}]"
            lines.append(f"  {label:<28} {value:>16}  {bar}")
    return "\n".join(lines)


def format_series(title: str, xlabel: str, series: Dict[str, List[tuple]]) -> str:
    """Render scaling experiments: one line per (x, y_ms) point per system."""
    lines = [title, "=" * len(title), f"{xlabel:>14} " + "".join(f"{name:>14}" for name in series)]
    xs = sorted({x for points in series.values() for x, _y in points})
    for x in xs:
        row = f"{x:>14}"
        for name, points in series.items():
            lookup = {px: py for px, py in points}
            value = lookup.get(x)
            row += f"{value * 1000:>12.2f}ms" if value is not None else f"{'-':>14}"
        lines.append(row)
    return "\n".join(lines)


def format_ratio_table(
    title: str,
    ratios: Dict[str, Dict[int, float]],
    timeout_queries: Optional[Dict[str, List[int]]] = None,
) -> str:
    """The Fig 7 layout: per-system slowdown ratio per TPC-H query, plus
    the geometric mean (timeouts excluded, as in §5.4.2)."""
    systems = list(ratios)
    numbers = {n for per_system in ratios.values() for n in per_system}
    for timed_out in (timeout_queries or {}).values():
        numbers.update(timed_out)
    numbers = sorted(numbers)
    lines = [title, "=" * len(title)]
    header = f"{'Q':>4}" + "".join(f"{name:>10}" for name in systems)
    lines.append(header)
    timeout_queries = timeout_queries or {}
    for n in numbers:
        row = f"{n:>4}"
        for name in systems:
            if n in timeout_queries.get(name, ()):
                row += f"{'timeout':>10}"
                continue
            value = ratios[name].get(n)
            row += f"{value:>10.2f}" if value is not None else f"{'-':>10}"
        lines.append(row)
    lines.append("-" * len(header))
    row = f"{'gm':>4}"
    for name in systems:
        excluded = set()
        for other in timeout_queries.values():
            excluded.update(other)
        values = [v for n, v in ratios[name].items() if n not in excluded]
        row += f"{geometric_mean(values):>10.2f}"
    lines.append(row)
    return "\n".join(lines)


def format_lint_summary(
    title: str, measurements: Iterable[Measurement]
) -> str:
    """Per-rule tally of analyzer findings across a figure run.

    Renders how many measured queries tripped each diagnostic code and on
    which systems — the workload-variant hazards (§5) made visible next to
    the timings they explain.  Returns an empty string when no measurement
    carries diagnostics, so callers can append unconditionally.
    """
    by_code: Dict[str, Dict[str, object]] = {}
    for m in measurements:
        for diagnostic in getattr(m, "diagnostics", ()) or ():
            entry = by_code.setdefault(
                diagnostic.code,
                {"severity": diagnostic.severity, "qids": set(), "systems": set()},
            )
            entry["qids"].add(m.qid)
            entry["systems"].add(m.system)
    if not by_code:
        return ""
    lines = [title, "=" * len(title)]
    lines.append(f"{'code':<7} {'severity':<9} {'queries':>8}  systems")
    for code in sorted(by_code):
        entry = by_code[code]
        systems = ",".join(sorted(entry["systems"]))
        lines.append(
            f"{code:<7} {entry['severity']:<9} {len(entry['qids']):>8}  {systems}"
        )
    return "\n".join(lines)


def format_cache_stats(title: str, stats: Dict[str, Dict[str, int]]) -> str:
    """Plan-cache counters per system (the ROADMAP's hit-rate visibility).

    *stats* maps system name to ``SqlEngine.cache_stats()`` output.
    """
    lines = [title, "=" * len(title)]
    header = (
        f"{'system':>8}{'size':>8}{'hits':>8}{'misses':>8}"
        f"{'invalid':>9}{'hit rate':>10}"
    )
    lines.append(header)
    for name, per in stats.items():
        lookups = per.get("hits", 0) + per.get("misses", 0)
        rate = per.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            f"{name:>8}{per.get('size', 0):>8}{per.get('hits', 0):>8}"
            f"{per.get('misses', 0):>8}{per.get('invalidations', 0):>9}"
            f"{rate:>9.1%}"
        )
    return "\n".join(lines)


def format_delta_table(diff, only_changed: bool = False) -> str:
    """Per-cell delta table for an :class:`repro.bench.compare.ArtifactDiff`.

    Duck-typed on the diff object (cells with median/p95/status, system
    geometric means, analyzer drift) so this module does not import the
    comparator.  ``only_changed`` drops unchanged cells — useful inline
    after a bench run where the full matrix would drown the signal.
    """
    title = f"Bench delta: {diff.base_label} -> {diff.new_label}"
    lines = [title, "=" * len(title)]
    cells = [c for c in diff.cells if not only_changed or c.status != "unchanged"]
    if not cells:
        lines.append(
            "(all cells unchanged)" if diff.cells else "(no cells to compare)"
        )
    else:
        width = max(len(c.key) for c in cells) + 2
        lines.append(
            f"{'cell':<{width}}{'base':>12}{'new':>12}{'ratio':>8}  status"
        )
        marks = {"regressed": "!", "improved": "+", "added": ">", "removed": "<"}
        for cell in cells:
            base = "timeout" if cell.base_timed_out else (
                "-" if cell.base_median_s is None else f"{cell.base_median_s * 1000:.3f}ms"
            )
            new = "timeout" if cell.new_timed_out else (
                "-" if cell.new_median_s is None else f"{cell.new_median_s * 1000:.3f}ms"
            )
            ratio = "-" if cell.ratio is None else f"{cell.ratio:.2f}x"
            mark = marks.get(cell.status, " ")
            lines.append(
                f"{cell.key:<{width}}{base:>12}{new:>12}{ratio:>8}  "
                f"{mark} {cell.status}"
            )
    for system, gm in diff.system_gm.items():
        value = "-" if math.isnan(gm) else f"{gm:.3f}x"
        lines.append(f"system {system}: geometric-mean ratio {value}")
    for cell in diff.metric_regressions:
        for name, before, after in cell.metric_regressions:
            lines.append(f"metric {cell.key}: {name} {before} -> {after}")
    for code, (before, after) in diff.analyzer_drift.items():
        lines.append(f"analyzer {code}: {before} -> {after} findings")
    lines.append(diff.summary())
    return "\n".join(lines)


def format_latency_table(title: str, cells: Dict[str, Dict[str, float]]) -> str:
    """Median / 97th-percentile table (Fig 16 layout). *cells* maps system
    name to {"median": s, "p97": s, ...}."""
    lines = [title, "=" * len(title)]
    metrics = sorted({m for per in cells.values() for m in per})
    header = f"{'system':>8}" + "".join(f"{m:>14}" for m in metrics)
    lines.append(header)
    for name, per in cells.items():
        row = f"{name:>8}"
        for metric in metrics:
            value = per.get(metric)
            row += f"{value * 1000:>12.3f}ms" if value is not None else f"{'-':>14}"
        lines.append(row)
    return "\n".join(lines)
