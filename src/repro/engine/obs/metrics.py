"""Central metrics registry: named counters and histograms.

Every metric the engine emits is declared here, once, with a one-line
description.  The registry pre-populates its counter table from these
declarations, so incrementing an undeclared name raises ``KeyError`` at the
call site instead of silently creating a new counter — and
``tools/engine_lint.py`` cross-checks the same declarations statically
(check ``metric-names``), so a typo cannot survive either at runtime or in
CI.  ``tools/gen_docs.py`` renders the catalogue in
``docs/OBSERVABILITY.md`` from these declarations.

This module is stdlib-only and imports nothing from the engine: the
storage, index and transaction layers all depend on it, and the layering
check (engine/storage must not import engine/sql or engine/plan) has to
keep holding transitively.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, List, Optional, Tuple

#: counter name -> description (what it counts, and the paper finding it
#: diagnoses).  Names are ``layer.event`` dotted pairs.
COUNTERS: Dict[str, str] = {
    "plan.cache_hit": (
        "plan-cache lookups that returned a valid cached plan; with the other "
        "plan.cache_* counters, the plan-cache behaviour behind repeated benchmark runs"
    ),
    "plan.cache_miss": "plan-cache lookups that found no (valid) entry",
    "plan.cache_evict": "LRU evictions when the plan cache overflowed",
    "plan.cache_invalidate": "cached plans dropped because DDL touched a dependency",
    "plan.cost_based_joins": (
        "join products the join-reorder rule ordered by the statistics-backed cost "
        "model (needs ANALYZE statistics)"
    ),
    "plan.greedy_joins": "join products ordered by the greedy size heuristic (no usable stats)",
    "plan.temporal_fusions": (
        "native TemporalAggregate / TemporalAlignJoin operators lowered from GROUP BY "
        "TEMPORAL / TEMPORAL JOIN (the operators §5.6/§5.7 find missing); 0 on a "
        "workload that sends only SQL:2011 text"
    ),
    "stats.analyze_runs": "ANALYZE statements / Database.analyze() invocations",
    "stats.tables_analyzed": "per-table statistics snapshots collected by ANALYZE",
    "stats.lookups": "planner requests for a table's statistics snapshot",
    "stats.hits": "statistics lookups answered by a valid snapshot",
    "stats.misses": "statistics lookups for tables never analyzed",
    "stats.stale": "statistics lookups rejected because DDL/DML invalidated the snapshot",
    "stats.auto_analyze_runs": (
        "statistics lookups that re-ANALYZEd a table past the mutation-count threshold"
    ),
    "storage.current_scans": (
        "full scans of a current (or single) partition: current-partition work, "
        "the baseline of Fig 2"
    ),
    "storage.history_scans": (
        "full scans of a history partition: history access >> current access "
        "(§5.3, Fig 2/5/6)"
    ),
    "storage.current_rows_scanned": (
        "live rows on the pages current-partition scans read; a zone-map-pruned "
        "page's rows are not in it"
    ),
    "storage.history_rows_scanned": (
        "live rows on the pages history-partition scans read; same row accounting"
    ),
    "storage.pages_scanned": (
        "pages (row store: 256 slots) and chunks (column store: one batch of main or "
        "delta) batch scans read: the I/O proxy behind Fig 4's linear scan cost"
    ),
    "storage.pages_pruned": (
        "pages and chunks a system-time window skipped by zone map without touching "
        "a row; pruned / (scanned + pruned) is the share of history a time-travel "
        "clause avoided"
    ),
    "storage.vp_merge_joins": (
        "sort/merge joins reconstructing System B's vertically partitioned "
        "temporal columns (§5.2)"
    ),
    "storage.history_moves": (
        "closed versions moved into a history partition (A/C write path, §5.2)"
    ),
    "storage.undo_drains": "undo-log drain operations (System B background process, §5.2)",
    "storage.versions_invalidated": (
        "current versions closed by update/delete: the version churn of the §4.2 "
        "scenarios"
    ),
    "storage.column_merges": "delta-into-main merges of a column store (System C, §5.2)",
    "index.btree_probes": (
        "B+-tree descents (point searches and range-scan starts): index use on "
        "selective queries (Fig 3/4/8/11)"
    ),
    "index.hash_probes": "hash-index equality probes",
    "index.rtree_searches": (
        "R-tree interval searches (overlap and stab queries; §5.1 tuning)"
    ),
    "index.pk_probes": "primary-key lookups against the current-rid map",
    "index.timeline_lookups": (
        "Timeline-Index snapshot reconstructions (checkpoint + replay; System E)"
    ),
    "txn.versions_written": (
        "row versions appended to any partition by loading and DML (Fig 16)"
    ),
    "txn.commits": "committed transactions; one system-time tick per commit",
    "txn.rollbacks": "rolled-back transactions",
}

#: histogram name -> description.  Histograms keep summary statistics plus a
#: bounded reservoir of recent samples for percentile estimates.
HISTOGRAMS: Dict[str, str] = {
    "query.execute_s": "wall seconds spent in the execute phase of one statement",
}


#: default histogram bucket upper bounds (seconds, log-spaced 100 µs–10 s).
#: Bucket counts are exact over *all* observations — unlike the percentile
#: reservoir they never forget — and render as cumulative ``le`` rows in
#: the registry snapshot.
BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Summary statistics, fixed log-scale buckets, and a bounded
    reservoir of recent samples for percentile estimates."""

    __slots__ = ("count", "total", "min", "max", "bounds", "_buckets", "_samples")

    def __init__(self, reservoir: int = 512, bounds: Tuple[float, ...] = BUCKET_BOUNDS):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds = bounds
        #: per-bucket (non-cumulative) counts; index len(bounds) is +Inf
        self._buckets: List[int] = [0] * (len(bounds) + 1)
        self._samples: deque = deque(maxlen=reservoir)

    def observe(self, value: float):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._buckets[bisect_left(self.bounds, value)] += 1
        self._samples.append(value)

    def buckets(self) -> List[Tuple[Optional[float], int]]:
        """Cumulative ``(upper bound, count)`` pairs; the final bound is
        ``None`` (+Inf) and its count equals :attr:`count`."""
        out: List[Tuple[Optional[float], int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self._buckets):
            running += bucket
            out.append((bound, running))
        out.append((None, running + self._buckets[-1]))
        return out

    def percentile(self, pct: float) -> Optional[float]:
        """Linear-interpolated percentile over the retained samples."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def summary(self) -> Dict[str, object]:
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
            "p95": self.percentile(95),
            "buckets": [
                {"le": bound if bound is not None else "+Inf", "count": cumulative}
                for bound, cumulative in self.buckets()
            ],
        }

    def reset(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self._buckets = [0] * (len(self.bounds) + 1)
        self._samples.clear()


class MetricsRegistry:
    """One registry per :class:`~repro.engine.database.Database` instance.

    The benchmark service resets it between measurement cells, so each
    :class:`~repro.bench.service.Measurement` carries the metric *delta* of
    exactly its own repetitions.
    """

    __slots__ = ("_counters", "_histograms")

    def __init__(self):
        self._counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._histograms: Dict[str, Histogram] = {
            name: Histogram() for name in HISTOGRAMS
        }

    # -- writes ------------------------------------------------------------

    def inc(self, name: str, delta: int = 1):
        try:
            self._counters[name] += delta
        except KeyError:
            raise KeyError(
                f"metric {name!r} is not declared in "
                f"repro.engine.obs.metrics.COUNTERS"
            ) from None

    def observe(self, name: str, value: float):
        try:
            self._histograms[name].observe(value)
        except KeyError:
            raise KeyError(
                f"histogram {name!r} is not declared in "
                f"repro.engine.obs.metrics.HISTOGRAMS"
            ) from None

    # -- reads -------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters[name]

    def counters(self, nonzero: bool = False) -> Dict[str, int]:
        if nonzero:
            return {n: v for n, v in self._counters.items() if v}
        return dict(self._counters)

    def histogram(self, name: str) -> Histogram:
        return self._histograms[name]

    def snapshot(self) -> Dict[str, Dict]:
        """Counters plus histogram summaries, JSON-serialisable."""
        return {
            "counters": self.counters(),
            "histograms": {
                name: hist.summary() for name, hist in self._histograms.items()
            },
        }

    def reset(self):
        for name in self._counters:
            self._counters[name] = 0
        for hist in self._histograms.values():
            hist.reset()
