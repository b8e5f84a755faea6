"""Measurement service (paper §5.1 methodology).

*"If not noted otherwise, we repeated each measurement ten times and
discarded the first three measurements."*  The service does the same
(configurable), adapts the repetition count when measurements fluctuate,
and supports the paper's timeout handling for very long-running queries.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..engine.errors import QueryTimeout
from ..engine.obs import MetricsRegistry


@dataclass
class Measurement:
    """Timing result of one (system, query, setting) cell."""

    qid: str
    system: str
    setting: str = "no index"
    times: List[float] = field(default_factory=list)  # kept (post-discard) runs
    discarded: List[float] = field(default_factory=list)
    rows: int = 0
    timed_out: bool = False
    timeout_s: Optional[float] = None
    #: static-analyzer findings for the measured SQL (repro.engine.analyze),
    #: recorded outside the timed region; empty for non-SQL callables
    diagnostics: List[object] = field(default_factory=list)
    #: engine metric-counter delta for this cell (nonzero counters only);
    #: captured by measure_sql when the target exposes a MetricsRegistry
    metrics: Dict[str, int] = field(default_factory=dict)
    #: per-fingerprint statement statistics for this cell (telemetry store
    #: delta); captured by measure_sql when the target's store is enabled
    statements: List[Dict] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.times) if self.times else float("inf")

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times) if self.times else float("inf")

    @property
    def best(self) -> float:
        return min(self.times) if self.times else float("inf")

    def percentile(self, pct: float) -> float:
        if not self.times:
            raise ValueError(
                f"percentile({pct}) of {self.qid}/{self.system} "
                f"[{self.setting}]: no recorded samples"
            )
        ordered = sorted(self.times)
        rank = (pct / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac

    def label(self) -> str:
        base = f"{self.qid}/{self.system} [{self.setting}]"
        if self.timed_out:
            return f"{base}: TIMEOUT (> {self.timeout_s}s)"
        return f"{base}: {self.median * 1000:.2f} ms median"


def _metrics_registry(system) -> Optional[MetricsRegistry]:
    """The engine metric registry behind *system* (TemporalSystem or bare
    Database), or None for targets without one."""
    owner = getattr(system, "db", system)
    registry = getattr(owner, "metrics", None)
    return registry if isinstance(registry, MetricsRegistry) else None


def _telemetry_store(system):
    """The enabled statement-statistics store behind *system*, or None."""
    owner = getattr(system, "db", system)
    store = getattr(owner, "telemetry", None)
    return store if store is not None and getattr(store, "enabled", False) else None


class BenchmarkService:
    """Runs queries with repetition, discards and fluctuation adaptation."""

    def __init__(
        self,
        repetitions: int = 5,
        discard: int = 1,
        timeout_s: Optional[float] = None,
        max_repetitions: int = 12,
        fluctuation_threshold: float = 0.5,
    ):
        if discard >= repetitions:
            raise ValueError("discard must be smaller than repetitions")
        self.repetitions = repetitions
        self.discard = discard
        self.timeout_s = timeout_s
        self.max_repetitions = max_repetitions
        #: re-measure when stdev/median exceeds this (paper: *"if the
        #: measurements showed a large amount of fluctuation, we increased
        #: the number of repetitions"*)
        self.fluctuation_threshold = fluctuation_threshold

    # -- core ------------------------------------------------------------

    def measure_callable(
        self, fn: Callable[[], object], qid="?", system="?", setting="no index"
    ) -> Measurement:
        result = Measurement(
            qid=qid, system=system, setting=setting, timeout_s=self.timeout_s
        )
        runs = self.repetitions
        performed = 0
        while True:
            for _ in range(runs - performed):
                started = time.perf_counter()
                try:
                    out = fn()
                except QueryTimeout:
                    # the engine aborted the query cooperatively mid-run:
                    # record the cutoff instant and stop measuring this cell
                    elapsed = time.perf_counter() - started
                    result.times.append(elapsed)
                    result.timed_out = True
                    return result
                elapsed = time.perf_counter() - started
                performed += 1
                bucket = (
                    result.discarded
                    if len(result.discarded) < self.discard
                    else result.times
                )
                bucket.append(elapsed)
                try:
                    result.rows = len(out)  # Result objects and lists
                except TypeError:
                    pass
                if self.timeout_s is not None and elapsed > self.timeout_s:
                    # very long runs: keep what we have (paper: fewer
                    # repetitions for multi-hour measurements)
                    if not result.times:
                        result.times.append(elapsed)
                    result.timed_out = elapsed > self.timeout_s
                    return result
            if (
                len(result.times) >= 2
                and performed < self.max_repetitions
                and statistics.pstdev(result.times) / max(result.median, 1e-9)
                > self.fluctuation_threshold
            ):
                runs = min(self.max_repetitions, runs + 3)
                continue
            return result

    def measure_sql(self, system, sql: str, params=None, qid="?", setting="no index") -> Measurement:
        """Measure one SQL statement on one system archetype.

        The service's timeout is passed down to the engine, which enforces it
        cooperatively inside the executor: a timed-out query stops consuming
        CPU at the deadline instead of running to completion first.
        """
        name = getattr(system, "name", getattr(system, "db", None) and system.db.name or "?")
        registry = _metrics_registry(system)
        if registry is not None:
            # per-cell metric deltas: each measurement carries exactly the
            # counters its own repetitions (incl. warm-up) produced
            registry.reset()
        store = _telemetry_store(system)
        if store is not None:
            store.reset()
        measurement = self.measure_callable(
            lambda: system.execute(sql, params, timeout_s=self.timeout_s),
            qid=qid,
            system=name,
            setting=setting,
        )
        if registry is not None:
            measurement.metrics = registry.counters(nonzero=True)
        lint = getattr(system, "lint", None)
        if lint is not None:
            try:
                measurement.diagnostics = list(lint(sql))
            except Exception:
                # lint is advisory: analyzer failures never fail a benchmark
                measurement.diagnostics = []
        if store is not None:
            store.note_diagnostics(sql, len(measurement.diagnostics))
            measurement.statements = store.snapshot()
        return measurement

    def measure_query(self, system, query, meta, setting="no index") -> Measurement:
        """Measure a BenchmarkQuery with parameters bound from *meta*."""
        params = query.params(meta)
        measurement = self.measure_sql(
            system, query.sql, params, qid=query.qid, setting=setting
        )
        return measurement

