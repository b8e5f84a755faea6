"""Benchmark parameter sampling (the Benchmarking Service's job, §4).

The paper's service handles *"particular temporal properties in the
selection of parameters to queries (e.g., the system time interval for
generator execution)"*.  The default binders on each
:class:`~repro.core.queries.BenchmarkQuery` pick one representative value;
this module adds **deterministic samplers** so an experiment can run a
query at many parameter positions (early / mid / late history, hot / cold
keys) and report the spread rather than a single point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..generator import WorkloadMetadata
from ..rng import Rng


class ParameterSampler:
    """Deterministic parameter variations for one workload."""

    def __init__(self, meta: WorkloadMetadata, seed: int = 99):
        self.meta = meta
        self._rng = Rng(seed)

    # -- time dimensions -----------------------------------------------------

    def sys_ticks(self, count: int) -> List[int]:
        """*count* system-time ticks evenly spread over the history."""
        meta = self.meta
        if count == 1:
            return [meta.mid_tick()]
        span = meta.last_tick - meta.initial_tick
        return [
            meta.initial_tick + (span * i) // (count - 1) for i in range(count)
        ]

    def random_sys_tick(self) -> int:
        return self._rng.uniform_int(self.meta.initial_tick, self.meta.last_tick)

    def app_days(self, count: int) -> List[int]:
        """*count* application days spread over the history window."""
        meta = self.meta
        if count == 1:
            return [meta.mid_day()]
        span = meta.last_history_day - meta.first_history_day
        return [
            meta.first_history_day + (span * i) // (count - 1)
            for i in range(count)
        ]

    # -- keys -----------------------------------------------------------------

    def customer_keys(self, count: int, include_hottest: bool = True) -> List[int]:
        """Customer keys: the hottest one plus deterministic cold picks."""
        keys: List[int] = []
        if include_hottest and self.meta.hottest_customer is not None:
            keys.append(self.meta.hottest_customer)
        limit = max(1, self.meta.max_custkey)
        while len(keys) < count:
            candidate = self._rng.uniform_int(1, limit)
            if candidate not in keys:
                keys.append(candidate)
        return keys[:count]

    # -- query-level variation ------------------------------------------------

    def variations(self, query, count: int = 3) -> Iterator[Dict]:
        """Yield *count* parameter dicts for *query*, spreading every
        time-typed parameter across the history.

        Non-temporal parameters keep their default binding; ``sys_*``
        parameters sweep system time, ``app_*`` parameters sweep the
        application window.
        """
        base = query.params(self.meta)
        ticks = self.sys_ticks(count)
        days = self.app_days(count)
        for index in range(count):
            params = dict(base)
            for name in params:
                if name.startswith("sys_") and isinstance(params[name], int):
                    if name.endswith(("_begin", "_lo")):
                        continue  # keep range starts anchored
                    params[name] = ticks[index]
                elif name.startswith("app_") and isinstance(params[name], int):
                    if name.endswith(("_begin", "_lo", "_end", "_hi")):
                        continue
                    params[name] = days[index]
            yield params


def spread_measure(service, system, query, meta, count=3, seed=99):
    """Measure *query* at *count* parameter positions; returns the cells."""
    sampler = ParameterSampler(meta, seed=seed)
    cells = []
    for index, params in enumerate(sampler.variations(query, count)):
        cells.append(
            service.measure_sql(
                system, query.sql, params,
                qid=f"{query.qid}#{index}",
            )
        )
    return cells
