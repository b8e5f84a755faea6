"""Execution context: the runtime companion of a physical plan.

An :class:`ExecutionContext` *is* an :class:`~repro.engine.expr.Env` — every
generated expression function takes it as its ``env`` — extended with
the observability and control surface the benchmark harness needs:

* **per-operator metrics** (rows produced, invocation count, inclusive wall
  time, access-path choice) collected when ``metrics`` is a dict, powering
  ``EXPLAIN ANALYZE``;
* **cooperative timeout/cancellation**: operators check the deadline before
  running, and long scans check it periodically through :meth:`guard_iter`,
  so :mod:`repro.bench.service` can abort a query mid-run instead of only
  stamping it timed-out after it completed.

Plain :class:`Env` objects still work everywhere — instrumentation only
engages when the session hands the plan an ExecutionContext.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from ..errors import QueryCancelled, QueryTimeout
from ..expr import Env


class NodeMetrics:
    """Counters for one physical operator within one execution.

    ``leaf`` marks a table or materialized scan: its ``rows`` are the data
    pulled off storage, which the statement store folds into
    ``rows_scanned`` (:meth:`~repro.engine.obs.telemetry.StatementStatsStore.record`).
    """

    __slots__ = ("calls", "rows", "batches", "ws_bytes", "time_s", "detail", "leaf")

    def __init__(self, leaf: bool = False):
        self.leaf = leaf
        self.calls = 0
        self.rows = 0
        self.batches = 0
        self.ws_bytes = 0  # peak estimated output bytes of one invocation
        self.time_s = 0.0
        self.detail = ""


class ExecutionContext(Env):
    """Env + per-operator counters + cooperative timeout/cancellation.

    ``metrics`` maps ``id(operator)`` to :class:`NodeMetrics`; it is shared
    across nesting levels (correlated subqueries accumulate into the same
    counters, reported as extra ``loops``).  ``deadline`` is an absolute
    ``time.perf_counter()`` instant; ``cancel_check`` is an optional
    zero-argument callable polled alongside the deadline.
    """

    __slots__ = ("metrics", "deadline", "cancel_check", "timeout_s", "tracer")

    def __init__(
        self,
        params=None,
        outer_rows=None,
        cache=None,
        metrics: Optional[Dict[int, NodeMetrics]] = None,
        deadline: Optional[float] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
        timeout_s: Optional[float] = None,
        tracer=None,
    ):
        super().__init__(params, outer_rows, cache)
        self.metrics = metrics
        self.deadline = deadline
        self.cancel_check = cancel_check
        self.timeout_s = timeout_s
        self.tracer = tracer  # optional obs.Tracer for per-operator spans

    @classmethod
    def begin(
        cls,
        params=None,
        timeout_s: Optional[float] = None,
        metrics: Optional[Dict[int, NodeMetrics]] = None,
        cancel_check: Optional[Callable[[], bool]] = None,
        tracer=None,
    ) -> "ExecutionContext":
        """Start a fresh context for one statement execution; per-operator
        metrics are recorded into *metrics* when it is a dict."""
        deadline = (
            time.perf_counter() + timeout_s if timeout_s is not None else None
        )
        return cls(
            params,
            metrics=metrics,
            deadline=deadline,
            cancel_check=cancel_check,
            timeout_s=timeout_s,
            tracer=tracer,
        )

    def nested(self, outer_row) -> "ExecutionContext":
        """Correlated-subquery context: new outer row, shared everything else."""
        return ExecutionContext(
            self.params,
            [outer_row] + self.outer_rows,
            self.cache,
            metrics=self.metrics,
            deadline=self.deadline,
            cancel_check=self.cancel_check,
            timeout_s=self.timeout_s,
            tracer=self.tracer,
        )

    # -- cooperative control ------------------------------------------------

    def check(self):
        """Raise if the deadline passed or a cancellation was requested."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            if self.timeout_s is not None:
                raise QueryTimeout(
                    f"query exceeded timeout of {self.timeout_s}s"
                )
            raise QueryTimeout("query deadline exceeded")
        if self.cancel_check is not None and self.cancel_check():
            raise QueryCancelled("query cancelled")

    def guard_iter(self, iterable, every: int = 4096):
        """Wrap *iterable* so the deadline is polled every *every* items.

        Returns the iterable unchanged when neither a deadline nor a cancel
        check is active — scans pay nothing in the common case.
        """
        if self.deadline is None and self.cancel_check is None:
            return iterable

        def guarded():
            count = 0
            for item in iterable:
                yield item
                count += 1
                if count % every == 0:
                    self.check()

        return guarded()

    # -- operator instrumentation -------------------------------------------

    def run_operator(self, op):
        """Execute one operator, enforcing the deadline and recording metrics.

        Operators return batches; row counts are accumulated per batch
        (``sum`` of batch lengths), never per row.  Times are *inclusive*
        of children (Postgres EXPLAIN ANALYZE style); repeated invocations
        (e.g. a subplan under a correlated subquery) accumulate and
        surface as ``loops``.
        """
        if self.deadline is not None or self.cancel_check is not None:
            self.check()
        metrics = self.metrics
        tracer = self.tracer
        if metrics is None and tracer is None:
            return op.execute_batches(self)
        span = tracer.start("operator", op=op.label()) if tracer is not None else None
        started = time.perf_counter()
        try:
            out = op.execute_batches(self)
        except BaseException:
            if tracer is not None:
                tracer.finish(span, aborted=True)
            raise
        elapsed = time.perf_counter() - started
        row_count = sum(batch.length for batch in out)
        if span is not None:
            span.set(rows=row_count)
            tracer.finish(span)
        if metrics is None:
            return out
        ws_bytes = sum(batch.estimated_bytes() for batch in out)
        node = metrics.get(id(op))
        if node is None:
            node = NodeMetrics(leaf=not op.children)
            metrics[id(op)] = node
        node.calls += 1
        node.rows += row_count
        node.batches += len(out)
        if ws_bytes > node.ws_bytes:
            node.ws_bytes = ws_bytes
        node.time_s += elapsed
        detail = op.metrics_detail()
        if detail:
            node.detail = detail
        return out
