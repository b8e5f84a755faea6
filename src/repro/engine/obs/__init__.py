"""Engine observability: structured tracer, metrics registry, statement telemetry.

See ``docs/OBSERVABILITY.md`` for the span and metric catalogue and the
paper sections each one diagnoses.  This package is stdlib-only by design:
every engine layer (storage, index, txn, plan, session) may import it
without violating the layering invariants in ``tools/engine_lint.py``.
"""

from .introspect import (
    SYSTEM_VIEWS,
    SYSTEM_VIEW_PREFIX,
    is_system_view,
    view_columns,
    view_rows,
)
from .metrics import COUNTERS, HISTOGRAMS, Histogram, MetricsRegistry
from .sinks import JsonlSink, RingBufferSink
from .telemetry import (
    StatementStats,
    StatementStatsStore,
    fingerprint,
    normalize_statement,
)
from .tracer import SPANS, Span, Tracer, render_span_tree

__all__ = [
    "COUNTERS",
    "HISTOGRAMS",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RingBufferSink",
    "SPANS",
    "SYSTEM_VIEWS",
    "SYSTEM_VIEW_PREFIX",
    "Span",
    "StatementStats",
    "StatementStatsStore",
    "Tracer",
    "fingerprint",
    "is_system_view",
    "normalize_statement",
    "view_columns",
    "view_rows",
    "render_span_tree",
]
