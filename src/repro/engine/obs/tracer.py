"""Structured tracer: spans over the query lifecycle.

A :class:`Span` is a lightweight record (name, start, duration, attrs,
parent id) produced around each lifecycle phase — parse, analyze, rewrite,
plan-cache lookup, physical planning, execute — and around individual
operator invocations.  Spans form a tree via parent ids; the tracer keeps
an open-span stack so nesting falls out of call order.

**Zero overhead when idle** is the design constraint: with no sink
installed the tracer is inactive,
:meth:`Tracer.start` returns ``None``, :meth:`Tracer.span` returns a
shared no-op span, and nothing is allocated or timed.  The engine's hot
paths only ever pay an attribute read and a truth test.

Durations use ``time.perf_counter()`` exclusively — the engine-wide
no-wallclock invariant (tools/engine_lint.py) applies here too.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["SPANS", "Span", "Tracer", "render_span_tree"]

#: span name -> parent, attrs and meaning.  ``repro trace`` output and
#: ``JsonlSink`` files are read by these names; ``tools/engine_lint.py``
#: (check ``metric-names``) rejects a traced name that is not declared here.
SPANS: Dict[str, str] = {
    "query": "root span of one statement; attrs sql, rows (aborted on failure)",
    "plan_cache.lookup": "child of query: plan-cache probe; attr outcome = hit/miss",
    "parse": "child of query: lex and parse, on a plan-cache miss only",
    "plan.analyze": "child of query: AST to logical plan (build_logical)",
    "plan.rewrite": "child of query: logical rewrite rules (rewrite_logical)",
    "plan.physical": "child of query: lowering to physical operators",
    "execute": "child of query: running the physical plan; attr rows",
    "operator": (
        "child of execute or of its parent operator: one operator's batches; "
        "attrs op (label), rows"
    ),
}


class Span:
    """One timed region of a query's lifecycle."""

    __slots__ = (
        "span_id", "parent_id", "name", "start", "duration", "attrs",
        "children", "status", "_tracer",
    )

    def __init__(self, tracer: "Tracer", span_id: int,
                 parent_id: Optional[int], name: str, attrs: Dict):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = time.perf_counter()
        self.duration: Optional[float] = None
        self.attrs = attrs
        self.children: List["Span"] = []
        self.status = "ok"

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer.finish(self, aborted=exc_type is not None)
        return False

    def walk(self):
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, recursive: bool = False) -> Dict:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start,
            "duration_s": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if recursive:
            out["children"] = [c.to_dict(recursive=True) for c in self.children]
        return out

    def __repr__(self):
        ms = f"{self.duration * 1000:.3f}ms" if self.duration is not None else "open"
        return f"<Span {self.name} {ms}>"


class _NullSpan:
    """Shared no-op stand-in returned while the tracer is inactive."""

    __slots__ = ()

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Span factory with pluggable sinks and an open-span stack.

    Sinks receive every span as it *finishes* (children before parents);
    each sink needs a single ``emit(span)`` method.
    """

    __slots__ = ("_sinks", "_stack", "_seq")

    def __init__(self):
        self._sinks: List[object] = []
        self._stack: List[Span] = []
        self._seq = 0

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    # -- sinks -------------------------------------------------------------

    def add_sink(self, sink):
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink):
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # -- span lifecycle ----------------------------------------------------

    def start(self, name: str, **attrs) -> Optional[Span]:
        """Open a span, or return ``None`` when tracing is off."""
        if not self.active:
            return None
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self, self._seq, parent.span_id if parent else None, name, attrs
        )
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Optional[Span], aborted: bool = False):
        """Close *span* (no-op for ``None``) and emit it to every sink.

        Any spans left open above *span* on the stack — possible when an
        exception unwound several frames at once — are closed and marked
        aborted too, so the recorded tree is always complete.
        """
        if span is None or span.duration is not None:
            return
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if top.duration is None:
                top.duration = now - top.start
                if aborted:
                    top.status = "aborted"
                    top.attrs["aborted"] = True
                for sink in self._sinks:
                    sink.emit(top)
            if top is span:
                break

    def span(self, name: str, **attrs):
        """Context-manager form; a shared no-op span when inactive."""
        started = self.start(name, **attrs)
        return started if started is not None else _NULL_SPAN


def render_span_tree(span: Span, indent: int = 0) -> str:
    """ASCII tree of one span and its descendants with durations."""
    parts = []
    for key, value in span.attrs.items():
        text = str(value)
        if len(text) > 60:
            text = text[:57] + "..."
        parts.append(f"{key}={text}")
    attr_text = f" [{', '.join(parts)}]" if parts else ""
    if span.duration is not None:
        timing = f"  {span.duration * 1000:.3f} ms"
    else:
        timing = "  (open)"
    lines = [f"{'  ' * indent}{span.name}{attr_text}{timing}"]
    for child in span.children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)
