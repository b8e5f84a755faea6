"""Physical operators over chunked row-batches.

Every operator is a node with ``execute_batches(env) -> list[Batch]`` and
an ``explain(indent)`` rendering.  Batches flow through the whole tree:
scans hand over column-store slices without per-row tuple construction,
filters apply chunk-wise selection masks, and projections build output
columns chunk-wise.  Operators still materialise their full outputs —
the engine is an analytics engine over in-memory partitions, and
materialising keeps hash joins and sorts simple while preserving the
*relative* costs the benchmark needs (scans linear in partition size,
index probes logarithmic, extra joins visibly expensive).

An operator takes one compiled function per expression.  What is
evaluated once per *input row* — filter predicates, projection items,
join/align keys, period bounds, group keys, aggregate arguments, sort
keys — is a batch function ``fn(batch, env) -> list``
(:func:`~repro.engine.expr.compile_batch_expr`); what is evaluated per
*candidate pair* (join residuals, the nested-loop predicate) or once per
*statement* (LIMIT/OFFSET) is a scalar ``fn(row, env)``
(:func:`~repro.engine.expr.compile_expr`).

``batches`` is a thin dispatcher: subclasses implement
``execute_batches(env)``, and when the env is an
:class:`~repro.engine.plan.context.ExecutionContext` the call routes
through it, which enforces the cooperative deadline and records
per-operator counters for ``EXPLAIN ANALYZE``.  With a plain ``Env`` the
dispatcher adds one ``getattr`` and nothing else.  ``rows(env)`` /
``execute(env)`` are the row-level boundary: they materialise the
batches into one fresh ``list[tuple]`` for the session/DBAPI surface
(and for tests that predate the batch protocol).

Deadline polling happens at batch granularity inside batch loops; only
the pair-at-a-time joins (``CrossJoin``, ``NestedLoopJoin``) poll per
outer row through ``guard_iter``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..batch import Batch, batch_size, batches_from_rows, rows_from_batches
from ..expr import Env
from ..types import compare_values


class Operator:
    """Base class: a physical plan node."""

    #: child operators, for explain trees
    children: Sequence["Operator"] = ()

    #: estimated output rows, stamped during lowering (None = not priced);
    #: EXPLAIN renders it next to actuals so mis-estimates stay visible
    est_rows: Optional[int] = None

    def batches(self, env: Env) -> List[Batch]:
        # ExecutionContext exposes run_operator; a plain Env does not.
        runner = getattr(env, "run_operator", None)
        if runner is not None:
            return runner(self)
        return self.execute_batches(env)

    def rows(self, env: Env) -> List[tuple]:
        """Row-level boundary: the operator's output as one fresh list."""
        return rows_from_batches(self.batches(env))

    def execute(self, env: Env) -> List[tuple]:
        """Row-level execution without context dispatch (always a fresh
        list, so callers may mutate the result freely)."""
        return rows_from_batches(self.execute_batches(env))

    def execute_batches(self, env: Env) -> List[Batch]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def metrics_detail(self) -> str:
        """Extra per-execution detail for EXPLAIN ANALYZE (e.g. the
        index-vs-scan decision an access path took)."""
        return ""

    def explain(self, indent=0) -> str:
        text = self.label()
        if self.est_rows is not None:
            text += f" (est rows={self.est_rows})"
        lines = ["  " * indent + text]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class TableAccess(Operator):
    """Scan or index access over one table: runs a
    :class:`~repro.engine.plan.access.TableAccessPlan`, whose run-time
    decisions feed EXPLAIN ANALYZE."""

    def __init__(self, access_plan, description: str):
        self.access_plan = access_plan
        self._description = description

    def execute_batches(self, env):
        return self.access_plan.batches(env)

    def label(self):
        return self._description

    def metrics_detail(self):
        bits = []
        for decision in self.access_plan.decisions:
            bit = f"{decision.partition}: {decision.strategy}"
            if decision.index_name:
                bit += f"[{decision.index_name}]"
            if decision.pages is not None:
                bit += " pages=%d/%d" % decision.pages
            bits.append(bit)
        return "; ".join(bits)


class Materialized(Operator):
    """Wrap an already-computed row list (derived tables, CTE-style reuse)."""

    def __init__(self, rows_value: List[tuple], description="Materialized"):
        self._rows = rows_value
        self._description = description

    def execute_batches(self, env):
        # the chunks are fresh lists: consumers sort/extend result lists
        # in place, and handing out the backing list would corrupt every
        # later reuse
        return batches_from_rows(self._rows)

    def label(self):
        return f"{self._description} ({len(self._rows)} rows)"


class EmptyScan(Operator):
    """A relation the rewrite proved empty (contradictory constraints).

    Never touches storage: the constraint-pruning rule replaced the
    original access path after the interval domain showed its constraint
    intersection is empty, so execution is a constant no-op.
    """

    def __init__(self, description="EmptyScan"):
        self._description = description

    def execute_batches(self, env):
        return []

    def label(self):
        return self._description


class Subplan(Operator):
    """Defer to a planner-produced callable (derived tables, subqueries)."""

    def __init__(self, producer: Callable[[Env], List[tuple]], description: str):
        self._producer = producer
        self._description = description

    def execute_batches(self, env):
        return batches_from_rows(self._producer(env))

    def label(self):
        return self._description


class VirtualScan(Operator):
    """A ``repro_stat_*`` system view materialised from live engine state.

    The producer snapshots the introspection counters at execution time —
    every execution (cached plan or not) sees the current state, like a
    ``pg_stat_*`` relation.
    """

    def __init__(self, producer: Callable[[], List[tuple]], description: str):
        self._producer = producer
        self._description = description

    def execute_batches(self, env):
        return batches_from_rows(self._producer())

    def label(self):
        return self._description


class Filter(Operator):
    def __init__(self, child: Operator, predicate, description="Filter"):
        self.children = (child,)
        self._predicate = predicate
        self._description = description

    def execute_batches(self, env):
        out: List[Batch] = []
        predicate = self._predicate
        check = getattr(env, "check", None)
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            values = predicate(batch, env)
            selected = [i for i, value in enumerate(values) if value is True]
            if len(selected) == batch.length:
                out.append(batch)
            elif selected:
                out.append(batch.take(selected))
        return out

    def label(self):
        return self._description


class Project(Operator):
    def __init__(self, child: Operator, exprs, description="Project"):
        self.children = (child,)
        self._exprs = exprs
        self._description = description

    def execute_batches(self, env):
        out: List[Batch] = []
        exprs = self._exprs
        check = getattr(env, "check", None)
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            columns = [expr(batch, env) for expr in exprs]
            out.append(Batch.from_columns(columns, batch.length))
        return out

    def label(self):
        return self._description


class CrossJoin(Operator):
    def __init__(self, left: Operator, right: Operator):
        self.children = (left, right)

    def execute_batches(self, env):
        left_rows = self.children[0].rows(env)
        right_rows = self.children[1].rows(env)
        guard = getattr(env, "guard_iter", None)
        if guard is not None:
            # poll often on the outer side: each step emits len(right) rows
            left_rows = guard(left_rows, 256)
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        for lrow in left_rows:
            chunk.extend(lrow + rrow for rrow in right_rows)
            if len(chunk) >= size:
                out.append(Batch.from_rows(chunk))
                chunk = []
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        return "CrossJoin"


class NestedLoopJoin(Operator):
    """Inner/left join with an arbitrary predicate."""

    def __init__(self, left, right, predicate, kind="inner", right_width=0):
        self.children = (left, right)
        self._predicate = predicate
        self._kind = kind
        self._right_width = right_width

    def execute_batches(self, env):
        left_rows = self.children[0].rows(env)
        right_rows = self.children[1].rows(env)
        guard = getattr(env, "guard_iter", None)
        if guard is not None:
            # poll often on the outer side: each step scans the inner input
            left_rows = guard(left_rows, 256)
        predicate = self._predicate
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        pad = (None,) * self._right_width
        for lrow in left_rows:
            matched = False
            for rrow in right_rows:
                combined = lrow + rrow
                if predicate is None or predicate(combined, env) is True:
                    chunk.append(combined)
                    matched = True
            if self._kind == "left" and not matched:
                chunk.append(lrow + pad)
            if len(chunk) >= size:
                out.append(Batch.from_rows(chunk))
                chunk = []
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        return f"NestedLoopJoin({self._kind})"


def count_star(batch, env):
    """The aggregate argument of ``count(*)``: every row counts."""
    return [1] * batch.length


def _key_tuples(batch, env, key_fns):
    """One key tuple per row of *batch* (join, align and group keys)."""
    if not key_fns:
        return [()] * batch.length
    return list(zip(*[fn(batch, env) for fn in key_fns]))


class HashJoin(Operator):
    """Equi-join.  Builds the hash table on the right input by default;
    cost-based planning may request ``build_side="left"`` for inner joins
    when the left input is estimated cheaper (left joins always probe
    from the left so every left row can surface).  Both build and probe
    consume input batch-at-a-time, extracting key columns chunk-wise."""

    def __init__(
        self,
        left,
        right,
        left_keys,   # batch exprs over the LEFT row layout
        right_keys,  # batch exprs over the RIGHT row layout
        residual=None,  # scalar expr over the combined layout
        kind="inner",
        right_width=0,
        build_side="right",
    ):
        self.children = (left, right)
        self._left_keys = left_keys
        self._right_keys = right_keys
        self._residual = residual
        self._kind = kind
        self._right_width = right_width
        self._build_side = build_side if kind == "inner" else "right"

    def execute_batches(self, env):
        left_keys, right_keys = self._left_keys, self._right_keys
        residual = self._residual
        check = getattr(env, "check", None)
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        if self._build_side == "left":
            table = {}
            for batch in self.children[0].batches(env):
                if check is not None:
                    check()
                keys = _key_tuples(batch, env, left_keys)
                for lrow, key in zip(batch.to_rows(), keys):
                    if any(part is None for part in key):
                        continue
                    table.setdefault(key, []).append(lrow)
            for batch in self.children[1].batches(env):
                if check is not None:
                    check()
                keys = _key_tuples(batch, env, right_keys)
                for rrow, key in zip(batch.to_rows(), keys):
                    if any(part is None for part in key):
                        continue
                    for lrow in table.get(key, ()):
                        combined = lrow + rrow
                        if residual is None or residual(combined, env) is True:
                            chunk.append(combined)
                if len(chunk) >= size:
                    out.append(Batch.from_rows(chunk))
                    chunk = []
            if chunk:
                out.append(Batch.from_rows(chunk))
            return out
        table = {}
        for batch in self.children[1].batches(env):
            if check is not None:
                check()
            keys = _key_tuples(batch, env, right_keys)
            for rrow, key in zip(batch.to_rows(), keys):
                if any(part is None for part in key):
                    continue
                table.setdefault(key, []).append(rrow)
        pad = (None,) * self._right_width
        left_join = self._kind == "left"
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            keys = _key_tuples(batch, env, left_keys)
            for lrow, key in zip(batch.to_rows(), keys):
                matched = False
                if not any(part is None for part in key):
                    for rrow in table.get(key, ()):
                        combined = lrow + rrow
                        if residual is None or residual(combined, env) is True:
                            chunk.append(combined)
                            matched = True
                if left_join and not matched:
                    chunk.append(lrow + pad)
            if len(chunk) >= size:
                out.append(Batch.from_rows(chunk))
                chunk = []
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        base = f"HashJoin({self._kind}, keys={len(self._left_keys)})"
        if self._build_side == "left":
            base = f"HashJoin({self._kind}, keys={len(self._left_keys)}, build=left)"
        return base


def _normalize_merge_key(key):
    """Join key with SQL NULL semantics: a NULL (or a composite key with
    a NULL part) matches nothing, so it normalises to None — which also
    keeps composite keys with NULL parts sortable.  NaN gets the same
    treatment: compare_values ranks it "equal" to everything, so letting
    it into a merge run would glue unrelated keys together."""
    if key is None:
        return None
    if isinstance(key, tuple):
        if any(part is None or part != part for part in key):
            return None
    elif key != key:  # NaN
        return None
    return key


class MergeJoin(Operator):
    """Sort-merge equi-join on a single key pair (System B's vertical
    partition reconstruction uses the storage-level variant; this one backs
    SQL joins when both inputs are pre-sorted or small).

    Keys are extracted once per input, chunk-wise, and the merge advances
    over the precomputed key arrays run-at-a-time."""

    def __init__(self, left, right, left_key, right_key, residual=None):
        self.children = (left, right)
        self._left_key = left_key
        self._right_key = right_key
        self._residual = residual

    def _sorted_side(self, child, key_fn, env):
        """(rows, normalized keys) for one input, sorted by key (stable,
        NULLs last)."""
        rows: List[tuple] = []
        keys: List[object] = []
        for batch in child.batches(env):
            keys.extend(map(_normalize_merge_key, key_fn(batch, env)))
            rows.extend(batch.to_rows())
        order = sorted(range(len(rows)), key=lambda i: _SortToken(keys[i]))
        return [rows[i] for i in order], [keys[i] for i in order]

    def execute_batches(self, env):
        left_rows, left_keys = self._sorted_side(
            self.children[0], self._left_key, env
        )
        right_rows, right_keys = self._sorted_side(
            self.children[1], self._right_key, env
        )
        residual = self._residual
        check = getattr(env, "check", None)
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        steps = 0
        i = j = 0
        left_n, right_n = len(left_rows), len(right_rows)
        while i < left_n and j < right_n:
            steps += 1
            if check is not None and steps % 4096 == 0:
                check()
            lkey = left_keys[i]
            rkey = right_keys[j]
            # NULL keys join nothing; skip their runs on BOTH inputs
            # (NULLs sort last, so these rows tail each side)
            if lkey is None:
                i += 1
                continue
            if rkey is None:
                j += 1
                continue
            cmp = compare_values(lkey, rkey)
            if cmp < 0:
                i += 1
            elif cmp > 0:
                j += 1
            else:
                # gather the equal runs; starting past the current row
                # guarantees progress even for keys (NaN) that compare
                # "equal" to everything but unequal to themselves
                i_end = i + 1
                while i_end < left_n:
                    key = left_keys[i_end]
                    if key is None or compare_values(key, lkey) != 0:
                        break
                    i_end += 1
                j_end = j + 1
                while j_end < right_n:
                    key = right_keys[j_end]
                    if key is None or compare_values(key, rkey) != 0:
                        break
                    j_end += 1
                for li in range(i, i_end):
                    lrow = left_rows[li]
                    for rj in range(j, j_end):
                        combined = lrow + right_rows[rj]
                        if residual is None or residual(combined, env) is True:
                            chunk.append(combined)
                if len(chunk) >= size:
                    out.append(Batch.from_rows(chunk))
                    chunk = []
                i, j = i_end, j_end
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        return "MergeJoin"


class Aggregate(Operator):
    """Hash aggregation.

    ``key_exprs`` run on input batches; ``accumulators`` is a list of
    (function_name, argument_expr, distinct), with :func:`count_star` as
    the argument of ``count(*)``.  Output rows are ``group_key_values +
    aggregate_values``.  Group keys and aggregate arguments are computed
    chunk-wise; the group-state update itself stays per-row."""

    def __init__(self, child, key_exprs, accumulators, global_agg=False):
        self.children = (child,)
        self._key_exprs = key_exprs
        self._accumulators = accumulators
        self._global_agg = global_agg

    def execute_batches(self, env):
        groups = {}
        key_exprs = self._key_exprs
        specs = self._accumulators
        check = getattr(env, "check", None)
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            keys = _key_tuples(batch, env, key_exprs)
            arg_columns = [arg(batch, env) for _func, arg, _distinct in specs]
            for pos, key in enumerate(keys):
                state = groups.get(key)
                if state is None:
                    state = [
                        _AggState(func, distinct)
                        for func, _arg, distinct in specs
                    ]
                    groups[key] = state
                for acc, column in zip(state, arg_columns):
                    acc.add(column[pos])
        if not groups and self._global_agg:
            state = [_AggState(func, distinct) for func, _arg, distinct in specs]
            groups[()] = state
        out = [
            key + tuple(acc.result() for acc in state)
            for key, state in groups.items()
        ]
        return [Batch.from_rows(out)] if out else []

    def label(self):
        funcs = ",".join(func for func, _a, _d in self._accumulators)
        return f"Aggregate(keys={len(self._key_exprs)}, [{funcs}])"


class _AggState:
    __slots__ = ("func", "distinct", "count", "total", "extreme", "seen")

    def __init__(self, func, distinct):
        self.func = func
        self.distinct = distinct
        self.count = 0
        self.total = None
        self.extreme = None
        self.seen = set() if distinct else None

    def add(self, value):
        if value is None:
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.func in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.func == "min":
            self.extreme = value if self.extreme is None else min(self.extreme, value)
        elif self.func == "max":
            self.extreme = value if self.extreme is None else max(self.extreme, value)

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total
        if self.func == "avg":
            return None if self.count == 0 else self.total / self.count
        return self.extreme


class Sort(Operator):
    def __init__(self, child, key_fns, descending_flags):
        self.children = (child,)
        self._key_fns = key_fns
        self._descending = descending_flags

    def execute_batches(self, env):
        out = rows_from_batches(self.children[0].batches(env))
        if not out:
            return []
        # stable multi-key sort: apply keys right-to-left; key extraction is
        # the long part, so poll the context once per key pass
        check = getattr(env, "check", None)
        holder = Batch.from_rows(out)
        for key_fn, descending in reversed(
            list(zip(self._key_fns, self._descending))
        ):
            if check is not None:
                check()
            keys = key_fn(holder, env)
            order = sorted(
                range(holder.length),
                key=lambda i: _SortToken(keys[i]),
                reverse=descending,
            )
            holder = holder.take(order)
        return [holder]

    def label(self):
        return f"Sort(keys={len(self._key_fns)})"


class Limit(Operator):
    def __init__(self, child, limit_fn, offset_fn=None):
        self.children = (child,)
        self._limit_fn = limit_fn
        self._offset_fn = offset_fn

    def execute_batches(self, env):
        start = int(self._offset_fn((), env)) if self._offset_fn else 0
        count = int(self._limit_fn((), env))
        end = start + count
        check = getattr(env, "check", None)
        out: List[Batch] = []
        seen = 0
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            if seen >= end:
                break
            lo = max(start - seen, 0)
            hi = min(end - seen, batch.length)
            seen += batch.length
            if lo >= hi:
                continue
            if lo == 0 and hi == batch.length:
                out.append(batch)
            else:
                out.append(batch.take(range(lo, hi)))
        return out

    def label(self):
        return "Limit"


class Distinct(Operator):
    def __init__(self, child):
        self.children = (child,)

    def execute_batches(self, env):
        seen = set()
        out: List[tuple] = []
        check = getattr(env, "check", None)
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            for row in batch.to_rows():
                if row not in seen:
                    seen.add(row)
                    out.append(row)
        return [Batch.from_rows(out)] if out else []


class Union(Operator):
    def __init__(self, left, right, all_rows=False):
        self.children = (left, right)
        self._all = all_rows

    def execute_batches(self, env):
        combined = list(self.children[0].batches(env))
        combined.extend(self.children[1].batches(env))
        if self._all:
            return combined
        seen = set()
        deduped: List[tuple] = []
        check = getattr(env, "check", None)
        for batch in combined:
            if check is not None:
                check()
            for row in batch.to_rows():
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
        return [Batch.from_rows(deduped)] if deduped else []

    def label(self):
        return "UnionAll" if self._all else "Union"


class TemporalAggregate(Operator):
    """Sweep-line temporal aggregation — SQL:2011's missing operator.

    One pass collects every version's period endpoints plus the
    pre-computed aggregate arguments; a single sweep over the sorted
    endpoint set then emits one row per constant interval: the boundary
    instant followed by the aggregate values over the versions active
    there (``begin <= t < end``).  Semantics match the self-join rewrite
    (UNION of both endpoints as the derived boundary table) byte for
    byte: boundaries come from *every* version's endpoints, only
    well-formed intervals enter the active set, and sum/avg re-accumulate
    per boundary in scan order so float results equal the rewrite's
    exactly.  Count-only aggregations skip the re-accumulation and
    maintain exact running counters, making the sweep linear in events.
    """

    def __init__(self, child, begin_fn, end_fn, accumulators,
                 period="system_time"):
        self.children = (child,)
        self._begin_fn = begin_fn
        self._end_fn = end_fn
        self._accumulators = accumulators
        self._period = period

    def _collect(self, env):
        """(begins, ends, per-accumulator argument columns) over the input."""
        check = getattr(env, "check", None)
        specs = self._accumulators
        begins: List[object] = []
        ends: List[object] = []
        values: List[list] = [[] for _ in specs]
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            begins.extend(self._begin_fn(batch, env))
            ends.extend(self._end_fn(batch, env))
            for slot, (_func, arg, _distinct) in zip(values, specs):
                slot.extend(arg(batch, env))
        return begins, ends, values

    def execute_batches(self, env):
        check = getattr(env, "check", None)
        begins, ends, values = self._collect(env)
        specs = self._accumulators
        # boundary set: every non-NULL/non-NaN endpoint of every version,
        # well-formed interval or not — the rewrite's derived table unions
        # both endpoint columns of the whole input
        boundaries = {v for v in begins if v is not None and v == v}
        boundaries.update(v for v in ends if v is not None and v == v)
        ordered = sorted(boundaries, key=_sort_token)
        # events: only well-formed intervals (begin < end, both non-NULL)
        # can satisfy begin <= t < end, so only they enter the active set
        starts = []
        stops = []
        for idx in range(len(begins)):
            b, e = begins[idx], ends[idx]
            if b is None or b != b or e is None or e != e:
                continue
            try:
                well_formed = b < e
            except TypeError:
                continue
            if not well_formed:
                continue
            starts.append((b, idx))
            stops.append((e, idx))
        starts.sort(key=lambda pair: _SortToken(pair[0]))
        stops.sort(key=lambda pair: _SortToken(pair[0]))
        fast_counts = None
        if specs and all(
            func == "count" and not distinct for func, _arg, distinct in specs
        ):
            fast_counts = [0] * len(specs)
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        active: dict = {}
        si = ei = 0
        n_starts, n_stops = len(starts), len(stops)
        steps = 0
        for t in ordered:
            steps += 1
            if check is not None and steps % 1024 == 0:
                check()
            while si < n_starts and starts[si][0] <= t:
                idx = starts[si][1]
                active[idx] = True
                if fast_counts is not None:
                    for i, column in enumerate(values):
                        if column[idx] is not None:
                            fast_counts[i] += 1
                si += 1
            while ei < n_stops and stops[ei][0] <= t:
                idx = stops[ei][1]
                if active.pop(idx, None) is not None and fast_counts is not None:
                    for i, column in enumerate(values):
                        if column[idx] is not None:
                            fast_counts[i] -= 1
                ei += 1
            if not active:
                continue  # inner-join rewrite emits no empty groups
            if fast_counts is not None:
                chunk.append((t,) + tuple(fast_counts))
            else:
                # re-accumulate in scan order: float sums then equal the
                # rewrite's per-group accumulation bit for bit
                states = [
                    _AggState(func, distinct) for func, _arg, distinct in specs
                ]
                for idx in sorted(active):
                    for acc, column in zip(states, values):
                        acc.add(column[idx])
                chunk.append((t,) + tuple(acc.result() for acc in states))
            if len(chunk) >= size:
                out.append(Batch.from_rows(chunk))
                chunk = []
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        funcs = ",".join(func for func, _a, _d in self._accumulators)
        return f"TemporalAggregate({self._period}, [{funcs}])"


class TemporalAlignJoin(Operator):
    """Period-align temporal join: equal-key runs merged by period start.

    Replaces the inequality-pair rewrite ``a.begin < b.end AND b.begin <
    a.end`` (a nested-loop shape) with a sort-merge: both inputs are
    grouped by their equality keys, each run is sorted by period begin,
    and a single interleaved pass keeps per-side active lists — an
    arriving interval pairs with every opposite-side interval that is
    still open, then joins the active list itself.  Output rows are
    ``left + right + (overlap_begin, overlap_end)`` with the intersected
    period appended.

    NULL/NaN handling mirrors :func:`_normalize_merge_key` (the PR 5
    MergeJoin NaN fix): a NULL or NaN equality key matches nothing, and a
    NULL/NaN period bound fails every overlap comparison, so such rows
    are dropped during collection instead of poisoning run detection.
    """

    def __init__(self, left, right, left_keys, right_keys,
                 left_begin, left_end, right_begin, right_end,
                 period="system_time"):
        self.children = (left, right)
        self._left_keys = left_keys
        self._right_keys = right_keys
        self._left_begin = left_begin
        self._left_end = left_end
        self._right_begin = right_begin
        self._right_end = right_end
        self._period = period

    def _collect(self, child, key_fns, begin_fn, end_fn, env):
        """(key, begin, end, row) entries, dropping rows that can never
        join (NULL/NaN key part or period bound)."""
        check = getattr(env, "check", None)
        entries = []
        for batch in child.batches(env):
            if check is not None:
                check()
            for key, b, e, row in zip(
                map(_normalize_merge_key, _key_tuples(batch, env, key_fns)),
                begin_fn(batch, env),
                end_fn(batch, env),
                batch.to_rows(),
            ):
                if key is None or b is None or b != b or e is None or e != e:
                    continue
                entries.append((key, b, e, row))
        return entries

    def execute_batches(self, env):
        check = getattr(env, "check", None)
        left = self._collect(
            self.children[0], self._left_keys,
            self._left_begin, self._left_end, env,
        )
        right = self._collect(
            self.children[1], self._right_keys,
            self._right_begin, self._right_end, env,
        )
        left_groups: dict = {}
        for entry in left:
            left_groups.setdefault(entry[0], []).append(entry)
        right_groups: dict = {}
        for entry in right:
            right_groups.setdefault(entry[0], []).append(entry)
        size = batch_size()
        out: List[Batch] = []
        chunk: List[tuple] = []
        steps = 0
        for key, lrun in left_groups.items():
            rrun = right_groups.get(key)
            if rrun is None:
                continue
            lrun = sorted(lrun, key=lambda entry: _SortToken(entry[1]))
            rrun = sorted(rrun, key=lambda entry: _SortToken(entry[1]))
            ln, rn = len(lrun), len(rrun)
            li = ri = 0
            active_left: List[tuple] = []   # (begin, end, row), begin asc
            active_right: List[tuple] = []
            while li < ln or ri < rn:
                steps += 1
                if check is not None and steps % 4096 == 0:
                    check()
                from_left = ri >= rn or (
                    li < ln
                    and compare_values(lrun[li][1], rrun[ri][1]) <= 0
                )
                if from_left:
                    _key, b, e, row = lrun[li]
                    li += 1
                    kept = []
                    for yb, ye, yrow in active_right:
                        if ye <= b:
                            continue  # closed before this arrival: purge
                        kept.append((yb, ye, yrow))
                        if yb < e:
                            chunk.append(
                                row + yrow + (max(b, yb), min(e, ye))
                            )
                    active_right = kept
                    active_left.append((b, e, row))
                else:
                    _key, b, e, row = rrun[ri]
                    ri += 1
                    kept = []
                    for yb, ye, yrow in active_left:
                        if ye <= b:
                            continue
                        kept.append((yb, ye, yrow))
                        if yb < e:
                            chunk.append(
                                yrow + row + (max(b, yb), min(e, ye))
                            )
                    active_left = kept
                    active_right.append((b, e, row))
                if len(chunk) >= size:
                    out.append(Batch.from_rows(chunk))
                    chunk = []
        if chunk:
            out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        return (
            f"TemporalAlignJoin({self._period}, keys={len(self._left_keys)})"
        )


class _SortToken:
    """Wrap values so None sorts last and mixed runs don't TypeError."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return compare_values(self.value, other.value) < 0

    def __eq__(self, other):
        return compare_values(self.value, other.value) == 0


def _sort_token(value):
    return _SortToken(value)
