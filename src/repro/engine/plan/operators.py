"""Physical operators over chunked row-batches.

Every operator is a node with ``execute_batches(env) -> list[Batch]`` and
an ``explain(indent)`` rendering.  Batches flow through the whole tree:
scans hand over column-store slices without per-row tuple construction,
filters apply chunk-wise selection masks, projections build output
columns chunk-wise, and the pipeline breakers work column-at-a-time
(docs/EXECUTION.md, "Pipeline breakers").  Operators still materialise
their full outputs — the engine is an analytics engine over in-memory
partitions, and materialising keeps hash joins and sorts simple while
preserving the *relative* costs the benchmark needs (scans linear in
partition size, index probes logarithmic, extra joins visibly expensive).

An operator takes one compiled function per expression.  What is
evaluated once per *input row* — filter predicates, projection items,
join/align keys, period bounds, group keys, aggregate arguments, sort
keys — is a batch function ``fn(batch, env) -> list``
(:func:`~repro.engine.expr.compile_batch_expr`); what is evaluated per
*candidate pair* (join residuals, the nested-loop predicate) or once per
*statement* (LIMIT/OFFSET) is a scalar ``fn(row, env)``
(:func:`~repro.engine.expr.compile_expr`).

``batches`` is a thin dispatcher: when the env is an
:class:`~repro.engine.plan.context.ExecutionContext` the call routes
through it, which enforces the cooperative deadline and records
per-operator counters for ``EXPLAIN ANALYZE``; a plain ``Env`` costs one
``getattr``.  ``rows(env)`` / ``execute(env)`` are the row-level boundary:
they materialise the batches into one fresh ``list[tuple]``.  Deadline
polling happens per batch inside batch loops; only ``CrossJoin`` and
``NestedLoopJoin`` poll per outer row through ``guard_iter``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from itertools import chain, compress
from operator import add, gt, lt
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


def _row_keys(columns, length):
    """One hashable key per row from its key *columns* (join, align and
    group keys): a single column as it comes, several zipped into tuples."""
    if len(columns) == 1:
        return columns[0]
    return list(zip(*columns)) if columns else [()] * length


def _matchable(columns):
    """Per row: is every value non-NULL and non-NaN?  Only such a key (or
    period bound) can equal anything.  The test cannot be left to a dict:
    a NaN key *is* found when both sides carry the same float object, as
    self-joins over shared stored tuples do."""
    flags = [v is not None and v == v for v in columns[0]]
    for column in columns[1:]:
        flags = [ok and v is not None and v == v for ok, v in zip(flags, column)]
    return flags


class HashJoin(Operator):
    """Equi-join: one build loop, one probe loop.  The keys are batch exprs
    over their own side's layout, the ``residual`` a scalar expr over the
    combined layout.  Builds on the right input unless cost-based planning
    asks for ``build_side="left"`` (inner joins only: a left join probes
    from the left so every left row can surface).  NULL/NaN keys are
    dropped on the build side only — a key that was never inserted cannot
    be hit, so the probe is a bare ``dict.get`` per row."""

    def __init__(self, left, right, left_keys, right_keys, residual=None,
                 kind="inner", right_width=0, build_side="right"):
        self.children = (left, right)
        self._left_keys = left_keys
        self._right_keys = right_keys
        self._residual = residual
        self._kind = kind
        self._right_width = right_width
        self._build_side = build_side if kind == "inner" else "right"

    def execute_batches(self, env):
        check = getattr(env, "check", None)
        key_fns = (self._left_keys, self._right_keys)
        build_left = self._build_side == "left"
        build, probe = (0, 1) if build_left else (1, 0)
        table = defaultdict(list)
        for batch in self.children[build].batches(env):
            if check is not None:
                check()
            columns = [fn(batch, env) for fn in key_fns[build]]
            keyed = zip(_row_keys(columns, batch.length), batch.to_rows())
            for key, row in compress(keyed, _matchable(columns)):
                table[key].append(row)
        lookup = table.get  # never inserts, unlike table[key]
        residual = self._residual
        left_join = self._kind == "left"
        pad = (None,) * self._right_width
        out: List[Batch] = []
        for batch in self.children[probe].batches(env):
            if check is not None:
                check()
            keys = _row_keys([fn(batch, env) for fn in key_fns[probe]], batch.length)
            chunk: List[tuple] = []
            for row, bucket in zip(batch.to_rows(), map(lookup, keys)):
                pairs = ()
                if bucket is not None:
                    if build_left:
                        pairs = [other + row for other in bucket]
                    else:
                        pairs = [row + other for other in bucket]
                    if residual is not None:
                        pairs = [p for p in pairs if residual(p, env) is True]
                    chunk.extend(pairs)
                if left_join and not pairs:
                    chunk.append(row + pad)
            if chunk:
                out.append(Batch.from_rows(chunk))
        return out

    def label(self):
        side = ", build=left" if self._build_side == "left" else ""
        return f"HashJoin({self._kind}, keys={len(self._left_keys)}{side})"


def _normalize_merge_key(key):
    """Join key with SQL NULL semantics: a NULL or NaN key (or a composite
    key with such a part) matches nothing, so it normalises to None — which
    also keeps composite keys with NULL parts sortable, and keeps NaN, which
    compare_values ranks "equal" to everything, from gluing unrelated keys
    into one merge run."""
    parts = key if isinstance(key, tuple) else (key,)
    return key if all(_matchable([parts])) else None


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
    """Hash aggregation over dense group slots.

    ``key_exprs`` run on input batches; ``accumulators`` is a list of
    (function_name, argument_expr, distinct), with :func:`count_star` as
    the argument of ``count(*)``.  Output rows are ``group_key_values +
    aggregate_values``, groups in first-seen order.  Each batch's keys map
    to slot numbers and every :class:`_Accumulator` routes its argument
    column there; without keys it folds the whole column at C level."""

    def __init__(self, child, key_exprs, accumulators, global_agg=False):
        self.children = (child,)
        self._key_exprs = key_exprs
        self._accumulators = accumulators
        self._global_agg = global_agg

    def execute_batches(self, env):
        key_exprs = self._key_exprs
        specs = self._accumulators
        states = [
            _Accumulator(func, distinct, slots=0 if key_exprs else 1)
            for func, _arg, distinct in specs
        ]
        index: dict = {}  # group key -> slot
        rows_in = 0
        check = getattr(env, "check", None)
        for batch in self.children[0].batches(env):
            if check is not None:
                check()
            rows_in += batch.length
            if key_exprs:
                keys = _row_keys([fn(batch, env) for fn in key_exprs], batch.length)
                slots = [index.setdefault(key, len(index)) for key in keys]
                for state, (_func, arg, _distinct) in zip(states, specs):
                    state.scatter(slots, arg(batch, env), len(index))
            else:
                for state, (_func, arg, distinct) in zip(states, specs):
                    if arg is count_star and not distinct:
                        state.counts[0] += batch.length
                    else:
                        state.fold(arg(batch, env))
        groups = len(index) if key_exprs else int(rows_in > 0 or self._global_agg)
        if not groups:
            return []
        columns = [state.results() for state in states]
        if len(key_exprs) == 1:
            columns.insert(0, list(index))
        elif key_exprs:
            columns[:0] = [list(column) for column in zip(*index)]
        return [Batch.from_columns(columns, groups)]

    def label(self):
        funcs = ",".join(func for func, _a, _d in self._accumulators)
        return f"Aggregate(keys={len(self._key_exprs)}, [{funcs}])"


def _scatter_count(counts, values, slots, column):
    for slot, value in zip(slots, column):
        if value is not None:
            counts[slot] += 1


def _scatter_sum(counts, values, slots, column):
    for slot, value in zip(slots, column):
        if value is not None:
            counts[slot] += 1
            total = values[slot]
            values[slot] = value if total is None else total + value


def _scatter_best(better):
    """The grouped min / max loop: like a left fold of ``min(a, b)`` it
    keeps the first of equal values, and a leading NaN."""
    def scatter(counts, values, slots, column):
        for slot, value in zip(slots, column):
            if value is not None:
                best = values[slot]
                if best is None or better(value, best):
                    values[slot] = value
    return scatter


_sum_left = partial(reduce, add)
#: function -> (C-level left fold over non-NULL values, per-slot loop)
_REDUCERS = {
    "count": (None, _scatter_count),
    "sum": (_sum_left, _scatter_sum),
    "avg": (_sum_left, _scatter_sum),
    "min": (min, _scatter_best(lt)),
    "max": (max, _scatter_best(gt)),
}


class _Accumulator:
    """One aggregate call's state over dense group slots: ``counts[slot]``
    non-NULL (DISTINCT: distinct) values seen, ``values[slot]`` the running
    sum or extreme (None before the first value).  Every update is a strict
    left fold carried across batches — never a per-batch partial sum, never
    ``sum()`` — so floats are bit-identical at every batch size."""

    __slots__ = ("func", "counts", "values", "_seen", "_fold", "_scatter")

    def __init__(self, func, distinct, slots):
        self.func = func
        self.counts = [0] * slots
        self.values = [None] * slots
        self._seen = set() if distinct else None
        self._fold, self._scatter = _REDUCERS[func]

    def fold(self, column):
        """Global form: reduce a whole argument column into slot 0."""
        values = [v for v in column if v is not None] if column.count(None) else column
        if self._seen is not None:
            values = [v for v in dict.fromkeys(values) if v not in self._seen]
            self._seen.update(values)
        if values:
            self.counts[0] += len(values)
            if self._fold is not None:
                running = self.values[0]
                if running is not None:
                    values = chain((running,), values)
                self.values[0] = self._fold(values)

    def scatter(self, slots, column, groups):
        """Grouped form: route ``column[i]`` to slot ``slots[i]`` of the
        *groups* handed out so far."""
        grow = groups - len(self.counts)
        self.counts.extend([0] * grow)
        self.values.extend([None] * grow)
        if self._seen is not None:
            pairs = dict.fromkeys(zip(slots, column))
            fresh = [pair for pair in pairs if pair not in self._seen]
            self._seen.update(fresh)
            slots, column = [s for s, _v in fresh], [v for _s, v in fresh]
        self._scatter(self.counts, self.values, slots, column)

    def results(self):
        """The aggregate's value per slot."""
        if self.func == "count":
            return self.counts
        if self.func == "avg":
            return [t / n if n else None for t, n in zip(self.values, self.counts)]
        return self.values


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


def _distinct_batches(batches):
    """The distinct rows of *batches* in first-seen order, as batches."""
    out = list(dict.fromkeys(rows_from_batches(batches)))
    return [Batch.from_rows(out)] if out else []


class Distinct(Operator):
    def __init__(self, child):
        self.children = (child,)

    def execute_batches(self, env):
        return _distinct_batches(self.children[0].batches(env))


class Union(Operator):
    def __init__(self, left, right, all_rows=False):
        self.children = (left, right)
        self._all = all_rows

    def execute_batches(self, env):
        combined = list(self.children[0].batches(env))
        combined.extend(self.children[1].batches(env))
        return combined if self._all else _distinct_batches(combined)

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
        boundaries = {v for v in chain(begins, ends) if v is not None and v == v}
        ordered = sorted(boundaries, key=_sort_token)
        # events: only well-formed intervals (begin < end, both non-NULL)
        # can satisfy begin <= t < end, so only they enter the active set
        starts, stops = [], []
        for idx in compress(range(len(begins)), _matchable([begins, ends])):
            b, e = begins[idx], ends[idx]
            try:
                well_formed = b < e
            except TypeError:
                continue
            if well_formed:
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
                in_scan_order = sorted(active)
                row = [t]
                for (func, _arg, distinct), column in zip(specs, values):
                    state = _Accumulator(func, distinct, slots=1)
                    state.fold([column[idx] for idx in in_scan_order])
                    row.append(state.results()[0])
                chunk.append(tuple(row))
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

    NULL/NaN handling is :func:`_matchable` (the PR 5 MergeJoin NaN fix
    family): a NULL or NaN equality key matches nothing, and a
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
        """(key, begin, end, row) entries grouped by key, dropping rows that
        can never join (NULL/NaN key part or period bound)."""
        check = getattr(env, "check", None)
        groups = defaultdict(list)
        for batch in child.batches(env):
            if check is not None:
                check()
            columns = [fn(batch, env) for fn in key_fns]
            keys = _row_keys(columns, batch.length)
            begins, ends = begin_fn(batch, env), end_fn(batch, env)
            entries = zip(keys, begins, ends, batch.to_rows())
            for entry in compress(entries, _matchable(columns + [begins, ends])):
                groups[entry[0]].append(entry)
        return groups

    def execute_batches(self, env):
        check = getattr(env, "check", None)
        left_groups = self._collect(
            self.children[0], self._left_keys,
            self._left_begin, self._left_end, env,
        )
        right_groups = self._collect(
            self.children[1], self._right_keys,
            self._right_begin, self._right_end, env,
        )
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
