"""The query planner: AST → logical plan → rewrites → physical operators.

Planning follows the rewrite-based approach the paper found in every
commercial system (§5.9: *"all of these systems utilize only standard
storage and query processing techniques"*), now staged explicitly:

1. :func:`~.logical.build_logical` turns the FROM/WHERE part of a SELECT
   core into a small relational IR (scans with temporal clauses, derived
   tables, joins, filters);
2. :func:`~.rewrite.rewrite_logical` applies the profile's rule set —
   constant folding, predicate pushdown (single-table conjuncts onto scans,
   multi-table conjuncts into the join-edge pool) and greedy size-ordered
   join-order selection;
3. physical lowering (this module) turns the rewritten IR into operators:
   temporal clauses become partition choices plus period predicates
   (:mod:`.access`), equi-edges become hash joins, the rest nested loops;
4. aggregation, having, distinct, order and limit are stacked on top.

A :class:`PlannedQuery` is reusable across executions with different
parameters — access paths re-decide scan-vs-index at run time from the
parameter values.  It also records which catalog objects it depends on
(``dependencies``: name → catalog version at plan time), which the plan
cache uses for targeted invalidation.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Set

from ..batch import Batch, batches_from_rows
from ..errors import DataError, PlanError, ProgrammingError
from ..expr import Env, Scope, compile_batch_expr, compile_expr, expr_to_string
from ..sql import ast
from . import cost
from . import operators as ops
from .access import ColumnConstraint, TableAccessPlan, TemporalBounds
from .logical import (
    LogicalAlignJoin,
    LogicalDerived,
    LogicalEmpty,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProduct,
    LogicalQuery,
    LogicalScan,
    LogicalTemporalAggregate,
    LogicalValues,
    LogicalVirtualScan,
    build_logical,
    conjoin,
    rebuild_expr,
    relation_columns,
    scans_in_order,
    unit_layout,
)
from .rewrite import rewrite_logical

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _expr_key(expr, scope: Scope) -> str:
    """Structural key for matching group-by expressions (scope-resolved)."""
    if isinstance(expr, ast.ColumnRef):
        try:
            depth, slot = scope.resolve(expr)
            return f"@{depth}.{slot}"
        except ProgrammingError:
            return f"?{expr}"
    if isinstance(expr, ast.Binary):
        return f"({_expr_key(expr.left, scope)}{expr.op}{_expr_key(expr.right, scope)})"
    if isinstance(expr, ast.Unary):
        return f"({expr.op}{_expr_key(expr.operand, scope)})"
    if isinstance(expr, ast.FuncCall):
        inner = ",".join(_expr_key(a, scope) for a in expr.args)
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.Aggregate):
        inner = "*" if expr.arg is None else _expr_key(expr.arg, scope)
        return f"{expr.func}{'~d' if expr.distinct else ''}({inner})"
    return expr_to_string(expr)


#: the comparisons an index can serve, besides BETWEEN
_RANGE_OPS = ("=", "<", "<=", ">", ">=")


def _constraint(column, op, value_fn) -> ColumnConstraint:
    """``column op value``: an upper bound for ``<``/``<=``, a lower bound
    for ``>``/``>=``, both for ``=``."""
    if op == "=":
        return ColumnConstraint(column, op, low=value_fn, high=value_fn)
    if op in ("<", "<="):
        return ColumnConstraint(column, op, high=value_fn)
    return ColumnConstraint(column, op, low=value_fn)


# ---------------------------------------------------------------------------
# planned relations
# ---------------------------------------------------------------------------


def _fill_estimates(op: ops.Operator):
    """Give every operator an ``est_rows`` so EXPLAIN annotates each node.

    Lowering stamps the nodes it can price (scans, joins, aggregates,
    finalize); anything left unstamped inherits the largest child
    estimate — a pass-through guess, but it keeps mis-estimates visible
    next to actuals in EXPLAIN ANALYZE.
    """
    for child in op.children:
        _fill_estimates(child)
    if getattr(op, "est_rows", None) is None:
        child_ests = [
            child.est_rows for child in op.children if child.est_rows is not None
        ]
        op.est_rows = max(child_ests) if child_ests else 1


class _Relation:
    """A planned FROM unit: an operator plus its row layout."""

    def __init__(
        self,
        op: ops.Operator,
        layout,
        bindings: Set[str],
        est_rows: int,
        stats_backed: bool = False,
    ):
        self.op = op
        self.layout = layout            # list of (binding, column)
        self.bindings = bindings
        self.est_rows = est_rows
        #: True when est_rows came from an ANALYZE snapshot (directly or
        #: through a join over one); gates the hash-join build-side swap
        self.stats_backed = stats_backed


def _format_bytes(value: int) -> str:
    """Human-readable byte count for EXPLAIN ANALYZE (``ws≈12.3KB``)."""
    size = float(value)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            if unit == "B":
                return f"{int(size)}B"
            return f"{size:.1f}{unit}"
        size /= 1024.0
    return f"{int(value)}B"


class PlannedQuery:
    """Executable plan: call :meth:`rows` with an :class:`~repro.engine.expr.Env`."""

    def __init__(
        self,
        op: ops.Operator,
        column_names: List[str],
        dependencies: Optional[Dict[str, int]] = None,
        logical: Optional[LogicalQuery] = None,
        subplans: Optional[List["PlannedQuery"]] = None,
    ):
        self.op = op
        self.column_names = column_names
        #: catalog object name -> catalog version at plan time
        self.dependencies: Dict[str, int] = dependencies or {}
        #: the rewritten logical plan of the root SELECT core (None for
        #: set-operation roots, whose branches each have their own)
        self.logical = logical
        #: plans of expression-level subqueries (IN/EXISTS/scalar), which are
        #: compiled into closures and so are not children of ``op``
        self.subplans: List["PlannedQuery"] = subplans or []
        #: global catalog version at last dependency validation (maintained
        #: by the session's plan cache so unchanged catalogs skip the checks)
        self.checked_at_version = -1

    def rows(self, env: Env) -> List[tuple]:
        return self.op.rows(env)

    def explain(self) -> str:
        return self.op.explain()

    def explain_analyze(self, metrics) -> str:
        """Render the operator tree annotated with executed counters.

        Expression-level subqueries render as ``SubPlan`` sections; their
        ``loops`` count shows how often correlation re-ran them.
        """
        lines = self._analyze_lines(self.op, metrics, 0)
        for number, subplan in enumerate(self.subplans, start=1):
            lines.append(f"SubPlan {number}")
            lines.extend(subplan._analyze_lines(subplan.op, metrics, 1))
        return "\n".join(lines)

    def _analyze_lines(self, op, metrics, indent) -> List[str]:
        node = metrics.get(id(op))
        prefix = "  " * indent
        est = getattr(op, "est_rows", None)
        est_note = "" if est is None else f"est rows={est} "
        if node is None:
            lines = [f"{prefix}{op.label()} ({est_note}never executed)"]
        else:
            line = (
                f"{prefix}{op.label()} ({est_note}actual rows={node.rows} "
                f"loops={node.calls} batches={node.batches} "
                f"ws≈{_format_bytes(node.ws_bytes)} "
                f"time={node.time_s * 1000.0:.3f} ms)"
            )
            if node.detail:
                line += f" [{node.detail}]"
            lines = [line]
        for child in op.children:
            lines.extend(self._analyze_lines(child, metrics, indent + 1))
        return lines


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------


class Planner:
    def __init__(self, db):
        self.db = db
        self.profile = db.profile
        # root-scoped bookkeeping for the outermost plan_select in flight
        self._dependencies: Optional[Dict[str, int]] = None
        self._subplans: Optional[List[PlannedQuery]] = None
        self._root_select = None
        self._root_logical: Optional[LogicalQuery] = None

    # -- entry points ---------------------------------------------------------

    def plan_select(self, select: ast.Select, outer_scope: Optional[Scope] = None) -> PlannedQuery:
        if self._dependencies is None:
            self._dependencies = {}
            self._subplans = []
            self._root_select = select
            self._root_logical = None
            try:
                op, _layout, names = self._plan_select(select, outer_scope)
                _fill_estimates(op)
                deps = dict(self._dependencies)
                subplans = list(self._subplans)
                logical = self._root_logical
            finally:
                self._dependencies = None
                self._subplans = None
                self._root_select = None
                self._root_logical = None
            return PlannedQuery(
                op, names, dependencies=deps, logical=logical, subplans=subplans
            )
        # nested planning (subqueries, views) feeds the root's dependency set
        op, _layout, names = self._plan_select(select, outer_scope)
        _fill_estimates(op)
        return PlannedQuery(op, names)

    def logical_plan(
        self, select: ast.Select, outer_scope: Optional[Scope] = None
    ) -> LogicalQuery:
        """Build and rewrite the logical plan of one SELECT core."""
        tracer = getattr(self.db, "tracer", None)
        if tracer is None or not tracer.active:
            query = build_logical(select, self.db)
            return rewrite_logical(query, self.db, self.profile, outer_scope)
        with tracer.span("plan.analyze"):
            query = build_logical(select, self.db)
        with tracer.span("plan.rewrite"):
            return rewrite_logical(query, self.db, self.profile, outer_scope)

    def _note_dependency(self, name: str):
        if self._dependencies is not None:
            key = name.lower()
            if key not in self._dependencies:
                self._dependencies[key] = self.db.catalog.version_of(key)

    # -- select planning ---------------------------------------------------------

    def _plan_select(self, select: ast.Select, outer_scope):
        if select.set_op is not None:
            return self._plan_union(select, outer_scope)
        return self._plan_core(select, outer_scope)

    def _plan_union(self, select, outer_scope):
        op_name, rhs, all_flag = select.set_op
        left_core = ast.Select(
            items=select.items,
            from_items=select.from_items,
            where=select.where,
            group_by=select.group_by,
            having=select.having,
            distinct=select.distinct,
        )
        left_op, left_layout, left_names = self._plan_core(left_core, outer_scope)
        right_op, _right_layout, _right_names = self._plan_select(rhs, outer_scope)
        op = ops.Union(left_op, right_op, all_rows=all_flag)
        if select.order_by or select.limit is not None:
            op = _Finalize(
                op,
                [partial(_output_column, slot) for slot in range(len(left_names))],
                distinct=False,
                sort_specs=self._sort_specs(select.order_by, left_names, None, None),
                limits=self._limit_fns(select, outer_scope),
            )
        return op, [("", name) for name in left_names], left_names

    def _plan_core(self, select: ast.Select, outer_scope):
        # stages 1+2: AST -> logical IR -> rewritten IR
        query = self.logical_plan(select, outer_scope)
        if select is self._root_select:
            self._root_logical = query
        # stage 3: physical lowering
        tracer = getattr(self.db, "tracer", None)
        if tracer is None or not tracer.active:
            return self._lower_query(query, outer_scope)
        with tracer.span("plan.physical"):
            return self._lower_query(query, outer_scope)

    # -- physical lowering ------------------------------------------------------

    def _lower_query(self, query: LogicalQuery, outer_scope):
        select = query.select
        referenced = query.referenced + relation_columns(query.relation)
        relation = self._lower_relation(query.relation, outer_scope, referenced)
        source_op = relation.op
        source_layout = relation.layout
        scope = Scope(source_layout, outer=outer_scope)

        # expand stars in the select list ------------------------------------
        items = self._expand_stars(select.items, source_layout)
        original_items = list(items)  # output names come from the un-rewritten list

        # aggregation --------------------------------------------------------
        has_aggregates = (
            bool(select.group_by)
            or any(ast.contains_aggregate(item.expr) for item in items)
            or (select.having is not None and ast.contains_aggregate(select.having))
        )
        if has_aggregates:
            pre_op, pre_scope, rewritten_items, rewritten_having, rewrite = (
                self._plan_aggregation(select, items, source_op, scope, outer_scope)
            )
            agg_est = (
                1
                if not select.group_by
                else max(1, int(relation.est_rows * cost.GROUP_SELECTIVITY))
            )
            pre_op.est_rows = agg_est
            if rewritten_having is not None:
                pre_op = ops.Filter(
                    pre_op,
                    self._compile(rewritten_having, pre_scope, "selection"),
                    "Filter(having)",
                )
                pre_op.est_rows = agg_est
            items = rewritten_items
            order_rewrite = rewrite
        else:
            pre_op, pre_scope = source_op, scope
            order_rewrite = None
            if select.having is not None:
                pre_op = ops.Filter(
                    pre_op,
                    self._compile(select.having, pre_scope, "selection"),
                    "Filter(having)",
                )

        # projection / distinct / order / limit ------------------------------
        out_names = self._output_names(original_items)
        final = _Finalize(
            pre_op,
            [self._compile(item.expr, pre_scope) for item in items],
            distinct=select.distinct,
            sort_specs=self._sort_specs(
                select.order_by, out_names, pre_scope, order_rewrite
            ),
            limits=self._limit_fns(select, outer_scope),
        )
        if isinstance(select.limit, ast.Literal) and isinstance(select.limit.value, int):
            source_est = getattr(pre_op, "est_rows", None) or relation.est_rows
            final.est_rows = max(0, min(source_est, select.limit.value))
        out_layout = [("", name) for name in out_names]
        return final, out_layout, out_names

    def _lower_relation(self, node: LogicalNode, outer_scope, referenced) -> _Relation:
        if isinstance(node, LogicalValues):
            return _Relation(ops.Materialized([()], "SingleRow"), [], set(), 1)
        if isinstance(node, LogicalScan):
            return self._lower_scan(node, outer_scope, referenced)
        if isinstance(node, LogicalDerived):
            return self._lower_derived(node)
        if isinstance(node, LogicalVirtualScan):
            return self._lower_virtual_scan(node)
        if isinstance(node, LogicalJoin):
            left = self._lower_relation(node.left, outer_scope, referenced)
            right = self._lower_relation(node.right, outer_scope, referenced)
            return self._build_join(
                left,
                right,
                list(node.conjuncts),
                node.kind,
                outer_scope,
                est_hint=node.est_hint,
            )
        if isinstance(node, LogicalAlignJoin):
            self.db.metrics.inc("plan.temporal_fusions")
            return self._lower_align_join(node, outer_scope, referenced)
        if isinstance(node, LogicalTemporalAggregate):
            self.db.metrics.inc("plan.temporal_fusions")
            return self._lower_temporal_aggregate(node, outer_scope, referenced)
        if isinstance(node, LogicalFilter):
            relation = self._lower_relation(node.child, outer_scope, referenced)
            scope = Scope(relation.layout, outer=outer_scope)
            filter_op = ops.Filter(
                relation.op,
                self._compile(node.predicate, scope, "selection"),
                f"Filter({node.label})",
            )
            filter_op.est_rows = relation.est_rows
            return _Relation(
                filter_op,
                relation.layout,
                relation.bindings,
                relation.est_rows,
                stats_backed=relation.stats_backed,
            )
        if isinstance(node, LogicalEmpty):
            return self._lower_empty(node)
        if isinstance(node, LogicalProduct):
            raise PlanError("join-order selection left a Product node unlowered")
        raise PlanError(f"cannot lower logical node {node!r}")

    def _lower_empty(self, node: LogicalEmpty) -> _Relation:
        """A subtree the rewrite proved empty: a zero-row operator with the
        original subtree's layout.  The plan still depends on every table
        the pruned subtree would have read — DDL must invalidate it."""
        for scan in scans_in_order(node.child):
            self._note_dependency(scan.ref.name)
        op = ops.EmptyScan(f"EmptyScan({node.reason})")
        op.est_rows = 0
        return _Relation(op, unit_layout(node.child), set(node.bindings), 0)

    def _lower_derived(self, node: LogicalDerived) -> _Relation:
        if node.view_name is not None:
            self._note_dependency(node.view_name)
        sub_op, _layout, names = self._plan_select(node.select, None)
        layout = [(node.alias, name) for name in names]
        cache_key = id(node)

        def produce(env, _op=sub_op, _key=cache_key):
            cached = env.cache.get(_key)
            if cached is None:
                cached = _op.rows(env)
                env.cache[_key] = cached
            return cached

        op = ops.Subplan(produce, f"Derived({node.alias})")
        op.children = (sub_op,)
        return _Relation(op, layout, {node.alias}, 1000)

    def _lower_virtual_scan(self, node: LogicalVirtualScan) -> _Relation:
        """Lower a ``repro_stat_*`` system view to a ``VirtualScan`` Subplan.

        The dependency note is recorded for uniformity; system views have
        no catalog version (``version_of`` stays 0), so cached plans over
        them never invalidate — correct, since the *rows* are assembled
        fresh on every execution."""
        self._note_dependency(node.view_name)
        db = self.db
        view_name = node.view_name

        def produce(env, _db=db, _name=view_name):
            return _db.system_view_rows(_name)

        op = ops.Subplan(produce, f"VirtualScan({view_name})")
        op.est_rows = node.est_rows
        layout = [(node.alias, column) for column in node.columns]
        return _Relation(op, layout, {node.alias}, node.est_rows)

    def _lower_scan(self, node: LogicalScan, outer_scope, referenced) -> _Relation:
        ref = node.ref
        self._note_dependency(ref.name)
        table = node.table
        schema = table.schema
        binding = node.binding
        layout = [(binding, column) for column in schema.column_names()]
        names = {name for ref, name in referenced if ref in (binding, None)}
        columns = None
        if table.options.store_kind == "column" and "*" not in names:
            # late materialisation: a column store decodes only what the
            # query reads, and that narrower list is the scan's layout
            columns = tuple(i for i, (_b, c) in enumerate(layout) if c in names)
            layout = [layout[i] for i in columns]
        scope = Scope(layout, outer=outer_scope)

        # every window is a storage window, and its two comparisons are
        # index constraints (after the pushed conjuncts', in clause order)
        restrictions = node.restrictions
        current = node.current_restriction
        if current is not None:
            restrictions += (current,)
        temporal_filters: List[TemporalBounds] = []
        window_constraints: List[ColumnConstraint] = []
        for restriction in restrictions:
            if restriction.window is None:
                continue
            low, high, inclusive = restriction.window
            low_fn = self._value_fn(low, outer_scope, required=True)
            high_fn = low_fn if restriction.is_point else self._value_fn(
                high, outer_scope, required=True
            )
            period = restriction.period
            temporal_filters.append(TemporalBounds(
                period.begin_column, period.end_column, low_fn, high_fn, inclusive
            ))
            window_constraints.extend(
                _constraint(column, op, fn)
                for column, op, fn in restriction.conjuncts(low_fn, high_fn)
            )
        partitions = list(node.partitions)
        has_system_clause = node.system_clause

        # pushed conjuncts (assigned by the rewrite pass) -> access constraints
        pushed = list(node.pushed)
        constraints: List[ColumnConstraint] = []
        for conjunct in pushed:
            constraint = self._to_constraint(conjunct, node, outer_scope)
            if constraint is not None:
                constraints.append(constraint)

        # System B's side table joins back only for a read of system time
        # (the implicit-current filter of a single table reads sys_end)
        period = schema.system_period
        need_temporal = table.is_versioned and (
            has_system_clause or not table.has_split or "*" in names
            or not names.isdisjoint((period.begin_column, period.end_column))
        )
        access = TableAccessPlan(
            table,
            self.profile,
            partitions,
            temporal_filters,
            constraints + window_constraints,
            need_temporal,
            has_system_clause,
            columns,
        )
        description = (
            f"Access({schema.name} as {binding}, partitions={partitions}, "
            f"temporal={len(restrictions)})"
        )
        # node.est_rows carries the partition-count heuristic from
        # build_logical, or a refined per-partition selectivity estimate
        # when the rewrite pass found a valid ANALYZE snapshot
        est = max(1, node.est_rows)
        stats_backed = node.est_source == "stats"
        op: ops.Operator = ops.TableAccess(access, description)
        if pushed:
            # the access node shows the pre-filter partition estimate
            op.est_rows = node.stored_rows()
            op = ops.Filter(
                op,
                self._compile(conjoin(pushed), scope, "selection"),
                f"Filter({binding})",
            )
        op.est_rows = est
        return _Relation(op, layout, {binding}, est, stats_backed=stats_backed)

    # -- joins -----------------------------------------------------------------

    def _build_join(
        self, left: _Relation, right: _Relation, conjuncts, kind, outer_scope,
        est_hint: Optional[int] = None,
    ) -> _Relation:
        combined_layout = left.layout + right.layout
        combined_bindings = left.bindings | right.bindings
        stats_backed = left.stats_backed or right.stats_backed
        left_scope = Scope(left.layout, outer=outer_scope)
        right_scope = Scope(right.layout, outer=outer_scope)
        combined_scope = Scope(combined_layout, outer=outer_scope)

        left_keys, right_keys, residual = [], [], []
        for conjunct in conjuncts:
            pair = self._equi_key(conjunct, left_scope, right_scope)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        residual = conjoin(residual) if residual else None
        est = max(1, (left.est_rows * right.est_rows) // max(left.est_rows, right.est_rows, 1))
        if left_keys:
            # With statistics-backed estimates, build the hash table on the
            # cheaper input.  Left joins must keep probe=left (every left
            # row must surface), and without statistics the historical
            # build=right layout is preserved byte-for-byte.
            build_side = "right"
            if kind == "inner" and stats_backed and left.est_rows < right.est_rows:
                build_side = "left"
            pairs = residual and self._compile(
                residual, combined_scope, "pair",
                left_width=len(left.layout), build_left=build_side == "left",
            )
            op = ops.HashJoin(
                left.op,
                right.op,
                left_keys,
                right_keys,
                residual=pairs,
                kind=kind,
                right_width=len(right.layout),
                build_side=build_side,
            )
        elif residual is not None or kind == "left":
            predicate = residual and self._compile(residual, combined_scope, "scalar")
            op = ops.NestedLoopJoin(
                left.op, right.op, predicate, kind=kind, right_width=len(right.layout)
            )
            est = max(left.est_rows, right.est_rows)
        else:
            op = ops.CrossJoin(left.op, right.op)
            est = left.est_rows * max(right.est_rows, 1)
        if est_hint is not None:
            est = max(1, est_hint)
        op.est_rows = est
        return _Relation(
            op, combined_layout, combined_bindings, est, stats_backed=stats_backed
        )

    def _lower_temporal_aggregate(
        self, node: LogicalTemporalAggregate, outer_scope, referenced
    ) -> _Relation:
        child = self._lower_relation(node.child, outer_scope, referenced)
        scope = Scope(child.layout, outer=outer_scope)
        op = ops.TemporalAggregate(
            child.op,
            self._compile(node.begin, scope),
            self._compile(node.end, scope),
            self._accumulators(node.aggregates, scope),
            period=node.period,
        )
        op.est_rows = max(
            1, int(cost.estimate_temporal_aggregate_rows(child.est_rows))
        )
        layout = [("__tagg", "t")] + [
            ("__tagg", f"__a{i}") for i in range(len(node.aggregates))
        ]
        return _Relation(
            op, layout, {"__tagg"}, op.est_rows, stats_backed=child.stats_backed
        )

    def _lower_align_join(
        self, node: LogicalAlignJoin, outer_scope, referenced
    ) -> _Relation:
        left = self._lower_relation(node.left, outer_scope, referenced)
        right = self._lower_relation(node.right, outer_scope, referenced)
        left_scope = Scope(left.layout, outer=outer_scope)
        right_scope = Scope(right.layout, outer=outer_scope)
        left_keys, right_keys = [], []
        for conjunct in node.conjuncts:
            pair = self._equi_key(conjunct, left_scope, right_scope)
            if pair is None:
                raise ProgrammingError(
                    "TEMPORAL JOIN condition must equate a column of each "
                    f"side, got {expr_to_string(conjunct)!r}"
                )
            left_keys.append(pair[0])
            right_keys.append(pair[1])
        left_begin, left_end = node.left_period
        right_begin, right_end = node.right_period
        op = ops.TemporalAlignJoin(
            left.op,
            right.op,
            left_keys,
            right_keys,
            self._compile(left_begin, left_scope),
            self._compile(left_end, left_scope),
            self._compile(right_begin, right_scope),
            self._compile(right_end, right_scope),
            period=node.period,
        )
        op.est_rows = max(1, int(cost.estimate_align_join_rows(
            left.est_rows, right.est_rows, len(left_keys)
        )))
        layout = (
            left.layout
            + right.layout
            + [("__align", "overlap_begin"), ("__align", "overlap_end")]
        )
        bindings = left.bindings | right.bindings | {"__align"}
        return _Relation(
            op,
            layout,
            bindings,
            op.est_rows,
            stats_backed=left.stats_backed or right.stats_backed,
        )

    def _equi_key(self, conjunct, left_scope, right_scope):
        """If *conjunct* is ``left_expr = right_expr`` with each side
        resolving against one input alone, return the compiled batch key
        extractors (left_fn, right_fn)."""
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            return None
        for first, second in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
            try:
                return (
                    compile_batch_expr(first, Scope(left_scope.layout)),
                    compile_batch_expr(second, Scope(right_scope.layout)),
                )
            except ProgrammingError:
                continue
        return None

    def _to_constraint(self, conjunct, scan: LogicalScan, outer_scope):
        """A pushed conjunct as a ColumnConstraint when sargable."""
        comparison = ast.column_comparison(conjunct, scan.owns)
        if comparison is None:
            return None
        column, op, value = comparison
        if op == "between":
            low_fn = self._value_fn(value[0], outer_scope)
            high_fn = self._value_fn(value[1], outer_scope)
            if low_fn is None or high_fn is None:
                return None
            return ColumnConstraint(column.name, op, low=low_fn, high=high_fn)
        if op not in _RANGE_OPS:
            return None
        value_fn = self._value_fn(value, outer_scope)
        return None if value_fn is None else _constraint(column.name, op, value_fn)

    def _value_fn(self, expr, outer_scope, required=False):
        """``fn(env)`` for an expression over constants, params and outer
        refs; None for None, or for a local column unless *required*."""
        if expr is None:
            return None
        try:
            fn = compile_expr(expr, Scope([], outer=outer_scope))
        except ProgrammingError:
            if required:
                raise
            return None
        return lambda env: fn((), env)

    # -- aggregation -----------------------------------------------------------

    def _plan_aggregation(self, select, items, source_op, scope, outer_scope):
        group_keys = list(select.group_by)
        key_fns = [self._compile(expr, scope) for expr in group_keys]
        key_ids = [_expr_key(expr, scope) for expr in group_keys]

        aggregates: List[ast.Aggregate] = []
        agg_ids: List[str] = []

        def register(agg: ast.Aggregate) -> int:
            agg_id = _expr_key(agg, scope)
            if agg_id in agg_ids:
                return agg_ids.index(agg_id)
            agg_ids.append(agg_id)
            aggregates.append(agg)
            return len(aggregates) - 1

        def rewrite(expr):
            if expr is None:
                return None
            expr_id = _expr_key(expr, scope)
            for i, key_id in enumerate(key_ids):
                if expr_id == key_id:
                    return ast.ColumnRef(f"__g{i}", table="__agg")
            if isinstance(expr, ast.Aggregate):
                idx = register(expr)
                return ast.ColumnRef(f"__a{idx}", table="__agg")
            return rebuild_expr(expr, rewrite)

        rewritten_items = [
            ast.SelectItem(rewrite(item.expr), item.alias) for item in items
        ]
        rewritten_having = rewrite(select.having) if select.having is not None else None

        agg_op = ops.Aggregate(
            source_op,
            key_fns,
            self._accumulators(aggregates, scope),
            global_agg=not group_keys,
        )
        post_layout = [("__agg", f"__g{i}") for i in range(len(group_keys))] + [
            ("__agg", f"__a{i}") for i in range(len(aggregates))
        ]
        post_scope = Scope(post_layout, outer=outer_scope)
        return agg_op, post_scope, rewritten_items, rewritten_having, rewrite

    def _accumulators(self, aggregates, scope):
        """(function, batch argument expr, distinct) per aggregate call."""
        return [
            (
                agg.func,
                self._compile(agg.arg, scope)
                if agg.arg is not None
                else ops.count_star,
                agg.distinct,
            )
            for agg in aggregates
        ]

    # -- projection / ordering ------------------------------------------------------

    def _expand_stars(self, items, source_layout):
        out = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                for binding, column in source_layout:
                    if item.expr.table is None or item.expr.table == binding:
                        out.append(
                            ast.SelectItem(ast.ColumnRef(column, table=binding), None)
                        )
            else:
                out.append(item)
        if not out:
            raise ProgrammingError("empty select list after star expansion")
        return out

    def _output_names(self, items) -> List[str]:
        names = []
        for index, item in enumerate(items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(f"col{index}")
        return names

    def _sort_specs(self, order_by, out_names, pre_scope, order_rewrite):
        """Each spec is ('out', slot, desc) or ('pre', batch fn, desc); with
        no *pre_scope* (after UNION) only output columns can be ordered on."""
        specs = []
        for order_item in order_by:
            expr = order_item.expr
            desc = not order_item.ascending
            if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                slot = expr.value - 1
                if not (0 <= slot < len(out_names)):
                    raise ProgrammingError(f"ORDER BY position {expr.value} out of range")
                specs.append(("out", slot, desc))
                continue
            if isinstance(expr, ast.ColumnRef) and expr.table is None and expr.name in out_names:
                specs.append(("out", out_names.index(expr.name), desc))
                continue
            if pre_scope is None:
                raise ProgrammingError(
                    "ORDER BY after UNION must reference output columns"
                )
            target = order_rewrite(expr) if order_rewrite is not None else expr
            fn = self._compile(target, pre_scope)
            specs.append(("pre", fn, desc))
        return specs

    def _limit_fns(self, select, outer_scope):
        """Scalar LIMIT and OFFSET functions (None when absent)."""
        scope = Scope([], outer=outer_scope)
        return [expr and self._compile(expr, scope, "scalar")
                for expr in (select.limit, select.offset)]

    # -- expression compilation with subquery support ------------------------------

    def _compile(self, expr, scope, spelling="batch", **split):
        """The spelling this call site needs: ``batch`` per input row,
        ``selection`` / ``pair`` for filters / hash-join residuals."""
        return compile_expr(expr, scope, self._subquery_compiler, spelling, **split)

    def _subquery_compiler(self, select: ast.Select, scope: Scope):
        # planned once: a resolve that reaches *scope* from inside the
        # subquery, at any depth, makes it correlated
        reached = scope.resolved
        planned = self.plan_select(select, outer_scope=scope)
        correlated = scope.resolved != reached
        if self._subplans is not None:
            self._subplans.append(planned)
        cache_key = id(planned)

        def run(env: Env):
            # uncorrelated: once per statement execution
            if correlated:
                return planned.rows(env)
            cached = env.cache.get(cache_key)
            if cached is None:
                cached = planned.rows(env)
                env.cache[cache_key] = cached
            return cached

        run.correlated = correlated
        return run


def _output_column(slot, batch, env):
    """Identity item function: column *slot* of the input as it comes."""
    return batch.column(slot)


def _bound(clause, fn, env, default):
    """The value of a LIMIT / OFFSET function: absent or NULL is *default*
    (no limit, offset 0), a negative count is an error (PostgreSQL)."""
    value = None if fn is None else fn((), env)
    if value is None:
        return default
    value = int(value)
    if value < 0:
        raise DataError(f"{clause} must not be negative, got {value}")
    return value


class _Finalize(ops.Operator):
    """Projection + distinct + order + limit in one node.

    Keeps pre-projection rows alongside the projected output (only when
    a sort spec needs them) so ORDER BY can reference either the
    projected output (aliases, positions) or the pre-projection row
    (arbitrary expressions), as SQL requires.  Projection runs
    chunk-wise, one output column per item expression.
    """

    def __init__(self, child, item_fns, distinct, sort_specs, limits):
        self.children = (child,)
        self._item_fns = item_fns
        self._distinct = distinct
        self._sort_specs = sort_specs
        self._limit_fn, self._offset_fn = limits

    def execute_batches(self, env):
        item_fns = self._item_fns
        need_pre = any(spec[0] == "pre" for spec in self._sort_specs)
        pre_rows: List[tuple] = []
        out_rows: List[tuple] = []
        for batch in self.children[0].batches(env):
            env.check()
            out_rows.extend(zip(*[fn(batch, env) for fn in item_fns]))
            if need_pre:
                pre_rows.extend(batch.to_rows())
        if self._distinct:
            seen = set()
            keep = []
            for index, out_row in enumerate(out_rows):
                if out_row not in seen:
                    seen.add(out_row)
                    keep.append(index)
            if len(keep) != len(out_rows):
                out_rows = [out_rows[i] for i in keep]
                if need_pre:
                    pre_rows = [pre_rows[i] for i in keep]
        for spec in reversed(self._sort_specs):
            kind, key, desc = spec
            env.check()
            if kind == "out":
                keys = [row[key] for row in out_rows]
            else:
                keys = key(Batch.from_rows(pre_rows), env)
            order = sorted(
                range(len(out_rows)),
                key=lambda i: ops._SortToken(keys[i]),
                reverse=desc,
            )
            out_rows = [out_rows[i] for i in order]
            if need_pre:
                pre_rows = [pre_rows[i] for i in order]
        if self._limit_fn is not None:
            start = _bound("OFFSET", self._offset_fn, env, 0)
            count = _bound("LIMIT", self._limit_fn, env, None)
            out_rows = out_rows[start:] if count is None else out_rows[start:start + count]
        return batches_from_rows(out_rows)

    def label(self):
        bits = [f"Project({len(self._item_fns)})"]
        if self._distinct:
            bits.append("distinct")
        if self._sort_specs:
            bits.append(f"sort={len(self._sort_specs)}")
        if self._limit_fn is not None:
            bits.append("limit")
        return "Finalize[" + ", ".join(bits) + "]"

