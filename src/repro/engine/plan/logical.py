"""Logical plan IR: the stage between the AST and physical operators.

The planner used to go from AST straight to physical operators in one
monolithic pass.  This module gives queries an intermediate, inspectable
shape: a small relational tree built from the FROM/WHERE part of a SELECT
(scans, derived tables, joins, filters), with the projection/aggregation
part carried alongside on the owning :class:`LogicalQuery`.

The tree is deliberately close to the AST — table references keep their
temporal clauses, predicates stay expression nodes — because the paper's
systems optimise exactly here: which conjuncts reach a scan decides
index-vs-scan (§5.3.3), and join order decides the intermediate sizes.
Rewrite rules (:mod:`.rewrite`) transform this IR; physical lowering in
:mod:`.planner` turns the result into operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Set, Tuple

from ..errors import PlanError, ProgrammingError
from ..sql import ast
from ..types import END_OF_TIME

# ---------------------------------------------------------------------------
# predicate helpers (shared by the rewriter and the planner)
# ---------------------------------------------------------------------------


def split_conjuncts(expr: Optional[ast.Expr]) -> List[ast.Expr]:
    """Flatten a predicate into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[ast.Expr]) -> Optional[ast.Expr]:
    result = None
    for conjunct in conjuncts:
        result = conjunct if result is None else ast.Binary("and", result, conjunct)
    return result


def collect_column_refs(node) -> List[ast.ColumnRef]:
    """All column references in an expression, subqueries included."""
    refs: List[ast.ColumnRef] = []
    _walk_with_subqueries(node, refs)
    return refs


def _walk_with_subqueries(node, refs):
    if node is None:
        return
    for sub in ast.walk_expr(node):
        if isinstance(sub, ast.ColumnRef):
            refs.append(sub)
        elif isinstance(sub, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            _walk_select(sub.subquery, refs)


def _walk_select(select: ast.Select, refs):
    for item in select.items:
        _walk_with_subqueries(item.expr, refs)
    _walk_with_subqueries(select.where, refs)
    for expr in select.group_by:
        _walk_with_subqueries(expr, refs)
    _walk_with_subqueries(select.having, refs)
    for item in select.order_by:
        _walk_with_subqueries(item.expr, refs)
    for from_item in select.from_items:
        _walk_from(from_item, refs)
    if select.set_op is not None:
        _walk_select(select.set_op[1], refs)


def _walk_from(item, refs):
    if isinstance(item, ast.Join):
        _walk_from(item.left, refs)
        _walk_from(item.right, refs)
        _walk_with_subqueries(item.on, refs)
    elif isinstance(item, ast.DerivedTable):
        _walk_select(item.select, refs)
    elif isinstance(item, ast.TableRef):
        for clause in item.temporal:
            _walk_with_subqueries(clause.low, refs)
            _walk_with_subqueries(clause.high, refs)


def referenced_columns(select: ast.Select) -> List[Tuple[Optional[str], str]]:
    """All (binding, column) pairs a query touches; stars become ``*``."""
    refs: List[ast.ColumnRef] = []
    _walk_select(select, refs)
    out: List[Tuple[Optional[str], str]] = [(ref.table, ref.name) for ref in refs]
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            out.append((item.expr.table, "*"))
    return out


def relation_columns(node: "LogicalNode") -> List[Tuple[Optional[str], str]]:
    """The (binding, column) pairs a rewritten FROM/WHERE tree reads: a
    rule may introduce references the text never named (``GROUP BY
    TEMPORAL``'s period endpoints)."""
    exprs: Sequence = ()
    if isinstance(node, LogicalScan):
        exprs = node.pushed
    elif isinstance(node, LogicalJoin):
        exprs = node.conjuncts
    elif isinstance(node, LogicalAlignJoin):
        exprs = node.conjuncts + node.left_period + node.right_period
    elif isinstance(node, LogicalTemporalAggregate):
        exprs = (node.begin, node.end) + node.aggregates
    elif isinstance(node, LogicalFilter):
        exprs = (node.predicate,)
    out = [(ref.table, ref.name) for expr in exprs for ref in collect_column_refs(expr)]
    for child in node.children():
        out.extend(relation_columns(child))
    return out


def rebuild_expr(expr, rewrite):
    """Rebuild an expression node with rewritten children.

    Source spans carry over to the rebuilt node so analyzer diagnostics
    keep pointing at the original SQL text after rewrites.
    """
    if isinstance(expr, ast.Binary):
        out = ast.Binary(expr.op, rewrite(expr.left), rewrite(expr.right))
    elif isinstance(expr, ast.Unary):
        out = ast.Unary(expr.op, rewrite(expr.operand))
    elif isinstance(expr, ast.FuncCall):
        out = ast.FuncCall(expr.name, tuple(rewrite(a) for a in expr.args))
    elif isinstance(expr, ast.Case):
        out = ast.Case(
            tuple((rewrite(c), rewrite(r)) for c, r in expr.branches),
            rewrite(expr.default) if expr.default is not None else None,
        )
    elif isinstance(expr, ast.Between):
        out = ast.Between(
            rewrite(expr.operand), rewrite(expr.low), rewrite(expr.high), expr.negated
        )
    elif isinstance(expr, ast.Like):
        out = ast.Like(rewrite(expr.operand), rewrite(expr.pattern), expr.negated)
    elif isinstance(expr, ast.IsNull):
        out = ast.IsNull(rewrite(expr.operand), expr.negated)
    elif isinstance(expr, ast.InList):
        out = ast.InList(
            rewrite(expr.operand), tuple(rewrite(i) for i in expr.items), expr.negated
        )
    else:
        # literals, params, column refs, subqueries: returned unchanged
        return expr
    return ast.copy_span(expr, out)


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------


class LogicalNode:
    """Base class of all logical plan nodes."""

    @property
    def est_rows(self) -> int:
        """Leaves carry their own estimate; a composite unit (an explicit
        or temporal join in a FROM list) counts as its largest input."""
        return max(child.est_rows for child in self.children())

    @property
    def bindings(self) -> Set[str]:
        return set()

    def children(self) -> Tuple["LogicalNode", ...]:
        return ()


@dataclass
class LogicalValues(LogicalNode):
    """The single-row relation behind a FROM-less SELECT."""

    est_rows: int = 1


@dataclass(frozen=True)
class TemporalRestriction:
    """One temporal clause of a scan, read once: the period it names
    (``TableSchema.resolve_period``) and its window
    (``ast.TemporalClause.window``)."""

    clause: Optional[ast.TemporalClause]  # None: the implicit-current one
    period: object  # catalog.PeriodDef
    window: Optional[Tuple[ast.Expr, ast.Expr, bool]]  # None for ALL

    @property
    def is_point(self) -> bool:
        """``AS OF``: one instant, both ends the same expression."""
        return self.window is not None and self.window[0] is self.window[1]

    def conjuncts(self, low, high):
        """The window as the two comparisons a version's period passes,
        ``(column, op, value)`` with *low* / *high* the window's ends in
        the caller's own form: ``begin <= high`` (``<`` when the high end
        is exclusive) and ``end > low``.  A NULL end is open."""
        period = self.period
        return (
            (period.begin_column, "<=" if self.window[2] else "<", high),
            (period.end_column, ">", low),
        )


@dataclass
class LogicalScan(LogicalNode):
    """A base-table reference, temporal clauses and pushed conjuncts attached.

    What the clauses mean is decided here, once, for every reader:
    :attr:`restrictions` (each clause's period and window), and the
    partitions the scan reads with the implicit-current window of a
    single-table layout (:attr:`partitions`, :attr:`current_restriction`).
    """

    ref: ast.TableRef
    table: object = field(repr=False, compare=False)  # storage.VersionedTable
    est_rows: int = 1
    pushed: Tuple[ast.Expr, ...] = ()
    #: "heuristic" (partition row counts) or "stats" (ANALYZE snapshot
    #: refined the estimate; the cost-based join order may engage)
    est_source: str = "heuristic"
    #: every temporal clause, in order, with its period resolved
    restrictions: Tuple[TemporalRestriction, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        # an unknown period raises CatalogError here, when the scan is built
        resolve = self.schema.resolve_period
        self.restrictions = tuple(
            TemporalRestriction(clause, resolve(clause.period), clause.window())
            for clause in self.ref.temporal
        )

    @property
    def schema(self):  # catalog.TableSchema
        return self.table.schema

    @property
    def binding(self) -> str:
        return self.ref.binding

    @property
    def bindings(self) -> Set[str]:
        return {self.ref.binding}

    def owns(self, expr) -> bool:
        """Whether *expr* is a reference to a column of this scan."""
        return (
            isinstance(expr, ast.ColumnRef)
            and expr.table in (None, self.binding)
            and self.schema.has_column(expr.name)
        )

    @property
    def system_clause(self) -> bool:
        """An explicit system-time clause: closed versions may match."""
        return any(r.period.is_system for r in self.restrictions)

    @property
    def partitions(self) -> Tuple[str, ...]:
        """The partitions the scan reads: the current (or single) one, and
        a split table's history under a system-time clause (Fig 6)."""
        table = self.table
        current = table.current_partition_name()
        if table.is_versioned and table.has_split and self.system_clause:
            return (current, "history")
        return (current,)

    @property
    def current_restriction(self) -> Optional[TemporalRestriction]:
        """The window a versioned single table (Systems D and E) read
        without a system-time clause keeps open versions by, on the
        system period: ``(END_OF_TIME - 1, END_OF_TIME, False)``."""
        table = self.table
        if not table.is_versioned or table.has_split or self.system_clause:
            return None
        window = (ast.Literal(END_OF_TIME - 1), ast.Literal(END_OF_TIME), False)
        return TemporalRestriction(None, self.schema.system_period, window)

    def stored_rows(self) -> int:
        """The versions the scan's partitions hold (at least 1): the
        estimate before statistics, and the access node's in EXPLAIN."""
        table = self.table
        rows = table.current_count()
        if "history" in self.partitions:
            rows += table.history_count()
        return max(1, rows)


@dataclass
class LogicalDerived(LogicalNode):
    """A derived table (subquery in FROM) or an expanded view."""

    select: ast.Select
    alias: str
    view_name: Optional[str] = None
    columns: Tuple[str, ...] = ()
    est_rows: int = 1000

    @property
    def bindings(self) -> Set[str]:
        return {self.alias}


@dataclass
class LogicalVirtualScan(LogicalNode):
    """A ``repro_stat_*`` system view: a virtual relation materialised from
    engine state at execution time (no storage, no temporal clauses)."""

    view_name: str
    alias: str
    columns: Tuple[str, ...] = ()
    est_rows: int = 64

    @property
    def bindings(self) -> Set[str]:
        return {self.alias}


@dataclass
class LogicalJoin(LogicalNode):
    """A join with its conjuncts still in AST form (equi-key split happens
    at lowering, where compiled scopes exist)."""

    kind: str  # "inner" | "left"
    left: LogicalNode
    right: LogicalNode
    conjuncts: Tuple[ast.Expr, ...] = ()
    #: cardinality stamped by the cost-based join order; None falls back
    #: to the structural heuristic below
    est_hint: Optional[int] = None

    @property
    def bindings(self) -> Set[str]:
        return self.left.bindings | self.right.bindings

    def children(self):
        return (self.left, self.right)


@dataclass
class LogicalAlignJoin(LogicalNode):
    """A period-align temporal join (dialect ``TEMPORAL JOIN``): equality
    conjuncts between the two sides plus an implicit overlap of one
    period per side.  The layout is
    ``left + right`` with ``__align.overlap_begin``/``overlap_end``
    (the intersected period) appended."""

    left: LogicalNode
    right: LogicalNode
    conjuncts: Tuple[ast.Expr, ...] = ()
    left_period: Tuple[ast.Expr, ast.Expr] = ()
    right_period: Tuple[ast.Expr, ast.Expr] = ()
    period: str = "system_time"

    @property
    def bindings(self) -> Set[str]:
        return self.left.bindings | self.right.bindings

    def children(self):
        return (self.left, self.right)


@dataclass
class LogicalTemporalAggregate(LogicalNode):
    """Sweep-line temporal aggregation over one relation: group by the
    constant intervals of *period*, aggregating the versions active in
    each.  Exposes ``__tagg.t`` (the interval start) plus one
    ``__tagg.__a<i>`` column per aggregate."""

    child: LogicalNode
    begin: ast.Expr
    end: ast.Expr
    aggregates: Tuple[ast.Aggregate, ...] = ()
    period: str = "system_time"

    @property
    def bindings(self) -> Set[str]:
        return {"__tagg"}

    def children(self):
        return (self.child,)


@dataclass
class LogicalProduct(LogicalNode):
    """An unordered FROM list plus the join-edge pool, before join-order
    selection replaces it with a left-deep :class:`LogicalJoin` chain."""

    units: Tuple[LogicalNode, ...]
    edges: Tuple[Tuple[frozenset, ast.Expr], ...] = ()

    @property
    def bindings(self) -> Set[str]:
        out: Set[str] = set()
        for unit in self.units:
            out |= unit.bindings
        return out

    def children(self):
        return tuple(self.units)


@dataclass
class LogicalFilter(LogicalNode):
    """A residual predicate above its child relation."""

    child: LogicalNode
    predicate: ast.Expr
    label: str = "where"

    @property
    def bindings(self) -> Set[str]:
        return self.child.bindings

    def children(self):
        return (self.child,)


@dataclass
class LogicalEmpty(LogicalNode):
    """A subtree proven to return no rows (contradictory constraints).

    The original subtree stays attached as ``child`` — it still carries
    the layout (bindings and columns) the surrounding plan resolves
    names against; only execution is replaced, by an ``EmptyScan``.
    """

    child: LogicalNode
    reason: str = "contradictory constraints"
    est_rows: int = 0

    @property
    def bindings(self) -> Set[str]:
        return self.child.bindings

    def children(self):
        return (self.child,)


@dataclass
class LogicalQuery:
    """One SELECT core as a logical plan.

    ``relation`` is the FROM/WHERE tree (None only before building);
    projection, aggregation, ordering and limits are read from ``select``
    during lowering — they are scope-dependent and carry no join structure
    worth rewriting here.
    """

    select: ast.Select
    relation: LogicalNode
    referenced: List[Tuple[Optional[str], str]]
    applied_rules: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# building the IR from the AST
# ---------------------------------------------------------------------------


def build_logical(select: ast.Select, db) -> LogicalQuery:
    """Build the logical plan for one SELECT core (no set operations)."""
    referenced = referenced_columns(select)
    if select.from_items:
        units = tuple(_build_from_item(item, db) for item in select.from_items)
        relation: LogicalNode = units[0] if len(units) == 1 else LogicalProduct(units)
        if select.where is not None:
            relation = LogicalFilter(relation, select.where, "where")
    else:
        relation = LogicalValues()
        if select.where is not None:
            relation = LogicalFilter(relation, select.where, "no-from")
    return LogicalQuery(select, relation, referenced)


def _build_from_item(item, db) -> LogicalNode:
    if isinstance(item, ast.TableRef):
        view = getattr(db, "view", lambda _n: None)(item.name)
        if view is not None:
            if item.temporal:
                raise ProgrammingError(
                    f"temporal clauses are not supported on view {item.name!r}"
                )
            return LogicalDerived(
                view,
                item.binding,
                view_name=item.name,
                columns=tuple(output_columns_of(view, db)),
            )
        system_columns = getattr(
            db, "system_view_columns", lambda _n: None
        )(item.name)
        if system_columns is not None:
            if item.temporal:
                raise ProgrammingError(
                    f"temporal clauses are not supported on system view "
                    f"{item.name!r}"
                )
            return LogicalVirtualScan(
                item.name.lower(), item.binding, columns=system_columns
            )
        table = db.table(item.name)
        scan = LogicalScan(item, table)
        scan.est_rows = scan.stored_rows()
        return scan
    if isinstance(item, ast.DerivedTable):
        return LogicalDerived(
            item.select,
            item.alias,
            columns=tuple(output_columns_of(item.select, db)),
        )
    if isinstance(item, ast.Join):
        left = _build_from_item(item.left, db)
        right = _build_from_item(item.right, db)
        if item.kind == "temporal":
            return _build_align_join(item, left, right)
        kind = item.kind if item.kind != "cross" else "inner"
        return LogicalJoin(kind, left, right, tuple(split_conjuncts(item.on)))
    raise PlanError(f"cannot build logical plan for FROM item {item!r}")


def _build_align_join(item: "ast.Join", left, right) -> LogicalAlignJoin:
    period = item.period or "system_time"
    conjuncts = tuple(split_conjuncts(item.on))
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
            raise ProgrammingError(
                "TEMPORAL JOIN accepts only equality conditions in ON"
            )
    return LogicalAlignJoin(
        left,
        right,
        conjuncts,
        left_period=_align_period_refs(left, period),
        right_period=_align_period_refs(right, period),
        period=period,
    )


def _align_period_refs(side: LogicalNode, period_name: str):
    scans = scans_in_order(side)
    if len(scans) != 1:
        raise ProgrammingError(
            "each side of a TEMPORAL JOIN must be a single table reference"
        )
    scan = scans[0]
    period = scan.schema.resolve_period(period_name)
    return (
        ast.ColumnRef(period.begin_column, scan.binding),
        ast.ColumnRef(period.end_column, scan.binding),
    )


def output_columns_of(select: ast.Select, db) -> List[str]:
    """Best-effort output column names of a sub-select (stars expanded).

    Used only to attribute unqualified column references to FROM units —
    never for the final result schema, which lowering computes exactly.
    """
    names: List[str] = []
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            names.extend(_star_columns(item.expr, select.from_items, db))
        elif item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ast.ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"col{len(names)}")
    return names


def _star_columns(star: ast.Star, from_items, db) -> List[str]:
    out: List[str] = []
    for item in from_items:
        out.extend(_from_item_columns(item, star.table, db))
    return out


def _from_item_columns(item, wanted, db) -> List[str]:
    if isinstance(item, ast.Join):
        return _from_item_columns(item.left, wanted, db) + _from_item_columns(
            item.right, wanted, db
        )
    if isinstance(item, ast.TableRef):
        if wanted is not None and wanted != item.binding:
            return []
        view = getattr(db, "view", lambda _n: None)(item.name)
        if view is not None:
            return output_columns_of(view, db)
        system_columns = getattr(
            db, "system_view_columns", lambda _n: None
        )(item.name)
        if system_columns is not None:
            return list(system_columns)
        try:
            return db.table(item.name).schema.column_names()
        except CatalogError:
            return []
    if isinstance(item, ast.DerivedTable):
        if wanted is not None and wanted != item.alias:
            return []
        return output_columns_of(item.select, db)
    return []


def unit_layout(unit: LogicalNode) -> List[Tuple[str, str]]:
    """(binding, column) pairs a FROM unit exposes, for name attribution."""
    if isinstance(unit, LogicalScan):
        return [(unit.binding, c) for c in unit.schema.column_names()]
    if isinstance(unit, LogicalDerived):
        return [(unit.alias, c) for c in unit.columns]
    if isinstance(unit, LogicalVirtualScan):
        return [(unit.alias, c) for c in unit.columns]
    if isinstance(unit, LogicalJoin):
        return unit_layout(unit.left) + unit_layout(unit.right)
    if isinstance(unit, LogicalAlignJoin):
        return (
            unit_layout(unit.left)
            + unit_layout(unit.right)
            + [("__align", "overlap_begin"), ("__align", "overlap_end")]
        )
    if isinstance(unit, LogicalTemporalAggregate):
        return [("__tagg", "t")] + [
            ("__tagg", f"__a{i}") for i in range(len(unit.aggregates))
        ]
    if isinstance(unit, LogicalFilter):
        return unit_layout(unit.child)
    if isinstance(unit, LogicalEmpty):
        return unit_layout(unit.child)
    return []


def scans_in_order(node: LogicalNode) -> List[LogicalScan]:
    """All LogicalScan leaves, depth-first left-to-right (FROM order)."""
    if isinstance(node, LogicalScan):
        return [node]
    out: List[LogicalScan] = []
    for child in node.children():
        out.extend(scans_in_order(child))
    return out


def replace_scans(node: LogicalNode, mapping) -> LogicalNode:
    """Rebuild a FROM unit with scans substituted via ``mapping[id(scan)]``."""
    if isinstance(node, LogicalScan):
        return mapping.get(id(node), node)
    if isinstance(node, LogicalJoin):
        left = replace_scans(node.left, mapping)
        right = replace_scans(node.right, mapping)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)
    if isinstance(node, LogicalAlignJoin):
        left = replace_scans(node.left, mapping)
        right = replace_scans(node.right, mapping)
        if left is node.left and right is node.right:
            return node
        return replace(node, left=left, right=right)
    if isinstance(node, LogicalFilter):
        child = replace_scans(node.child, mapping)
        if child is node.child:
            return node
        return replace(node, child=child)
    if isinstance(node, LogicalTemporalAggregate):
        child = replace_scans(node.child, mapping)
        if child is node.child:
            return node
        return replace(node, child=child)
    if isinstance(node, LogicalProduct):
        units = tuple(replace_scans(u, mapping) for u in node.units)
        if all(a is b for a, b in zip(units, node.units)):
            return node
        return replace(node, units=units)
    return node
