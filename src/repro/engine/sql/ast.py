"""Abstract syntax tree for the engine's SQL dialect.

The dialect is SQL:2011-flavoured: plain relational SQL plus the temporal
table clauses (``FOR SYSTEM_TIME AS OF`` and friends) and sequenced DML
(``FOR PORTION OF``).  Every node is a small dataclass; the planner walks
these directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class of all expression nodes."""


# ---------------------------------------------------------------------------
# source spans
#
# Spans are stored out-of-band in a ``_span`` instance attribute (set with
# ``object.__setattr__`` so frozen dataclasses accept it).  They never
# participate in equality or hashing, so rewrites and plan caching are
# unaffected; they only feed error messages and analyzer diagnostics.
# ---------------------------------------------------------------------------


def set_span(node, start: int, end: int):
    """Attach a (start, end) character span to an AST node; returns it."""
    object.__setattr__(node, "_span", (start, end))
    return node


def span_of(node):
    """The (start, end) span of a node, or None when it has none."""
    return getattr(node, "_span", None)


def copy_span(source, target):
    """Carry *source*'s span over to *target* (a rewritten node) unless the
    target already has a narrower one of its own; returns *target*."""
    if target is not None and getattr(target, "_span", None) is None:
        span = getattr(source, "_span", None)
        if span is not None:
            object.__setattr__(target, "_span", span)
    return target


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int, float, str, bool or None


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None  # qualifier (table name or alias)

    def __str__(self):
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Param(Expr):
    """A statement parameter: positional (index) or named (name)."""

    index: Optional[int] = None
    name: Optional[str] = None


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "-", "+", "not"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # arithmetic, comparison, "and", "or", "||"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Aggregate(Expr):
    func: str  # sum | avg | count | min | max
    arg: Optional[Expr]  # None only for count(*)
    distinct: bool = False


@dataclass(frozen=True)
class TemporalGroup(Expr):
    """``TEMPORAL(period)`` in GROUP BY / select list — the constant
    intervals of *period* as grouping unit (native temporal aggregation)."""

    period: str

    def __str__(self):
        return f"TEMPORAL({self.period})"


@dataclass(frozen=True)
class Case(Expr):
    branches: Tuple[Tuple[Expr, Expr], ...]  # (condition, result)
    default: Optional[Expr] = None


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expr):
    operand: Expr
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(Expr):
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    subquery: "Select"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    """``INTERVAL '3' MONTH`` — value in the stated unit."""

    value: int
    unit: str  # "day" | "month" | "year"


# ---------------------------------------------------------------------------
# table references and temporal clauses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalClause:
    """One ``FOR <period> ...`` clause attached to a table reference.

    ``period`` is ``"system_time"``, ``"business_time"`` or the name of a
    declared period (``TableSchema.resolve_period`` resolves it).  ``mode``
    is ``as_of``, ``from_to``, ``between`` or ``all``; what a mode admits
    is defined once, by :meth:`window`.
    """

    period: str
    mode: str
    low: Optional[Expr] = None
    high: Optional[Expr] = None

    def window(self):
        """The window ``(low, high, high_inclusive)`` a version's period
        must overlap — ``begin <= high`` (``< high`` when exclusive) and
        ``end > low``, a NULL end open — or None for ``ALL``:

        * ``AS OF t`` is ``(t, t, True)``;
        * ``FROM a TO b`` is ``(a, b, False)``;
        * ``BETWEEN a AND b`` is ``(a, b, True)``.

        Every reader derives its own form from this triple: the storage
        window (``plan.access.TemporalBounds``), index constraints and cost
        sketches (``plan.logical.TemporalRestriction.conjuncts``), interval
        domains, clause tightening and the analyzer's emptiness check.
        """
        if self.mode == "all":
            return None
        if self.mode == "as_of":
            return self.low, self.low, True
        return self.low, self.high, self.mode != "from_to"


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None
    temporal: Tuple[TemporalClause, ...] = ()

    @property
    def binding(self):
        return self.alias or self.name


@dataclass(frozen=True)
class DerivedTable:
    select: "Select"
    alias: str

    @property
    def binding(self):
        return self.alias


@dataclass(frozen=True)
class Join:
    kind: str  # "inner" | "left" | "cross" | "temporal"
    left: "FromItem"
    right: "FromItem"
    on: Optional[Expr] = None
    period: Optional[str] = None  # TEMPORAL JOIN ... OVERLAPS (period)


FromItem = Union[TableRef, DerivedTable, Join]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class Select:
    items: List[SelectItem]
    from_items: List[FromItem] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False
    set_op: Optional[Tuple[str, "Select", bool]] = None  # (op, rhs, all)


@dataclass
class Insert:
    table: str
    columns: List[str]
    rows: List[List[Expr]] = field(default_factory=list)
    select: Optional[Select] = None


@dataclass(frozen=True)
class Portion:
    """``FOR PORTION OF <period> FROM <low> TO <high>``."""

    period: str
    low: Expr
    high: Expr


@dataclass
class Update:
    table: str
    assignments: List[Tuple[str, Expr]]
    where: Optional[Expr] = None
    portion: Optional[Portion] = None


@dataclass
class Delete:
    table: str
    where: Optional[Expr] = None
    portion: Optional[Portion] = None


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    nullable: bool = True


@dataclass(frozen=True)
class PeriodClause:
    name: str  # "system_time" or an application period name
    begin_column: str
    end_column: str


@dataclass
class CreateTable:
    name: str
    columns: List[ColumnDef]
    primary_key: List[str] = field(default_factory=list)
    periods: List[PeriodClause] = field(default_factory=list)


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: List[str]
    kind: str = "btree"
    partition: str = "current"


@dataclass
class CreateView:
    name: str
    select: "Select"


@dataclass
class DropView:
    name: str


@dataclass
class DropTable:
    name: str


@dataclass
class DropIndex:
    name: str


@dataclass
class Explain:
    """``EXPLAIN [ANALYZE | LINT] <select>`` — plan (and optionally execute
    or statically lint) a query, returning one-column rows.

    ``EXPLAIN (LINT)`` runs the static analyzer over the rewritten logical
    plan and returns its diagnostics instead of the operator tree; the
    parenthesised option list also accepts ``(ANALYZE)`` and
    ``(ANALYZE, LINT)``.
    """

    statement: "Select"
    analyze: bool = False
    lint: bool = False


@dataclass
class Analyze:
    """``ANALYZE [TABLE] [name]`` — collect per-column statistics.

    With no table name, every table in the database is analyzed.  The
    snapshots feed the cost-based join ordering (docs/COST_MODEL.md).
    """

    table: Optional[str] = None


Statement = Union[
    Select, Insert, Update, Delete,
    CreateTable, CreateIndex, CreateView,
    DropTable, DropIndex, DropView,
    Explain, Analyze,
]


def walk_expr(expr):
    """Depth-first traversal over an expression tree (yields every node)."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, Aggregate):
        yield from walk_expr(expr.arg)
    elif isinstance(expr, Case):
        for cond, result in expr.branches:
            yield from walk_expr(cond)
            yield from walk_expr(result)
        yield from walk_expr(expr.default)
    elif isinstance(expr, InList):
        yield from walk_expr(expr.operand)
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, (InSubquery,)):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Between):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.low)
        yield from walk_expr(expr.high)
    elif isinstance(expr, Like):
        yield from walk_expr(expr.operand)
        yield from walk_expr(expr.pattern)
    elif isinstance(expr, IsNull):
        yield from walk_expr(expr.operand)


def contains_aggregate(expr) -> bool:
    """True if any node in *expr* is an aggregate call."""
    return any(isinstance(node, Aggregate) for node in walk_expr(expr))


#: a comparison read from the other side: ``5 < x`` is ``x > 5``
FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def column_comparison(conjunct, owns: Callable[[ColumnRef], bool]):
    """A conjunct as ``(column ref, op, value)``, or None.

    ``col op expr`` reads as written and ``expr op col`` with *op*
    flipped, where *owns* says which column references count (a scan's
    own columns, say); the left side is tried first.  ``BETWEEN`` reads as
    op ``"between"`` (``"not between"`` when negated) with value
    ``(low, high)``.  Every reader of a comparison — index constraints,
    cost sketches, interval domains and the analyzer — reads it here and
    maps *value* to its own form.
    """
    if isinstance(conjunct, Between):
        operand = conjunct.operand
        if isinstance(operand, ColumnRef) and owns(operand):
            op = "not between" if conjunct.negated else "between"
            return operand, op, (conjunct.low, conjunct.high)
    elif isinstance(conjunct, Binary) and conjunct.op in FLIPPED:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and owns(left):
            return left, conjunct.op, right
        if isinstance(right, ColumnRef) and owns(right):
            return right, FLIPPED[conjunct.op], left
    return None
