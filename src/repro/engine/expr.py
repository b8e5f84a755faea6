"""Expression compilation and evaluation with SQL semantics.

An expression tree compiles to **one generated Python function**: one walk
over the AST emits one Python source expression, wrapped in the *spelling*
the call site needs (docs/EXECUTION.md, "One generator, four spellings"):
``batch`` — ``fn(batch, env) -> list`` of per-row values; ``scalar`` —
``fn(row, env)``; ``selection`` — ``fn(batch, env) ->`` indices of the rows
that are True (``Filter``); ``pair`` — ``fn(probe_row, bucket, env) ->``
joined rows that are True (``HashJoin``'s residual).  Evaluation follows
SQL's three-valued logic: comparisons involving NULL yield NULL, AND/OR
use Kleene logic, and WHERE treats NULL as false.

Dates are integer day numbers (see :mod:`repro.engine.types`); ``INTERVAL``
arithmetic therefore converts through the proleptic calendar so that
``DATE '1994-01-01' + INTERVAL '3' MONTH`` is exact, as TPC-H requires.
"""

from __future__ import annotations

import math
import re
import time
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from .errors import DataError, ProgrammingError, QueryTimeout
from .sql import ast
from .types import date_to_day, day_to_date

# ---------------------------------------------------------------------------
# scopes: name -> row slot
# ---------------------------------------------------------------------------


class Scope:
    """Resolves column references against the executor's row layout.

    The layout is a list of (binding, column_name) pairs; *binding* is the
    table alias (or name) the column came from.  An optional *outer* scope
    makes correlated subqueries work: unresolved names are looked up there
    and read from ``env.outer_rows``.
    """

    def __init__(self, layout: List[Tuple[str, str]], outer: Optional["Scope"] = None):
        self.layout = list(layout)
        self.outer = outer
        #: resolves that reached this scope: moved by a subquery = correlated
        self.resolved = 0
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self._by_name: Dict[str, List[int]] = {}
        for slot, (binding, column) in enumerate(self.layout):
            self._by_qualified[(binding, column)] = slot
            self._by_name.setdefault(column, []).append(slot)

    def resolve(self, ref: ast.ColumnRef) -> Tuple[int, int]:
        """Return (depth, slot); depth 0 = local row, 1.. = outer rows."""
        if ref.table is not None:
            slot = self._by_qualified.get((ref.table, ref.name))
        else:
            slots = self._by_name.get(ref.name, ())
            if len(slots) > 1:
                raise ProgrammingError(f"ambiguous column {ref.name!r}")
            slot = slots[0] if slots else None
        depth = 0
        if slot is None:
            if self.outer is None:
                raise ProgrammingError(f"unknown column {ref}")
            depth, slot = self.outer.resolve(ref)
            depth += 1
        self.resolved += 1
        return depth, slot

    def __len__(self):
        return len(self.layout)


class Env:
    """Runtime environment of one statement execution.

    ``cache`` is shared across nesting levels; uncorrelated subqueries use
    it to run once per statement execution instead of once per outer row.
    ``timeout_s`` sets a deadline that :meth:`check` and :meth:`guard_iter`
    poll; ``metrics`` (``id(operator)`` -> ``NodeMetrics``, shared by every
    nesting level) and ``tracer`` switch on the per-operator accounting of
    :meth:`~repro.engine.plan.operators.Operator.batches`.  With all three
    unset an execution pays nothing for them.
    """

    __slots__ = ("params", "outer_rows", "cache", "deadline", "timeout_s",
                 "metrics", "tracer")

    def __init__(self, params=None, timeout_s=None, metrics=None, tracer=None):
        self.params = params if params is not None else {}
        self.outer_rows: List[tuple] = []
        self.cache: Dict[int, object] = {}
        self.timeout_s = timeout_s
        self.deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        self.metrics = metrics
        self.tracer = tracer

    def nested(self, outer_row) -> "Env":
        """Correlated-subquery environment: a new outer row, all else shared.
        Built without ``__init__``: it runs once per outer row."""
        env = object.__new__(Env)
        env.params, env.cache = self.params, self.cache
        env.outer_rows = [outer_row] + self.outer_rows
        env.deadline, env.timeout_s = self.deadline, self.timeout_s
        env.metrics, env.tracer = self.metrics, self.tracer
        return env

    def check(self):
        """Raise :class:`QueryTimeout` once the deadline has passed."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise QueryTimeout(f"query exceeded timeout of {self.timeout_s}s")

    def guard_iter(self, iterable, every: int = 4096):
        """*iterable*, polling the deadline every *every* items; unchanged
        when there is no deadline."""
        if self.deadline is None:
            return iterable

        def guarded():
            for count, item in enumerate(iterable, 1):
                yield item
                if count % every == 0:
                    self.check()

        return guarded()

    def param(self, index=None, name=None):
        if name is not None:
            try:
                return self.params[name]
            except (KeyError, TypeError):
                raise ProgrammingError(f"missing named parameter :{name}") from None
        try:
            return self.params[index]
        except (KeyError, IndexError, TypeError):
            raise ProgrammingError(f"missing positional parameter {index}") from None


# ---------------------------------------------------------------------------
# interval arithmetic
# ---------------------------------------------------------------------------


class Interval:
    """A calendar interval (result of compiling an IntervalLiteral).

    ``day + interval``, ``interval + day`` and ``day - interval`` are Python
    operators on it, so generated ``+`` / ``-`` need no interval test."""

    __slots__ = ("days", "months")

    def __init__(self, days=0, months=0):
        self.days = days
        self.months = months

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.days == other.days
            and self.months == other.months
        )

    def __add__(self, day_number):
        return add_interval(day_number, self)

    __radd__ = __add__

    def __rsub__(self, day_number):
        return add_interval(day_number, self, sign=-1)

    def __repr__(self):
        return f"Interval(days={self.days}, months={self.months})"


def _shift_months(day_number: int, months: int) -> int:
    date = day_to_date(day_number)
    total = date.year * 12 + (date.month - 1) + months
    year, month0 = divmod(total, 12)
    month = month0 + 1
    day = date.day
    # clamp to the target month's length
    while True:
        try:
            return date_to_day(date.replace(year=year, month=month, day=day))
        except ValueError:
            day -= 1


def add_interval(day_number, interval: Interval, sign=1):
    if day_number is None:
        return None
    result = day_number
    if interval.months:
        result = _shift_months(result, sign * interval.months)
    return result + sign * interval.days


# ---------------------------------------------------------------------------
# kernels: what generated code calls instead of inlining
# ---------------------------------------------------------------------------

_FIRST_COLUMN = itemgetter(0)


def _mod(left, right):
    if left is None or right is None or right == 0:
        return None
    return left % right


def _in_values(value, candidates):
    """SQL IN for a non-NULL *value*: a NULL candidate turns "no match"
    into NULL."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return True
    return None if saw_null else False


def _in_rows(run):
    """``value IN (correlated subquery)``: the subquery runs per outer row."""
    return lambda value, env: (
        None if value is None else _in_values(value, map(_FIRST_COLUMN, run(env)))
    )


def _in_set(run):
    """``value IN (uncorrelated subquery)``: one membership set per
    statement execution, built on first use in ``env.cache``.  ``v == v``
    keeps NaN out — a set finds a NaN by identity when both sides hold the
    same stored float — and a NULL member turns a miss into NULL."""
    def member(value, env):
        if value is None:
            return None
        entry = env.cache.get(key)
        if entry is None:
            values = set(map(_FIRST_COLUMN, run(env)))
            entry = env.cache[key] = (values, None if None in values else False)
        return True if value == value and value in entry[0] else entry[1]
    key = id(member)
    return member


def _single_value(rows):
    if len(rows) > 1:
        raise ProgrammingError("scalar subquery returned more than one row")
    return rows[0][0] if rows else None


@lru_cache(maxsize=256)
def _like_regex(pattern: str):
    parts = (".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern)
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


def like_match(value, pattern):
    if value is None or pattern is None:
        return None
    return _like_regex(pattern).match(value) is not None


# ---------------------------------------------------------------------------
# scalar function registry: NULL in any argument gives NULL (coalesce and
# nullif keep their SQL rules); a value no result exists for is a DataError
# ---------------------------------------------------------------------------


def _fn_date(value):
    try:
        return None if value is None else date_to_day(value)
    except ValueError:
        raise DataError(f"not a date: {value!r}") from None


def _fn_timestamp(value):
    try:
        return _fn_date(value) if value is None or isinstance(value, str) else int(value)
    except (ValueError, OverflowError):
        raise DataError(f"not a timestamp: {value!r}") from None


def _fn_extract(field, value):
    if field is None or value is None:
        return None
    try:
        date = day_to_date(value)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"no calendar date for day {value!r}") from None
    if field not in ("year", "month", "day"):
        raise DataError(f"cannot extract {field!r}")
    return getattr(date, field)


_TO_END = object()


def _fn_substring(value, start, length=_TO_END):
    """SQL SUBSTRING: the characters at 1-based positions ``start ..
    start + length - 1`` that exist, so a start before 1 uses up length."""
    if value is None or start is None or length is None:
        return None
    try:
        begin = int(start) - 1
        end = None if length is _TO_END else max(begin + int(length), 0)
        return value[max(begin, 0):end]
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"bad substring arguments {start!r}, {length!r}") from None


def _finite_only(fn):
    """A numeric kernel that returns NaN / ±inf unchanged."""
    return lambda v: None if v is None else fn(v) if math.isfinite(v) else v


FUNCTIONS: Dict[str, Callable] = {
    "date": _fn_date,
    "timestamp": _fn_timestamp,
    "extract": _fn_extract,
    "substring": _fn_substring,
    "substr": _fn_substring,
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, n=0: (
        None if v is None or n is None or not math.isfinite(n) else round(v, int(n))
    ),
    "floor": _finite_only(lambda v: int(v // 1)),
    "ceil": _finite_only(lambda v: -int((-v) // 1)),
    "mod": _mod,
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "nullif": lambda a, b: None if a == b else a,
    "upper": lambda s: None if s is None else s.upper(),
    "lower": lambda s: None if s is None else s.lower(),
    "length": lambda s: None if s is None else len(s),
    "greatest": lambda *args: None if any(a is None for a in args) else max(args),
    "least": lambda *args: None if any(a is None for a in args) else min(args),
}


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

#: The planner's callback for nested SELECTs: (select, outer_scope) ->
#: fn(env) -> rows, with ``fn.correlated = False`` when the subquery reads
#: no outer column (a callback without the attribute counts as correlated).
SubqueryCompiler = Callable[[ast.Select, Scope], Callable[[Env], List[tuple]]]

#: generated factories by source text (args, constant count, body lines)
MEMO_SIZE = 512
_MEMO: Dict[tuple, Callable] = {}

#: NULL-propagating operators over the operand values ``{0}`` / ``{1}``
_STRICT = {
    "=": "{0} == {1}", "<>": "{0} != {1}", "<": "{0} < {1}", "<=": "{0} <= {1}",
    ">": "{0} > {1}", ">=": "{0} >= {1}", "+": "{0} + {1}", "-": "{0} - {1}",
    "*": "{0} * {1}", "/": "{0} / {1}", "%": "{0} % {1}", "||": "str({0}) + str({1})",
}
_PREDICATES = (ast.Between, ast.Like, ast.IsNull, ast.InList, ast.Exists, ast.InSubquery)
_LOGICAL = {"and", "or", "not", "=", "<>", "<", "<=", ">", ">="}  # Unary / Binary ops


def _is_boolean(node) -> bool:
    """Does *node* only ever yield True, False or NULL?"""
    if isinstance(node, ast.Literal):
        return node.value is None or isinstance(node.value, bool)
    return isinstance(node, _PREDICATES) or getattr(node, "op", None) in _LOGICAL


class _Generator:
    """One walk over an expression tree.  ``gen(node)`` returns the Python
    source of the node's value and collects what the source names: the
    constants ``k<n>`` (literals, parameter keys, kernels — bound, never
    spliced into the text, so the text depends on the tree's shape only),
    the lines ``h<n> = ...`` hoisted out of the per-row loop, the local
    columns ``c<slot>`` read, and whether a correlated subquery needs the
    whole ``row``."""

    def __init__(self, scope, subqueries):
        self.scope, self.subqueries = scope, subqueries
        self.consts: List[object] = []
        self.known: set = set()  # constants that are never NULL
        self.prelude: List[str] = []
        self.slots: Dict[int, str] = {}
        self.temps = 0
        self.lazy = False  # inside CASE: evaluate in place, hoist nothing
        self.row = False

    def gen(self, node) -> str:
        try:
            render = _RENDER[type(node)]
        except KeyError:
            raise ProgrammingError(f"cannot compile expression {node!r}") from None
        return render(self, node)

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def bind(self, src) -> Tuple[Optional[str], str]:
        """(first, again): *first* evaluates *src* (None for a constant that
        is never NULL), *again* reads the value afterwards — *src* itself
        when it is a name, else a walrus temporary."""
        if src.isidentifier():
            return (None if src in self.known else src), src
        self.temps += 1
        return f"(t{self.temps} := {src})", f"t{self.temps}"

    def strict(self, template, *operands, guard=None) -> str:
        """NULL in, NULL out: *template* runs once every operand (a node,
        or a ``bind`` pair) is non-NULL and *guard* over their values is
        false."""
        values, firsts = [], []
        for operand in operands:
            first, again = operand if type(operand) is tuple else self.bind(self.gen(operand))
            values.append(again)
            if first:
                firsts.append(first)
        tests = [" is None or ".join(firsts) + " is None"] if firsts else []
        if guard:
            tests.append(guard.format(*values))
        body = template.format(*values)
        return f"(None if {' or '.join(tests)} else {body})" if tests else f"({body})"

    def truth(self, node) -> str:
        """*node* as True / False / NULL: other values count by their truth."""
        if _is_boolean(node):
            return self.gen(node)
        return self.strict("not not {0}", node)

    def is_true(self, node, operand=False) -> str:
        """A test that is True exactly when *node* is: an AND / OR tree is
        ``&`` / ``|`` over its *operand*s' tests, which evaluates both."""
        if isinstance(node, ast.Binary) and node.op in ("and", "or"):
            joiner = " & " if node.op == "and" else " | "
            return f"({self.is_true(node.left, True)}{joiner}{self.is_true(node.right, True)})"
        return f"({self.truth(node) if operand else self.gen(node)} is True)"

    def kleene(self, op, left, right) -> str:
        """Kleene AND / OR over two truth values, both always evaluated."""
        (a, ta), (b, tb) = left, right
        a, b = a or ta, b or tb
        decided, other = ("False", "True") if op == "and" else ("True", "False")
        return (f"({decided} if ({a} is {decided}) | ({b} is {decided}) "
                f"else {tb} if {ta} is {other} else None)")

    def negated(self, node, src) -> str:
        return self.strict("not {0}", self.bind(src)) if node.negated else src

    def hoist(self, src) -> str:
        """Evaluate *src* once per call, not per row (never inside CASE)."""
        if self.lazy:
            return src
        self.prelude.append(f"h{len(self.prelude)} = {src}")
        return f"h{len(self.prelude) - 1}"

    def call(self, kernel, args) -> str:
        return f"{self.const(kernel)}({', '.join(map(self.gen, args))})"

    def unpack(self, slots, row, offset=0):
        """(target, values): ``target = values`` binds *slots*' names from
        the tuple named *row*, whose slot 0 is *slots*' slot *offset*."""
        target = ", ".join(self.slots[slot] for slot in slots)
        return target, ", ".join(f"{row}[{slot - offset}]" for slot in slots)


def _literal(g, node):
    name = g.const(node.value)
    if node.value is not None:
        g.known.add(name)
    return name


def _column(g, node):
    depth, slot = g.scope.resolve(node)
    if depth:
        return g.hoist(f"env.outer_rows[{depth - 1}][{slot}]")
    return g.slots.setdefault(slot, f"c{slot}")


def _interval(g, node):
    if node.unit == "day":
        return g.const(Interval(days=node.value))
    return g.const(Interval(months=node.value * (1 if node.unit == "month" else 12)))


def _unary(g, node):
    if node.op == "+":
        return g.gen(node.operand)
    if node.op not in ("-", "not"):
        raise ProgrammingError(f"unknown unary {node.op!r}")
    return g.strict(node.op + " {0}", node.operand)


def _binary(g, node):
    if node.op in ("and", "or"):
        return g.kleene(node.op, g.bind(g.truth(node.left)), g.bind(g.truth(node.right)))
    if node.op not in _STRICT:
        raise ProgrammingError(f"unknown operator {node.op!r}")
    guard = "{1} == 0" if node.op in ("/", "%") else None
    return g.strict(_STRICT[node.op], node.left, node.right, guard=guard)


def _func(g, node):
    if node.name not in FUNCTIONS:
        raise ProgrammingError(f"unknown function {node.name!r}")
    return g.call(FUNCTIONS[node.name], node.args)


def _between(g, node):
    value = g.bind(g.gen(node.operand))
    low = g.strict("{1} <= {0}", value, node.low)
    high = g.strict("{0} <= {1}", (value[1], value[1]), node.high)
    return g.negated(node, g.kleene("and", g.bind(low), g.bind(high)))


def _in_list(g, node):
    if all(isinstance(item, ast.Literal) for item in node.items):
        # bound once per compiled expression; ``in`` stops at a match
        listed = tuple(i.value for i in node.items if i.value is not None)
        miss = None if len(listed) < len(node.items) else False
        test = f"{{0}} in {g.const(listed)} or {g.const(miss)}"
        return g.negated(node, g.strict(test, node.operand))
    items = ", ".join(map(g.gen, node.items))
    test = f"{g.const(_in_values)}({{0}}, ({items},))"
    return g.negated(node, g.strict(test, node.operand))


def _case(g, node):
    lazy, g.lazy = g.lazy, True
    src = "None" if node.default is None else g.gen(node.default)
    for condition, result in reversed(node.branches):
        src = f"({g.gen(result)} if {g.gen(condition)} else {src})"
    g.lazy = lazy
    return src


def _subquery(g, node):
    """EXISTS / IN / scalar subqueries: a correlated one re-enters the
    executor per row with ``env.nested(row)``, an uncorrelated one runs
    once per statement (cached by the planner) and is hoisted."""
    if g.subqueries is None:
        raise ProgrammingError("subqueries are not allowed in this context")
    run = g.subqueries(node.subquery, g.scope)
    correlated = getattr(run, "correlated", True)
    g.row |= correlated
    env = "env.nested(row)" if correlated else "env"
    if isinstance(node, ast.InSubquery):
        member = g.const(_in_rows(run) if correlated else _in_set(run))
        return g.negated(node, f"{member}({g.gen(node.operand)}, {env})")
    src = f"{g.const(run)}({env})"
    if isinstance(node, ast.ScalarSubquery):
        src = f"{g.const(_single_value)}({src})"
    if not correlated:
        src = g.hoist(src)
    if isinstance(node, ast.Exists):
        return f"({'not' if node.negated else 'not not'} {src})"
    return src


def _misplaced(g, node):
    if isinstance(node, ast.Aggregate):
        raise ProgrammingError("aggregate used outside SELECT list / HAVING")
    raise ProgrammingError("'*' is only valid in a select list or COUNT(*)")


_RENDER = {
    ast.Literal: _literal, ast.ColumnRef: _column, ast.IntervalLiteral: _interval,
    ast.Param: lambda g, node: g.hoist(
        f"env.param({g.const(node.index)}, {g.const(node.name)})"),
    ast.Unary: _unary, ast.Binary: _binary, ast.FuncCall: _func, ast.Between: _between,
    ast.Like: lambda g, node: g.negated(node, g.call(like_match, (node.operand, node.pattern))),
    ast.IsNull: lambda g, node: f"({g.gen(node.operand)} is {'not ' * node.negated}None)",
    ast.InList: _in_list, ast.Case: _case, ast.Exists: _subquery,
    ast.ScalarSubquery: _subquery, ast.InSubquery: _subquery,
    ast.Aggregate: _misplaced, ast.Star: _misplaced,
}


# ---------------------------------------------------------------------------
# spellings
# ---------------------------------------------------------------------------


def _batch_lines(g, value, selection):
    """``[value for ...]`` / ``[i for i, ... if value is True]`` over the
    zipped columns, or ``map(itemgetter(...), rows)`` when row-major."""
    slots = list(g.slots)
    target = ", ".join(g.slots.values())
    lines = ["if not batch.length: return []", *g.prelude]
    if g.row:
        lines.append("rows = batch.to_rows()")
        loop = "for i, row in enumerate(rows)" if selection else "for row in rows"
        loop += f" for {target} in (({g.unpack(slots, 'row')[1]}),)" if target else ""
    elif target:
        lines.append("cols = batch._columns")
        columns = "cols[" + "], cols[".join(map(str, slots)) + "]"
        columns = f"zip({columns})" if len(slots) > 1 else columns
        rows = f"({columns} if cols is not None else map({g.const(itemgetter(*slots))}, batch._rows))"
        loop = f"for i, ({target}) in enumerate({rows})" if selection else f"for {target} in {rows}"
    else:
        loop = f"for {'i' if selection else '_'} in range(batch.length)"
    lines.append(f"return [i {loop} if {value}]" if selection else f"return [{value} {loop}]")
    return lines


def _pair_lines(g, value, left_width, build_left):
    """``[probe + o for o in bucket if value is True]``: probe columns
    bound once, so a rejected pair is never concatenated."""
    joined = "o + probe" if build_left else "probe + o"
    if g.row:  # a correlated subquery needs the combined row itself
        target, values = g.unpack(list(g.slots), "row")
        bind = f" for {target} in (({values}),)" if target else ""
        return [*g.prelude, f"return [row for o in bucket for row in ({joined},)"
                            f"{bind} if {value}]"]
    probe = [slot for slot in g.slots if (slot < left_width) != build_left]
    build = [slot for slot in g.slots if (slot < left_width) == build_left]
    target, values = g.unpack(probe, "probe", left_width if build_left else 0)
    lines = [f"{target} = {values}"] if probe else []
    target, values = g.unpack(build, "o", 0 if build_left else left_width)
    loop = f"for o in bucket for {target} in (({values}),)" if build else "for o in bucket"
    return lines + g.prelude + [f"return [{joined} {loop} if {value}]"]


def _leaf(expr, scope, batch):
    """Bare columns, literals and parameters skip generation; a bare column
    stays the zero-copy ``batch.column(slot)``."""
    if isinstance(expr, ast.ColumnRef):
        depth, slot = scope.resolve(expr)
        if not depth:
            return (lambda b, env: b.column(slot)) if batch else (lambda row, env: row[slot])
        return None
    if isinstance(expr, ast.Literal):
        value = expr.value
        get = lambda env: value
    elif isinstance(expr, ast.Param):
        index, name = expr.index, expr.name
        get = lambda env: env.param(index, name)
    else:
        return None
    return (lambda b, env: [get(env)] * b.length) if batch else (lambda row, env: get(env))


def _instantiate(args, lines, consts):
    """The generated function, its constants bound as closure cells.  The
    shape memo maps source text to the factory ``exec`` built, so a
    statement that differs only in literals costs a dict lookup here."""
    key = (args, len(consts), *lines)
    make = _MEMO.get(key)
    if make is None:
        params = ", ".join(f"k{i}" for i in range(len(consts)))
        namespace: Dict[str, object] = {}  # the text holds no literal: see _Generator
        exec(f"def make({params}):\n def fn({args}):\n  " + "\n  ".join(lines)
             + "\n return fn", namespace)
        make = namespace["make"]
        if len(_MEMO) >= MEMO_SIZE:
            _MEMO.pop(next(iter(_MEMO)), None)
        _MEMO[key] = make
    return make(*consts)


def compile_expr(
    expr: ast.Expr,
    scope: Scope,
    subquery_compiler: Optional[SubqueryCompiler] = None,
    spelling: str = "scalar",
    left_width: int = 0,
    build_left: bool = False,
) -> Callable:
    """*expr* as one function in *spelling* (module docstring).  ``pair``:
    the first *left_width* columns are the left input's, and *build_left*
    means the bucket holds left rows and the probe row is the right one."""
    if spelling in ("scalar", "batch"):
        leaf = _leaf(expr, scope, spelling == "batch")
        if leaf is not None:
            return leaf
    g = _Generator(scope, subquery_compiler)
    value = g.is_true(expr) if spelling in ("selection", "pair") else g.gen(expr)
    if spelling == "scalar":
        target, values = g.unpack(list(g.slots), "row")
        lines = [f"{target} = {values}"] if target else []
        return _instantiate("row, env", lines + g.prelude + [f"return {value}"], g.consts)
    if spelling == "pair":
        lines = _pair_lines(g, value, left_width, build_left)
        return _instantiate("probe, bucket, env", lines, g.consts)
    return _instantiate("batch, env", _batch_lines(g, value, spelling == "selection"), g.consts)


def compile_batch_expr(expr, scope, subquery_compiler=None) -> Callable:
    """The ``batch`` spelling: ``fn(batch, env) -> list`` of per-row values."""
    return compile_expr(expr, scope, subquery_compiler, "batch")


def expr_to_string(expr: ast.Expr) -> str:
    """Readable rendering for EXPLAIN output and error messages."""
    if isinstance(expr, ast.Literal):
        return repr(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return str(expr)
    if isinstance(expr, ast.Param):
        return f":{expr.name}" if expr.name else f"?{expr.index}"
    if isinstance(expr, ast.Unary):
        return f"({expr.op} {expr_to_string(expr.operand)})"
    if isinstance(expr, ast.Binary):
        return f"({expr_to_string(expr.left)} {expr.op} {expr_to_string(expr.right)})"
    if isinstance(expr, ast.FuncCall):
        args = ", ".join(expr_to_string(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ast.Aggregate):
        arg = "*" if expr.arg is None else expr_to_string(expr.arg)
        prefix = "distinct " if expr.distinct else ""
        return f"{expr.func}({prefix}{arg})"
    if isinstance(expr, ast.Between):
        return (
            f"({expr_to_string(expr.operand)} between "
            f"{expr_to_string(expr.low)} and {expr_to_string(expr.high)})"
        )
    if isinstance(expr, ast.Like):
        return f"({expr_to_string(expr.operand)} like {expr_to_string(expr.pattern)})"
    if isinstance(expr, ast.IsNull):
        suffix = "is not null" if expr.negated else "is null"
        return f"({expr_to_string(expr.operand)} {suffix})"
    if isinstance(expr, ast.InList):
        items = ", ".join(expr_to_string(i) for i in expr.items)
        return f"({expr_to_string(expr.operand)} in ({items}))"
    if isinstance(expr, ast.InSubquery):
        return f"({expr_to_string(expr.operand)} in (<subquery>))"
    if isinstance(expr, ast.Exists):
        return "exists(<subquery>)"
    if isinstance(expr, ast.ScalarSubquery):
        return "(<scalar subquery>)"
    if isinstance(expr, ast.Case):
        return "case ... end"
    if isinstance(expr, ast.IntervalLiteral):
        return f"interval '{expr.value}' {expr.unit}"
    if isinstance(expr, ast.Star):
        return "*"
    return repr(expr)
