"""Expression compilation and evaluation with SQL semantics.

Expressions are compiled once per query into Python closures over a *scope*
(which maps qualified column names to row slots).  Evaluation follows SQL's
three-valued logic: comparisons involving NULL yield NULL, AND/OR use
Kleene logic, and WHERE treats NULL as false.

Dates are integer day numbers (see :mod:`repro.engine.types`); ``INTERVAL``
arithmetic therefore converts through the proleptic calendar so that
``DATE '1994-01-01' + INTERVAL '3' MONTH`` is exact, as TPC-H requires.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ProgrammingError
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
    and read from ``env.outer_row``.
    """

    def __init__(self, layout: List[Tuple[str, str]], outer: Optional["Scope"] = None):
        self.layout = list(layout)
        self.outer = outer
        self._by_qualified: Dict[Tuple[str, str], int] = {}
        self._by_name: Dict[str, List[int]] = {}
        for slot, (binding, column) in enumerate(self.layout):
            self._by_qualified[(binding, column)] = slot
            self._by_name.setdefault(column, []).append(slot)

    def resolve(self, ref: ast.ColumnRef) -> Tuple[int, int]:
        """Return (depth, slot); depth 0 = local row, 1.. = outer rows."""
        if ref.table is not None:
            slot = self._by_qualified.get((ref.table, ref.name))
            if slot is not None:
                return (0, slot)
        else:
            slots = self._by_name.get(ref.name, [])
            if len(slots) == 1:
                return (0, slots[0])
            if len(slots) > 1:
                raise ProgrammingError(f"ambiguous column {ref.name!r}")
        if self.outer is not None:
            depth, slot = self.outer.resolve(ref)
            return (depth + 1, slot)
        raise ProgrammingError(f"unknown column {ref}")

    def __len__(self):
        return len(self.layout)


class Env:
    """Runtime evaluation environment for one query execution.

    ``cache`` is shared across nesting levels; uncorrelated subqueries use
    it to run once per statement execution instead of once per outer row.
    """

    __slots__ = ("params", "outer_rows", "cache")

    def __init__(self, params=None, outer_rows=None, cache=None):
        self.params = params if params is not None else {}
        self.outer_rows: List[tuple] = outer_rows or []
        self.cache: Dict[int, object] = cache if cache is not None else {}

    def nested(self, outer_row) -> "Env":
        return Env(self.params, [outer_row] + self.outer_rows, self.cache)

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
    """A calendar interval (result of compiling an IntervalLiteral)."""

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
# kernels: one scalar function per node kind, NULL in -> NULL out
# ---------------------------------------------------------------------------


def _null_propagating(fn):
    def kernel(left, right):
        if left is None or right is None:
            return None
        return fn(left, right)

    return kernel


def _add(left, right):
    if left is None or right is None:
        return None
    if isinstance(right, Interval):
        return add_interval(left, right)
    if isinstance(left, Interval):
        return add_interval(right, left)
    return left + right


def _sub(left, right):
    if left is None or right is None:
        return None
    if isinstance(right, Interval):
        return add_interval(left, right, sign=-1)
    if isinstance(left, Interval):
        raise ProgrammingError("bad interval operator '-'")
    return left - right


def _div(left, right):
    if left is None or right is None or right == 0:
        return None
    return left / right


def _mod(left, right):
    if left is None or right is None or right == 0:
        return None
    return left % right


def _concat(left, right):
    if left is None or right is None:
        return None
    return str(left) + str(right)


def _and3(left, right):
    """Kleene AND; non-boolean operands count by their Python truth."""
    if (left is not None and not left) or (right is not None and not right):
        return False
    if left is None or right is None:
        return None
    return True


def _or3(left, right):
    if left or right:
        return True
    if left is None or right is None:
        return None
    return False


def _not(value):
    if value is None:
        return None
    return not value


def _negate(value):
    if value is None:
        return None
    return -value


_le = _null_propagating(operator.le)
_FIRST_COLUMN = operator.itemgetter(0)

_BINARY: Dict[str, Callable] = {
    "and": _and3,
    "or": _or3,
    "=": _null_propagating(operator.eq),
    "<>": _null_propagating(operator.ne),
    "<": _null_propagating(operator.lt),
    "<=": _le,
    ">": _null_propagating(operator.gt),
    ">=": _null_propagating(operator.ge),
    "+": _add,
    "-": _sub,
    "*": _null_propagating(operator.mul),
    "/": _div,
    "%": _mod,
    "||": _concat,
}

_UNARY: Dict[str, Callable] = {"-": _negate, "not": _not}


def _between(value, low, high):
    return _and3(_le(low, value), _le(value, high))


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


def _in(value, *items):
    return None if value is None else _in_values(value, items)


def _is_null(value):
    return value is None


def _is_not_null(value):
    return value is not None


def _like_to_regex(pattern: str):
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_LIKE_CACHE: Dict[str, "re.Pattern"] = {}


def like_match(value, pattern):
    if value is None or pattern is None:
        return None
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        regex = _like_to_regex(pattern)
        _LIKE_CACHE[pattern] = regex
    return regex.match(value) is not None


# ---------------------------------------------------------------------------
# scalar function registry
# ---------------------------------------------------------------------------


def _fn_timestamp(value):
    if value is None:
        return None
    return date_to_day(value) if isinstance(value, str) else int(value)


def _fn_extract(field, value):
    if value is None:
        return None
    date = day_to_date(value)
    return {"year": date.year, "month": date.month, "day": date.day}[field]


def _fn_substring(value, start, length=None):
    if value is None:
        return None
    begin = max(int(start) - 1, 0)
    if length is None:
        return value[begin:]
    return value[begin:begin + int(length)]


FUNCTIONS: Dict[str, Callable] = {
    "date": lambda s: date_to_day(s) if s is not None else None,
    "timestamp": _fn_timestamp,
    "extract": _fn_extract,
    "substring": _fn_substring,
    "substr": _fn_substring,
    "abs": lambda v: None if v is None else abs(v),
    "round": lambda v, n=0: None if v is None or n is None else round(v, int(n)),
    "floor": lambda v: None if v is None else int(v // 1),
    "ceil": lambda v: None if v is None else -int((-v) // 1),
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
# the compiler
# ---------------------------------------------------------------------------

#: Signature of the callback the planner supplies to run nested SELECTs:
#: (select_ast, outer_scope) -> fn(env) -> list of row tuples.
SubqueryCompiler = Callable[[ast.Select, Scope], Callable[[Env], List[tuple]]]

#: Signature of a compiled batch expression: (batch, env) -> list of values,
#: one per row of the batch, in row order.
BatchFn = Callable[[object, Env], list]


class _ScalarForm:
    """Builds ``fn(row, env) -> value`` closures."""

    @staticmethod
    def constant(value):
        return lambda row, env: value

    @staticmethod
    def from_env(getter):
        return lambda row, env: getter(env)

    @staticmethod
    def column(slot):
        return lambda row, env: row[slot]

    @staticmethod
    def apply(kernel, args):
        if len(args) == 1:
            (inner,) = args
            return lambda row, env: kernel(inner(row, env))
        if len(args) == 2:
            left, right = args
            return lambda row, env: kernel(left(row, env), right(row, env))
        if len(args) == 3:
            a, b, c = args
            return lambda row, env: kernel(a(row, env), b(row, env), c(row, env))
        return lambda row, env: kernel(*[arg(row, env) for arg in args])

    @staticmethod
    def lift(fn):
        return fn


class _BatchForm:
    """Builds ``fn(batch, env) -> list`` closures: one value per row."""

    @staticmethod
    def constant(value):
        return lambda batch, env: [value] * batch.length

    @staticmethod
    def from_env(getter):
        return lambda batch, env: [getter(env)] * batch.length

    @staticmethod
    def column(slot):
        return lambda batch, env: batch.column(slot)

    @staticmethod
    def apply(kernel, args):
        if len(args) == 1:
            (inner,) = args
            return lambda batch, env: list(map(kernel, inner(batch, env)))
        if len(args) == 2:
            left, right = args
            return lambda batch, env: list(
                map(kernel, left(batch, env), right(batch, env))
            )
        if not args:
            return lambda batch, env: [kernel() for _ in range(batch.length)]
        return lambda batch, env: list(
            map(kernel, *[arg(batch, env) for arg in args])
        )

    @staticmethod
    def lift(fn):
        return lambda batch, env: [fn(row, env) for row in batch.to_rows()]


def compile_expr(
    expr: ast.Expr,
    scope: Scope,
    subquery_compiler: Optional[SubqueryCompiler] = None,
) -> Callable[[tuple, Env], object]:
    """Compile an AST expression into ``fn(row, env) -> value``: the form
    for expressions evaluated per candidate pair or once per statement."""
    return _Compiler(scope, subquery_compiler, _ScalarForm).compile(expr)


def compile_batch_expr(
    expr: ast.Expr,
    scope: Scope,
    subquery_compiler: Optional[SubqueryCompiler] = None,
) -> BatchFn:
    """Compile *expr* into ``fn(batch, env) -> list`` of per-row values:
    the form for expressions evaluated once per input row.

    Every node maps its scalar kernel — the same object
    :func:`compile_expr` calls — over its children's value lists; both
    forms evaluate both sides of AND/OR.  CASE and subquery nodes run
    their scalar closure over ``batch.to_rows()`` (untaken branches stay
    unevaluated, a correlated subquery sees each outer row) and the
    expression around them stays chunk-wise.
    """
    return _Compiler(scope, subquery_compiler, _BatchForm).compile(expr)


class _Compiler:
    """The one walk over node types; *form* decides scalar or batch."""

    def __init__(self, scope, subquery_compiler, form):
        self.scope = scope
        self.subquery_compiler = subquery_compiler
        self.form = form

    def compile(self, expr):
        form, child = self.form, self.compile
        if isinstance(expr, ast.Literal):
            return form.constant(expr.value)
        if isinstance(expr, ast.ColumnRef):
            depth, slot = self.scope.resolve(expr)
            if depth == 0:
                return form.column(slot)
            depth -= 1
            return form.from_env(lambda env: env.outer_rows[depth][slot])
        if isinstance(expr, ast.Param):
            index, name = expr.index, expr.name
            return form.from_env(lambda env: env.param(index=index, name=name))
        if isinstance(expr, ast.IntervalLiteral):
            if expr.unit == "day":
                return form.constant(Interval(days=expr.value))
            months = expr.value if expr.unit == "month" else 12 * expr.value
            return form.constant(Interval(months=months))
        if isinstance(expr, ast.Unary):
            if expr.op == "+":
                return child(expr.operand)
            if expr.op not in _UNARY:
                raise ProgrammingError(f"unknown unary {expr.op!r}")
            return form.apply(_UNARY[expr.op], [child(expr.operand)])
        if isinstance(expr, ast.Binary):
            if expr.op not in _BINARY:
                raise ProgrammingError(f"unknown operator {expr.op!r}")
            return form.apply(
                _BINARY[expr.op], [child(expr.left), child(expr.right)]
            )
        if isinstance(expr, ast.FuncCall):
            if expr.name not in FUNCTIONS:
                raise ProgrammingError(f"unknown function {expr.name!r}")
            return form.apply(FUNCTIONS[expr.name], [child(a) for a in expr.args])
        if isinstance(expr, ast.Between):
            operands = [child(expr.operand), child(expr.low), child(expr.high)]
            return self._negated_if(expr, form.apply(_between, operands))
        if isinstance(expr, ast.Like):
            operands = [child(expr.operand), child(expr.pattern)]
            return self._negated_if(expr, form.apply(like_match, operands))
        if isinstance(expr, ast.IsNull):
            kernel = _is_not_null if expr.negated else _is_null
            return form.apply(kernel, [child(expr.operand)])
        if isinstance(expr, ast.InList):
            operands, kernel = [child(expr.operand)], _in
            if all(isinstance(item, ast.Literal) for item in expr.items):
                # bound once per compiled expression; ``in`` stops at a match
                listed = tuple(i.value for i in expr.items if i.value is not None)
                miss = None if len(listed) < len(expr.items) else False
                kernel = lambda value: None if value is None else value in listed or miss
            else:
                operands += [child(item) for item in expr.items]
            return self._negated_if(expr, form.apply(kernel, operands))
        # The remaining nodes need the row itself, not just their operands'
        # values: CASE must leave untaken branches unevaluated, and a
        # subquery re-enters the executor with the outer row.  They compile
        # to a scalar closure, which the batch form runs once per row.
        if isinstance(expr, ast.Case):
            scalar = self._scalar
            branches = [(scalar(cond), scalar(res)) for cond, res in expr.branches]
            default = scalar(expr.default) if expr.default is not None else None

            def run_case(row, env):
                for cond, result in branches:
                    if cond(row, env):
                        return result(row, env)
                return default(row, env) if default is not None else None

            return form.lift(run_case)
        if isinstance(expr, ast.Exists):
            run, negated = self._subquery(expr), expr.negated
            return form.lift(lambda row, env: bool(run(env.nested(row))) != negated)
        if isinstance(expr, ast.InSubquery):
            run, negated = self._subquery(expr), expr.negated
            operand = self._scalar(expr.operand)

            def run_in_subquery(row, env):
                value = operand(row, env)
                if value is None:
                    return None
                found = _in_values(value, map(_FIRST_COLUMN, run(env.nested(row))))
                return _not(found) if negated else found

            return form.lift(run_in_subquery)
        if isinstance(expr, ast.ScalarSubquery):
            run = self._subquery(expr)

            def run_scalar(row, env):
                rows = run(env.nested(row))
                if not rows:
                    return None
                if len(rows) > 1:
                    raise ProgrammingError(
                        "scalar subquery returned more than one row"
                    )
                return rows[0][0]

            return form.lift(run_scalar)
        if isinstance(expr, ast.Aggregate):
            raise ProgrammingError("aggregate used outside SELECT list / HAVING")
        if isinstance(expr, ast.Star):
            raise ProgrammingError("'*' is only valid in a select list or COUNT(*)")
        raise ProgrammingError(f"cannot compile expression {expr!r}")

    def _scalar(self, expr):
        return compile_expr(expr, self.scope, self.subquery_compiler)

    def _subquery(self, expr):
        if self.subquery_compiler is None:
            raise ProgrammingError("subqueries are not allowed in this context")
        return self.subquery_compiler(expr.subquery, self.scope)

    def _negated_if(self, expr, fn):
        return self.form.apply(_not, [fn]) if expr.negated else fn


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
