"""Expression evaluation: SQL three-valued logic, functions, intervals."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import Batch
from repro.engine.errors import ProgrammingError
from repro.engine.expr import (
    Env,
    Interval,
    Scope,
    add_interval,
    compile_batch_expr,
    compile_expr,
    expr_to_string,
    like_match,
)
from repro.engine.sql import ast, parse_statement
from repro.engine.types import date_to_day


def _parse(text):
    return parse_statement(f"SELECT {text}").items[0].expr


def _canon(values):
    """NaN made comparable (NaN != NaN breaks plain ==)."""
    return [
        "NaN" if isinstance(v, float) and math.isnan(v) else v for v in values
    ]


def evaluate(text, row=(), layout=(), params=None):
    """The value of *text* on one row, through the scalar form — after
    checking that the batch form gives the same value."""
    expr = _parse(text)
    scope, env, row = Scope(list(layout)), Env(params or {}), tuple(row)
    value = compile_expr(expr, scope)(row, env)
    batch = Batch.from_rows([row], len(row))
    assert _canon(compile_batch_expr(expr, scope)(batch, env)) == _canon([value])
    return value


class TestArithmetic:
    def test_basic(self):
        assert evaluate("1 + 2 * 3") == 7
        assert evaluate("10 / 4") == 2.5
        assert evaluate("10 % 3") == 1
        assert evaluate("-5 + 2") == -3

    def test_null_propagation(self):
        assert evaluate("1 + NULL") is None
        assert evaluate("NULL * 2") is None

    def test_division_by_zero_is_null(self):
        assert evaluate("1 / 0") is None

    def test_concat(self):
        assert evaluate("'a' || 'b' || 1") == "ab1"


class TestComparisonsAndLogic:
    def test_comparisons(self):
        assert evaluate("1 < 2") is True
        assert evaluate("2 <> 2") is False
        assert evaluate("NULL = NULL") is None

    def test_kleene_and_or(self):
        assert evaluate("1 = 1 AND NULL = 1") is None
        assert evaluate("1 = 2 AND NULL = 1") is False
        assert evaluate("1 = 1 OR NULL = 1") is True
        assert evaluate("1 = 2 OR NULL = 1") is None

    def test_not(self):
        assert evaluate("NOT 1 = 2") is True
        assert evaluate("NOT NULL = 1") is None

    def test_between(self):
        assert evaluate("5 BETWEEN 1 AND 9") is True
        assert evaluate("5 NOT BETWEEN 1 AND 9") is False
        assert evaluate("NULL BETWEEN 1 AND 2") is None

    def test_in_list(self):
        assert evaluate("2 IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, 2, 3)") is False
        assert evaluate("9 NOT IN (1, 2, 3)") is True
        assert evaluate("9 IN (1, NULL)") is None
        assert evaluate("1 IN (1, NULL)") is True
        assert evaluate("NULL IN (1, 2)") is None
        assert evaluate("9 NOT IN (1, NULL)") is None

    def test_in_list_with_a_non_literal_item(self):
        # only an all-literal list is bound at compile time
        layout = [("t", "a"), ("t", "b")]
        assert evaluate("a IN (1, b)", row=(3, 3), layout=layout) is True
        assert evaluate("a IN (1, b)", row=(3, 4), layout=layout) is False
        assert evaluate("a IN (1, b)", row=(3, None), layout=layout) is None

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("1 IS NOT NULL") is True


class TestLike:
    def test_percent_and_underscore(self):
        assert evaluate("'hello' LIKE 'h%'") is True
        assert evaluate("'hello' LIKE 'h_llo'") is True
        assert evaluate("'hello' LIKE 'h_'") is False
        assert evaluate("'hello' NOT LIKE 'x%'") is True

    def test_special_chars_escaped(self):
        assert like_match("a.b", "a.b") is True
        assert like_match("axb", "a.b") is False

    def test_null(self):
        assert like_match(None, "x") is None


class TestCase:
    def test_branches(self):
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' WHEN 1 = 1 THEN 'b' END") == "b"
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' ELSE 'c' END") == "c"
        assert evaluate("CASE WHEN 1 = 2 THEN 'a' END") is None


class TestDatesAndIntervals:
    def test_date_function(self):
        assert evaluate("date '1992-01-02'") == 1

    def test_add_days(self):
        assert evaluate("date '1992-01-01' + interval '10' day") == 10

    def test_add_months_clamps(self):
        jan31 = date_to_day("1992-01-31")
        result = add_interval(jan31, Interval(months=1))
        assert result == date_to_day("1992-02-29")  # leap year clamp

    def test_add_year(self):
        assert evaluate(
            "date '1994-01-01' + interval '1' year"
        ) == date_to_day("1995-01-01")

    def test_subtract_interval(self):
        assert evaluate(
            "date '1998-12-01' - interval '90' day"
        ) == date_to_day("1998-09-02")

    def test_extract(self):
        assert evaluate("extract(year FROM date '1995-06-17')") == 1995
        assert evaluate("extract(month FROM date '1995-06-17')") == 6
        assert evaluate("extract(day FROM date '1995-06-17')") == 17


class TestFunctions:
    def test_substring(self):
        assert evaluate("substring('hello' FROM 2 FOR 3)") == "ell"
        assert evaluate("substring('hello', 2)") == "ello"

    def test_coalesce_nullif(self):
        assert evaluate("coalesce(NULL, NULL, 3)") == 3
        assert evaluate("nullif(2, 2)") is None
        assert evaluate("nullif(2, 3)") == 2

    def test_misc(self):
        assert evaluate("abs(-4)") == 4
        assert evaluate("round(3.456, 1)") == 3.5
        assert evaluate("upper('ab')") == "AB"
        assert evaluate("length('abc')") == 3
        assert evaluate("greatest(1, 9, 3)") == 9
        assert evaluate("least(4, 2, 8)") == 2

    def test_unknown_function(self):
        with pytest.raises(ProgrammingError):
            evaluate("frobnicate(1)")

    def test_mod_by_zero_is_null_like_the_operator(self):
        assert evaluate("mod(7, 0)") is None
        assert evaluate("mod(7, 0)") == evaluate("7 % 0")
        assert evaluate("mod(7, 4)") == 3
        assert evaluate("mod(NULL, 4)") is None

    def test_timestamp_and_round_propagate_null(self):
        assert evaluate("timestamp(NULL)") is None
        assert evaluate("timestamp(5)") == 5
        assert evaluate("timestamp('1992-01-03')") == 2
        assert evaluate("round(2.567, NULL)") is None
        assert evaluate("round(NULL, 1)") is None
        assert evaluate("round(2.567, 2)") == 2.57


class TestScopes:
    def test_column_resolution(self):
        layout = [("t", "a"), ("t", "b")]
        assert evaluate("a + b", row=(3, 4), layout=layout) == 7
        assert evaluate("t.a * 2", row=(3, 4), layout=layout) == 6

    def test_ambiguous_column(self):
        layout = [("t", "a"), ("u", "a")]
        with pytest.raises(ProgrammingError):
            evaluate("a", row=(1, 2), layout=layout)

    def test_unknown_column(self):
        with pytest.raises(ProgrammingError):
            evaluate("zzz")

    def test_outer_scope_resolution(self):
        outer = Scope([("o", "x")])
        inner = Scope([("i", "y")], outer=outer)
        expr = parse_statement("SELECT o.x + i.y").items[0].expr
        env = Env({}).nested((10,))
        assert compile_expr(expr, inner)((5,), env) == 15
        batch = Batch.from_rows([(5,), (6,)])
        assert compile_batch_expr(expr, inner)(batch, env) == [15, 16]

    def test_params(self):
        assert evaluate("? + 1", params={0: 41}) == 42
        assert evaluate(":p * 2", params={"p": 21}) == 42
        with pytest.raises(ProgrammingError):
            evaluate(":missing")


def test_expr_to_string_smoke():
    stmt = parse_statement(
        "SELECT CASE WHEN a LIKE 'x%' THEN 1 ELSE 0 END, a IN (1,2),"
        " a BETWEEN 1 AND 2, count(*), interval '3' day, b IS NULL"
    )
    for item in stmt.items:
        assert isinstance(expr_to_string(item.expr), str)


# -- the batch form against the scalar form, on generated expressions ---------

#: the row layout the generated expressions run over: an integer, a float
#: (NaN included), a string, a day number and a boolean — each nullable
LAYOUT = [("t", "i"), ("t", "f"), ("t", "s"), ("t", "d"), ("t", "b")]

_ints = st.integers(-5, 5)
_floats = st.sampled_from([0.0, -1.5, 2.25, float("nan")])
_strs = st.sampled_from(["", "a", "ab", "Abc", "b%"])
_days = st.integers(0, 4000)


def _nullable(strategy):
    return st.one_of(st.none(), strategy)


ROWS = st.sampled_from([0, 1, 7]).flatmap(
    lambda n: st.lists(
        st.tuples(_nullable(_ints), _nullable(_floats), _nullable(_strs),
                  _nullable(_days), _nullable(st.booleans())),
        min_size=n, max_size=n,
    )
)


def _literal(strategy):
    return _nullable(strategy).map(ast.Literal)


def _column(name):
    return st.just(ast.ColumnRef(name, table="t"))


def _call(name, *args):
    return st.tuples(*args).map(lambda a: ast.FuncCall(name, a))


def _binary(ops, left, right):
    return st.builds(ast.Binary, st.sampled_from(ops), left, right)


def _case(condition, result):
    return st.builds(
        ast.Case,
        st.lists(st.tuples(condition, result), min_size=1, max_size=2).map(tuple),
        _nullable(result),
    )


def _expressions(depth):
    """(numeric, string, date, boolean) expression strategies, typed so
    that most generated trees evaluate instead of raising TypeError."""
    if depth == 0:
        return (
            st.one_of(_literal(_ints), _literal(_floats), _literal(st.booleans()),
                      _column("i"), _column("f")),
            st.one_of(_literal(_strs), _column("s")),
            st.one_of(_literal(_days), _column("d")),
            st.one_of(_literal(st.booleans()), _column("b")),
        )
    num, text, date, boolean = _expressions(depth - 1)
    interval = st.builds(
        ast.IntervalLiteral, st.integers(0, 14),
        st.sampled_from(["day", "month", "year"]),
    )
    any_value = st.one_of(num, text, date, boolean)
    numeric = st.one_of(
        num,
        st.builds(ast.Unary, st.sampled_from(["-", "+"]), num),
        _binary(["+", "-", "*", "/", "%"], num, st.one_of(num, st.just(ast.Literal(0)))),
        _call("abs", num), _call("round", num, _literal(st.integers(0, 2))),
        _call("mod", num, num), _call("coalesce", num, num),
        _call("nullif", num, num), _call("greatest", num, num),
        _call("length", text),
        _case(boolean, num),
    )
    string = st.one_of(
        text,
        _binary(["||"], text, any_value),
        _call("upper", text), _call("substring", text, _literal(st.integers(0, 3))),
        _case(boolean, text),
    )
    dates = st.one_of(
        date,
        _binary(["+", "-"], date, interval),
        _binary(["+"], interval, date),
        _call("timestamp", date),
    )
    comparison = ["=", "<>", "<", "<=", ">", ">="]
    booleans = st.one_of(
        boolean,
        _binary(comparison, num, num), _binary(comparison, text, text),
        _binary(comparison, dates, dates),
        _binary(["and", "or"], boolean, st.one_of(boolean, num)),
        st.builds(ast.Unary, st.just("not"), boolean),
        st.builds(ast.Between, num, num, num, st.booleans()),
        st.builds(ast.Like, text, _literal(st.sampled_from(["a%", "_b", "%"])),
                  st.booleans()),
        st.builds(ast.InList, num, st.lists(num, min_size=1, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(ast.IsNull, any_value, st.booleans()),
        _case(boolean, boolean),
    )
    return numeric, string, dates, booleans


EXPRESSIONS = st.one_of(*_expressions(3))


def _outcome(fn):
    """The values, or a marker when evaluation raises: the two forms visit
    rows in a different order, so only *whether* they fail has to agree."""
    try:
        return _canon(fn())
    except (TypeError, ValueError, OverflowError, ProgrammingError):
        return "raises"


@settings(max_examples=300, deadline=None)
@given(expr=EXPRESSIONS, rows=ROWS)
def test_batch_form_equals_scalar_form(expr, rows):
    scope, env = Scope(LAYOUT), Env({})
    scalar = compile_expr(expr, scope)
    batched = compile_batch_expr(expr, scope)
    expected = _outcome(lambda: [scalar(row, env) for row in rows])
    columns = [list(column) for column in zip(*rows)] or [[] for _ in LAYOUT]
    for batch in (
        Batch.from_rows(rows, len(LAYOUT)),
        Batch.from_columns(columns, len(rows)),
    ):
        assert _outcome(lambda: batched(batch, env)) == expected


class TestLiftedSubtrees:
    """CASE and subquery nodes run their scalar closure per row of the
    batch; the expression around them stays chunk-wise."""

    LAYOUT = [("t", "a"), ("t", "b")]
    ROWS = [(1, 5), (7, 3), (None, 2), (4, 4)]

    def test_untaken_case_branch_is_never_evaluated(self):
        calls = []

        def subquery_compiler(select, scope):
            def run(env):
                calls.append(env.outer_rows[0])
                return [(1,), (2,)]  # a scalar subquery over this raises

            return run

        expr = _parse("CASE WHEN a > 100 THEN (SELECT 1) ELSE a END + 1")
        scope, env = Scope(self.LAYOUT), Env({})
        fn = compile_batch_expr(expr, scope, subquery_compiler)
        assert fn(Batch.from_rows(self.ROWS), env) == [2, 8, None, 5]
        assert calls == []
        with pytest.raises(ProgrammingError, match="more than one row"):
            fn(Batch.from_rows([(101, 0)]), env)

    def test_correlated_subquery_sees_each_outer_row(self):
        def subquery_compiler(select, scope):
            # stands in for "SELECT t.b": reads the outer row it is given
            return lambda env: [(env.outer_rows[0][1],)]

        expr = _parse("a > (SELECT 1)")
        scope, env = Scope(self.LAYOUT), Env({})
        expected = [False, True, None, False]
        scalar = compile_expr(expr, scope, subquery_compiler)
        assert [scalar(row, env) for row in self.ROWS] == expected
        batched = compile_batch_expr(expr, scope, subquery_compiler)
        columns = [list(column) for column in zip(*self.ROWS)]
        assert batched(Batch.from_rows(self.ROWS), env) == expected
        assert batched(Batch.from_columns(columns), env) == expected
