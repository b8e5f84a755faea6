"""The expression generator's contract: its four spellings agree, the
generated source holds no literal text, the shape memo is shared and
bounded, CASE stays lazy, and IN over an uncorrelated subquery is one
membership set per statement execution."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine import expr as expr_module
from repro.engine.batch import Batch
from repro.engine.errors import ProgrammingError
from repro.engine.expr import Env, Scope, compile_batch_expr, compile_expr
from repro.engine.plan import operators as ops
from repro.engine.plan.planner import Planner
from tests.compiled import col, joined, pair, parse
from tests.test_expr import EXPRESSIONS, LAYOUT, ROWS, _outcome

NAN = float("nan")


def _batches(rows, width):
    columns = [list(column) for column in zip(*rows)] or [[] for _ in range(width)]
    return Batch.from_rows(rows, width), Batch.from_columns(columns, len(rows))


# -- the spellings against each other --------------------------------------


@settings(max_examples=200, deadline=None)
@given(expr=EXPRESSIONS, rows=ROWS)
def test_selection_is_the_indices_where_the_batch_spelling_is_true(expr, rows):
    scope, env = Scope(LAYOUT), Env({})
    values = compile_batch_expr(expr, scope)
    select = compile_expr(expr, scope, spelling="selection")
    for batch in _batches(rows, len(LAYOUT)):
        expected = _outcome(lambda: [i for i, v in enumerate(values(batch, env)) if v is True])
        assert _outcome(lambda: select(batch, env)) == expected


def _canon_rows(rows):
    return [tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row)
            for row in rows]


@settings(max_examples=200, deadline=None)
@given(expr=EXPRESSIONS, rows=ROWS, split=st.integers(1, len(LAYOUT) - 1),
       build_left=st.booleans())
def test_pair_is_the_scalar_residual_over_concatenated_pairs(expr, rows, split, build_left):
    """Each row splits into a left part (``split`` columns) and a right
    part; the first row's part on the probe side meets every row's part on
    the build side."""
    scope, env = Scope(LAYOUT), Env({})
    residual = compile_expr(expr, scope)
    pairs = compile_expr(expr, scope, spelling="pair", left_width=split,
                         build_left=build_left)
    for probe_row in rows[:1]:
        left, right = probe_row[:split], probe_row[split:]
        probe = right if build_left else left
        bucket = [row[:split] if build_left else row[split:] for row in rows]
        concatenated = [o + probe if build_left else probe + o for o in bucket]
        expected = _outcome(
            lambda: _canon_rows([p for p in concatenated if residual(p, env) is True]))
        assert _outcome(lambda: _canon_rows(pairs(probe, bucket, env))) == expected


LEFT = [(1, 1), (1, None), (2, 0.5), (None, 3), (NAN, 1), (3, NAN), (2, 7)]
RIGHT = [(1, 2), (1, None), (2, 0.5), (2, NAN), (None, 1), (4, 4), (3, 1)]
RESIDUALS = ["l.c1 < r.c1", "l.c1 = r.c1 OR r.c1 IS NULL", "NOT (l.c1 <> r.c1)",
             "l.c1 + r.c1 > 1", "r.c1 IS NULL"]


@pytest.mark.parametrize("residual", RESIDUALS)
@pytest.mark.parametrize("kind,build_side", [
    ("inner", "right"), ("inner", "left"), ("left", "right"),
])
def test_hash_join_residual_equals_the_nested_loop_predicate(residual, kind, build_side):
    """NULL / NaN keys and residual operands, both build sides, and
    left-join padding when the residual rejects every candidate."""
    hashed = ops.HashJoin(
        ops.Materialized(LEFT), ops.Materialized(RIGHT), [col(0)], [col(0)],
        residual=pair(residual, 2, 2, build_side), kind=kind, right_width=2,
        build_side=build_side,
    )
    looped = ops.NestedLoopJoin(
        ops.Materialized(LEFT), ops.Materialized(RIGHT),
        joined(f"l.c0 = r.c0 AND ({residual})", 2, 2), kind=kind, right_width=2,
    )
    env = Env({})
    assert sorted(_canon_rows(hashed.rows(env)), key=repr) == sorted(
        _canon_rows(looped.rows(env)), key=repr)


# -- what the generated source is made of ----------------------------------


@pytest.fixture
def memo(monkeypatch):
    """An empty shape memo for the test, the module's own restored after."""
    monkeypatch.setattr(expr_module, "_MEMO", {})
    return expr_module


def test_string_literals_come_back_as_values_never_as_source(memo):
    nasty = "it's \"quoted\"\nline two\\ __import__('os').system('true') #"
    scope = Scope([("t", "s")])
    expr = parse("t.s = " + "'" + nasty.replace("'", "''") + "' OR t.s IS NULL")
    fn = compile_expr(expr, scope, spelling="batch")
    assert fn(Batch.from_rows([(nasty,), ("x",), (None,)]), Env({})) == [True, False, True]
    (key,) = memo._MEMO
    source = "\n".join(map(str, key))
    for fragment in ("quoted", "line two", "__import__", "os", "system", "'"):
        assert fragment not in source
    assert compile_expr(parse("'" + nasty.replace("'", "''") + "' || t.s"), scope)(
        ("!",), Env({})) == nasty + "!"


def test_statements_differing_only_in_literals_share_one_code_object(memo):
    scope = Scope([("t", "a"), ("t", "s")])
    first = compile_expr(parse("t.a BETWEEN 1 AND 5 AND t.s IN ('x', 'y')"), scope,
                         spelling="selection")
    second = compile_expr(parse("t.a BETWEEN 20 AND 30 AND t.s IN ('q', 'r', 's')"),
                          scope, spelling="selection")
    assert len(memo._MEMO) == 1
    assert first.__code__ is second.__code__
    rows = [(3, "x"), (25, "q"), (3, "q"), (None, "x")]
    assert first(Batch.from_rows(rows), Env({})) == [0]
    assert second(Batch.from_rows(rows), Env({})) == [1]


def test_the_memo_is_bounded(memo, monkeypatch):
    monkeypatch.setattr(expr_module, "MEMO_SIZE", 4)
    scope = Scope([("t", f"c{i}") for i in range(10)])
    for i in range(1, 10):
        fn = compile_expr(parse(f"t.c0 + t.c{i}"), scope, spelling="batch")
        assert len(memo._MEMO) <= 4
    assert fn(Batch.from_rows([tuple(range(10))]), Env({})) == [9]


# -- CASE laziness -----------------------------------------------------------


SPELLINGS = ["scalar", "batch", "selection", "pair"]


def _run(fn, spelling, rows, env):
    if spelling == "scalar":
        return [fn(row, env) for row in rows]
    if spelling == "pair":
        return fn((), rows, env)
    return fn(Batch.from_rows(rows), env)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_untaken_case_branch_with_a_missing_parameter_does_not_raise(spelling):
    expr = parse("CASE WHEN a > 100 THEN :missing = 1 ELSE a > 1 END")
    fn = compile_expr(expr, Scope([("t", "a")]), spelling=spelling)
    _run(fn, spelling, [(1,), (5,), (None,)], Env({}))
    with pytest.raises(ProgrammingError, match="missing named parameter"):
        _run(fn, spelling, [(101,)], Env({}))


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_untaken_case_branch_with_a_multi_row_subquery_does_not_raise(spelling):
    def subqueries(select, scope):
        run = lambda env: [(1,), (2,)]
        run.correlated = False  # the form the planner hoists out of the loop
        return run

    expr = parse("CASE WHEN a > 100 THEN (SELECT 1) = 1 ELSE a > 1 END")
    fn = compile_expr(expr, Scope([("t", "a")]), subqueries, spelling=spelling)
    _run(fn, spelling, [(1,), (5,)], Env({}))
    with pytest.raises(ProgrammingError, match="more than one row"):
        _run(fn, spelling, [(101,)], Env({}))


# -- IN (subquery) -----------------------------------------------------------


def _counting_subqueries(result, correlated):
    calls = []

    def subqueries(select, scope):
        def run(env):
            calls.append(env.outer_rows[:1])
            return result

        if not correlated:
            run.correlated = False
        return run

    return subqueries, calls


@pytest.mark.parametrize("correlated", [False, True])
def test_in_subquery_semantics(correlated):
    subqueries, calls = _counting_subqueries([(1,), (2.0,), (NAN,)], correlated)
    scope, env = Scope([("t", "a")]), Env({})
    rows = [(1,), (2,), (3,), (None,), (NAN,)]
    for text, expected in (
        ("a IN (SELECT 1)", [True, True, False, None, False]),
        ("a NOT IN (SELECT 1)", [False, False, True, None, True]),
    ):
        fn = compile_expr(parse(text), scope, subqueries, spelling="batch")
        for batch in _batches(rows, 1):
            assert fn(batch, env) == expected
    if correlated:
        assert len(calls) == 2 * 2 * 4  # every non-NULL row of every batch
    else:
        assert len(calls) == 2  # one set per expression and statement execution


def test_a_null_member_turns_a_miss_into_null():
    subqueries, _calls = _counting_subqueries([(1,), (None,)], correlated=False)
    fn = compile_expr(parse("a IN (SELECT 1)"), Scope([("t", "a")]), subqueries,
                      spelling="batch")
    assert fn(Batch.from_rows([(1,), (2,), (None,)]), Env({})) == [True, None, None]


@pytest.fixture
def shared_nan_db():
    database = Database()
    database.execute("CREATE TABLE m (id integer NOT NULL, x double, PRIMARY KEY (id))")
    for i, x in enumerate([NAN, 0.5, None, 0.5, 2.0]):
        database.execute("INSERT INTO m (id, x) VALUES (?, ?)", [i, x])
    return database


def _ids(database, sql):
    return sorted(row[0] for row in database.execute(sql).rows)


def test_uncorrelated_in_does_not_match_a_shared_nan(shared_nan_db):
    # the subquery reads the same stored float object the outer row holds,
    # which a set would find by identity
    assert _ids(shared_nan_db, "SELECT id FROM m WHERE x IN"
                " (SELECT x FROM m WHERE x IS NOT NULL)") == [1, 3, 4]
    assert _ids(shared_nan_db, "SELECT id FROM m WHERE x NOT IN"
                " (SELECT x FROM m WHERE x IS NOT NULL AND x < 1)") == [0, 4]
    # a NULL member: every miss is NULL, so NOT IN keeps nothing
    assert _ids(shared_nan_db, "SELECT id FROM m WHERE x NOT IN (SELECT x FROM m)") == []
    rows = shared_nan_db.execute(
        "SELECT id, x IN (SELECT x FROM m WHERE id > 0) FROM m ORDER BY id").rows
    assert rows == [(0, None), (1, True), (2, None), (3, True), (4, True)]


def test_correlated_in_runs_per_row(shared_nan_db):
    assert _ids(shared_nan_db, "SELECT id FROM m a WHERE x IN"
                " (SELECT x FROM m b WHERE b.id = a.id + 2)") == [1]


def test_each_subquery_is_planned_once(shared_nan_db, monkeypatch):
    planned = []
    original = Planner.plan_select

    def counting(self, select, outer_scope=None):
        planned.append(outer_scope is not None)
        return original(self, select, outer_scope)

    monkeypatch.setattr(Planner, "plan_select", counting)
    flags = []
    original_compiler = Planner._subquery_compiler

    def recording(self, select, scope):
        run = original_compiler(self, select, scope)
        flags.append(run.correlated)
        return run

    monkeypatch.setattr(Planner, "_subquery_compiler", recording)
    shared_nan_db.execute(
        "SELECT id FROM m a WHERE x IN (SELECT x FROM m WHERE id > 0)"
        " AND EXISTS (SELECT 1 FROM m b WHERE b.id = a.id)"
        " AND x < (SELECT max(x) FROM m c WHERE c.x IN (SELECT x FROM m d WHERE d.id = a.id))"
    )
    assert planned == [False, True, True, True, True]  # the root, then once each
    assert flags == [False, True, True, True]  # d reads a.id: c is correlated through it
