"""An independent oracle for expression evaluation: SQLite.

Typed expression trees, built from the strategies of ``tests/test_expr.py``,
are rendered as SQL and evaluated by ``sqlite3`` (standard library) over
the same rows; every spelling the engine generates — ``scalar``,
``batch`` over row-major and column-major batches, ``selection`` and
``pair`` — must give SQLite's answer.

Covered: comparisons, AND / OR / NOT, ``+ - *`` on integers and floats,
``/`` (rendered ``CAST(a AS REAL) / b``: the engine's ``/`` is true
division, NULL on a zero divisor, as SQLite's is), IS [NOT] NULL,
[NOT] BETWEEN, [NOT] IN over a list, CASE, ``coalesce``, ``nullif``,
``abs``, ``upper``, ``lower``, ``length`` and ``substr`` with start and
length in 0..3.

Left out, because the two systems' semantics differ there by design:

* NaN: SQLite stores it as NULL, the engine keeps it as a value;
* ``%``: SQLite truncates toward zero and converts floats to integers,
  the engine follows Python's floored modulo;
* LIKE: SQLite's is case-insensitive for ASCII, the engine's is not;
* ``||`` on non-strings: SQLite renders numbers in its own format
  (``0.1 + 0.2`` becomes ``0.3``, TRUE becomes ``1``), the engine uses
  ``str()``;
* dates and intervals: the engine's are day numbers with calendar-month
  arithmetic, which SQLite has no type for;
* negative ``substr`` starts (SQLite counts from the end of the string).
"""

import sqlite3

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.batch import Batch
from repro.engine.expr import Env, Scope, compile_expr
from repro.engine.sql import ast
from tests.test_expr import _binary, _call, _case, _column, _ints, _literal, _nullable, _strs

#: the rows the expressions run over: integer, float, string, boolean
LAYOUT = [("t", "i"), ("t", "f"), ("t", "s"), ("t", "b")]
_floats = st.sampled_from([0.0, -1.5, 2.25, 0.1])
ROWS = st.lists(
    st.tuples(_nullable(_ints), _nullable(_floats), _nullable(_strs),
              _nullable(st.booleans())),
    min_size=1, max_size=7,
)
COMPARISON = ["=", "<>", "<", "<=", ">", ">="]


def _expressions(depth):
    """(numeric, string, boolean) strategies over the covered operators."""
    if depth == 0:
        return (
            st.one_of(_literal(_ints), _literal(_floats), _literal(st.booleans()),
                      _column("i"), _column("f")),
            st.one_of(_literal(_strs), _column("s")),
            st.one_of(_literal(st.booleans()), _column("b")),
        )
    num, text, boolean = _expressions(depth - 1)
    positions = _literal(st.integers(0, 3))
    numeric = st.one_of(
        num,
        st.builds(ast.Unary, st.sampled_from(["-", "+"]), num),
        _binary(["+", "-", "*", "/"], num, st.one_of(num, st.just(ast.Literal(0)))),
        _call("abs", num), _call("coalesce", num, num), _call("nullif", num, num),
        _call("length", text), _case(boolean, num),
    )
    string = st.one_of(
        text, _binary(["||"], text, text), _call("upper", text), _call("lower", text),
        _call("substr", text, positions), _call("substr", text, positions, positions),
        _case(boolean, text),
    )
    booleans = st.one_of(
        boolean,
        _binary(COMPARISON, num, num), _binary(COMPARISON, text, text),
        _binary(["and", "or"], boolean, st.one_of(boolean, num)),
        st.builds(ast.Unary, st.just("not"), boolean),
        st.builds(ast.Between, num, num, num, st.booleans()),
        st.builds(ast.InList, num, st.lists(num, min_size=1, max_size=3).map(tuple),
                  st.booleans()),
        st.builds(ast.IsNull, st.one_of(num, text, boolean), st.booleans()),
        _case(boolean, boolean),
    )
    return numeric, string, booleans


NUMERIC, STRING, BOOLEAN = _expressions(3)


def to_sql(node) -> str:
    """*node* as SQLite SQL."""
    if isinstance(node, ast.Literal):
        value = node.value
        if value is None:
            return "NULL"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        return f"({int(value) if isinstance(value, bool) else value!r})"
    if isinstance(node, ast.ColumnRef):
        return node.name
    if isinstance(node, ast.Unary):
        op = "NOT" if node.op == "not" else node.op
        return f"({op} {to_sql(node.operand)})"
    if isinstance(node, ast.Binary):
        left, right = to_sql(node.left), to_sql(node.right)
        if node.op == "/":
            return f"(CAST({left} AS REAL) / {right})"
        return f"({left} {node.op.upper()} {right})"
    if isinstance(node, ast.FuncCall):
        name = "substr" if node.name == "substring" else node.name
        return f"{name}({', '.join(map(to_sql, node.args))})"
    negation = "NOT " if getattr(node, "negated", False) else ""
    if isinstance(node, ast.Between):
        return (f"({to_sql(node.operand)} {negation}BETWEEN "
                f"{to_sql(node.low)} AND {to_sql(node.high)})")
    if isinstance(node, ast.InList):
        items = ", ".join(map(to_sql, node.items))
        return f"({to_sql(node.operand)} {negation}IN ({items}))"
    if isinstance(node, ast.IsNull):
        return f"({to_sql(node.operand)} IS {negation}NULL)"
    if isinstance(node, ast.Case):
        branches = " ".join(f"WHEN {to_sql(c)} THEN {to_sql(r)}" for c, r in node.branches)
        default = "" if node.default is None else f" ELSE {to_sql(node.default)}"
        return f"(CASE {branches}{default} END)"
    raise AssertionError(f"not covered by the oracle: {node!r}")


def sqlite_values(node, rows):
    """SQLite's value of *node* on each row, booleans as 1 / 0."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE t (i, f, s, b)")  # no type affinity
        connection.executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
        query = f"SELECT {to_sql(node)} FROM t ORDER BY rowid"
        return [value for (value,) in connection.execute(query)]
    finally:
        connection.close()


def _canon(values):
    return [int(v) if isinstance(v, bool) else v for v in values]


def _batches(rows):
    columns = [list(column) for column in zip(*rows)]
    return Batch.from_rows(rows, len(LAYOUT)), Batch.from_columns(columns, len(rows))


def _substr(*args):
    return ast.FuncCall("substr", tuple(ast.Literal(a) for a in args))


@settings(max_examples=600, deadline=None)
@given(expr=st.one_of(NUMERIC, STRING, BOOLEAN), rows=ROWS)
# the two disagreements found while defining the coverage, pinned
@example(expr=_substr("abc", 1, None), rows=[(None, None, None, None)])
@example(expr=_substr("abc", 0, 2), rows=[(None, None, None, None)])
def test_values_agree_with_sqlite(expr, rows):
    expected = sqlite_values(expr, rows)
    scope, env = Scope(LAYOUT), Env({})
    scalar = compile_expr(expr, scope)
    assert _canon([scalar(row, env) for row in rows]) == expected, to_sql(expr)
    batched = compile_expr(expr, scope, spelling="batch")
    for batch in _batches(rows):
        assert _canon(batched(batch, env)) == expected, to_sql(expr)


@settings(max_examples=600, deadline=None)
@given(expr=BOOLEAN, rows=ROWS, split=st.integers(1, len(LAYOUT) - 1),
       build_left=st.booleans())
def test_selections_agree_with_sqlite(expr, rows, split, build_left):
    scope, env = Scope(LAYOUT), Env({})
    chosen = [i for i, value in enumerate(sqlite_values(expr, rows)) if value == 1]
    select = compile_expr(expr, scope, spelling="selection")
    for batch in _batches(rows):
        assert select(batch, env) == chosen, to_sql(expr)
    # pair: the first row's probe part against every row's build part, so
    # the candidate rows are exactly *rows* when the first row is the probe
    probe_row = rows[0]
    probe = probe_row[split:] if build_left else probe_row[:split]
    bucket = [row[:split] if build_left else row[split:] for row in rows]
    combined = [o + probe if build_left else probe + o for o in bucket]
    kept = [combined[i] for i, value in enumerate(sqlite_values(expr, combined))
            if value == 1]
    pairs = compile_expr(expr, scope, spelling="pair", left_width=split,
                         build_left=build_left)
    assert pairs(probe, bucket, env) == kept, to_sql(expr)
