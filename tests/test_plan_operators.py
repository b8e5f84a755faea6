"""Direct tests of the physical operators; ORDER BY / LIMIT, which the
planner's projection node applies, are tested through SQL."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.batch import execution_config
from repro.engine.expr import Env
from repro.engine.plan import operators as ops
from tests.compiled import col, joined, pair, selection

NAN = float("nan")


def _env():
    return Env({})


def rows_of(op):
    return op.rows(_env())


class TestJoins:
    LEFT = [(1, "a"), (2, "b"), (2, "bb"), (None, "n")]
    RIGHT = [(1, "x"), (2, "y"), (3, "z"), (None, "nn")]

    def test_hash_join_inner(self):
        op = ops.HashJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            [col(0)], [col(0)],
        )
        got = sorted(rows_of(op))
        assert got == [(1, "a", 1, "x"), (2, "b", 2, "y"), (2, "bb", 2, "y")]

    def test_hash_join_null_keys_never_match(self):
        op = ops.HashJoin(
            ops.Materialized([(None,)]), ops.Materialized([(None,)]),
            [col(0)], [col(0)],
        )
        assert rows_of(op) == []

    def test_hash_join_left_pads(self):
        op = ops.HashJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            [col(0)], [col(0)], kind="left", right_width=2,
        )
        got = rows_of(op)
        assert (None, "n", None, None) in got
        assert len(got) == 4

    def test_hash_join_residual(self):
        op = ops.HashJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            [col(0)], [col(0)], residual=pair("r.c1 <> 'y'", 2, 2),
        )
        assert rows_of(op) == [(1, "a", 1, "x")]

    def test_hash_join_left_pads_when_residual_fails(self):
        # left 1 has a key match the residual rejects, left 2 one it keeps,
        # left 3 no key match at all: 1 and 3 surface padded, in left order
        op = ops.HashJoin(
            ops.Materialized([(1, "a"), (2, "b"), (3, "c")]),
            ops.Materialized([(1, "no"), (2, "no"), (2, "yes")]),
            [col(0)], [col(0)], kind="left", right_width=2,
            residual=pair("r.c1 = 'yes'", 2, 2),
        )
        assert rows_of(op) == [
            (1, "a", None, None), (2, "b", 2, "yes"), (3, "c", None, None)
        ]

    def test_hash_join_null_in_any_key_part_on_either_side(self):
        left = [(1, 1, "l"), (None, 1, "l0"), (1, None, "l1"), (None, None, "l2")]
        right = [(1, 1, "r"), (None, 1, "r0"), (1, None, "r1"), (None, None, "r2")]
        for build_side in ("right", "left"):
            op = ops.HashJoin(
                ops.Materialized(left), ops.Materialized(right),
                [col(0), col(1)], [col(0), col(1)], build_side=build_side,
            )
            assert rows_of(op) == [(1, 1, "l", 1, 1, "r")]

    def test_hash_join_build_sides_agree(self):
        left = [(i % 4, f"l{i}") for i in range(9)] + [(None, "ln"), (NAN, "lnan")]
        right = [(i % 3, f"r{i}") for i in range(7)] + [(None, "rn"), (NAN, "rnan")]
        def joined(build_side):
            return sorted(rows_of(ops.HashJoin(
                ops.Materialized(left), ops.Materialized(right),
                [col(0)], [col(0)], residual=pair("l.c1 <> 'l4'", 2, 2, build_side),
                build_side=build_side,
            )))

        assert joined("left") == joined("right")
        assert len(joined("right")) == 3 * 3 + 2 * 2 + 2 * 2 - 3

    def test_nan_key_matches_nothing_even_as_the_same_object(self):
        # a self-join over shared stored tuples hands the *same* float
        # object to both sides, which a dict would find by identity
        shared = [(1, NAN), (2, 0.5)]
        single = dict(left_keys=[col(1)], right_keys=[col(1)])
        composite = dict(left_keys=[col(0), col(1)], right_keys=[col(0), col(1)])
        for keys in (single, composite):
            for build_side in ("right", "left"):
                hashj = ops.HashJoin(
                    ops.Materialized(shared), ops.Materialized(shared),
                    build_side=build_side, **keys,
                )
                assert rows_of(hashj) == [(2, 0.5, 2, 0.5)]
        nested = ops.NestedLoopJoin(
            ops.Materialized(shared), ops.Materialized(shared),
            joined("l.c1 = r.c1", 2, 2),
        )
        assert rows_of(nested) == [(2, 0.5, 2, 0.5)]

    def test_sql_self_join_on_a_nan_agrees_across_join_operators(self):
        database = Database()
        database.execute(
            "CREATE TABLE m (id integer NOT NULL, x double, PRIMARY KEY (id))"
        )
        for i, x in enumerate([NAN, 0.5, None, 0.5]):
            database.execute("INSERT INTO m (id, x) VALUES (?, ?)", [i, x])
        hashed = "SELECT a.id, b.id FROM m a, m b WHERE a.x = b.x"
        looped = "SELECT a.id, b.id FROM m a, m b WHERE NOT (a.x <> b.x)"
        assert "HashJoin" in database.explain(hashed)
        assert "NestedLoopJoin" in database.explain(looped)
        expected = [(1, 1), (1, 3), (3, 1), (3, 3)]
        assert sorted(database.execute(hashed).rows) == expected
        assert sorted(database.execute(looped).rows) == expected

    def test_nested_loop_left(self):
        op = ops.NestedLoopJoin(
            ops.Materialized([(1,), (9,)]), ops.Materialized([(1,), (2,)]),
            joined("l.c0 = r.c0", 1, 1), kind="left", right_width=1,
        )
        assert sorted(rows_of(op), key=str) == [(1, 1), (9, None)]

    def test_cross_join(self):
        op = ops.CrossJoin(ops.Materialized([(1,), (2,)]), ops.Materialized([(3,)]))
        assert rows_of(op) == [(1, 3), (2, 3)]


class TestAggregateOperator:
    def test_grouped(self):
        data = [(1, 10.0), (1, 20.0), (2, 5.0)]
        op = ops.Aggregate(
            ops.Materialized(data),
            [col(0)],
            [("count", ops.count_star, False), ("sum", col(1), False), ("avg", col(1), False)],
        )
        got = sorted(rows_of(op))
        assert got == [(1, 2, 30.0, 15.0), (2, 1, 5.0, 5.0)]

    def test_distinct_aggregate(self):
        data = [(1, 5.0), (1, 5.0), (1, 7.0)]
        op = ops.Aggregate(
            ops.Materialized(data), [col(0)],
            [("count", col(1), True), ("sum", col(1), True)],
        )
        assert rows_of(op) == [(1, 2, 12.0)]

    def test_global_on_empty(self):
        op = ops.Aggregate(
            ops.Materialized([]), [],
            [("count", ops.count_star, False), ("min", col(0), False)],
            global_agg=True,
        )
        assert rows_of(op) == [(0, None)]

    def test_min_max(self):
        data = [(3,), (1,), (2,)]
        op = ops.Aggregate(
            ops.Materialized(data), [],
            [("min", col(0), False), ("max", col(0), False)],
            global_agg=True,
        )
        assert rows_of(op) == [(1, 3)]


# -- Aggregate against a row-at-a-time reference ----------------------------


class _RowState:
    """The reference accumulator: one value at a time, in scan order."""

    def __init__(self, func, distinct):
        self.func, self.count, self.value = func, 0, None
        self.seen = set() if distinct else None

    def add(self, value):
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.value is None:
            self.value = value
        elif self.func in ("sum", "avg"):
            self.value = self.value + value
        elif self.func == "min":
            self.value = min(self.value, value)
        elif self.func == "max":
            self.value = max(self.value, value)

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "avg":
            return self.value / self.count if self.count else None
        return self.value


def _reference_aggregate(rows, key_slots, specs, global_agg):
    groups = {}
    for row in rows:
        key = tuple(row[slot] for slot in key_slots)
        if key not in groups:
            groups[key] = [_RowState(func, distinct) for func, _s, distinct in specs]
        for state, (_func, slot, _distinct) in zip(groups[key], specs):
            state.add(1 if slot is None else row[slot])
    if not groups and global_agg:
        groups[()] = [_RowState(func, distinct) for func, _s, distinct in specs]
    return [
        key + tuple(state.result() for state in states)
        for key, states in groups.items()
    ]


# few distinct values so groups, DISTINCT and ties all happen; 1 == 1.0, the
# shared NAN object is found by identity in a set, a fresh NaN never is
_KEYS = st.sampled_from([0, 1, 1.0, 2, None, NAN, "a"])
_VALUES = st.one_of(
    st.sampled_from([None, NAN, 0, 1, 1.0, -0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 7]),
    st.floats(allow_infinity=False),
    st.integers(-5, 5),
)
_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["count", "sum", "avg", "min", "max"]),
        st.sampled_from([None, 2, 3]),  # None: count(*)
        st.booleans(),
    ).map(lambda spec: ("count",) + spec[1:] if spec[1] is None else spec),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_KEYS, _KEYS, _VALUES, _VALUES), max_size=40),
    key_slots=st.sampled_from([(), (0,), (0, 1)]),
    specs=_SPECS,
    global_agg=st.booleans(),
)
def test_aggregate_equals_row_at_a_time_reference(rows, key_slots, specs, global_agg):
    global_agg = global_agg and not key_slots
    expected = repr(_reference_aggregate(rows, key_slots, specs, global_agg))
    accumulators = [
        (func, ops.count_star if slot is None else col(slot), distinct)
        for func, slot, distinct in specs
    ]
    for size in (1, 7, 1024):
        with execution_config(size=size):
            op = ops.Aggregate(
                ops.Materialized(rows), [col(slot) for slot in key_slots],
                accumulators, global_agg=global_agg,
            )
            # repr: byte-identical floats (-0.0, rounding), NaN comparable
            assert repr(rows_of(op)) == expected, size


def _shaping_db(rows):
    """Table ``s (i, k, v)`` holding *rows* as (k, v), in that order."""
    database = Database()
    database.execute(
        "CREATE TABLE s (i integer NOT NULL, k integer, v varchar,"
        " PRIMARY KEY (i))"
    )
    for i, (k, v) in enumerate(rows):
        database.execute("INSERT INTO s (i, k, v) VALUES (?, ?, ?)", [i, k, v])
    return database


class TestShapingOperators:
    def test_sort_multi_key_stability(self):
        database = _shaping_db([(1, "b"), (2, "a"), (1, "a")])
        rows = database.execute("SELECT k, v FROM s ORDER BY k, v").rows
        assert rows == [(1, "a"), (1, "b"), (2, "a")]

    def test_sort_descending_with_nulls(self):
        database = _shaping_db([(2, "x"), (None, "y"), (5, "z")])
        rows = database.execute("SELECT k FROM s ORDER BY k DESC").rows
        assert rows == [(None,), (5,), (2,)]

    def test_limit_offset(self):
        database = _shaping_db([(i, "v") for i in range(10)])
        rows = database.execute("SELECT k FROM s LIMIT 3 OFFSET 2").rows
        assert rows == [(2,), (3,), (4,)]

    def test_union_modes(self):
        left = ops.Materialized([(1,), (2,)])
        right = ops.Materialized([(2,), (3,)])
        assert sorted(rows_of(ops.Union(left, right))) == [(1,), (2,), (3,)]
        assert len(rows_of(ops.Union(left, right, all_rows=True))) == 4

    def test_filter(self):
        op = ops.Filter(
            ops.Materialized([(1,), (2,), (3,)]),
            selection("t.c0 > 1"),
        )
        assert rows_of(op) == [(2,), (3,)]


class TestExplainTree:
    def test_nested_explain(self):
        op = ops.Filter(
            ops.Union(ops.Materialized([], "L"), ops.Materialized([], "R")),
            selection("TRUE"),
            "Filter(test)",
        )
        text = op.explain()
        assert "Filter(test)" in text
        assert "Union" in text
        assert text.count("\n") >= 2  # indented children
