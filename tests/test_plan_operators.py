"""Direct tests of the physical operators (incl. ones the planner uses
rarely, like MergeJoin)."""

from repro.engine.expr import Env
from repro.engine.plan import operators as ops


def _env():
    return Env({})


def col(i):
    return lambda batch, env: batch.column(i)


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
        residual = lambda row, env: row[3] != "y"
        op = ops.HashJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            [col(0)], [col(0)], residual=residual,
        )
        assert rows_of(op) == [(1, "a", 1, "x")]

    def test_merge_join_matches_hash_join(self):
        merge = ops.MergeJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            col(0), col(0),
        )
        hashj = ops.HashJoin(
            ops.Materialized(self.LEFT), ops.Materialized(self.RIGHT),
            [col(0)], [col(0)],
        )
        assert sorted(rows_of(merge)) == sorted(rows_of(hashj))

    def test_merge_join_duplicate_runs(self):
        left = [(1,), (1,), (2,)]
        right = [(1,), (1,), (1,)]
        op = ops.MergeJoin(
            ops.Materialized(left), ops.Materialized(right), col(0), col(0)
        )
        assert len(rows_of(op)) == 6

    def test_nested_loop_left(self):
        predicate = lambda row, env: row[0] == row[1]
        op = ops.NestedLoopJoin(
            ops.Materialized([(1,), (9,)]), ops.Materialized([(1,), (2,)]),
            predicate, kind="left", right_width=1,
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


class TestShapingOperators:
    def test_sort_multi_key_stability(self):
        data = [(1, "b"), (2, "a"), (1, "a")]
        op = ops.Sort(
            ops.Materialized(data),
            [col(0), col(1)],
            [False, False],
        )
        assert rows_of(op) == [(1, "a"), (1, "b"), (2, "a")]

    def test_sort_descending_with_nulls(self):
        data = [(2,), (None,), (5,)]
        op = ops.Sort(ops.Materialized(data), [col(0)], [True])
        assert rows_of(op) == [(None,), (5,), (2,)]

    def test_limit_offset(self):
        op = ops.Limit(
            ops.Materialized([(i,) for i in range(10)]),
            lambda row, env: 3,
            lambda row, env: 2,
        )
        assert rows_of(op) == [(2,), (3,), (4,)]

    def test_distinct(self):
        op = ops.Distinct(ops.Materialized([(1,), (1,), (2,)]))
        assert rows_of(op) == [(1,), (2,)]

    def test_union_modes(self):
        left = ops.Materialized([(1,), (2,)])
        right = ops.Materialized([(2,), (3,)])
        assert sorted(rows_of(ops.Union(left, right))) == [(1,), (2,), (3,)]
        assert len(rows_of(ops.Union(left, right, all_rows=True))) == 4

    def test_filter(self):
        op = ops.Filter(
            ops.Materialized([(1,), (2,), (3,)]),
            lambda batch, env: [v > 1 for v in batch.column(0)],
        )
        assert rows_of(op) == [(2,), (3,)]

    def test_project(self):
        op = ops.Project(
            ops.Materialized([(1, 2)]),
            [col(1), lambda batch, env: [v * 10 for v in batch.column(0)]],
        )
        assert rows_of(op) == [(2, 10)]


class TestExplainTree:
    def test_nested_explain(self):
        op = ops.Filter(
            ops.Union(ops.Materialized([], "L"), ops.Materialized([], "R")),
            lambda batch, env: [True] * batch.length,
            "Filter(test)",
        )
        text = op.explain()
        assert "Filter(test)" in text
        assert "Union" in text
        assert text.count("\n") >= 2  # indented children
