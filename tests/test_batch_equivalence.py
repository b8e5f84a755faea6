"""Batch execution must be byte-identical at every batch size.

Every query result under chunked batch execution — at any batch size —
must equal the reference produced at batch size 1, the degenerate
row-at-a-time run.  Checked across all five architecture archetypes on a
generated workload, plus operator-level cases for the sharp edges
(NULL/NaN join keys, empty partitions, batch boundaries straddling
group/sort runs).  That the batch form of an expression equals its
scalar form is checked directly in ``tests/test_expr.py``.
"""

import math

import pytest

from repro.core.loader import Loader
from repro.engine import Database
from repro.engine.batch import DEFAULT_BATCH_SIZE, execution_config
from repro.engine.expr import Env
from repro.engine.plan import operators as ops
from repro.systems import make_system
from tests.compiled import col, selection

#: batch sizes exercised against every query: degenerate (1), prime and
#: smaller than most partitions (7), the default, and larger than any
#: table in the workload (single-batch execution)
SIZES = (1, 7, DEFAULT_BATCH_SIZE, 10**6)

QUERIES = [
    # full-history scan + aggregation (Fig 2 shape)
    "SELECT count(*), sum(o_totalprice) FROM orders FOR SYSTEM_TIME ALL",
    # time travel: current partition pruning
    "SELECT count(*) FROM orders",
    # projection + filter + order + limit through _Finalize
    "SELECT o_orderkey, o_totalprice * 2 FROM orders"
    " WHERE o_totalprice > 1000 ORDER BY o_totalprice DESC, o_orderkey"
    " LIMIT 17",
    # equi join across tables
    "SELECT count(*), sum(o_totalprice) FROM orders o, customer c"
    " WHERE o.o_custkey = c.c_custkey",
    # grouped aggregation with HAVING
    "SELECT o_custkey, count(*) FROM orders GROUP BY o_custkey"
    " HAVING count(*) > 1 ORDER BY o_custkey",
    # DISTINCT projection
    "SELECT DISTINCT o_custkey FROM orders ORDER BY o_custkey",
    # set operation
    "SELECT o_custkey FROM orders WHERE o_totalprice > 5000"
    " UNION SELECT c_custkey FROM customer ORDER BY 1",
    # correlated subquery: a lifted subtree inside a chunk-wise comparison
    "SELECT o_orderkey FROM orders o WHERE o_totalprice >"
    " (SELECT avg(o_totalprice) FROM orders i"
    "  WHERE i.o_custkey = o.o_custkey)"
    " ORDER BY o_orderkey LIMIT 11",
]


@pytest.fixture(scope="module")
def systems(tiny_workload):
    loaded = {}
    for name in "ABCDE":
        system = make_system(name)
        Loader(system, tiny_workload).load()
        loaded[name] = system
    return loaded


@pytest.mark.parametrize("name", list("ABCDE"))
def test_queries_identical_across_batch_sizes(systems, name):
    system = systems[name]
    for sql in QUERIES:
        with execution_config(size=1):
            reference = system.execute(sql).rows
        for size in SIZES[1:]:
            with execution_config(size=size):
                got = system.execute(sql).rows
            assert got == reference, (name, sql, size)


@pytest.mark.parametrize("name", list("ABCDE"))
def test_timeout_surface_is_config_independent(systems, name):
    # EXPLAIN ANALYZE actual row counts must not depend on the batch size
    system = systems[name]
    sql = "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL"
    with execution_config(size=1):
        reference = system.db.execute("EXPLAIN ANALYZE " + sql).rows
    with execution_config(size=7):
        got = system.db.execute("EXPLAIN ANALYZE " + sql).rows

    def actuals(rows):
        return [
            line.split("actual rows=")[1].split(" ")[0]
            for (line,) in rows
            if "actual rows=" in line
        ]

    assert actuals(got) == actuals(reference)


# -- operator-level sharp edges --------------------------------------------


def _env():
    return Env({})


def _variants(make_op):
    """Rows of *make_op* at the reference size and every other size."""
    with execution_config(size=1):
        reference = make_op().rows(_env())
    results = []
    for size in SIZES[1:]:
        with execution_config(size=size):
            results.append(make_op().rows(_env()))
    return reference, results


NAN = float("nan")


def _canon(rows):
    """Rows with NaN made comparable (NaN != NaN breaks plain ==)."""
    return [
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row)
        for row in rows
    ]


class TestJoinKeyEdgeCases:
    LEFT = [(1, "a"), (None, "b"), (NAN, "c"), (2, "d"), (1, "e")]
    RIGHT = [(1, "x"), (None, "y"), (NAN, "z"), (3, "w"), (1, "v")]

    def test_hash_join_null_nan_keys(self):
        reference, results = _variants(lambda: ops.HashJoin(
            ops.Materialized(list(self.LEFT)),
            ops.Materialized(list(self.RIGHT)),
            [col(0)], [col(0)], right_width=2,
        ))
        # NULL keys match nothing; the 1-keys cross-match.  (Neither does
        # a NaN key, even as the *same float object* on both sides — see
        # tests/test_plan_operators.py.)
        assert [r for r in _canon(reference) if r[0] == 1] == [
            (1, "a", 1, "x"), (1, "a", 1, "v"), (1, "e", 1, "x"), (1, "e", 1, "v")
        ]
        assert not any(r[0] is None for r in reference)
        for got in results:
            assert _canon(got) == _canon(reference)

    def test_left_join_pads_unmatched(self):
        reference, results = _variants(lambda: ops.HashJoin(
            ops.Materialized(list(self.LEFT)),
            ops.Materialized(list(self.RIGHT)),
            [col(0)], [col(0)], kind="left", right_width=2,
        ))
        assert len(reference) == 7  # 4 matches + 3 padded (None/NaN/2)
        for got in results:
            assert _canon(got) == _canon(reference)


class TestEmptyInputs:
    def test_empty_child_through_every_operator(self):
        empty = lambda: ops.Materialized([])
        makers = [
            lambda: ops.Filter(empty(), selection("TRUE")),
            lambda: ops.Aggregate(
                empty(), [col(0)], [("count", ops.count_star, False)]
            ),
            lambda: ops.HashJoin(empty(), empty(), [col(0)], [col(0)]),
            lambda: ops.Union(empty(), empty()),
            lambda: ops.Union(empty(), empty(), all_rows=True),
        ]
        for make_op in makers:
            reference, results = _variants(make_op)
            assert reference == []
            for got in results:
                assert got == reference

    def test_global_aggregate_over_empty_input_yields_one_row(self):
        reference, results = _variants(lambda: ops.Aggregate(
            ops.Materialized([]), [], [("count", ops.count_star, False)],
            global_agg=True,
        ))
        assert reference == [(0,)]
        for got in results:
            assert got == reference

    def test_empty_history_partition(self, tiny_workload):
        # a freshly created table: current and history both empty
        system = make_system("A")
        system.db.execute(
            "CREATE TABLE empty_t (k integer NOT NULL, v integer,"
            " sb timestamp, se timestamp,"
            " PRIMARY KEY (k), PERIOD FOR system_time (sb, se))"
        )
        for sql in (
            "SELECT * FROM empty_t",
            "SELECT * FROM empty_t FOR SYSTEM_TIME ALL",
            "SELECT count(*) FROM empty_t FOR SYSTEM_TIME ALL",
        ):
            with execution_config(size=1):
                reference = system.execute(sql).rows
            for size in SIZES[1:]:
                with execution_config(size=size):
                    assert system.execute(sql).rows == reference


class TestSortStability:
    def test_duplicate_keys_keep_input_order_across_sizes(self):
        database = Database()
        database.execute(
            "CREATE TABLE s (i integer NOT NULL, k integer, PRIMARY KEY (i))"
        )
        rows = [(i % 3, i) for i in range(50)]
        for k, i in rows:
            database.execute("INSERT INTO s (i, k) VALUES (?, ?)", [i, k])
        stable = sorted(rows, key=lambda r: r[0])
        for sql, expected in (
            ("SELECT k, i FROM s ORDER BY k", stable),
            # after UNION ALL the sort runs over both inputs, left first
            ("SELECT k, i FROM s UNION ALL SELECT k, i FROM s ORDER BY 1",
             sorted(rows + rows, key=lambda r: r[0])),
        ):
            with execution_config(size=1):
                reference = database.execute(sql).rows
            assert reference == expected, sql
            for size in SIZES[1:]:
                with execution_config(size=size):
                    assert database.execute(sql).rows == reference, (sql, size)
