"""Join-correctness regressions and order-independence properties.

Three families:

* ``Materialized`` must hand out a private copy of its backing rows —
  consumers sort and extend result lists in place, and aliasing the
  backing list corrupted every later reuse.
* ``MergeJoin`` must treat NULL (and NaN) keys like every other join:
  they match nothing, on either input, even inside composite keys.
* Join output must be a pure function of the query, not of the FROM
  order, the ``join-reorder`` rule, or the presence of statistics —
  checked exhaustively over table permutations and across archetypes.
"""

import itertools

import pytest

from repro.core.loader import Loader
from repro.engine import Database
from repro.engine.database import ArchitectureProfile
from repro.engine.expr import Env
from repro.engine.plan import operators as ops
from repro.systems import make_system


def _env():
    return Env({})


def col(i):
    return lambda batch, env: batch.column(i)


def rows_of(op):
    return op.rows(_env())


class TestMaterializedAliasing:
    def test_execute_returns_a_copy(self):
        backing = [(1,), (2,), (3,)]
        op = ops.Materialized(backing)
        first = op.execute(_env())
        first.append((99,))
        first.reverse()
        assert op.execute(_env()) == [(1,), (2,), (3,)]

    def test_consumer_mutation_does_not_leak_into_reuse(self):
        # a reused subplan result fed to two joins: the first consumer
        # sorting in place must not change what the second consumer sees
        op = ops.Materialized([(2, "b"), (1, "a")])
        seen_first = op.execute(_env())
        seen_first.sort()
        probe = ops.HashJoin(
            ops.Materialized([(1, "x")]), op, [col(0)], [col(0)]
        )
        assert rows_of(probe) == [(1, "x", 1, "a")]
        assert op.execute(_env()) == [(2, "b"), (1, "a")]


class TestMergeJoinNullKeys:
    """Every NULL-key arrangement, checked against HashJoin and a
    SQL-semantics NestedLoopJoin on the same inputs."""

    def _agree(self, left, right, width=2):
        merge = ops.MergeJoin(
            ops.Materialized(left), ops.Materialized(right), col(0), col(0)
        )
        hashj = ops.HashJoin(
            ops.Materialized(left), ops.Materialized(right), [col(0)], [col(0)]
        )

        def sql_eq(row, env):
            lval, rval = row[0], row[width]
            if lval is None or rval is None:
                return None  # SQL three-valued logic: NULL matches nothing
            return lval == rval

        nested = ops.NestedLoopJoin(
            ops.Materialized(left), ops.Materialized(right), sql_eq
        )
        merged = sorted(rows_of(merge), key=repr)
        assert merged == sorted(rows_of(hashj), key=repr)
        assert merged == sorted(rows_of(nested), key=repr)
        return merged

    def test_null_keys_on_both_inputs(self):
        left = [(1, "a"), (None, "n1"), (2, "b"), (None, "n2")]
        right = [(None, "nn"), (1, "x"), (3, "z")]
        got = self._agree(left, right)
        assert got == [(1, "a", 1, "x")]

    def test_all_null_left_input(self):
        got = self._agree([(None, "n1"), (None, "n2")], [(None, "m"), (1, "x")])
        assert got == []

    def test_null_run_does_not_consume_real_matches(self):
        # NULLs sort last; skipping them must leave the pointer on the
        # other side untouched so later equal runs still pair up
        left = [(None, "n"), (5, "a"), (5, "b")]
        right = [(5, "x"), (None, "m"), (5, "y")]
        got = self._agree(left, right)
        assert len(got) == 4

    def test_composite_key_with_null_part_matches_nothing(self):
        left = [(1, 10, "a"), (1, None, "b"), (2, 20, "c")]
        right = [(1, 10, "x"), (None, 10, "y"), (2, 20, "z")]
        key = lambda batch, env: list(zip(batch.column(0), batch.column(1)))
        merge = ops.MergeJoin(
            ops.Materialized(left), ops.Materialized(right), key, key
        )
        hashj = ops.HashJoin(
            ops.Materialized(left), ops.Materialized(right),
            [col(0), col(1)], [col(0), col(1)],
        )
        got = sorted(rows_of(merge))
        assert got == sorted(rows_of(hashj))
        assert got == [
            (1, 10, "a", 1, 10, "x"),
            (2, 20, "c", 2, 20, "z"),
        ]

    def test_nan_keys_never_match_and_never_stall(self):
        # distinct NaN objects so no identity shortcut anywhere
        left = [(float("nan"), "l1"), (1.0, "l2")]
        right = [(float("nan"), "r1"), (1.0, "r2")]
        got = self._agree(left, right)
        assert got == [(1.0, "l2", 1.0, "r2")]

    def test_sql_level_null_join_agreement(self):
        """The same contract through SQL: a nullable join key must yield
        the same rows whichever physical join the planner picks."""
        database = Database()
        database.execute(
            "CREATE TABLE l (id integer NOT NULL, k integer, PRIMARY KEY (id))"
        )
        database.execute(
            "CREATE TABLE r (id integer NOT NULL, k integer, PRIMARY KEY (id))"
        )
        for i, k in enumerate([1, None, 2, None]):
            database.execute("INSERT INTO l (id, k) VALUES (?, ?)", [i, k])
        for i, k in enumerate([None, 1, 3]):
            database.execute("INSERT INTO r (id, k) VALUES (?, ?)", [i, k])
        rows = database.execute(
            "SELECT l.id, r.id FROM l, r WHERE l.k = r.k"
        ).rows
        assert sorted(rows) == [(0, 1)]


# -- order independence ------------------------------------------------------


def _chain_db(rules):
    database = Database(profile=ArchitectureProfile(rewrite_rules=rules))
    spec = (("t1", 8), ("t2", 30), ("t3", 60), ("t4", 15))
    for name, count in spec:
        database.execute(
            f"CREATE TABLE {name} (id integer NOT NULL, fk integer,"
            " v integer, PRIMARY KEY (id))"
        )
        for i in range(count):
            database.execute(
                f"INSERT INTO {name} (id, fk, v) VALUES (?, ?, ?)",
                [i, i % 8, i % 5],
            )
    return database


_CHAIN4 = (
    "SELECT t1.id, t2.id, t3.id, t4.id FROM {order}"
    " WHERE t1.id = t2.fk AND t2.id = t3.fk AND t3.id = t4.fk"
    " AND t4.v < 3"
)


class TestPermutationInvariance:
    @pytest.mark.parametrize("rules", [
        ("constant-folding", "predicate-pushdown", "join-reorder"),
        ("constant-folding", "predicate-pushdown"),
    ], ids=["reorder-on", "reorder-off"])
    @pytest.mark.parametrize("analyzed", [False, True],
                             ids=["no-stats", "stats"])
    def test_four_table_chain_all_permutations(self, rules, analyzed):
        database = _chain_db(rules)
        if analyzed:
            database.analyze()
        reference = None
        for perm in itertools.permutations(("t1", "t2", "t3", "t4")):
            rows = database.execute(
                _CHAIN4.format(order=", ".join(perm))
            ).rows
            multiset = sorted(rows)
            if reference is None:
                reference = multiset
            assert multiset == reference, perm
        assert reference  # the chain actually joins something


@pytest.fixture(scope="module")
def archetype_systems(tiny_workload):
    systems = {}
    for name in "ABCDE":
        system = make_system(name)
        Loader(system, tiny_workload).load()
        systems[name] = system
    return systems


_THREE_TABLE = (
    "SELECT c_custkey, o_orderkey, l_suppkey FROM {order}"
    " WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"
)


class TestArchetypePermutationInvariance:
    def test_three_table_permutations_per_archetype(self, archetype_systems):
        """All 6 FROM orders agree within each archetype, without stats
        and again after ANALYZE arms the cost model — and the (sorted)
        answer is the same across archetypes A-E."""
        cross_system = None
        for name, system in archetype_systems.items():
            reference = None
            for analyzed in (False, True):
                if analyzed:
                    system.analyze()
                for perm in itertools.permutations(
                    ("customer", "orders", "lineitem")
                ):
                    rows = system.execute(
                        _THREE_TABLE.format(order=", ".join(perm))
                    ).rows
                    multiset = sorted(rows)
                    if reference is None:
                        reference = multiset
                    assert multiset == reference, (name, analyzed, perm)
            assert reference
            if cross_system is None:
                cross_system = reference
            assert reference == cross_system, name
