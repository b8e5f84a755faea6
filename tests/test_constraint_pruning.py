"""The constraint-pruning rewrite must be semantics-preserving.

On/off equivalence oracle: every query result with the `constraint-pruning`
rewrite enabled must be byte-identical to the result with the rule removed
from the profile, across all five architecture archetypes on a generated
workload whose history comes from the nine update scenarios of the paper's
Table 1.  One query per scenario, each shaped so the rewrite has something
to do on the table that scenario mutates (a subsumed predicate, a clause
the predicates tighten, or a provably-empty constraint set), plus the
EmptyScan EXPLAIN surface.
"""

import dataclasses

import pytest

from repro.core.loader import Loader
from repro.core.scenarios import SCENARIOS
from repro.engine.analyze_domains import scan_domain_map
from repro.engine.plan.logical import build_logical, scans_in_order
from repro.engine.plan.rewrite import rewrite_logical
from repro.engine.sql.parser import parse_statement
from repro.systems import make_system


def _disable_pruning(system):
    """Remove constraint-pruning from the profile before anything executes.

    The plan cache is keyed by SQL and invalidated only by catalog changes,
    so the profile swap must happen before the first query compiles.
    """
    profile = system.db.profile
    system.db.profile = dataclasses.replace(
        profile,
        rewrite_rules=tuple(
            rule for rule in profile.rewrite_rules
            if rule != "constraint-pruning"
        ),
    )


@pytest.fixture(scope="module")
def system_pairs(tiny_workload):
    """(pruning on, pruning off) per archetype, loaded identically."""
    pairs = {}
    for name in "ABCDE":
        pruned = make_system(name)
        assert "constraint-pruning" in pruned.db.profile.rewrite_rules
        Loader(pruned, tiny_workload).load()
        plain = make_system(name)
        _disable_pruning(plain)
        Loader(plain, tiny_workload).load()
        pairs[name] = (pruned, plain)
    return pairs


#: one query per Table 1 update scenario, against the table it mutates.
#: Every query carries a constraint shape the rewrite acts on and orders
#: or aggregates its output so comparison is deterministic.
SCENARIO_QUERIES = {
    # orders/lineitem inserts: redundant lower bound on the insert tick
    "new_order": (
        "SELECT count(*), sum(o_totalprice) FROM orders FOR SYSTEM_TIME ALL"
        " WHERE sys_begin >= 1 AND sys_begin >= 0"
    ),
    # deletions only exist in history: predicate inside the clause window
    "cancel_order": (
        "SELECT count(*) FROM orders FOR SYSTEM_TIME BETWEEN 0 AND 1000000"
        " WHERE sys_begin <= 1000000"
    ),
    # status updates create versions; duplicate upper bounds collapse
    "deliver_order": (
        "SELECT o_orderkey, o_orderstatus, sys_begin"
        " FROM orders FOR SYSTEM_TIME ALL"
        " WHERE sys_begin <= 100 AND sys_begin <= 1000000"
        " ORDER BY o_orderkey, sys_begin"
    ),
    # payments close the receivable application period
    "receive_payment": (
        "SELECT count(*) FROM orders"
        " WHERE o_receivable_begin >= DATE '1992-01-01'"
        " AND o_receivable_begin >= DATE '1990-01-01'"
    ),
    # stock updates version partsupp rows
    "update_stock": (
        "SELECT count(*), sum(ps_availqty) FROM partsupp FOR SYSTEM_TIME ALL"
        " WHERE sys_begin > 5 AND sys_begin > 4"
    ),
    # availability shifts move part's application period
    "delay_availability": (
        "SELECT count(*) FROM part"
        " FOR availability_time BETWEEN DATE '1992-01-01' AND DATE '2198-12-31'"
        " WHERE p_avail_begin <= DATE '2198-12-31'"
    ),
    # price changes version part; the clause literal gets tightened
    "change_price": (
        "SELECT count(*), sum(p_retailprice)"
        " FROM part FOR SYSTEM_TIME BETWEEN 0 AND 1000000"
        " WHERE sys_begin <= 50"
    ),
    # supplier updates: predicate equals the clause's begin bound
    "update_supplier": (
        "SELECT count(*) FROM supplier FOR SYSTEM_TIME FROM 0 TO 1000000"
        " WHERE sys_begin < 1000000"
    ),
    # order manipulation rewrites lineitem history; provably-empty probe
    "manipulate_order": (
        "SELECT count(*) FROM lineitem FOR SYSTEM_TIME AS OF 5"
        " WHERE sys_begin > 10"
    ),
}

#: cross-table shapes: empty scans must propagate through joins without
#: changing results, and never erase the padded side of a LEFT JOIN
EXTRA_QUERIES = [
    "SELECT count(*) FROM orders o, customer c"
    " WHERE o.o_custkey = c.c_custkey"
    " AND o.sys_begin > 10 AND o.sys_begin < 5",
    "SELECT count(*) FROM customer c LEFT JOIN orders o"
    " ON c.c_custkey = o.o_custkey AND o.sys_begin > 10 AND o.sys_begin < 5",
    "SELECT o_orderkey FROM orders"
    " WHERE sys_begin > 10 AND sys_begin < 5"
    " UNION SELECT c_custkey FROM customer ORDER BY 1 LIMIT 13",
]


def test_covers_all_nine_scenarios():
    assert sorted(SCENARIO_QUERIES) == sorted(s.name for s in SCENARIOS)


@pytest.mark.parametrize("name", list("ABCDE"))
def test_scenario_queries_identical_with_and_without_pruning(system_pairs, name):
    pruned, plain = system_pairs[name]
    for scenario, sql in sorted(SCENARIO_QUERIES.items()):
        assert pruned.execute(sql).rows == plain.execute(sql).rows, (
            name, scenario,
        )


@pytest.mark.parametrize("name", list("ABCDE"))
def test_join_and_union_shapes_identical(system_pairs, name):
    pruned, plain = system_pairs[name]
    for sql in EXTRA_QUERIES:
        assert pruned.execute(sql).rows == plain.execute(sql).rows, (name, sql)


@pytest.mark.parametrize("name", list("ABCDE"))
def test_scenario_queries_return_data(system_pairs, name):
    # the equivalence above would hold trivially on empty results; pin
    # that the non-degenerate scenario queries actually touch rows
    pruned, _ = system_pairs[name]
    counting = [
        sql for scenario, sql in SCENARIO_QUERIES.items()
        if scenario != "manipulate_order" and sql.lstrip().startswith("SELECT count")
    ]
    assert counting
    for sql in counting:
        assert pruned.execute(sql).rows[0][0] > 0, sql


class TestEmptyScanSurface:
    SQL = (
        "SELECT o_orderkey FROM orders FOR SYSTEM_TIME AS OF 5"
        " WHERE sys_begin > 10"
    )

    def _explain(self, system):
        return "\n".join(row[0] for row in system.db.execute("EXPLAIN " + self.SQL).rows)

    def test_explain_shows_empty_scan_when_enabled(self, system_pairs):
        pruned, plain = system_pairs["A"]
        assert "EmptyScan" in self._explain(pruned)
        assert "est rows=0" in self._explain(pruned)
        assert "EmptyScan" not in self._explain(plain)

    def test_empty_scan_returns_no_rows(self, system_pairs):
        pruned, plain = system_pairs["A"]
        assert pruned.execute(self.SQL).rows == []
        assert plain.execute(self.SQL).rows == []


def _redundant(db, sql):
    """(column, interval) of each predicate the rewrite would drop from the
    one scan of *sql*, read from the plan the rewrite itself receives."""
    query = rewrite_logical(
        build_logical(parse_statement(sql), db), db, db.profile,
        exclude=("constraint-pruning",),
    )
    (scan,) = scans_in_order(query.relation)
    return [
        (c.column, c.interval.describe())
        for c in scan_domain_map(scan).redundant_predicates()
    ]


class TestRedundantPredicates:
    """Which predicates the interval domain proves redundant, so the
    rewrite drops them (the `db` fixture's `item` table, sb = sys begin)."""

    def test_positive_wider_predicate(self, db):
        assert _redundant(db, "SELECT id FROM item WHERE sb >= 2 AND sb >= 1") == [
            ("sb", "[1, +inf]")
        ]

    def test_positive_clause_subsumes_predicate(self, db):
        # AS OF 5 already implies sb <= 5; the wider sb <= 9 adds nothing
        assert _redundant(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF 5 WHERE sb <= 9"
        ) == [("sb", "[-inf, 9]")]

    def test_negative_single_predicate(self, db):
        assert _redundant(db, "SELECT id FROM item WHERE sb >= 2") == []

    def test_negative_equality_never_flagged(self, db):
        # an implied equality still drives pk/hash-index probes: keep it
        assert _redundant(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF 9 WHERE sb = 5"
        ) == []

    def test_negative_clause_never_flagged(self, db):
        # a clause wider than the predicates still gates partition choice
        assert _redundant(
            db, "SELECT id FROM item FOR SYSTEM_TIME BETWEEN 1 AND 9 WHERE sb <= 2"
        ) == []
