"""Native temporal operators ≡ the corrected SQL:2011 rewrites.

The equivalence oracle for PR 10's sweep-line temporal aggregation and
period-align join: on every architecture archetype, at every batch size,
the native operators (explicit ``GROUP BY TEMPORAL(...)`` / ``TEMPORAL
JOIN`` dialect and the System E ``temporal-fusion`` rewrite) must return
exactly the rows of the corrected self-join rewrites — byte for byte on
floats.  Also pins the corrected R3 boundary values as a hand-checked
oracle (the begins-only legacy shape provably misses deletion
boundaries), regression-tests the R2 open-version duration clamp, and
covers the align join's NULL/NaN sharp edges (the PR 5 MergeJoin NaN
family).
"""

import math

import pytest

from repro.core.generator import BitemporalDataGenerator, GeneratorConfig
from repro.core.loader import Loader
from repro.core.queries.range_timeslice import QUERIES as R_QUERIES
from repro.core.scenarios import SCENARIOS
from repro.engine.batch import execution_config
from repro.engine.expr import Env
from repro.engine.plan import operators as ops
from repro.engine.types import END_OF_TIME
from repro.systems import make_system

#: degenerate, prime-and-tiny, and larger-than-any-partition batch sizes
SIZES = (1, 7, 1024)

# -- the query pairs under test ---------------------------------------------

AGG_REWRITE = (
    "SELECT b.t, count(*), sum(o.o_totalprice)"
    " FROM (SELECT sys_begin AS t FROM orders FOR SYSTEM_TIME ALL"
    "       UNION SELECT sys_end AS t FROM orders FOR SYSTEM_TIME ALL) b,"
    "      orders FOR SYSTEM_TIME ALL o"
    " WHERE o.sys_begin <= b.t AND o.sys_end > b.t"
    " GROUP BY b.t"
)
AGG_NATIVE = (
    "SELECT TEMPORAL(system_time) AS t, count(*), sum(o_totalprice)"
    " FROM orders FOR SYSTEM_TIME ALL"
    " GROUP BY TEMPORAL(system_time)"
)
JOIN_REWRITE = (
    "SELECT count(*), min(o.o_totalprice), max(c.c_acctbal)"
    " FROM customer FOR SYSTEM_TIME ALL c,"
    "      orders FOR SYSTEM_TIME ALL o"
    " WHERE c.c_custkey = o.o_custkey"
    "   AND c.sys_begin < o.sys_end AND o.sys_begin < c.sys_end"
)
JOIN_NATIVE = (
    "SELECT count(*), min(o.o_totalprice), max(c.c_acctbal)"
    " FROM customer FOR SYSTEM_TIME ALL c"
    " TEMPORAL JOIN orders FOR SYSTEM_TIME ALL o"
    " ON c.c_custkey = o.o_custkey"
)


@pytest.fixture(scope="module")
def systems(tiny_workload):
    loaded = {}
    for name in "ABCDE":
        system = make_system(name)
        Loader(system, tiny_workload).load()
        loaded[name] = system
    return loaded


# -- native ≡ rewrite, all archetypes × batch sizes --------------------------


@pytest.mark.parametrize("name", list("ABCDE"))
def test_native_matches_rewrite_across_batch_sizes(systems, name):
    system = systems[name]
    for rewrite, native in (
        (AGG_REWRITE, AGG_NATIVE),
        (JOIN_REWRITE, JOIN_NATIVE),
    ):
        # sorted: the sweep emits boundary order, the rewrite hash-group
        # order; neither query specifies ORDER BY, so equivalence is of
        # the row multiset (values stay byte-identical)
        with execution_config(size=1):
            reference = sorted(system.execute(rewrite).rows)
        assert reference, (name, rewrite)
        for size in SIZES:
            with execution_config(size=size):
                got = sorted(system.execute(native).rows)
                again = sorted(system.execute(rewrite).rows)
            assert got == reference, (name, size, native)
            assert again == reference, (name, size, rewrite)


def test_explain_shows_native_operators(systems):
    def plan_text(db, sql):
        return "\n".join(line for (line,) in db.execute("EXPLAIN " + sql).rows)

    # explicit dialect syntax lowers natively on every profile
    a = systems["A"].db
    assert "TemporalAggregate" in plan_text(a, AGG_NATIVE)
    assert "TemporalAlignJoin" in plan_text(a, JOIN_NATIVE)
    # the temporal-fusion rule rewrites the SQL:2011 shapes on System E
    e = systems["E"].db
    assert "TemporalAggregate" in plan_text(e, AGG_REWRITE)
    assert "TemporalAlignJoin" in plan_text(e, JOIN_REWRITE)
    # ... and only there: A executes the rewrite as written
    assert "TemporalAggregate" not in plan_text(a, AGG_REWRITE)
    assert "TemporalAlignJoin" not in plan_text(a, JOIN_REWRITE)


def test_benchmark_r3_queries_fuse_on_system_e(systems):
    e = systems["E"].db
    before = e.metrics.counter("plan.temporal_fusions")
    for qid in ("R3a", "R3b"):
        query = next(q for q in R_QUERIES if q.qid == qid)
        plan = "\n".join(
            line for (line,) in e.execute("EXPLAIN " + query.sql).rows
        )
        assert "TemporalAggregate" in plan, qid
    assert e.metrics.counter("plan.temporal_fusions") > before


# -- pinned boundary oracle (satellite 1: the R3 endpoint-union fix) ---------


class TestPinnedBoundaryOracle:
    """Hand-checked values on a four-version history.

    Versions (system time): item 1 [1,3) at 10.0 then [3,∞) at 12.0;
    item 2 [2,4) at 25.0 (deleted at tick 4).  The constant intervals
    and their aggregates follow directly; tick 4 — where the deletion is
    the *only* event — exists solely because the boundary list unions
    both endpoints, which is exactly the R3a/R3b bug this PR fixes.
    """

    ORACLE = [(1, 1, 10.0), (2, 2, 35.0), (3, 2, 37.0), (4, 1, 12.0)]

    REWRITE = (
        "SELECT b.t, count(*), sum(o.price)"
        " FROM (SELECT sb AS t FROM item FOR SYSTEM_TIME ALL"
        "       UNION SELECT se AS t FROM item FOR SYSTEM_TIME ALL) b,"
        "      item FOR SYSTEM_TIME ALL o"
        " WHERE o.sb <= b.t AND o.se > b.t"
        " GROUP BY b.t ORDER BY b.t"
    )
    NATIVE = (
        "SELECT TEMPORAL(system_time) AS t, count(*), sum(price)"
        " FROM item FOR SYSTEM_TIME ALL"
        " GROUP BY TEMPORAL(system_time) ORDER BY t"
    )
    LEGACY_BEGINS_ONLY = (
        "SELECT b.t, count(*), sum(o.price)"
        " FROM (SELECT DISTINCT sb AS t FROM item FOR SYSTEM_TIME ALL) b,"
        "      item FOR SYSTEM_TIME ALL o"
        " WHERE o.sb <= b.t AND o.se > b.t"
        " GROUP BY b.t ORDER BY b.t"
    )

    def _populate(self, db):
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (1, 'a', 10.0, DATE '1995-01-01', DATE '1996-01-01')"
        )
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (2, 'b', 25.0, DATE '1995-01-01', DATE '1996-01-01')"
        )
        db.execute("UPDATE item SET price = 12.0 WHERE id = 1")
        db.execute("DELETE FROM item WHERE id = 2")

    def test_corrected_rewrite_matches_oracle(self, db):
        self._populate(db)
        assert db.execute(self.REWRITE).rows == self.ORACLE

    def test_native_sweep_matches_oracle_byte_for_byte(self, db):
        self._populate(db)
        for size in SIZES:
            with execution_config(size=size):
                assert db.execute(self.NATIVE).rows == self.ORACLE

    def test_legacy_begins_only_shape_misses_the_deletion_boundary(self, db):
        # the pre-fix R3 formulation: no tick-4 row, because no version
        # *begins* there — the bug satellite 1 corrects
        self._populate(db)
        assert db.execute(self.LEGACY_BEGINS_ONLY).rows == self.ORACLE[:-1]

    def test_open_versions_never_aggregate_at_end_of_time(self, db):
        # item 1's open version contributes the END_OF_TIME boundary to
        # the union, but nothing is active there (half-open periods), so
        # neither formulation emits a row for it
        self._populate(db)
        for sql in (self.REWRITE, self.NATIVE):
            assert all(t < END_OF_TIME for (t, _, _) in db.execute(sql).rows)


# -- R2 regression (satellite 2: open-version duration clamp) ----------------


class TestR2OpenVersionClamp:
    def test_current_inclusive_bind_skips_open_versions(
        self, systems, tiny_workload
    ):
        system = systems["A"]
        r2 = next(q for q in R_QUERIES if q.qid == "R2")
        bind = dict(r2.bind(tiny_workload.meta))
        # a current-inclusive bind: the WHERE now admits open versions,
        # whose sys_end is the END_OF_TIME sentinel
        bind["sys_end"] = END_OF_TIME + 1
        got = {status: (count, avg) for status, count, avg in
               system.execute(r2.sql, bind).rows}
        raw = system.execute(
            "SELECT o_orderstatus, sys_begin, sys_end"
            " FROM orders FOR SYSTEM_TIME ALL"
        ).rows
        assert any(se == END_OF_TIME for _, _, se in raw)
        expected = {}
        for status in {r[0] for r in raw}:
            closed = [se - sb for s, sb, se in raw
                      if s == status and se < END_OF_TIME]
            count = sum(1 for s, _, _ in raw if s == status)
            expected[status] = (count, sum(closed) / len(closed)
                                if closed else None)
        assert got == expected
        # pre-fix behaviour: avg(sys_end - sys_begin) over open versions
        # produced astronomical durations
        assert all(avg is None or avg < END_OF_TIME / 2
                   for _, avg in got.values())

    def test_default_bind_unchanged_by_the_clamp(self, systems, tiny_workload):
        # the default bind (< last_tick) never admits open versions, so
        # the CASE clamp must be a no-op there
        system = systems["A"]
        r2 = next(q for q in R_QUERIES if q.qid == "R2")
        bind = r2.bind(tiny_workload.meta)
        unclamped = (
            "SELECT o_orderstatus, count(*), avg(sys_end - sys_begin)"
            " FROM orders FOR SYSTEM_TIME ALL"
            " WHERE sys_end < :sys_end"
            " GROUP BY o_orderstatus"
        )
        assert sorted(system.execute(r2.sql, bind).rows) == sorted(
            system.execute(unclamped, bind).rows
        )


# -- align join NULL/NaN sharp edges (satellite 3) ---------------------------


NAN = float("nan")


def col(i):
    return lambda batch, env: batch.column(i)


def _canon(rows):
    return [
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v
              for v in row)
        for row in rows
    ]


class TestAlignJoinNullNanBounds:
    # (key, begin, end): NULL/NaN keys and period bounds must drop the
    # row during collection — never poison run detection or loop
    LEFT = [(1, 10, 20), (1, None, 30), (1, 5, None), (2, NAN, 9),
            (1, 15, 25)]
    RIGHT = [(1, 12, 22), (1, None, None), (None, 0, 100), (1, 18, NAN)]

    def _make(self):
        return ops.TemporalAlignJoin(
            ops.Materialized(list(self.LEFT)),
            ops.Materialized(list(self.RIGHT)),
            [col(0)], [col(0)], col(1), col(2), col(1), col(2),
        )

    def test_null_nan_rows_match_nothing(self):
        rows = self._make().rows(Env({}))
        # only (1,10,20) and (1,15,25) vs (1,12,22) survive collection
        assert sorted(rows) == [
            (1, 10, 20, 1, 12, 22, 12, 20),
            (1, 15, 25, 1, 12, 22, 15, 22),
        ]

    def test_identical_across_batch_configs(self):
        with execution_config(size=1):
            reference = _canon(self._make().rows(Env({})))
        for size in SIZES[1:]:
            with execution_config(size=size):
                assert _canon(self._make().rows(Env({}))) == reference

    def test_null_application_period_end_in_sql(self, db):
        # a row whose app_end is NULL joins nothing, and the query
        # terminates — the failing-first case for the run-detection audit
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (1, 'open', 1, DATE '1995-01-01', NULL)"
        )
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (2, 'closed', 2, DATE '1995-01-01', DATE '1996-01-01')"
        )
        result = db.execute(
            "SELECT l.id, r.id"
            " FROM item FOR SYSTEM_TIME ALL l"
            " TEMPORAL JOIN item FOR SYSTEM_TIME ALL r"
            " ON l.price = r.price OVERLAPS (business_time)"
        )
        assert result.rows == [(2, 2)] or sorted(result.rows) == [(2, 2)]


class TestTemporalAggregateNullNanBounds:
    def test_malformed_intervals_contribute_boundaries_not_events(self):
        # rows: (begin, end, value); NULL/NaN endpoints and empty or
        # inverted intervals never enter the active set
        rows = [(1, 5, 10.0), (None, 7, 99.0), (3, NAN, 99.0),
                (4, 4, 99.0), (6, 2, 99.0), (2, 6, 20.0)]
        op = ops.TemporalAggregate(
            ops.Materialized(rows), col(0), col(1),
            [("count", ops.count_star, False), ("sum", col(2), False)],
        )
        got = op.rows(Env({}))
        # boundaries {1,2,3,4,5,6,7}: only [1,5)@10 and [2,6)@20 active
        assert got == [
            (1, 1, 10.0), (2, 2, 30.0), (3, 2, 30.0), (4, 2, 30.0),
            (5, 1, 20.0),
        ]


# -- all nine Table 1 scenarios (satellite 4) --------------------------------


@pytest.mark.parametrize("scenario", [s.name for s in SCENARIOS])
def test_scenario_sweep_native_matches_rewrite(scenario, monkeypatch):
    """Each scenario produces a distinct version-history shape (pure
    inserts, deletions, in-place updates, retroactive manipulation);
    the native operators must agree with the rewrites on every one."""
    from repro.core import generator as generator_module

    forced = next(s for s in SCENARIOS if s.name == scenario)
    monkeypatch.setattr(
        generator_module, "pick_scenario", lambda rng: forced
    )
    workload = BitemporalDataGenerator(
        GeneratorConfig(h=0.0002, m=0.00005)
    ).generate()
    for name in ("A", "E"):
        system = make_system(name)
        Loader(system, workload).load()
        assert sorted(system.execute(AGG_NATIVE).rows) == sorted(
            system.execute(AGG_REWRITE).rows
        ), (scenario, name, "aggregate")
        assert sorted(system.execute(JOIN_NATIVE).rows) == sorted(
            system.execute(JOIN_REWRITE).rows
        ), (scenario, name, "join")
