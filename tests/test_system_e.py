"""System E: the Timeline-Index research archetype (paper future work)."""

import pytest

from repro.core.loader import Loader
from repro.core.queries import Workload
from repro.systems import make_system

WORKLOAD = Workload()


@pytest.fixture(scope="module")
def loaded_e(tiny_workload):
    system = make_system("E")
    Loader(system, tiny_workload).load()
    return system


def test_architecture():
    system = make_system("E")
    assert not system.db.default_options.split_history
    assert system.db.profile.name == "System E"


def test_timeline_maintained_per_versioned_table(loaded_e):
    assert len(loaded_e.db.timeline("orders")) > 0
    assert len(loaded_e.db.timeline("customer")) > 0
    with pytest.raises(KeyError):
        loaded_e.db.timeline("region")  # unversioned: no timeline


def test_sql_results_match_system_a(tiny_workload, loaded_e, loaded_system_a):
    for qid in ("T2.sys", "T5.all", "T6.sysslice", "K1.sys", "B3.2"):
        query = WORKLOAD.query(qid)
        params = query.params(tiny_workload.meta)
        rows_e = sorted(loaded_e.execute(query.sql, params).rows)
        rows_a = sorted(loaded_system_a.execute(query.sql, params).rows)
        assert _norm(rows_e) == _norm(rows_a), qid


def _norm(rows):
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def test_as_of_uses_timeline_access_path(loaded_e, tiny_workload):
    plan = loaded_e.db.explain(
        "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF 1"
    )
    # the plan itself is decided at run time; run once then inspect decisions
    loaded_e.execute(
        "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF ?",
        [tiny_workload.meta.mid_tick()],
    )
    assert "Access(orders" in plan


def test_native_snapshot_equals_sql(loaded_e, tiny_workload):
    tick = tiny_workload.meta.mid_tick()
    as_of = "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF ?"
    assert "single: timeline" in loaded_e.db.explain_analyze(as_of, [tick])
    via_scan = loaded_e.execute(
        "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL"
        " WHERE sys_begin <= ? AND sys_end > ?", [tick, tick]
    ).scalar()
    assert loaded_e.execute(as_of, [tick]).scalar() == via_scan > 0


def test_native_temporal_aggregate_matches_r3(loaded_e, loaded_system_a, tiny_workload):
    """E's GROUP BY TEMPORAL returns the series A's R3 rewrite returns."""
    r3 = WORKLOAD.query("R3a")
    rewrite = loaded_system_a.execute(r3.sql, r3.params(tiny_workload.meta)).rows
    native = loaded_e.execute(
        "SELECT TEMPORAL(system_time) AS t, count(*)"
        " FROM orders FOR SYSTEM_TIME ALL"
        " GROUP BY TEMPORAL(system_time)"
    ).rows
    assert rewrite
    assert sorted(native) == sorted(rewrite)


def test_native_temporal_join_matches_sql(loaded_e, loaded_system_a):
    rewrite_count = loaded_system_a.execute(
        "SELECT count(*)"
        " FROM customer FOR SYSTEM_TIME ALL c,"
        "      orders FOR SYSTEM_TIME ALL o"
        " WHERE c.sys_begin < o.sys_end AND o.sys_begin < c.sys_end"
        "   AND c.c_custkey = o.o_custkey"
    ).scalar()
    native_count = loaded_e.execute(
        "SELECT count(*)"
        " FROM customer FOR SYSTEM_TIME ALL c"
        " TEMPORAL JOIN orders FOR SYSTEM_TIME ALL o"
        " ON c.c_custkey = o.o_custkey"
    ).scalar()
    assert rewrite_count > 0
    assert native_count == rewrite_count


def test_update_workload_keeps_timeline_consistent():
    system = make_system("E")
    db = system.db
    db.execute(
        "CREATE TABLE v (id integer NOT NULL, x integer,"
        " sb timestamp, se timestamp, PRIMARY KEY (id),"
        " PERIOD FOR system_time (sb, se))"
    )
    db.execute("INSERT INTO v (id, x) VALUES (1, 10)")
    db.execute("UPDATE v SET x = 20 WHERE id = 1")
    db.execute("DELETE FROM v WHERE id = 1")
    timeline = db.timeline("v")
    assert timeline.snapshot_rids(1) != set()
    assert timeline.snapshot_rids(99) == set()
    assert db.execute("SELECT count(*) FROM v FOR SYSTEM_TIME AS OF 2").scalar() == 1
