"""Ablation benches for the architecture choices DESIGN.md §5 calls out.

These are not paper figures; they isolate each storage mechanism so the
contribution of every design choice is measurable on its own.
"""

import pytest

from repro.bench.experiments import WORKLOAD, generate_workload
from repro.core.loader import Loader
from repro.engine.database import ArchitectureProfile, Database
from repro.engine.storage.versioned import StorageOptions
from repro.systems import IndexSetting, apply_index_setting, make_system


class _CustomSystem:
    name = "X"

    def __init__(self, options, profile=None):
        self.db = Database(options=options, profile=profile or ArchitectureProfile())

    def execute(self, sql, params=None):
        return self.db.execute(sql, params)


def _loaded(options, workload, profile=None):
    system = _CustomSystem(options, profile)
    Loader(system, workload).load()
    return system


@pytest.fixture(scope="module")
def ablation_workload():
    return generate_workload(h=0.0005, m=0.0005)


def test_ablation_split_vs_single_table(benchmark, ablation_workload, save=None):
    """Current/history split vs single table under an insert-heavy history."""
    wl = ablation_workload
    split = _loaded(StorageOptions(split_history=True), wl)
    single = _loaded(
        StorageOptions(split_history=False), wl,
        ArchitectureProfile(manual_system_time=True),
    )
    sql = "SELECT count(*), avg(o_totalprice) FROM orders"

    def run():
        return split.execute(sql), single.execute(sql)

    benchmark.pedantic(run, rounds=3, iterations=2)
    # identical answers, different physical work: the split system reads
    # only the current partition, the single table scans everything
    r1 = split.execute(sql).rows
    r2 = single.execute(sql).rows
    assert r1[0][0] == r2[0][0]
    split_scanned = split.db.table("orders").current_count()
    single_scanned = single.db.table("orders").current_count()
    assert single_scanned > split_scanned


def test_ablation_vertical_partitioning(benchmark, ablation_workload):
    """System B's vertically partitioned current table pays a sort/merge
    join whenever system time must be reconstructed."""
    wl = ablation_workload
    inline = _loaded(StorageOptions(split_history=True), wl)
    vp = _loaded(
        StorageOptions(split_history=True, vertical_partition_current=True), wl
    )
    sql = "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF :t"
    params = {"t": wl.meta.mid_tick()}

    def run():
        return vp.execute(sql, params)

    benchmark.pedantic(run, rounds=3, iterations=2)
    assert vp.execute(sql, params).rows == inline.execute(sql, params).rows
    assert vp.db.metrics.counter("storage.vp_merge_joins") > 0
    assert inline.db.metrics.counter("storage.vp_merge_joins") == 0


def test_ablation_column_store_merge(benchmark, ablation_workload):
    """Delta/main merging in the column store (System C)."""
    wl = ablation_workload
    frequent = _loaded(
        StorageOptions(store_kind="column", column_merge_threshold=256), wl
    )
    rare = _loaded(
        StorageOptions(store_kind="column", column_merge_threshold=1 << 20), wl
    )
    sql = "SELECT count(*), avg(o_totalprice) FROM orders FOR SYSTEM_TIME ALL"

    def run():
        return frequent.execute(sql)

    benchmark.pedantic(run, rounds=3, iterations=2)
    assert frequent.execute(sql).rows == rare.execute(sql).rows
    orders_store = frequent.db.table("orders").partition("current").store
    assert orders_store.merge_count >= 1


def test_ablation_btree_vs_rtree_period_index(benchmark, ablation_workload):
    """B-Tree vs GiST (R-Tree) for period containment on System D."""
    wl = ablation_workload
    d_btree = make_system("D")
    Loader(d_btree, wl).load()
    apply_index_setting(d_btree, IndexSetting.TIME, kind="btree")
    d_rtree = make_system("D")
    Loader(d_rtree, wl).load()
    apply_index_setting(d_rtree, IndexSetting.TIME, kind="rtree")
    query = WORKLOAD.query("T2.sys")
    params = query.params(wl.meta)

    def run():
        return d_btree.execute(query.sql, params), d_rtree.execute(query.sql, params)

    benchmark.pedantic(run, rounds=3, iterations=2)
    rows_b = d_btree.execute(query.sql, params).rows
    rows_r = d_rtree.execute(query.sql, params).rows
    assert rows_b == rows_r


def test_ablation_composite_vs_single_time_index(benchmark, ablation_workload):
    """Composite (key, time) vs single-column time indexes (§5.1 note:
    composites brought no significant benefit on these workloads)."""
    from repro.engine.catalog import IndexDef

    wl = ablation_workload
    single = make_system("A")
    Loader(single, wl).load()
    apply_index_setting(single, IndexSetting.TIME)
    composite = make_system("A")
    Loader(composite, wl).load()
    composite.db.create_index(IndexDef(
        name="tune_comp", table="customer",
        columns=("c_custkey", "sys_begin"), kind="btree", partition="history",
    ))
    query = WORKLOAD.query("K1.app_past")
    params = query.params(wl.meta)

    def run():
        return single.execute(query.sql, params), composite.execute(query.sql, params)

    benchmark.pedantic(run, rounds=3, iterations=2)
    assert sorted(single.execute(query.sql, params).rows) == sorted(
        composite.execute(query.sql, params).rows
    )
