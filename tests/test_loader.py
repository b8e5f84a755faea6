"""Loader tests: replay equivalence across systems, bulk load, batching."""

import pytest

from repro.bench.experiments import generate_workload
from repro.core.consistency import check_system
from repro.core.loader import Loader, load_nontemporal_baseline
from repro.core.schema import VERSIONED_TABLES
from repro.engine import Database
from repro.engine.errors import NotSupportedError
from repro.systems import make_system


def test_all_systems_agree_on_current_state(tiny_workload):
    counts = {}
    for name in "ABCD":
        system = make_system(name)
        Loader(system, tiny_workload).load()
        counts[name] = {
            "orders": system.execute("SELECT count(*) FROM orders").scalar(),
            "total": system.execute(
                "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL"
            ).scalar(),
            "sum": round(system.execute(
                "SELECT sum(o_totalprice) FROM orders"
            ).scalar(), 2),
        }
    assert len({tuple(v.items()) for v in counts.values()}) == 1, counts


def test_loader_matches_generator_bookkeeping(tiny_workload):
    system = make_system("A")
    Loader(system, tiny_workload).load()
    for table in ("orders", "customer", "partsupp"):
        expected = tiny_workload.version_counts(table)
        got = system.execute(
            f"SELECT count(*) FROM {table} FOR SYSTEM_TIME ALL"
        ).scalar()
        assert got == expected["total"], table
        live = system.execute(f"SELECT count(*) FROM {table}").scalar()
        assert live == expected["live"], table


def test_initial_load_shares_one_tick(tiny_workload):
    system = make_system("A")
    Loader(system, tiny_workload).load()
    # all version-0 rows share the single bulk-transaction tick
    distinct = system.execute(
        "SELECT count(DISTINCT sys_begin) FROM supplier FOR SYSTEM_TIME AS OF ?",
        [tiny_workload.meta.initial_tick],
    ).scalar()
    assert distinct == 1


def _every_version(system):
    return {
        name: sorted(
            system.execute(f"SELECT * FROM {name} FOR SYSTEM_TIME ALL").rows,
            key=repr,
        )
        for name in VERSIONED_TABLES
    }


def test_bulk_load_matches_replay():
    """D's bulk path stores exactly the versions the checked replay path
    stores, so it inherits the invariants every replayed write is held to."""
    workload = generate_workload(h=0.0002, m=0.002, seed=7)
    replayed = make_system("D")
    Loader(replayed, workload).load()
    bulk = make_system("D")
    Loader(bulk, workload).bulk_load()
    assert _every_version(bulk) == _every_version(replayed)


@pytest.mark.parametrize("m", [0.0025, 0.0031])
def test_history_with_split_orders_loads_on_every_system(m):
    """Seed 5 manipulates orders that are still open; delivering one used to
    stamp one end on both slices of its active period."""
    workload = generate_workload(h=0.0005, m=m, seed=5)
    for name in "ABCDE":
        system = make_system(name)
        Loader(system, workload).load()
        assert check_system(system, workload).ok, name


@pytest.mark.parametrize("batch_size", [1, 10, 100])
def test_batched_loads_store_no_empty_versions(tiny_workload, batch_size):
    """Two writes to one key in one transaction close the first write's
    version at the tick it began.  Such a version holds at no system time,
    so storage drops it: every stored version has sys_begin < sys_end, and
    A-E store the same versions and answer time travel alike."""
    expected = sum(
        tiny_workload.version_counts(table)["total"] for table in VERSIONED_TABLES
    )
    ticks = tiny_workload.meta.initial_tick, tiny_workload.meta.mid_tick()
    stored, as_of = {}, {}
    for name in "ABCDE":
        system = make_system(name)
        Loader(system, tiny_workload).load(batch_size=batch_size)
        stored[name] = _every_version(system)
        as_of[name] = [
            system.execute(
                "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF ?", [tick]
            ).scalar()
            for tick in ticks
        ]
        for table in VERSIONED_TABLES:
            schema = system.db.table(table).schema
            begin = schema.position(schema.system_period.begin_column)
            end = schema.position(schema.system_period.end_column)
            assert all(row[begin] < row[end] for row in stored[name][table]), name
    assert all(versions == stored["A"] for versions in stored.values())
    assert all(counts == as_of["A"] for counts in as_of.values())
    total = sum(len(rows) for rows in stored["A"].values())
    # at batch size 1 every version holds; batching drops the same-tick ones
    assert total == expected if batch_size == 1 else total < expected


def test_bulk_load_rejected_on_immutable_systems(tiny_workload):
    system = make_system("A")
    with pytest.raises(NotSupportedError):
        Loader(system, tiny_workload).bulk_load()


def test_batch_size_reduces_transactions(tiny_workload):
    system = make_system("A")
    report = Loader(system, tiny_workload).load(batch_size=10)
    assert report.transactions == (len(tiny_workload.transactions) + 9) // 10
    distinct = system.execute(
        "SELECT count(DISTINCT sys_begin) FROM customer FOR SYSTEM_TIME ALL"
    ).scalar()
    assert distinct <= report.transactions + 1


def test_latency_collection(tiny_workload):
    system = make_system("B")
    report = Loader(system, tiny_workload).load(collect_latencies=True)
    assert len(report.scenario_latencies) == report.transactions
    assert report.p97_latency() >= report.median_latency()


def test_nontemporal_baseline_versions(tiny_workload):
    initial = Database()
    load_nontemporal_baseline(initial, tiny_workload, version="initial")
    final = Database()
    load_nontemporal_baseline(final, tiny_workload, version="final")
    initial_orders = initial.execute("SELECT count(*) FROM orders").scalar()
    final_orders = final.execute("SELECT count(*) FROM orders").scalar()
    assert initial_orders == tiny_workload.meta.initial_counts["orders"]
    assert final_orders != initial_orders
    # baseline tables are plain: no temporal columns at all
    assert not initial.table("orders").is_versioned
    with pytest.raises(ValueError):
        load_nontemporal_baseline(Database(), tiny_workload, version="bogus")
