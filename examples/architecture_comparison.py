"""Architecture analysis (paper §5.2) plus a live mini-benchmark.

Loads the same generated history into all four system archetypes, prints
their architecture cards, verifies the §5.2 storage findings directly
against the storage layer, and reruns Fig 2's basic-time-travel cells.

Run:  python examples/architecture_comparison.py
"""

from repro.bench.experiments import (
    fig02_basic_time_travel,
    generate_workload,
    prepare_systems,
)
from repro.bench.service import BenchmarkService


def main():
    workload = generate_workload(h=0.001, m=0.0003)
    systems = prepare_systems(workload, "ABCD")

    print("=" * 70)
    print("Architecture cards (paper Section 5.2)")
    print("=" * 70)
    for system in systems.values():
        print(system.describe())
        print()

    print("Storage layout after loading (orders table):")
    for name, system in systems.items():
        report = system.storage_report()["orders"]
        print(f"  System {name}: current={report['current']:>6} "
              f"history={report['history']:>6} total={report['total']:>6}")

    print("\nThe paper's architecture findings, checked live:")
    counter_b = systems["B"].db.metrics.counter
    print(f"  B vertically partitions current temporal data "
          f"(merge joins so far: {counter_b('storage.vp_merge_joins')})")
    print(f"  B buffers history writes in an undo log "
          f"(drains so far: {counter_b('storage.undo_drains')})")
    store_c = systems["C"].db.table("orders").partition("current").store
    print(f"  C is a delta/main column store "
          f"(main={store_c.main_size}, delta={store_c.delta_size})")
    print(f"  D keeps a single table (partitions: "
          f"{systems['D'].db.table('orders').partition_names()})")

    print("\nRunning Fig 2 (basic time travel) ...\n")
    service = BenchmarkService(repetitions=3, discard=1)
    result = fig02_basic_time_travel(systems, workload, service)
    print(result.text)


if __name__ == "__main__":
    main()
