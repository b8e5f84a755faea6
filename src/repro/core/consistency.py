"""Temporal consistency validation (paper §4).

The paper stresses that the generated data set must be *"consistent with
the TPC-H data for each time in system time history"* and calls temporal
consistency one of the non-trivial implementation aspects.  What one write
can break — a well-formed period, a key whose current versions overlap —
the engine refuses at the write (``engine/temporal.py``).  This module
checks the invariants of a **loaded system** that no single write can:

* **P4 — snapshot conservation**: the row count AS OF the initial tick
  equals the version-0 data, and AS OF the final tick equals the
  generator's live count;
* **P5 — referential integrity at snapshots**: every order visible at a
  probed tick references a customer visible at that tick.

``check_system`` returns a :class:`ConsistencyReport`; the loader tests
and the CLI use it, and it doubles as a debugging aid for new archetypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .schema import VERSIONED_TABLES


@dataclass
class Violation:
    rule: str
    table: str
    detail: str

    def __str__(self):
        return f"[{self.rule}] {self.table}: {self.detail}"


@dataclass
class ConsistencyReport:
    violations: List[Violation] = field(default_factory=list)
    checked_tables: int = 0
    checked_versions: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule, table, detail):
        self.violations.append(Violation(rule, table, detail))

    def summary(self) -> str:
        status = "CONSISTENT" if self.ok else f"{len(self.violations)} violation(s)"
        lines = [
            f"consistency: {status} "
            f"({self.checked_tables} tables, {self.checked_versions} versions)"
        ]
        lines.extend(f"  {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


def check_system(system, workload=None, probe_ticks=None) -> ConsistencyReport:
    """Validate invariants P4 and P5 on a loaded system (see module
    docstring)."""
    report = ConsistencyReport()
    for name in VERSIONED_TABLES:
        if system.db.catalog.has_table(name):
            report.checked_tables += 1
            report.checked_versions += len(system.db.table(name))

    # P4: snapshot conservation against the generator's bookkeeping
    if workload is not None:
        meta = workload.meta
        for name in VERSIONED_TABLES:
            if not system.db.catalog.has_table(name):
                continue
            initial = system.execute(
                f"SELECT count(*) FROM {name} FOR SYSTEM_TIME AS OF ?",
                [meta.initial_tick],
            ).scalar()
            expected_initial = meta.initial_counts[name]
            if initial != expected_initial:
                report.add("P4", name,
                           f"AS OF initial: {initial} != {expected_initial}")
            final = system.execute(
                f"SELECT count(*) FROM {name} FOR SYSTEM_TIME AS OF ?",
                [meta.last_tick],
            ).scalar()
            expected_final = workload.version_counts(name)["live"]
            if final != expected_final:
                report.add("P4", name,
                           f"AS OF final: {final} != {expected_final}")

    # P5: referential integrity at probed snapshots
    if probe_ticks is None and workload is not None:
        probe_ticks = [workload.meta.initial_tick, workload.meta.mid_tick(),
                       workload.meta.last_tick]
    for tick in probe_ticks or []:
        orphans = system.execute(
            "SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF :t o"
            " WHERE NOT EXISTS (SELECT 1 FROM customer"
            "   FOR SYSTEM_TIME AS OF :t c WHERE c.c_custkey = o.o_custkey)",
            {"t": tick},
        ).scalar()
        if orphans:
            report.add("P5", "orders",
                       f"@tick {tick}: {orphans} orders without a customer")
    return report
