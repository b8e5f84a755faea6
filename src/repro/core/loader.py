"""Populating systems from the generator output (paper §4.2).

Creating a bitemporal history in a real system is constrained by the fact
that *"all timestamps for system time are set automatically by the database
systems and cannot be set explicitly"* — so the loader replays every update
scenario as its own transaction, in system-time order, optionally combining
``batch_size`` scenarios per transaction (the Fig 13 experiment).

System D is the exception (§5.8): its timestamps are ordinary columns, so
:meth:`Loader.bulk_load` writes all versions — open and closed — directly
with precomputed system times, which is why D's load cost is far lower.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..engine.database import Database
from ..engine.errors import NotSupportedError
from .generator import GeneratedWorkload
from .schema import benchmark_schemas, create_benchmark_tables


@dataclass
class LoadReport:
    """Outcome of one population run."""

    system: str
    mode: str                      # "replay" | "bulk"
    batch_size: int
    initial_rows: int = 0
    transactions: int = 0
    operations: int = 0
    seconds: float = 0.0
    #: wall-clock seconds per scenario transaction (Fig 16 raw data)
    scenario_latencies: List[float] = field(default_factory=list)

    def median_latency(self) -> float:
        return _percentile(self.scenario_latencies, 50.0)

    def p97_latency(self) -> float:
        return _percentile(self.scenario_latencies, 97.0)


def _percentile(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


class Loader:
    """Loads one :class:`GeneratedWorkload` into one system."""

    def __init__(self, system, workload: GeneratedWorkload):
        self.system = system
        self.workload = workload

    @property
    def db(self) -> Database:
        return self.system.db

    # -- schema ----------------------------------------------------------

    def create_schema(self):
        create_benchmark_tables(self.db, temporal=True)

    # -- replay path (systems with immutable system time) ------------------

    def load(self, batch_size: int = 1, collect_latencies: bool = False) -> LoadReport:
        """Create the schema, bulk the initial version, replay the history."""
        report = LoadReport(
            system=getattr(self.system, "name", "?"),
            mode="replay",
            batch_size=batch_size,
        )
        started = time.perf_counter()
        self.create_schema()
        report.initial_rows = self.load_initial()
        report.transactions, report.operations = self.replay(
            batch_size, report.scenario_latencies if collect_latencies else None
        )
        self.db.drain_all_undo()
        self.db.merge_all()
        report.seconds = time.perf_counter() - started
        return report

    def load_initial(self) -> int:
        """Version 0 enters in a single transaction → one shared tick."""
        count = 0
        db = self.db
        with db.begin():
            for schema in benchmark_schemas():
                for values in self.workload.initial[schema.name]:
                    db.insert_row(schema.name, values)
                    count += 1
        return count

    def replay(self, batch_size=1, latencies: Optional[List[float]] = None):
        """Replay the scenarios in system-time order, *batch_size* per
        transaction; returns (transactions, operations).  *latencies*, if
        given, receives each transaction's wall-clock seconds."""
        db = self.db
        transactions = self.workload.transactions
        op_count = 0
        txn_count = 0
        for start in range(0, len(transactions), batch_size):
            batch = transactions[start:start + batch_size]
            if latencies is not None:
                t0 = time.perf_counter()
            with db.begin():
                for ops in batch:
                    for op in ops:
                        self._apply(db, op)
                        op_count += 1
            txn_count += 1
            if latencies is not None:
                latencies.append(time.perf_counter() - t0)
        return txn_count, op_count

    def _apply(self, db, op):
        kind = op[0]
        if kind == "insert":
            _kind, table, values = op
            db.insert_row(table, values)
        elif kind == "update":
            _kind, table, key, changes = op
            db.update_by_key(table, key, changes)
        elif kind == "seq_update":
            _kind, table, key, changes, period, low, high = op
            db.sequenced_update_by_key(table, key, changes, period, low, high)
        elif kind == "seq_delete":
            _kind, table, key, period, low, high = op
            db.sequenced_delete_by_key(table, key, period, low, high)
        elif kind == "delete":
            _kind, table, key = op
            db.delete_by_key(table, key)
        else:
            raise ValueError(f"unknown archive operation {kind!r}")

    # -- bulk path (System D: manual timestamps, §5.8) --------------------------

    def bulk_load(self) -> LoadReport:
        if not self.db.profile.manual_system_time:
            raise NotSupportedError(
                f"system {getattr(self.system, 'name', '?')} cannot bulk-load "
                "a history: system time is immutable"
            )
        report = LoadReport(
            system=getattr(self.system, "name", "?"), mode="bulk", batch_size=0
        )
        started = time.perf_counter()
        self.create_schema()
        count = 0
        for schema in benchmark_schemas():
            if schema.system_period is None:
                for values in self.workload.initial[schema.name]:
                    self.db.insert_row(schema.name, values)
                    count += 1
                continue
            for values, sys_begin, sys_end in self.workload.all_versions(schema.name):
                self.db.insert_row_explicit(schema.name, values, sys_begin, sys_end)
                count += 1
        report.initial_rows = count
        report.seconds = time.perf_counter() - started
        return report


def load_nontemporal_baseline(db: Database, workload: GeneratedWorkload, version="initial"):
    """Populate *db* with plain TPC-H tables (no periods) — the §5.4
    baseline that *"contains the same data as the selected version"*.

    ``version="initial"`` gives the pre-history state (the Fig 7b
    comparison point); ``version="final"`` the state after all updates
    (Fig 7a).
    """
    create_benchmark_tables(db, temporal=False)
    for schema in benchmark_schemas():
        plain = schema.without_periods()
        allowed = set(plain.column_names())
        if version == "initial":
            rows = workload.initial[schema.name]
        elif version == "final":
            rows = workload.final_versions(schema.name)
        else:
            raise ValueError(f"unknown version {version!r}")
        seen = set()
        with db.begin():
            for values in rows:
                key = tuple(values[c] for c in plain.primary_key) if plain.primary_key else None
                if key is not None:
                    if key in seen:
                        continue  # app-time splits collapse to one row
                    seen.add(key)
                db.insert_row(
                    schema.name, {c: v for c, v in values.items() if c in allowed}
                )
    return db
