"""System E: the "future work" archetype the paper's conclusion asks for.

§6 of the paper: *"we hope that the evaluation performed in this paper
provide a good starting point for future optimizations of temporal DBMS"*.
System E is that optimisation, built from the Timeline Index of the
paper's reference [13] (Kaufmann et al., SIGMOD 2013):

* a **single-table row store** (like System D) — no partition unions to
  reassemble, versions are append-only;
* a **Timeline Index per table**, maintained on every write: time travel
  resolves to a checkpoint + bounded replay instead of a scan.

Timeline-Index time travel; native operators through the dialect: like
A–D, E executes the SQL text it is sent, and reaches the native temporal
aggregation / temporal join (the two operators whose SQL rewrites the
paper found *"orders of magnitude"* too slow, §5.6, §5.7) through
``GROUP BY TEMPORAL`` / ``TEMPORAL JOIN`` (docs/TEMPORAL_OPS.md).

System E is not part of the paper's measured systems; the benches under
``benchmarks/test_future_system_e.py`` compare it against A–D to quantify
what the paper's proposed direction would have gained.
"""

from __future__ import annotations

from typing import Dict

from ..engine.database import ArchitectureProfile, Database
from ..engine.index.timeline import TimelineIndex
from ..engine.storage.versioned import StorageOptions, VersionedTable
from .base import TemporalSystem


class TimelineDatabase(Database):
    """A Database that maintains one TimelineIndex per versioned table."""

    def __init__(self, *args, checkpoint_interval=1024, **kwargs):
        super().__init__(*args, **kwargs)
        self.checkpoint_interval = checkpoint_interval
        self.timelines: Dict[str, TimelineIndex] = {}

    def create_table(self, schema, options=None):
        table = super().create_table(schema, options)
        if table.is_versioned:
            timeline = TimelineIndex(
                checkpoint_interval=self.checkpoint_interval,
                metrics=self.metrics,
            )
            self.timelines[schema.name] = timeline
            _instrument(table, timeline)
        return table

    def timeline(self, table_name) -> TimelineIndex:
        return self.timelines[table_name.lower()]


def _instrument(table: VersionedTable, timeline: TimelineIndex):
    """Hook the table's write path so the timeline sees every event."""
    table.timeline = timeline  # the access layer looks for this attribute
    original_insert = table.insert_version
    original_invalidate = table.invalidate

    def insert_version(values, sys_begin=None):
        rid = original_insert(values, sys_begin=sys_begin)
        timeline.activate(rid, sys_begin)
        return rid

    def invalidate(rid, sys_end):
        original_invalidate(rid, sys_end)
        timeline.invalidate(rid, sys_end)

    table.insert_version = insert_version
    table.invalidate = invalidate


class SystemE(TemporalSystem):
    name = "E"
    architecture = (
        "research archetype: single-table row store + Timeline Index; "
        "Timeline-Index time travel; native operators through the dialect"
    )

    def __init__(self, checkpoint_interval=1024):
        self._checkpoint_interval = checkpoint_interval
        self.db = TimelineDatabase(
            options=self.storage_options(),
            profile=self.profile(),
            name="system_e",
            checkpoint_interval=checkpoint_interval,
        )

    def storage_options(self):
        return StorageOptions(
            store_kind="row",
            split_history=False,
        )

    def profile(self):
        return ArchitectureProfile(
            name="System E",
            uses_indexes=True,
            manual_system_time=False,
            # every analyzer performance rule's suggested rewrite gains
            # >= 1.5x here (benchmarks/reports/analyzer_cliffs.md)
            lint_suppressions=(),
        )
