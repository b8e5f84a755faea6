"""System A: disk-based row store with native bitemporal support.

Paper §5.2 characteristics reproduced here:

* system time via horizontal partitioning into current + history tables,
  with **identical schemas** on both sides;
* updates *"save data instantly to the history tables"* — no buffering;
* B-Tree indexes available everywhere, none created on history by default;
* full SQL:2011 temporal surface (both time dimensions).
"""

from ..engine.database import ArchitectureProfile
from ..engine.storage.versioned import StorageOptions
from .base import TemporalSystem


class SystemA(TemporalSystem):
    name = "A"
    architecture = (
        "disk-based RDBMS, native bitemporal; current/history split with "
        "identical schemas; synchronous history writes"
    )

    def storage_options(self):
        return StorageOptions(
            store_kind="row",
            split_history=True,
            vertical_partition_current=False,
            undo_log=False,
        )

    def profile(self):
        return ArchitectureProfile(
            name="System A",
            uses_indexes=True,
            manual_system_time=False,
            # analyzer performance rules whose suggested rewrite gains
            # < 1.5x here (benchmarks/reports/analyzer_cliffs.md)
            lint_suppressions=("TQ002",),
        )
