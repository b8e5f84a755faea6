"""System B: disk-based row store with heavyweight history machinery.

Paper §5.2 characteristics reproduced here:

* *"the current table does not contain any temporal information, as it is
  vertically partitioned into a separate table"* — reconstructing system
  time for current rows costs a sort/merge join on every access;
* *"System B adds updates first to an undo log"* drained by a background
  step, which produces the two-orders-of-magnitude 97th-percentile update
  latencies of Fig 16;
* *"System B records more detailed metadata, e.g., on transaction
  identifiers and the update query type"* — wider history rows;
* full SQL:2011 temporal surface.
"""

from ..engine.database import ArchitectureProfile
from ..engine.storage.versioned import StorageOptions
from .base import TemporalSystem


class SystemB(TemporalSystem):
    name = "B"
    architecture = (
        "disk-based RDBMS, native bitemporal; temporal columns vertically "
        "partitioned off the current table; undo-log buffered history writes"
    )

    def storage_options(self):
        return StorageOptions(
            store_kind="row",
            split_history=True,
            vertical_partition_current=True,
            undo_log=True,
            undo_drain_batch=64,
        )

    def profile(self):
        return ArchitectureProfile(
            name="System B",
            uses_indexes=True,
            manual_system_time=False,
            # analyzer performance rules whose suggested rewrite gains
            # < 1.5x here (benchmarks/reports/analyzer_cliffs.md)
            lint_suppressions=("TQ003", "TQ007"),
        )
