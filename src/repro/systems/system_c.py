"""System C: in-memory column store, system time only.

Paper §2.6/§5.2 characteristics reproduced here:

* columnar storage with a delta/main split and merge operation; history
  tables are *"regular columnar tables"* partitioned into current and
  history parts;
* *"no specific support for application time"* — application periods are
  plain DATE columns and temporal semantics on them are the client's job
  (our planner still accepts BUSINESS_TIME clauses and rewrites them to
  value predicates, which is what users of this system do by hand);
* scan-based execution: *"System C does not benefit at all from the
  additional B-Tree index"* — the optimizer profile disables index plans;
* AS OF time travel recomputes snapshot visibility during the scan.
"""

from ..engine.database import ArchitectureProfile
from ..engine.storage.versioned import StorageOptions
from .base import TemporalSystem


class SystemC(TemporalSystem):
    name = "C"
    architecture = (
        "in-memory column store; delta/main writes; system time native, "
        "application time simulated; scan-based plans"
    )
    native_application_time = False

    def storage_options(self):
        return StorageOptions(
            store_kind="column",
            split_history=True,
            vertical_partition_current=False,
            undo_log=False,
            record_metadata=False,
            column_merge_threshold=4096,
        )

    def profile(self):
        return ArchitectureProfile(
            name="System C",
            supports_system_time=True,
            uses_indexes=False,
            manual_system_time=False,
            index_selectivity_threshold=0.0,
            # analyzer performance rules whose suggested rewrite gains
            # < 1.5x here (benchmarks/reports/analyzer_cliffs.md)
            lint_suppressions=("TQ003", "TQ007"),
        )
