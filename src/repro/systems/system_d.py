"""System D: disk-based row store without native temporal support.

Paper §2.5/§5.2 characteristics reproduced here:

* *"System D stores all information in a single non-temporal table"* —
  no current/history split: every version, open or closed, lives in one
  row store, so "current" queries must filter the full table but history
  access needs no union of partitions (the reason D has the least overhead
  on system-time TPC-H, Fig 7b);
* both time dimensions are ordinary columns **set by the client**
  (``manual_system_time``), which enables the bulk-load path of §5.8;
* indexes may be B-Trees or GiST (R-Tree) structures (§2.5).
"""

from ..engine.database import ArchitectureProfile
from ..engine.storage.versioned import StorageOptions
from .base import TemporalSystem


class SystemD(TemporalSystem):
    name = "D"
    architecture = (
        "disk-based RDBMS without temporal support; single table with "
        "ordinary time columns; client-managed timestamps; B-Tree and GiST"
    )
    native_application_time = False
    native_system_time = False

    def storage_options(self):
        return StorageOptions(
            store_kind="row",
            split_history=False,
            vertical_partition_current=False,
            undo_log=False,
            record_metadata=False,
        )

    def profile(self):
        return ArchitectureProfile(
            name="System D",
            supports_application_time=False,
            supports_system_time=True,  # clauses rewrite to value predicates
            uses_indexes=True,
            prunes_explicit_current=False,
            manual_system_time=True,
            index_selectivity_threshold=0.15,
            # implicit time travel over a single interleaved table (§5.8):
            # history is not a separate partition, so full-history-scan,
            # explicit-current and history-index diagnostics do not apply
            lint_suppressions=("TQ001", "TQ002", "TQ007"),
        )
