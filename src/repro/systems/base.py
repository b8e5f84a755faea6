"""Common surface of a system archetype under test."""

from __future__ import annotations

from typing import Dict, Optional

from ..engine.database import ArchitectureProfile, Database
from ..engine.storage.versioned import StorageOptions


class TemporalSystem:
    """A database-under-test: an engine instance with a fixed architecture.

    Subclasses define :meth:`storage_options` and :meth:`profile`; everything
    else (loading, querying, tuning) is uniform, mirroring how the paper
    drives four different products through one benchmark service.
    """

    #: anonymised name used in figures ("A".."D")
    name: str = "?"
    #: one-line architecture summary (the §5.2 analysis)
    architecture: str = ""
    #: whether the archetype natively supports application-time periods
    native_application_time: bool = True
    #: whether the archetype natively supports system-time versioning
    native_system_time: bool = True

    def __init__(self):
        self.db = Database(
            options=self.storage_options(),
            profile=self.profile(),
            name=f"system_{self.name.lower()}",
        )

    # -- architecture ------------------------------------------------------

    def storage_options(self) -> StorageOptions:
        raise NotImplementedError

    def profile(self) -> ArchitectureProfile:
        raise NotImplementedError

    # -- convenience -------------------------------------------------------

    def execute(self, sql, params=None, timeout_s=None):
        return self.db.execute(sql, params, timeout_s=timeout_s)

    def explain(self, sql, params=None):
        return self.db.explain(sql, params)

    def explain_analyze(self, sql, params=None):
        return self.db.explain_analyze(sql, params)

    def lint(self, sql):
        """Static diagnostics, gated by this archetype's lint_suppressions."""
        return self.db.lint(sql)

    def cache_stats(self) -> Dict[str, int]:
        return self.db.cache_stats()

    def analyze(self, table: Optional[str] = None):
        """Collect per-column statistics (ANALYZE); arms cost-based joins."""
        return self.db.analyze(table)

    def metrics(self) -> Dict[str, Dict]:
        """Engine metric counters + histogram summaries for this system."""
        return self.db.metrics.snapshot()

    def reset_metrics(self):
        """Zero the metric registry (between benchmark measurements)."""
        self.db.metrics.reset()

    def enable_telemetry(self, enabled: bool = True):
        """Switch the pg_stat_statements-style statement store on/off."""
        return self.db.enable_telemetry(enabled)

    def telemetry_snapshot(self, top: Optional[int] = None, sort: str = "time"):
        """Registry snapshot + statement statistics, JSON-serialisable."""
        return self.db.telemetry_snapshot(top=top, sort=sort)

    @property
    def tracer(self):
        """The engine's span tracer (install sinks here to trace queries)."""
        return self.db.tracer

    def connect(self):
        """A PEP 249 connection to this system."""
        from ..engine import dbapi

        return dbapi.connect(database=self.db)

    def storage_report(self) -> Dict[str, Dict[str, int]]:
        return self.db.storage_report()

    def now(self) -> int:
        return self.db.now()

    def describe(self) -> str:
        """Human-readable architecture card (paper §2 style)."""
        opts = self.db.default_options
        lines = [
            f"System {self.name}: {self.architecture}",
            f"  store kind:            {opts.store_kind}",
            f"  current/history split: {opts.split_history}",
            f"  vertical partitioning: {opts.vertical_partition_current}",
            f"  undo log:              {opts.undo_log}",
            f"  native app time:       {self.native_application_time}",
            f"  native system time:    {self.native_system_time}",
            f"  optimizer uses indexes:{self.db.profile.uses_indexes}",
        ]
        return "\n".join(lines)

    def __repr__(self):
        return f"<TemporalSystem {self.name}>"
