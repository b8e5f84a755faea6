"""The embedded database: catalog + tables + transactions + SQL entry point.

A :class:`Database` is parameterised with a default :class:`StorageOptions`
(supplied by the system archetype in :mod:`repro.systems`) and an
:class:`ArchitectureProfile` describing optimizer-visible behaviour.  The
SQL layer (`execute_sql`) is attached lazily to avoid an import cycle with
the planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import temporal
from .catalog import Catalog, IndexDef, TableSchema
from .errors import CatalogError, IntegrityError
from .obs import MetricsRegistry, StatementStatsStore, Tracer
from .obs import introspect
from .storage.versioned import StorageOptions, VersionedTable
from .txn import TransactionManager
from .types import END_OF_TIME, Period

#: auto-ANALYZE mutation threshold armed by the CLI/bench entry points for
#: long-lived databases: the drift :meth:`Database.stats_for` tolerates
#: before the statement being planned refreshes the table.  Not the Database
#: default: direct engine instantiations (tests, libraries) keep statistics
#: strictly manual so no measurement pays a surprise ANALYZE mid-run.
DEFAULT_AUTO_ANALYZE_THRESHOLD = 256


@dataclass
class ArchitectureProfile:
    """Optimizer- and semantics-level traits of a system archetype.

    These complement the storage-level knobs in :class:`StorageOptions`:

    * ``uses_indexes`` — System C *"does not benefit at all from the
      additional B-Tree index"*; its planner always scans.
    * ``index_selectivity_threshold`` — fraction of a partition a range
      predicate must select *below* for the planner to prefer an index scan
      (the paper: indexes "only work on very selective workloads").
    * ``lint_suppressions`` — the analyzer's one per-archetype policy.
    """

    name: str = "generic"
    supports_system_time: bool = True
    uses_indexes: bool = True
    manual_system_time: bool = False  # System D: client sets SYS_TIME itself
    index_selectivity_threshold: float = 0.15
    #: logical-plan rewrite rules the optimizer applies (see plan.rewrite);
    #: individually switchable for ablation benchmarks
    rewrite_rules: Tuple[str, ...] = (
        "constant-folding",
        "predicate-pushdown",
        "join-reorder",
        "constraint-pruning",
    )
    #: analyzer performance rules (see repro.engine.analyze) whose suggested
    #: rewrite measured below 1.5x on this archetype
    #: (benchmarks/reports/analyzer_cliffs.md), so they stay silent here
    lint_suppressions: Tuple[str, ...] = ()


class Database:
    """One database instance with a fixed architecture."""

    def __init__(
        self,
        options: Optional[StorageOptions] = None,
        profile: Optional[ArchitectureProfile] = None,
        name: str = "db",
    ):
        self.name = name
        self.catalog = Catalog()
        self.default_options = options or StorageOptions()
        self.profile = profile or ArchitectureProfile()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        #: pg_stat_statements-style workload telemetry; disabled by default
        #: so the execute hot path stays unobserved until someone asks
        self.telemetry = StatementStatsStore()
        self.txns = TransactionManager(metrics=self.metrics)
        self._tables: Dict[str, VersionedTable] = {}
        self._views: Dict[str, object] = {}  # name -> Select AST
        self._sql_engine = None  # created on first execute()
        #: when set, planning over a table re-ANALYZEs it once this many
        #: mutations accumulated since its last snapshot (None = manual only)
        self.auto_analyze_threshold: Optional[int] = None

    # -- DDL -------------------------------------------------------------

    @staticmethod
    def _check_reserved(name: str):
        if name.lower().startswith(introspect.SYSTEM_VIEW_PREFIX):
            raise CatalogError(
                f"the {introspect.SYSTEM_VIEW_PREFIX!r} prefix is reserved "
                f"for system views (cannot create {name!r})"
            )

    def create_table(
        self, schema: TableSchema, options: Optional[StorageOptions] = None
    ) -> VersionedTable:
        self._check_reserved(schema.name)
        self.catalog.add_table(schema)
        table = VersionedTable(
            schema, options or self.default_options, metrics=self.metrics
        )
        self._tables[schema.name] = table
        return table

    def drop_table(self, name):
        self.catalog.drop_table(name)
        del self._tables[name.lower()]

    def create_index(self, index: IndexDef):
        self.catalog.add_index(index)
        return self.table(index.table).create_index(index)

    def drop_index(self, name):
        index = None
        for candidate in self.catalog.indexes():
            if candidate.name == name:
                index = candidate
                break
        if index is None:
            raise CatalogError(f"no index {name!r}")
        self.catalog.drop_index(name)
        self.table(index.table).drop_index(name)

    def create_view(self, name, select_ast):
        name = name.lower()
        self._check_reserved(name)
        if self.catalog.has_table(name) or name in self._views:
            raise CatalogError(f"name {name!r} already in use")
        self._views[name] = select_ast
        self.catalog.bump(name)

    def drop_view(self, name):
        try:
            del self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no view {name!r}") from None
        self.catalog.bump(name)

    def view(self, name):
        return self._views.get(name.lower())

    def table(self, name) -> VersionedTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def tables(self) -> List[VersionedTable]:
        return list(self._tables.values())

    # -- system views (introspection) ----------------------------------------

    def system_view_columns(self, name) -> Optional[Tuple[str, ...]]:
        """Column layout of a ``repro_stat_*`` system view, or ``None``
        when *name* is not a system view (the SQL layer then falls through
        to ordinary view/table resolution)."""
        return introspect.view_columns(name)

    def system_view_rows(self, name) -> List[tuple]:
        """Materialise one system view over this database's live state."""
        return introspect.view_rows(self, name)

    # -- transactions -------------------------------------------------------

    def begin(self, meta=None):
        return self.txns.begin(meta=meta)

    def _tick(self) -> int:
        """System-time tick for the current operation.

        Inside an explicit transaction every operation shares the txn's
        tick; otherwise each operation autocommits with its own tick.
        """
        txn = self.txns.current()
        if txn is not None:
            return txn.tick
        with self.txns.begin() as auto:
            return auto.tick

    def now(self) -> int:
        """The current (last committed) system time."""
        return self.txns.last_committed

    # -- row-level DML (used by the loader and the SQL executor) ------------------

    def insert_row(self, table_name, values_by_column: Dict[str, object]) -> int:
        table = self.table(table_name)
        row = table.schema.row_from(values_by_column)
        if table.is_versioned:
            rid = temporal.temporal_insert(table, row, self._tick())
        else:
            rid = table.insert_version(row, sys_begin=None)
        return rid

    def insert_row_explicit(
        self, table_name, values_by_column: Dict[str, object], sys_begin, sys_end
    ) -> int:
        """Bulk-load path: the client sets the system time itself.

        Only legal on archetypes with ``manual_system_time`` (System D,
        §5.8: *"its cost is much lower since we can set the timestamps
        manually and perform a bulk load"*).
        """
        if not self.profile.manual_system_time:
            raise IntegrityError(
                f"{self.profile.name}: system time is immutable and set at commit"
            )
        table = self.table(table_name)
        row = table.schema.row_from(values_by_column)
        if table.is_versioned and not table.has_split:
            rid = table.insert_version_explicit(row, sys_begin, sys_end)
        else:
            rid = table.insert_version(row, sys_begin=sys_begin)
            if table.is_versioned and sys_end != END_OF_TIME:
                table.invalidate(rid, sys_end)
        if sys_begin is not None:
            self.txns.set_clock(max(self.txns.clock, sys_begin + 1))
        return rid

    def update_by_key(self, table_name, key, changes: Dict[str, object]) -> int:
        table = self.table(table_name)
        if table.is_versioned:
            return temporal.nontemporal_update(
                table, tuple(key), changes, self._tick()
            )
        count = 0
        for rid, row in temporal.current_versions_for_key(table, tuple(key)):
            table.plain_update(rid, table.schema.row_from(changes, row))
            count += 1
        return count

    def sequenced_update_by_key(
        self, table_name, key, changes, period_name, begin, end
    ) -> int:
        table = self.table(table_name)
        return temporal.sequenced_update(
            table, tuple(key), changes, period_name, Period(begin, end), self._tick()
        )

    def sequenced_delete_by_key(self, table_name, key, period_name, begin, end) -> int:
        table = self.table(table_name)
        return temporal.sequenced_delete(
            table, tuple(key), period_name, Period(begin, end), self._tick()
        )

    def delete_by_key(self, table_name, key) -> int:
        table = self.table(table_name)
        if table.is_versioned:
            count = temporal.temporal_delete(table, tuple(key), self._tick())
        else:
            count = 0
            for rid, _row in temporal.current_versions_for_key(table, tuple(key)):
                table.plain_delete(rid)
                count += 1
        return count

    # -- statistics -----------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None) -> List["stats_mod.TableStats"]:
        """Collect per-column statistics (the ``ANALYZE [TABLE]`` statement).

        Analyzing bumps each table's catalog version so cached plans that
        were built without (or with older) statistics replan against the
        fresh snapshot — the same invalidation channel DDL uses.
        """
        from . import stats as stats_mod

        if table_name is not None:
            self.table(table_name)  # raises CatalogError when unknown
            names = [table_name.lower()]
        else:
            names = sorted(self._tables)
        collected = []
        for name in names:
            table = self._tables[name]
            snapshot = stats_mod.collect_table_stats(table)
            self.catalog.bump(name)
            snapshot.catalog_version = self.catalog.version_of(name)
            snapshot.mutation_marker = stats_mod.mutation_marker(table)
            self.catalog.set_stats(name, snapshot)
            collected.append(snapshot)
            self.metrics.inc("stats.tables_analyzed")
        self.metrics.inc("stats.analyze_runs")
        return collected

    def stats_for(self, table_name: str):
        """Return the table's ANALYZE snapshot, or None when absent/stale.

        The one door the planner reads statistics through, and the only
        place ``auto_analyze_threshold`` is compared.  A snapshot is stale
        when DDL moved the table's catalog version or DML moved its storage
        mutation marker since collection.  With the threshold armed and the
        marker drifted that far (a table never analyzed counts every
        mutation it has ever seen) the statement being planned re-ANALYZEs
        the table here and plans against the new snapshot; otherwise the
        planner gets ``None`` and falls back to the greedy pre-statistics
        heuristics.  Writes never collect statistics.
        """
        from . import stats as stats_mod

        self.metrics.inc("stats.lookups")
        snapshot = self.catalog.stats_of(table_name)
        table = self._tables.get(table_name.lower())
        if table is not None:
            marker = stats_mod.mutation_marker(table)
            if (
                snapshot is not None
                and snapshot.catalog_version == self.catalog.version_of(table_name)
                and snapshot.mutation_marker == marker
            ):
                self.metrics.inc("stats.hits")
                return snapshot
            threshold = self.auto_analyze_threshold
            baseline = snapshot.mutation_marker if snapshot is not None else 0
            if threshold is not None and marker - baseline >= threshold:
                (snapshot,) = self.analyze(table_name)
                self.metrics.inc("stats.auto_analyze_runs")
                return snapshot
        self.metrics.inc("stats.misses" if snapshot is None else "stats.stale")
        return None

    # -- SQL ------------------------------------------------------------------

    def _engine(self):
        if self._sql_engine is None:
            from .session import SqlEngine  # deferred: avoids import cycle

            self._sql_engine = SqlEngine(self)
        return self._sql_engine

    def execute(self, sql, params=None, timeout_s=None):
        """Parse, plan and run one SQL statement; returns a Result."""
        return self._engine().execute(sql, params, timeout_s=timeout_s)

    def explain(self, sql, params=None) -> str:
        return self._engine().explain(sql, params)

    def explain_analyze(self, sql, params=None) -> str:
        return self._engine().explain_analyze(sql, params)

    def lint(self, sql):
        """Static diagnostics for one SELECT (see repro.engine.analyze)."""
        return self._engine().lint(sql)

    def cache_stats(self) -> Dict[str, int]:
        """Plan-cache counters of the attached SQL engine."""
        return self._engine().cache_stats()

    # -- observability ---------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Dict]:
        """Counters + histogram summaries of this database's registry."""
        return self.metrics.snapshot()

    def reset_metrics(self):
        self.metrics.reset()

    def enable_telemetry(self, enabled: bool = True) -> StatementStatsStore:
        """Switch the statement-statistics store on (or off).  Entries
        survive toggling; call ``telemetry.reset()`` to drop them."""
        self.telemetry.enabled = enabled
        return self.telemetry

    def telemetry_snapshot(
        self, top: Optional[int] = None, sort: str = "time"
    ) -> Dict[str, object]:
        """Workload-level view: registry snapshot + statement statistics."""
        snapshot = self.metrics.snapshot()
        snapshot["statements"] = self.telemetry.snapshot(top=top, sort=sort)
        snapshot["statements_tracked"] = len(self.telemetry)
        snapshot["statements_evicted"] = self.telemetry.evicted
        return snapshot

    # -- maintenance -----------------------------------------------------------

    def drain_all_undo(self):
        for table in self._tables.values():
            table.drain_undo() if table.options.undo_log else None

    def merge_all(self):
        for table in self._tables.values():
            table.merge_column_store()

    def storage_report(self) -> Dict[str, Dict[str, int]]:
        """Per-table partition sizes (the §5.2 architecture analysis)."""
        report = {}
        for name, table in self._tables.items():
            report[name] = {
                "current": table.current_count(),
                "history": table.history_count(),
                "total": len(table),
            }
        return report
