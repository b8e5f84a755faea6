"""Bitemporal table storage with pluggable architecture options.

This module is the anchor of the reproduction: the paper's §5.2 architecture
analysis found that every tested system stores temporal data in ordinary
tables, differing only in *how* those tables are arranged.  Each finding maps
to one knob of :class:`StorageOptions`:

* *"System time is handled using horizontal partitioning"* →
  ``split_history`` keeps a **current** and a **history** partition
  (Systems A, B, C); ``split_history=False`` stores everything in a single
  table (System D).
* *"System B ... current table does not contain any temporal information, as
  it is vertically partitioned into a separate table"* →
  ``vertical_partition_current`` stores the system-time columns of current
  rows in a side structure; scans that need them pay a sort/merge join.
* *"System A saves data instantly to the history tables, System B adds
  updates first to an undo log, System C follows a delta/main approach"* →
  ``undo_log`` buffers invalidated versions and drains them in background
  batches; the column store's delta/main split comes from
  :class:`~repro.engine.storage.column_store.ColumnStore`.
* *"System B records more detailed metadata, e.g., on transaction
  identifiers and the update query type"* → ``record_metadata`` widens every
  history row with bookkeeping columns.
* *"None of the systems puts any index on the history table"* → indexes are
  created per-partition and only where an experiment's tuning setting
  (§5.1) asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..batch import Batch, batches_from_rows, projector
from ..catalog import IndexDef, TableSchema
from ..errors import CatalogError, InternalError
from ..index import create_index_structure
from ..obs import MetricsRegistry
from ..types import END_OF_TIME
from .column_store import ColumnStore
from .row_store import AppendLog, RowStore
from .zonemap import ScanTally, Window, window_rows

CURRENT = "current"
HISTORY = "history"
SINGLE = "single"


@dataclass
class StorageOptions:
    """Architecture knobs for one table (see module docstring)."""

    store_kind: str = "row"              # "row" | "column"
    split_history: bool = True
    vertical_partition_current: bool = False
    undo_log: bool = False
    undo_drain_batch: int = 64
    record_metadata: bool = False
    column_merge_threshold: int = 8192

    def __post_init__(self):
        if self.store_kind not in ("row", "column"):
            raise CatalogError(f"unknown store kind {self.store_kind!r}")
        if self.vertical_partition_current and not self.split_history:
            raise CatalogError("vertical partitioning requires a current/history split")
        if self.undo_log and not self.split_history:
            raise CatalogError("an undo log requires a history partition")


class AccessCounters:
    """Cheap per-partition access counters backing ``repro_stat_tables``.

    Plain attribute increments on the scan paths (no registry lookup, no
    labels) so the telemetry-off execute path stays at parity with the
    un-instrumented engine.  Introspection reads never reset them.
    """

    __slots__ = ("scans", "rows_read", "pages_read", "pages_pruned")

    def __init__(self):
        self.scans = 0
        self.rows_read = 0     # live rows on the pages scans actually read
        self.pages_read = 0    # batch scans only: pages handed over ...
        self.pages_pruned = 0  # ... and pages a system-time window skipped

    def as_dict(self):
        return {"scans": self.scans, "rows_read": self.rows_read}


class _Partition:
    """One physical partition: a store plus its secondary indexes."""

    def __init__(self, name, schema_width, options: StorageOptions, metrics=None,
                 period=None):
        self.name = name
        if options.store_kind == "column":
            self.store = ColumnStore(
                schema_width,
                merge_threshold=options.column_merge_threshold,
                metrics=metrics,
                period=period,
            )
        else:
            self.store = RowStore(period=period)
        self.access = AccessCounters()
        self.indexes: Dict[str, Tuple[IndexDef, object]] = {}
        #: the same indexes as the write path sees them, keyed like
        #: ``indexes``: (key function, structure, removes lazily)
        self.keyed: Dict[str, Tuple[Callable, object, bool]] = {}

    def __len__(self):
        return len(self.store)


def _key_function(kind, positions):
    """What an index of *kind* over the columns at *positions* stores a row
    under; None means the row is not indexed."""
    if kind == "rtree":
        begin, end = positions

        def period(row):
            lo, hi = row[begin], row[end]
            return None if lo is None or hi is None else (lo, hi)

        return period
    # one position: the value (so a NULL is not indexed); several: a tuple
    return itemgetter(*positions)


class VersionedTable:
    """A (possibly bitemporal) table with architecture-specific layout.

    Rows are full-width tuples following the table schema, including the
    period columns.  System-time columns are maintained by this class (the
    paper: *"the values are implicitly generated by the temporal database
    during transaction commit"*); application-time columns are ordinary data
    supplied by the caller.
    """

    def __init__(
        self,
        schema: TableSchema,
        options: Optional[StorageOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.schema = schema
        self.options = options or StorageOptions()
        #: writes so far (versions written and closed, plain updates and
        #: deletes): the DML marker ANALYZE snapshots are checked against
        self.mutations = 0
        #: sort/merge joins with the VP side table (System B), per table;
        #: the engine-wide total is the ``storage.vp_merge_joins`` counter
        self.vp_merge_joins = 0
        # standalone tables (tests, tools) get a private registry; tables
        # created through a Database share its engine-wide one
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        width = len(schema.columns)

        sys_period = schema.system_period
        if sys_period is not None:
            self._sys_begin = schema.position(sys_period.begin_column)
            self._sys_end = schema.position(sys_period.end_column)
        else:
            self._sys_begin = self._sys_end = None
        #: a plain attribute, not a property: every write reads it
        self.is_versioned = sys_period is not None

        self._split = self.options.split_history and sys_period is not None
        period = (self._sys_begin, self._sys_end) if sys_period is not None else None
        names = (CURRENT, HISTORY) if self._split else (SINGLE,)
        self._partitions = {
            name: _Partition(name, width, self.options, self.metrics, period)
            for name in names
        }

        # System B: system-time info of *current* rows lives here, not inline.
        self._vp_temporal: Dict[int, Tuple[int, int, Optional[tuple]]] = {}
        self._undo = AppendLog() if self.options.undo_log else None
        self._undo_since_drain = 0

        # every archetype keeps a key -> current rids map for its PK
        self._pk_current: Dict[tuple, List[int]] = {}
        #: key -> current rids (None for none) as the write path's key check
        #: reads them: no copy, no counted index probe, no Python frame
        self.live_rids = self._pk_current.get

    # -- partition helpers -------------------------------------------------

    @property
    def stats(self):
        """``vp_merge_joins`` under the name ``perf/layers.py`` reads.  Every
        other count is a partition's ``access`` or a registry counter."""
        return SimpleNamespace(vp_merge_joins=self.vp_merge_joins)

    @property
    def has_split(self):
        return self._split

    def partition(self, name) -> _Partition:
        try:
            return self._partitions[name]
        except KeyError:
            raise InternalError(f"table {self.schema.name} has no partition {name!r}") from None

    def partition_names(self):
        return list(self._partitions)

    def current_partition_name(self):
        return CURRENT if self._split else SINGLE

    def __len__(self):
        """Number of stored versions across all partitions (undo included)."""
        total = sum(len(p) for p in self._partitions.values())
        if self._undo is not None:
            total += len(self._undo)
        return total

    def current_count(self):
        return len(self._partitions[self.current_partition_name()])

    def history_count(self):
        if not self._split:
            return 0
        pending = len(self._undo) if self._undo is not None else 0
        return len(self._partitions[HISTORY]) + pending

    # -- writes --------------------------------------------------------------

    def insert_version(self, values, sys_begin=None, txn_meta=None) -> int:
        """Insert a new row version visible from *sys_begin* onwards.

        *values* must be a full-width sequence; for versioned tables the
        system-time cells are overwritten here.
        """
        row = list(values)
        if self.is_versioned:
            if sys_begin is None:
                raise InternalError("versioned insert requires sys_begin")
            row[self._sys_begin] = sys_begin
            row[self._sys_end] = END_OF_TIME
        part = self._partitions[self.current_partition_name()]
        if self.options.vertical_partition_current and self.is_versioned:
            # physically strip temporal info from the current row
            stripped = list(row)
            stripped[self._sys_begin] = None
            stripped[self._sys_end] = None
            rid = part.store.append(stripped)
            self._vp_temporal[rid] = (sys_begin, END_OF_TIME, txn_meta)
        else:
            rid = part.store.append(row)
        self._index_insert(part, rid, row)
        if self.schema.primary_key:
            self._pk_current.setdefault(self.schema.key_of(row), []).append(rid)
        self.mutations += 1
        self.metrics.inc("txn.versions_written")
        return rid

    def insert_version_explicit(self, values, sys_begin, sys_end) -> int:
        """Bulk-load append of a version with explicit system time.

        Only meaningful on single-table layouts (System D, §5.8): closed
        versions are appended directly — no insert-then-invalidate round
        trip, no history move — which is what makes the bulk path cheap.
        """
        if self._split:
            raise InternalError(
                "explicit-timestamp bulk appends require a single-table layout"
            )
        row = list(values)
        if self.is_versioned:
            row[self._sys_begin] = sys_begin
            row[self._sys_end] = sys_end
        part = self._partitions[self.current_partition_name()]
        rid = part.store.append(row)
        self._index_insert(part, rid, row)
        is_open = (not self.is_versioned) or sys_end >= END_OF_TIME
        if is_open and self.schema.primary_key:
            self._pk_current.setdefault(self.schema.key_of(row), []).append(rid)
        self.mutations += 1
        self.metrics.inc("txn.versions_written")
        return rid

    def invalidate(self, rid, sys_end, txn_meta=None):
        """Close the version at *rid* as of *sys_end* and archive it."""
        if not self.is_versioned:
            raise InternalError(f"table {self.schema.name} is not versioned")
        part = self._partitions[self.current_partition_name()]
        row = self._materialize_current(part, rid)
        if row is None:
            raise InternalError(f"no current version at rid {rid}")
        closed = list(row)
        closed[self._sys_end] = sys_end
        if self.options.record_metadata:
            txn_meta = txn_meta or (None, None)
        self.mutations += 1
        self.metrics.inc("storage.versions_invalidated")

        if self.schema.primary_key:
            self._pk_forget(row, rid)

        if not self._split:
            # System D: the closed version simply stays in the single table.
            part.store.update_in_place(rid, closed)
            self._index_update(part, rid, row, closed)
            return

        # remove from current partition (and its indexes)
        self._index_remove(part, rid, row)
        part.store.delete(rid)
        self._vp_temporal.pop(rid, None)

        if self._undo is not None:
            self._undo.append((closed, txn_meta))
            self._undo_since_drain += 1
            if self._undo_since_drain >= self.options.undo_drain_batch:
                self.drain_undo()
        else:
            self._move_to_history(closed)

    def delete_version(self, rid, sys_end, txn_meta=None):
        """SQL DELETE: identical to invalidation (the version is archived)."""
        self.invalidate(rid, sys_end, txn_meta=txn_meta)

    def plain_delete(self, rid):
        """Physical delete for non-versioned tables."""
        part = self._partitions[self.current_partition_name()]
        row = part.store.fetch(rid)
        if row is None:
            return False
        self.mutations += 1
        self._index_remove(part, rid, row)
        if self.schema.primary_key:
            self._pk_forget(row, rid)
        return part.store.delete(rid)

    def plain_update(self, rid, new_values):
        """Physical in-place update for non-versioned tables."""
        part = self._partitions[self.current_partition_name()]
        old = part.store.fetch(rid)
        if old is None:
            raise InternalError(f"no row at rid {rid}")
        self.mutations += 1
        new_row = list(new_values)
        part.store.update_in_place(rid, new_row)
        self._index_update(part, rid, old, new_row)
        key_of = self.schema.key_of
        if self.schema.primary_key and key_of(old) != key_of(new_row):
            self._pk_forget(old, rid)
            self._pk_current.setdefault(key_of(new_row), []).append(rid)

    def _pk_forget(self, row, rid):
        """Drop *rid* from the current rids of *row*'s primary key."""
        key = self.schema.key_of(row)
        rids = self._pk_current.get(key)
        if rids and rid in rids:
            rids.remove(rid)
            if not rids:
                del self._pk_current[key]

    def _move_to_history(self, closed_row):
        history = self._partitions[HISTORY]
        hid = history.store.append(closed_row)
        self._index_insert(history, hid, closed_row)
        self.metrics.inc("storage.history_moves")

    def drain_undo(self):
        """Flush the undo log into the history partition (System B's
        background process; its stalls produce the 97th-percentile spikes of
        Fig 16 and contribute to B's worst-of-all total load time, §5.8).

        The drained batch is sorted by ``(sys_begin, sys_end)`` and appended
        as one run, each version indexed once: a history row's rid never
        changes, so sealed pages keep their zone maps and an index a reader
        holds stays valid.  The sort and the batch's moves land inside the
        transaction that fills the log — B's tail."""
        if self._undo is None:
            return 0
        records = self._undo.drain()
        if records:
            begin, end = self._sys_begin, self._sys_end
            records.sort(key=lambda record: (record[0][begin], record[0][end]))
            for closed_row, _meta in records:
                self._move_to_history(closed_row)
            self.metrics.inc("storage.undo_drains")
        self._undo_since_drain = 0
        return len(records)

    # -- reads ---------------------------------------------------------------

    def _materialize_current(self, part, rid):
        row = part.store.fetch(rid)
        if row is None:
            return None
        if self.options.vertical_partition_current and rid in self._vp_temporal:
            merged = list(row)
            begin, end, _meta = self._vp_temporal[rid]
            merged[self._sys_begin] = begin
            merged[self._sys_end] = end
            return merged
        return row

    def fetch(self, partition_name, rid):
        part = self._partitions[partition_name]
        if partition_name in (CURRENT, SINGLE):
            return self._materialize_current(part, rid)
        return part.store.fetch(rid)

    def scan_current(self, need_temporal=True) -> Iterator[Tuple[int, list]]:
        """Scan the current partition (or the single table).

        With vertical partitioning, reconstructing temporal columns requires
        a sort/merge join between the data rows and the temporal side table
        — the cost source the paper observed for System B (§5.3.1).
        """
        part = self._partitions[self.current_partition_name()]
        part.access.scans += 1
        part.access.rows_read += len(part)
        self.metrics.inc("storage.current_scans")
        self.metrics.inc("storage.current_rows_scanned", len(part))
        if (
            need_temporal
            and self.options.vertical_partition_current
            and self.is_versioned
        ):
            yield from self._scan_current_vp(part)
            return
        yield from part.store.scan()

    def _scan_current_vp(self, part):
        self.vp_merge_joins += 1
        self.metrics.inc("storage.vp_merge_joins")
        yield from self._merge_vp_rows(part)

    def _merge_vp_rows(self, part):
        # Sort both inputs (the optimizer does not know they are clustered),
        # then merge on rid.  This mirrors the paper's observation of a
        # sort/merge join "with sorting on both sides".
        data_side = sorted(part.store.scan(), key=lambda pair: pair[0])
        temporal_side = sorted(self._vp_temporal.items())
        ti = 0
        n = len(temporal_side)
        for rid, row in data_side:
            while ti < n and temporal_side[ti][0] < rid:
                ti += 1
            merged = list(row)
            if ti < n and temporal_side[ti][0] == rid:
                begin, end, _meta = temporal_side[ti][1]
                merged[self._sys_begin] = begin
                merged[self._sys_end] = end
            yield rid, merged

    def scan_history(self) -> Iterator[Tuple[int, list]]:
        """Scan the history partition (forces an undo drain first)."""
        if not self._split:
            return
        if self._undo is not None and len(self._undo):
            self.drain_undo()
        part = self._partitions[HISTORY]
        part.access.scans += 1
        part.access.rows_read += len(part)
        self.metrics.inc("storage.history_scans")
        self.metrics.inc("storage.history_rows_scanned", len(part))
        yield from part.store.scan()

    def scan_partition(self, name, need_temporal=True):
        if name in (CURRENT, SINGLE):
            yield from self.scan_current(need_temporal=need_temporal)
        elif name == HISTORY:
            yield from self.scan_history()
        else:
            raise InternalError(f"unknown partition {name!r}")

    def scan_partition_quiet(self, name, need_temporal=True):
        """Introspection scan: the same rows as :meth:`scan_partition` but
        with *no* side effects — no metrics/access-counter bumps and
        no undo drain, so the system views report state without moving it.
        """
        try:
            part = self._partitions[name]
        except KeyError:
            raise InternalError(f"unknown partition {name!r}") from None
        if (
            name in (CURRENT, SINGLE)
            and need_temporal
            and self.options.vertical_partition_current
            and self.is_versioned
        ):
            yield from self._merge_vp_rows(part)
            return
        yield from part.store.scan()

    # -- batch reads ---------------------------------------------------------

    def scan_current_batches(self, need_temporal=True, size=1024, *,
                             window: Optional[Window] = None, app_windows=(),
                             columns=None) -> Iterator[Batch]:
        """Batch variant of :meth:`scan_current`: same rows in the same
        order (as tuples).  The store applies the system-time *window*
        (pruning pages by zone map) and the *app_windows* exactly and
        hands over the *columns* (positions; None = all) of the surviving
        rows (docs/EXECUTION.md, "Scan layer").
        """
        part = self._partitions[self.current_partition_name()]
        if (
            need_temporal
            and self.options.vertical_partition_current
            and self.is_versioned
        ):
            # System B pays its sort/merge join and a per-row filter on
            # every scan: the side table has no pages to prune by
            tally = ScanTally()
            tally.pages_read = part.store.page_count
            tally.rows_read = len(part)
            self._account_scan(part, CURRENT, tally)
            rows = [tuple(row) for _rid, row in self._scan_current_vp(part)]
            if window is not None:
                app_windows = [(self._sys_begin, self._sys_end, window), *app_windows]
            rows = window_rows(rows, app_windows)
            if columns is not None:
                rows = list(map(projector(columns), rows))
            yield from batches_from_rows(rows, size)
            return
        yield from self._scan_store_batches(
            part, CURRENT, size, window, app_windows, columns
        )

    def scan_history_batches(self, size=1024, *, window: Optional[Window] = None,
                             app_windows=(), columns=None) -> Iterator[Batch]:
        """Batch variant of :meth:`scan_history` (drains the undo log)."""
        if not self._split:
            return
        if self._undo is not None and len(self._undo):
            self.drain_undo()
        yield from self._scan_store_batches(
            self._partitions[HISTORY], HISTORY, size, window, app_windows, columns
        )

    def _scan_store_batches(self, part, kind, size, window, app_windows, columns):
        tally = ScanTally()
        # only a column store narrows: a row store hands over its tuples
        narrow = {} if columns is None else {"columns": columns}
        try:
            yield from part.store.scan_batches(
                size, window=window, app_windows=app_windows, tally=tally, **narrow
            )
        finally:
            # also when the consumer stops early (timeout): count what was read
            self._account_scan(part, kind, tally)

    def _account_scan(self, part, kind, tally):
        access = part.access
        access.scans += 1
        access.rows_read += tally.rows_read
        access.pages_read += tally.pages_read
        access.pages_pruned += tally.pages_pruned
        if kind == HISTORY:
            self.metrics.inc("storage.history_scans")
            self.metrics.inc("storage.history_rows_scanned", tally.rows_read)
        else:
            self.metrics.inc("storage.current_scans")
            self.metrics.inc("storage.current_rows_scanned", tally.rows_read)
        self.metrics.inc("storage.pages_scanned", tally.pages_read)
        self.metrics.inc("storage.pages_pruned", tally.pages_pruned)

    def scan_partition_batches(self, name, need_temporal=True, size=1024, *,
                               window: Optional[Window] = None, app_windows=(),
                               columns=None):
        """One partition's rows as batches.  *window* is the system-time
        window, *app_windows* ``(begin_pos, end_pos, window)`` triples for
        any other period, *columns* the positions to hand over (a
        column-store table only); the defaults scan every row of every
        column."""
        if name in (CURRENT, SINGLE):
            yield from self.scan_current_batches(
                need_temporal=need_temporal, size=size, window=window,
                app_windows=app_windows, columns=columns,
            )
        elif name == HISTORY:
            yield from self.scan_history_batches(
                size=size, window=window, app_windows=app_windows, columns=columns
            )
        else:
            raise InternalError(f"unknown partition {name!r}")

    def scan_versions(self) -> Iterator[Tuple[str, int, list]]:
        """All versions as (partition, rid, row) across partitions."""
        for rid, row in self.scan_current():
            yield self.current_partition_name(), rid, row
        if self._split:
            for rid, row in self.scan_history():
                yield HISTORY, rid, row

    def reconstruct_for_rids(self, rids) -> List[Tuple[int, list]]:
        """Fetch current rows for *rids* with temporal columns materialised.

        On a vertically partitioned table this is NOT a cheap point lookup:
        the engine has to join the data partition with the temporal side
        table, sorting both sides — the behaviour the paper measured on
        System B even for index-assisted audit queries (§5.5.1).  On all
        other layouts it degenerates to direct fetches.
        """
        part = self._partitions[self.current_partition_name()]
        if not (self.options.vertical_partition_current and self.is_versioned):
            out = []
            for rid in rids:
                row = self._materialize_current(part, rid)
                if row is not None:
                    out.append((rid, row))
            return out
        self.vp_merge_joins += 1
        self.metrics.inc("storage.vp_merge_joins")
        wanted = sorted(set(rids))
        temporal_side = sorted(self._vp_temporal.items())
        out = []
        ti, n = 0, len(temporal_side)
        for rid in wanted:
            row = part.store.fetch(rid)
            if row is None:
                continue
            while ti < n and temporal_side[ti][0] < rid:
                ti += 1
            merged = list(row)
            if ti < n and temporal_side[ti][0] == rid:
                begin, end, _meta = temporal_side[ti][1]
                merged[self._sys_begin] = begin
                merged[self._sys_end] = end
            out.append((rid, merged))
        return out

    def current_rids_for_key(self, key) -> List[int]:
        """Current version rids for a primary-key tuple (PK probe path)."""
        self.metrics.inc("index.pk_probes")
        return list(self._pk_current.get(tuple(key), ()))

    # -- secondary indexes -----------------------------------------------------

    def create_index(self, index: IndexDef):
        """Build a secondary index over one partition and register it."""
        target = index.partition
        if target == SINGLE and self._split:
            raise CatalogError("partition 'single' on a split table")
        if target in (CURRENT,) and not self._split:
            target = SINGLE
        part = self.partition(target)
        if index.name in part.indexes:
            raise CatalogError(f"index {index.name!r} already on {self.schema.name}")
        structure = create_index_structure(index.kind, metrics=self.metrics)
        key_of = _key_function(
            index.kind, [self.schema.position(c) for c in index.columns]
        )
        # registered after the build: a history scan drains B's undo log
        # first, and the drained versions must not be indexed twice
        rows = self.scan_current() if target in (CURRENT, SINGLE) else self.scan_history()
        for rid, row in rows:
            key = key_of(row)
            if key is not None:
                structure.insert(key, rid)
        part.indexes[index.name] = (index, structure)
        part.keyed[index.name] = (key_of, structure, index.kind == "rtree")
        return structure

    def drop_index(self, name):
        for part in self._partitions.values():
            if name in part.indexes:
                del part.indexes[name], part.keyed[name]
                return True
        return False

    def indexes_on_partition(self, name) -> Dict[str, Tuple[IndexDef, object]]:
        if name == CURRENT and not self._split:
            name = SINGLE
        return self._partitions[name].indexes

    def _index_insert(self, part, rid, row):
        for key_of, structure, _lazy in part.keyed.values():
            key = key_of(row)
            if key is not None:
                structure.insert(key, rid)

    def _index_remove(self, part, rid, row):
        # an rtree removes lazily: its scans re-check liveness via fetch()
        for key_of, structure, lazy in part.keyed.values():
            if not lazy and (key := key_of(row)) is not None:
                structure.remove(key, rid)

    def _index_update(self, part, rid, old_row, new_row):
        for key_of, structure, lazy in part.keyed.values():
            old_key, new_key = key_of(old_row), key_of(new_row)
            if old_key == new_key:
                continue
            if not lazy and old_key is not None:
                structure.remove(old_key, rid)
            if new_key is not None:
                structure.insert(new_key, rid)

    # -- maintenance --------------------------------------------------------------

    def merge_column_store(self):
        """Force a delta/main merge on all column-store partitions."""
        for part in self._partitions.values():
            if isinstance(part.store, ColumnStore):
                part.store.merge()
