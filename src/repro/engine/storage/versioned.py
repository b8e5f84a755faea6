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
* *"None of the systems puts any index on the history table"* → indexes are
  created per-partition and only where an experiment's tuning setting
  (§5.1) asks for them.

The paper also notes that *"System B records more detailed metadata"*; no
query here reads such metadata, so it is not modelled.
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
from .row_store import RowStore
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
        #: ``indexes``: (key function, structure)
        self.keyed: Dict[str, Tuple[Callable, object]] = {}

    def __len__(self):
        return len(self.store)


def _key_function(kind, positions, ends):
    """What an index of *kind* over the columns at *positions* stores a row
    under; None means the row is not indexed.  A NULL at an end column (a
    position in *ends*: a period's end, or the end of the interval an
    R-Tree indexes) is an open end, stored as END_OF_TIME; any other NULL
    leaves a one-column key or an R-Tree period unindexed."""
    if kind == "rtree":
        ends = ends | {positions[1]}

    def part(position):
        if position in ends:
            return lambda row: END_OF_TIME if row[position] is None else row[position]
        return itemgetter(position)

    if kind == "rtree":
        begin, end = map(part, positions)

        def period(row):
            lo, hi = begin(row), end(row)
            return None if lo is None or hi is None else (lo, hi)

        return period
    if ends.isdisjoint(positions):
        # one position: the value (so a NULL is not indexed); several: a tuple
        return itemgetter(*positions)
    if len(positions) == 1:
        return part(positions[0])
    parts = [part(position) for position in positions]
    return lambda row: tuple(get(row) for get in parts)


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

        # System B: the (sys_begin, sys_end) of *current* rows live here,
        # not inline
        self._vp = self.options.vertical_partition_current and self.is_versioned
        self._vp_temporal: Dict[int, Tuple[int, int]] = {}
        #: System B's undo log: closed versions waiting for the drain
        self._undo: Optional[list] = [] if self.options.undo_log else None

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

    def insert_version(self, values, sys_begin=None) -> int:
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
        if self._vp:
            # physically strip temporal info from the current row
            stripped = list(row)
            stripped[self._sys_begin] = None
            stripped[self._sys_end] = None
            rid = part.store.append(stripped)
            self._vp_temporal[rid] = (sys_begin, END_OF_TIME)
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

    def invalidate(self, rid, sys_end):
        """Close the version at *rid* as of *sys_end* and archive it.

        A version closed at the tick it began (a second write to its key in
        the same transaction) holds at no system time, so it is dropped
        instead: removed from the current partition, its indexes and the
        key map, and archived nowhere."""
        if not self.is_versioned:
            raise InternalError(f"table {self.schema.name} is not versioned")
        name = self.current_partition_name()
        part = self._partitions[name]
        row = self.fetch(name, rid)
        if row is None:
            raise InternalError(f"no current version at rid {rid}")
        self.mutations += 1
        self.metrics.inc("storage.versions_invalidated")

        if self.schema.primary_key:
            self._pk_forget(row, rid)
        held = row[self._sys_begin] < sys_end
        if held:
            closed = list(row)
            closed[self._sys_end] = sys_end
            if not self._split:
                # System D: the closed version simply stays in the single table.
                part.store.update_in_place(rid, closed)
                self._index_update(part, rid, row, closed)
                return

        # remove from the current partition (and its indexes)
        self._index_remove(part, rid, row)
        part.store.delete(rid)
        self._vp_temporal.pop(rid, None)
        if not held:
            return
        if self._undo is not None:
            self._undo.append(closed)
            if len(self._undo) >= self.options.undo_drain_batch:
                self.drain_undo()
        else:
            self._move_to_history(closed)

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
        records, self._undo = self._undo, []
        if records:
            records.sort(key=itemgetter(self._sys_begin, self._sys_end))
            for closed_row in records:
                self._move_to_history(closed_row)
            self.metrics.inc("storage.undo_drains")
        return len(records)

    # -- reads ---------------------------------------------------------------
    #
    # One way per purpose: queries (and ANALYZE) read batches through
    # scan_partition_batches, maintenance and test oracles walk a partition
    # quietly, index, key and timeline probes read rows_for_rids, and the
    # write path fetches one rid.  System B's vertically partitioned current
    # rows get their system-time columns back through one merge, _merge_vp.

    def fetch(self, name, rid):
        """The row at *rid* in partition *name*, None if there is none; a
        point lookup in the VP side table puts back B's system-time
        columns, with no sort/merge (the write path's fetch)."""
        row = self._partitions[name].store.fetch(rid)
        times = self._vp_temporal.get(rid) if name == CURRENT else None
        if row is None or times is None:
            return row
        merged = list(row)
        merged[self._sys_begin], merged[self._sys_end] = times
        return merged

    def _merge_vp(self, pairs) -> Iterator[Tuple[int, tuple]]:
        """The ``(rid, row)`` *pairs* of B's current partition with their
        system-time columns from the side table.  Both sides are sorted
        (the optimizer does not know they are clustered), then merged on
        rid: the sort/merge join "with sorting on both sides" the paper
        observed (§5.3.1)."""
        temporal_side = sorted(self._vp_temporal.items())
        begin, end = self._sys_begin, self._sys_end
        ti, n = 0, len(temporal_side)
        for rid, row in sorted(pairs, key=itemgetter(0)):
            while ti < n and temporal_side[ti][0] < rid:
                ti += 1
            merged = list(row)
            if ti < n and temporal_side[ti][0] == rid:
                merged[begin], merged[end] = temporal_side[ti][1]
            yield rid, tuple(merged)

    def _count_vp_merge(self):
        self.vp_merge_joins += 1
        self.metrics.inc("storage.vp_merge_joins")

    def walk(self, name) -> Iterator[Tuple[int, tuple]]:
        """Every ``(rid, row)`` of partition *name* in rid order, B's
        system-time columns merged in.  Quiet: no counter moves and the
        undo log is not drained (its versions are in no partition yet), so
        maintenance, the system views and test oracles read state without
        changing it."""
        store = self.partition(name).store
        if name == CURRENT and self._vp:
            return self._merge_vp(store.scan())
        return store.scan()

    def scan_partition_batches(self, name, need_temporal=True, size=1024, *,
                               window: Optional[Window] = None, app_windows=(),
                               columns=None) -> Iterator[Batch]:
        """One partition's rows as batches, in rid order: the read of every
        query and of ANALYZE.  *window* is the system-time window (the store
        prunes pages by zone map), *app_windows* ``(begin_pos, end_pos,
        window)`` triples for any other period, *columns* the positions to
        hand over (a column-store table only); the defaults scan every row
        of every column (docs/EXECUTION.md, "Scan layer").  A history scan
        drains B's undo log first."""
        part = self.partition(name)
        if name == HISTORY:
            self.drain_undo()
        elif name == CURRENT and self._vp and need_temporal:
            # System B pays its sort/merge join and a per-row filter on
            # every scan: the side table has no pages to prune by
            tally = ScanTally()
            tally.pages_read = part.store.page_count
            tally.rows_read = len(part)
            self._account_scan(part, name, tally)
            self._count_vp_merge()
            rows = [row for _rid, row in self._merge_vp(part.store.scan())]
            if window is not None:
                app_windows = [(self._sys_begin, self._sys_end, window), *app_windows]
            rows = window_rows(rows, app_windows)
            if columns is not None:
                rows = list(map(projector(columns), rows))
            yield from batches_from_rows(rows, size)
            return
        tally = ScanTally()
        # only a column store narrows: a row store hands over its tuples
        narrow = {} if columns is None else {"columns": columns}
        try:
            yield from part.store.scan_batches(
                size, window=window, app_windows=app_windows, tally=tally, **narrow
            )
        finally:
            # also when the consumer stops early (timeout): count what was read
            self._account_scan(part, name, tally)

    def _account_scan(self, part, name, tally):
        access = part.access
        access.scans += 1
        access.rows_read += tally.rows_read
        access.pages_read += tally.pages_read
        access.pages_pruned += tally.pages_pruned
        if name == HISTORY:
            self.metrics.inc("storage.history_scans")
            self.metrics.inc("storage.history_rows_scanned", tally.rows_read)
        else:
            self.metrics.inc("storage.current_scans")
            self.metrics.inc("storage.current_rows_scanned", tally.rows_read)
        self.metrics.inc("storage.pages_scanned", tally.pages_read)
        self.metrics.inc("storage.pages_pruned", tally.pages_pruned)

    def scan_versions(self) -> Iterator[Tuple[str, int, tuple]]:
        """All versions as ``(partition, rid, row)``, the undo log drained
        first: the walk of every partition."""
        self.drain_undo()
        for name in self._partitions:
            for rid, row in self.walk(name):
                yield name, rid, row

    def rows_for_rids(self, name, rids, need_temporal=True) -> List[tuple]:
        """The live rows at *rids* in partition *name*, as tuples: the read
        behind PK, index and timeline probes.

        On B's vertically partitioned current partition, with
        *need_temporal*, this is NOT a cheap point lookup: the data rows
        are joined with the temporal side table, sorting both sides, in rid
        order — the behaviour the paper measured on System B even for
        index-assisted audit queries (§5.5.1).  Elsewhere it fetches each
        rid in the order given.
        """
        if name == CURRENT and self._vp and need_temporal:
            self._count_vp_merge()
            fetch = self._partitions[CURRENT].store.fetch
            pairs = [(rid, row) for rid in set(rids) if (row := fetch(rid)) is not None]
            return [row for _rid, row in self._merge_vp(pairs)]
        fetch = self.fetch
        return [tuple(row) for rid in rids if (row := fetch(name, rid)) is not None]

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
        schema = self.schema
        key_of = _key_function(
            index.kind, [schema.position(c) for c in index.columns],
            {schema.position(p.end_column) for p in schema.periods},
        )
        # drained before the build and registered after it, so a version
        # still in B's undo log is indexed once, by the drain
        if target == HISTORY:
            self.drain_undo()
        for rid, row in self.walk(target):
            key = key_of(row)
            if key is not None:
                structure.insert(key, rid)
        part.indexes[index.name] = (index, structure)
        part.keyed[index.name] = (key_of, structure)
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
        for key_of, structure in part.keyed.values():
            key = key_of(row)
            if key is not None:
                structure.insert(key, rid)

    def _index_remove(self, part, rid, row):
        for key_of, structure in part.keyed.values():
            if (key := key_of(row)) is not None:
                structure.remove(key, rid)

    def _index_update(self, part, rid, old_row, new_row):
        for key_of, structure in part.keyed.values():
            old_key, new_key = key_of(old_row), key_of(new_row)
            if old_key == new_key:
                continue
            if old_key is not None:
                structure.remove(old_key, rid)
            if new_key is not None:
                structure.insert(new_key, rid)

    # -- maintenance --------------------------------------------------------------

    def merge_column_store(self):
        """Force a delta/main merge on all column-store partitions."""
        for part in self._partitions.values():
            if isinstance(part.store, ColumnStore):
                part.store.merge()
