"""Access-path selection for a single table reference.

Given the temporal clauses on a table reference and the sargable conjuncts
of the WHERE clause, this module decides — per partition — between:

* a **sequential scan** with residual filtering,
* a **primary-key probe** (every archetype keeps a key → current-rids map),
* a **B-Tree probe/range scan** on a matching secondary index,
* an **R-Tree containment search** for period predicates (System D's GiST).

Selectivity is estimated *at run time* from the index's key range, because
parameter values only arrive then; this reproduces the paper's observation
that plans flip between scans and index use as selectivity changes
(§5.3.3), and that indexes "only work on very selective workloads" (§5.9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..batch import Batch, batch_size, batches_from_rows
from ..storage.versioned import CURRENT, HISTORY, SINGLE, VersionedTable
from ..types import END_OF_TIME

ValueFn = Callable[[object], object]  # fn(env) -> runtime constant


@dataclass
class ColumnConstraint:
    """One sargable predicate on a column, with runtime-evaluated bounds."""

    column: str
    op: str  # "=", "<", "<=", ">", ">=", "between"
    low: Optional[ValueFn] = None
    high: Optional[ValueFn] = None


@dataclass
class TemporalBounds:
    """Resolved temporal clause: which rows of a dimension are wanted."""

    begin_column: str
    end_column: str
    mode: str  # "as_of" | "overlap" | "all"
    low: Optional[ValueFn] = None
    high: Optional[ValueFn] = None  # exclusive upper bound for "overlap"

    def window(self, env):
        """The half-open ``[lo, hi)`` interval a matching row's period must
        overlap (``as_of t`` is ``[t, t+1)`` on integer ticks), or None when
        the bounds do not reduce to one (mode ``all``, NULL or non-integer
        points) and only the batch filter expresses them."""
        if self.mode == "as_of":
            tick = self.low(env)
            return (tick, tick + 1) if type(tick) is int else None
        if self.mode == "overlap":
            lo, hi = self.low(env), self.high(env)
            return None if lo is None or hi is None else (lo, hi)
        return None

    def row_filter(self, schema):
        """Per-row predicate for the row lists index probes and timeline
        snapshots return (scans use :meth:`batch_filter` or the window)."""
        begin_pos = schema.position(self.begin_column)
        end_pos = schema.position(self.end_column)
        if self.mode == "all":
            return None
        if self.mode == "as_of":
            low = self.low

            def as_of(row, env):
                tick = low(env)
                begin, end = row[begin_pos], row[end_pos]
                if begin is None:
                    return False
                return begin <= tick < (end if end is not None else END_OF_TIME)

            return as_of
        low, high = self.low, self.high

        def overlap(row, env):
            lo = low(env)
            hi = high(env)
            begin, end = row[begin_pos], row[end_pos]
            if begin is None:
                return False
            if end is None:
                end = END_OF_TIME
            return begin < hi and end > lo

        return overlap

    def batch_filter(self, schema):
        """Chunk-wise variant of :meth:`row_filter`: a selection mask
        (list of bools) over a whole batch, evaluating the bound once."""
        begin_pos = schema.position(self.begin_column)
        end_pos = schema.position(self.end_column)
        if self.mode == "all":
            return None
        if self.mode == "as_of":
            low = self.low

            def as_of(batch, env):
                tick = low(env)
                return [
                    begin is not None
                    and begin <= tick < (end if end is not None else END_OF_TIME)
                    for begin, end in zip(
                        batch.column(begin_pos), batch.column(end_pos)
                    )
                ]

            return as_of
        low, high = self.low, self.high

        def overlap(batch, env):
            lo = low(env)
            hi = high(env)
            return [
                begin is not None
                and begin < hi
                and (end if end is not None else END_OF_TIME) > lo
                for begin, end in zip(
                    batch.column(begin_pos), batch.column(end_pos)
                )
            ]

        return overlap


@dataclass
class AccessDecision:
    """The chosen strategy for one partition (for EXPLAIN)."""

    partition: str
    strategy: str  # "scan" | "pk-probe" | "index" | "rtree"
    index_name: Optional[str] = None
    detail: str = ""
    pages: Optional[tuple] = None  # scans: (pages read, pages pruned)


class TableAccessPlan:
    """Plans and executes access to one table across its partitions."""

    def __init__(
        self,
        table: VersionedTable,
        profile,
        partitions: List[str],
        temporal_filters: List[TemporalBounds],
        constraints: List[ColumnConstraint],
        need_temporal: bool,
    ):
        self.table = table
        self.profile = profile
        self.partitions = partitions
        self.temporal_filters = temporal_filters
        self.constraints = constraints
        self.need_temporal = need_temporal
        self.decisions: List[AccessDecision] = []
        self._row_filters = [
            f
            for f in (tb.row_filter(table.schema) for tb in temporal_filters)
            if f is not None
        ]
        # the system-time bounds go to storage as a scan window (applied
        # there exactly, with zone-map page pruning); the others stay
        # batch filters
        period = table.schema.system_period
        self._system_bounds = next(
            (
                tb for tb in temporal_filters
                if period is not None and tb.mode != "all"
                and tb.begin_column == period.begin_column
            ),
            None,
        )
        batch_filters = [
            (tb, tb.batch_filter(table.schema))
            for tb in temporal_filters if tb.mode != "all"
        ]
        self._batch_filters = [f for _tb, f in batch_filters]
        self._other_batch_filters = [
            f for tb, f in batch_filters if tb is not self._system_bounds
        ]
        self._pk_values = self._match_primary_key()

    # -- planning helpers ---------------------------------------------------

    def _match_primary_key(self) -> Optional[List[ValueFn]]:
        """Equality constraints covering the whole primary key, in order."""
        pk = self.table.schema.primary_key
        if not pk:
            return None
        equalities = {
            c.column: c.low for c in self.constraints if c.op == "=" and c.low
        }
        if all(col in equalities for col in pk):
            return [equalities[col] for col in pk]
        return None

    def _candidate_indexes(self, partition):
        if not self.profile.uses_indexes:
            return []
        name = SINGLE if partition == SINGLE else partition
        return list(self.table.indexes_on_partition(name).values())

    def _constraints_with_temporal(self) -> List[ColumnConstraint]:
        """Sargable constraints, including ones implied by temporal bounds.

        ``AS OF t`` implies ``begin <= t`` and ``end > t``; an index on the
        period's begin column can serve the first, which is exactly how the
        paper's *Time Index* setting (§5.1) helps point time travel.
        """
        out = list(self.constraints)
        for tb in self.temporal_filters:
            if tb.mode == "as_of":
                out.append(ColumnConstraint(tb.begin_column, "<=", high=tb.low))
                out.append(ColumnConstraint(tb.end_column, ">", low=tb.low))
            elif tb.mode == "overlap":
                out.append(ColumnConstraint(tb.begin_column, "<", high=tb.high))
                out.append(ColumnConstraint(tb.end_column, ">", low=tb.low))
        return out

    # -- execution ------------------------------------------------------------

    def batches(self, env) -> List[Batch]:
        """The table's matching rows, partition by partition.  Scans
        stream batches straight from storage with the temporal filters
        applied as a scan window or per-batch selection masks."""
        out: List[Batch] = []
        self.decisions = []
        for partition in self.partitions:
            out.extend(self._partition_batches(partition, env))
        return out

    def _partition_batches(self, partition, env) -> List[Batch]:
        table = self.table
        # 0. native temporal index (System E): a system-time AS OF resolves
        #    through the Timeline Index instead of scanning (checkpoint +
        #    bounded replay), when the table has one attached
        timeline = getattr(table, "timeline", None)
        if timeline is not None:
            snapshot = self._timeline_snapshot(timeline, partition, env)
            if snapshot is not None:
                self.decisions.append(
                    AccessDecision(partition, "timeline", detail="snapshot")
                )
                return batches_from_rows(snapshot)
        # 1. primary-key probe (current partition only: the map tracks
        #    current versions, mirroring the system-created current index)
        if (
            self._pk_values is not None
            and partition in (CURRENT, SINGLE)
            and table.schema.primary_key
        ):
            key = tuple(fn(env) for fn in self._pk_values)
            rids = table.current_rids_for_key(key)
            pairs = table.reconstruct_for_rids(rids) if self.need_temporal else [
                (rid, table.fetch(table.current_partition_name(), rid)) for rid in rids
            ]
            rows = [tuple(row) for _rid, row in pairs if row is not None]
            # System D's single table holds history interleaved: the PK map
            # only tracks open versions, so closed ones must come from a scan
            if partition == SINGLE and self._wants_closed_versions():
                return self._scan_batches(
                    partition, env, "pk map insufficient for closed versions"
                )
            self.decisions.append(AccessDecision(partition, "pk-probe"))
            return batches_from_rows(self._apply_filters(rows, env))
        # 2. secondary indexes
        chosen = self._choose_index(partition, env)
        if chosen is not None:
            index_def, rows = chosen
            self.decisions.append(
                AccessDecision(partition, index_def.kind if index_def.kind == "rtree" else "index", index_def.name)
            )
            return batches_from_rows(self._apply_filters(rows, env))
        # 3. fall back to a scan
        return self._scan_batches(partition, env)

    def _scan_batches(self, partition, env, detail="") -> List[Batch]:
        access = self.table.partition(partition).access
        read, pruned = access.pages_read, access.pages_pruned
        out = self._scan_filtered_batches(partition, env)
        pages = (access.pages_read - read, access.pages_pruned - pruned)
        self.decisions.append(
            AccessDecision(partition, "scan", detail=detail, pages=pages)
        )
        return out

    def _scan_filtered_batches(self, partition, env) -> List[Batch]:
        window = None
        batch_filters = self._batch_filters
        if self._system_bounds is not None:
            window = self._system_bounds.window(env)
            if window is not None:
                batch_filters = self._other_batch_filters
        source = self.table.scan_partition_batches(
            partition, need_temporal=self.need_temporal, size=batch_size(),
            window=window,
        )
        # the deadline is polled once per batch, not per row
        check = getattr(env, "check", None)
        out: List[Batch] = []
        for batch in source:
            if check is not None:
                check()
            for batch_filter in batch_filters:
                mask = batch_filter(batch, env)
                selected = [i for i, keep in enumerate(mask) if keep]
                if len(selected) != batch.length:
                    batch = batch.take(selected)
                if batch.length == 0:
                    break
            if batch.length:
                out.append(batch)
        return out

    def _timeline_snapshot(self, timeline, partition, env):
        """Rows visible at an AS OF tick, via the Timeline Index; None when
        the temporal filters are not a single system-time point."""
        schema = self.table.schema
        period = schema.system_period
        if period is None:
            return None
        sys_filter = None
        for tb in self.temporal_filters:
            if tb.begin_column == period.begin_column:
                sys_filter = tb
        if sys_filter is None or sys_filter.mode != "as_of":
            return None
        tick = sys_filter.low(env)
        rows = []
        for rid in timeline.snapshot_rids(tick):
            row = self.table.fetch(partition, rid)
            if row is not None:
                rows.append(tuple(row))
        # apply the remaining (application-time) filters
        for tb in self.temporal_filters:
            if tb is sys_filter:
                continue
            row_filter = tb.row_filter(schema)
            if row_filter is not None:
                rows = [row for row in rows if row_filter(row, env)]
        return rows

    def _wants_closed_versions(self) -> bool:
        """True if the temporal filters may match non-current versions."""
        if not self.table.is_versioned:
            return False
        if not self.temporal_filters:
            return False
        return True

    def _apply_filters(self, rows, env):
        for row_filter in self._row_filters:
            rows = [row for row in rows if row_filter(row, env)]
        return rows

    def _choose_index(self, partition, env):
        constraints = self._constraints_with_temporal()
        by_column: Dict[str, List[ColumnConstraint]] = {}
        for c in constraints:
            by_column.setdefault(c.column, []).append(c)
        if partition == HISTORY:
            # versions still in System B's undo log are in no history index
            # yet: flush them first, as a history scan would.  The drain
            # rebuilds the history indexes under new rids, so it has to come
            # before the candidates are looked up.
            self.table.drain_undo()
        partition_size = max(
            1,
            self.table.current_count()
            if partition in (CURRENT, SINGLE)
            else self.table.history_count(),
        )
        candidates = self._candidate_indexes(partition)
        best = None  # (est_rows, index_def, rid_list)
        for index_def, structure in candidates:
            result = self._try_index(
                index_def, structure, by_column, env, partition_size
            )
            if result is None:
                continue
            est, rids = result
            if best is None or est < best[0]:
                best = (est, index_def, rids)
        if best is None:
            return None
        est, index_def, rids = best
        if est / partition_size > self.profile.index_selectivity_threshold:
            return None  # not selective enough: the optimizer prefers a scan
        if partition in (CURRENT, SINGLE) and self.need_temporal:
            pairs = self.table.reconstruct_for_rids(rids)
        else:
            pairs = [(rid, self.table.fetch(partition, rid)) for rid in rids]
        rows = [tuple(row) for _rid, row in pairs if row is not None]
        return index_def, rows

    def _try_index(self, index_def, structure, by_column, env, partition_size):
        if index_def.kind == "rtree":
            return self._try_rtree(index_def, structure, by_column, env)
        if index_def.kind == "hash":
            eq = _equality_for(by_column, index_def.columns)
            if eq is None:
                return None
            values = [fn(env) for fn in eq]
            key = values[0] if len(values) == 1 else tuple(values)
            rids = structure.search(key)
            return (len(rids), rids)
        # btree: consume equality prefix, then at most one range column
        columns = index_def.columns
        eq_values = []
        for pos, column in enumerate(columns):
            value = _single_equality(by_column, column, env)
            if value is None:
                break
            eq_values.append(value)
        consumed = len(eq_values)
        if consumed == len(columns):
            key = eq_values[0] if len(columns) == 1 else tuple(eq_values)
            rids = structure.search(key)
            return (len(rids), rids)
        range_column = columns[consumed]
        bounds = _range_bounds(by_column, range_column, env)
        if bounds is None and consumed == 0:
            return None
        low, high, low_inc, high_inc = bounds if bounds else (None, None, True, True)
        if consumed:
            prefix = tuple(eq_values)
            scan_low = prefix + ((low,) if low is not None else ())
            scan_high = prefix + ((high,) if high is not None else ())
            if low is None:
                scan_low = prefix
                low_inc = True
            if high is None:
                # prefix upper bound: extend with +inf sentinel via key trick
                scan_high = prefix + (_PLUS_INF,)
                high_inc = True
            rids = [
                rid
                for key, rid in structure.range_scan(scan_low, scan_high, low_inc, high_inc)
                if tuple(key[: len(prefix)]) == prefix
            ]
            return (len(rids), rids)
        fraction = _estimate_range_fraction(structure, low, high)
        if fraction > self.profile.index_selectivity_threshold:
            # skip before materialising a huge rid list; outer code re-checks
            return None
        rids = [rid for _key, rid in structure.range_scan(low, high, low_inc, high_inc)]
        return (len(rids), rids)

    def _try_rtree(self, index_def, structure, by_column, env):
        begin_col, end_col = index_def.columns
        # containment: begin <= t and end > t
        point = None
        for c in by_column.get(begin_col, ()):
            if c.op in ("<=", "<") and c.high is not None:
                point = c.high(env)
        if point is None:
            return None
        has_end = any(
            c.op in (">", ">=") and c.low is not None
            for c in by_column.get(end_col, ())
        )
        if not has_end:
            return None
        rids = structure.search_contains(point)
        return (len(rids), rids)


class _PlusInfType:
    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_PLUS_INF = _PlusInfType()


def _single_equality(by_column, column, env):
    for c in by_column.get(column, ()):
        if c.op == "=" and c.low is not None:
            return c.low(env)
    return None


def _equality_for(by_column, columns):
    """Equality values for every column of a hash index, else None."""
    out = []
    for column in columns:
        found = None
        for c in by_column.get(column, ()):
            if c.op == "=" and c.low is not None:
                found = c.low
                break
        if found is None:
            return None
        out.append(found)
    return None if not out else [fn for fn in out]


def _range_bounds(by_column, column, env):
    low = high = None
    low_inc = high_inc = True
    found = False
    for c in by_column.get(column, ()):
        if c.op == "=":
            value = c.low(env)
            return (value, value, True, True)
        if c.op == "between":
            lo, hi = c.low(env), c.high(env)
            low = lo if low is None else max(low, lo)
            high = hi if high is None else min(high, hi)
            found = True
        elif c.op in (">", ">="):
            value = c.low(env)
            if low is None or value > low:
                low = value
                low_inc = c.op == ">="
            found = True
        elif c.op in ("<", "<="):
            value = c.high(env)
            if high is None or value < high:
                high = value
                high_inc = c.op == "<="
            found = True
    if not found:
        return None
    return (low, high, low_inc, high_inc)


def _estimate_range_fraction(structure, low, high):
    """Fraction of keys a [low, high] range selects, from the key domain."""
    min_key, max_key = structure.min_key(), structure.max_key()
    if min_key is None or max_key is None:
        return 0.0
    try:
        domain = max_key - min_key
    except TypeError:
        return 0.5  # non-numeric keys: assume moderate selectivity
    if domain <= 0:
        return 1.0
    lo = min_key if low is None else max(low, min_key)
    hi = max_key if high is None else min(high, max_key)
    try:
        selected = hi - lo
    except TypeError:
        return 0.5
    if selected < 0:
        return 0.0
    return min(1.0, selected / domain)
