"""Access-path selection for a single table reference.

Given the temporal clauses on a table reference and the sargable conjuncts
of the WHERE clause, this module decides — per partition — between:

* a **sequential scan** with residual filtering,
* a **primary-key probe** (every archetype keeps a key → current-rids map),
* a **B-Tree probe/range scan** on a matching secondary index,
* an **R-Tree containment search** for period predicates (System D's GiST),
* a **Timeline Index snapshot** for a system-time ``AS OF`` (System E).

Every partition kind tries them in one order: a NULL bound goes to the
scan (it reads no page); the PK probe runs only where open versions alone
can match (the split ``current`` partition, or ``single`` with no explicit
system-time clause); then the cheapest selective secondary index; then the
timeline; last, the scan.  So a key read on the single-table layouts (D, E) takes
the Key+Time index the way a split layout's does.

Selectivity is estimated *at run time* from the index's key range, because
parameter values only arrive then; this reproduces the paper's observation
that plans flip between scans and index use as selectivity changes
(§5.3.3), and that indexes "only work on very selective workloads" (§5.9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..batch import Batch, batch_size, batches_from_rows, projector
from ..storage.versioned import CURRENT, HISTORY, SINGLE, VersionedTable
from ..storage.zonemap import NOTHING, Window, window_rows
from ..types import END_OF_TIME

ValueFn = Callable[[object], object]  # fn(env) -> runtime constant

#: the fraction of a partition an index probe must select *below* for the
#: planner to prefer it to a scan (the paper: indexes "only work on very
#: selective workloads", §5.9)
INDEX_SELECTIVITY_THRESHOLD = 0.15


@dataclass
class ColumnConstraint:
    """One sargable predicate on a column, with runtime-evaluated bounds."""

    column: str
    op: str  # "=", "<", "<=", ">", ">=", "between"
    low: Optional[ValueFn] = None
    high: Optional[ValueFn] = None


@dataclass
class TemporalBounds:
    """One period's window as storage applies it, built from a clause's
    ``(low, high, high_inclusive)`` (``ast.TemporalClause.window``): the
    half-open ``[lo, hi)`` a matching version's period must overlap
    (``begin < hi and end > lo``, storage/zonemap.py), an inclusive high
    end moved up by :func:`after`.  ``AS OF t`` passes one function as
    both ends, so ``t`` is evaluated once."""

    begin_column: str
    end_column: str
    low: ValueFn
    high: ValueFn
    inclusive: bool

    @property
    def is_point(self) -> bool:
        """``AS OF``: one instant, which System E's timeline answers."""
        return self.high is self.low

    def window(self, env) -> Window:
        """``[lo, hi)``; a NULL bound makes the predicate UNKNOWN for every
        row: :data:`NOTHING`."""
        lo = self.low(env)
        hi = lo if self.is_point else self.high(env)
        if self.inclusive:
            hi = after(hi)
        return NOTHING if lo is None or hi is None else (lo, hi)


def after(tick):
    """The bound with ``begin < after(tick)`` exactly when ``begin <= tick``,
    for the integer values every period holds (``catalog.PERIOD_TYPES``):
    ``tick + 1`` for an integer tick, the next float above any other;
    NULL stays NULL."""
    if tick is None:
        return None
    return tick + 1 if type(tick) is int else math.nextafter(tick, math.inf)


@dataclass
class AccessDecision:
    """The chosen strategy for one partition (for EXPLAIN)."""

    partition: str
    strategy: str  # "scan" | "pk-probe" | "index" | "rtree" | "timeline"
    index_name: Optional[str] = None
    pages: Optional[tuple] = None  # scans: (pages read, pages pruned)
    cols: Optional[tuple] = None   # column-store scans: (decoded, width)


class TableAccessPlan:
    """Plans and executes access to one table across its partitions.

    Every temporal window is applied by storage exactly — the
    system-time one also prunes pages by zone map — and a column store
    decodes only *columns* (positions; None = all), which is then the
    layout of every batch this plan returns.  *constraints* hold the
    pushed conjuncts' and the windows' comparisons alike.
    """

    def __init__(
        self,
        table: VersionedTable,
        profile,
        partitions: List[str],
        temporal_filters: List[TemporalBounds],
        constraints: List[ColumnConstraint],
        need_temporal: bool,
        system_clause: bool,
        columns: Optional[Tuple[int, ...]] = None,
    ):
        self.table = table
        self.profile = profile
        self.partitions = partitions
        self.temporal_filters = temporal_filters
        self.constraints = constraints
        self.need_temporal = need_temporal
        #: an explicit system-time clause: closed versions may match
        self.system_clause = system_clause
        self.columns = columns
        self.decisions: List[AccessDecision] = []
        schema = table.schema
        period = schema.system_period
        bounds = [
            (schema.position(tb.begin_column), schema.position(tb.end_column), tb)
            for tb in temporal_filters
        ]
        # the system-time bounds go first: theirs is the window zone maps
        # prune by, the others are checked row by row
        system = None if period is None else schema.position(period.begin_column)
        bounds.sort(key=lambda b: b[0] != system)
        self._bounds = bounds
        self._zoned = bool(bounds) and bounds[0][0] == system
        self._project = None if columns is None else projector(columns)
        width = len(schema.columns)
        self._cols = None
        if table.options.store_kind == "column":
            self._cols = (width if columns is None else len(columns), width)
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
        return list(self.table.indexes_on_partition(partition).values())

    # -- execution ------------------------------------------------------------

    def batches(self, env) -> List[Batch]:
        """The table's matching rows, partition by partition, in the plan's
        layout.  Scans stream batches straight from storage, which applies
        the windows; index, PK-probe and timeline row lists are windowed
        and projected here."""
        out: List[Batch] = []
        self.decisions = []
        checks = [(begin, end, tb.window(env)) for begin, end, tb in self._bounds]
        for partition in self.partitions:
            out.extend(self._partition_batches(partition, env, checks))
        return out

    def _partition_batches(self, partition, env, checks) -> List[Batch]:
        table = self.table
        # 1. a NULL bound matches no row: the scan's window skips every page
        if any(window is NOTHING for *_pos, window in checks):
            return self._scan_batches(partition, env, checks)
        # 2. primary-key probe, only where open versions alone can match: the
        #    key map tracks current versions (the system-created current
        #    index), and the single table holds closed ones beside them,
        #    which only an explicit system-time clause asks for
        if self._pk_values is not None and (
            partition == CURRENT
            or (partition == SINGLE and not self.system_clause)
        ):
            key = tuple(fn(env) for fn in self._pk_values)
            rows = table.rows_for_rids(
                partition, table.current_rids_for_key(key), self.need_temporal
            )
            self.decisions.append(AccessDecision(partition, "pk-probe"))
            return self._finish(rows, checks)
        # 3. the cheapest selective secondary index
        chosen = self._choose_index(partition, env)
        if chosen is not None:
            index_def, rows = chosen
            self.decisions.append(
                AccessDecision(partition, index_def.kind if index_def.kind == "rtree" else "index", index_def.name)
            )
            return self._finish(rows, checks)
        # 4. native temporal index (System E): a system-time AS OF resolves
        #    through the Timeline Index instead of scanning (checkpoint +
        #    bounded replay), when the table has one attached
        timeline = getattr(table, "timeline", None)
        if timeline is not None:
            snapshot = self._timeline_snapshot(timeline, partition, env)
            if snapshot is not None:
                self.decisions.append(AccessDecision(partition, "timeline"))
                return self._finish(snapshot, checks[1:])  # [0]: the AS OF
        # 5. fall back to a scan
        return self._scan_batches(partition, env, checks)

    def _scan_batches(self, partition, env, checks) -> List[Batch]:
        access = self.table.partition(partition).access
        read, pruned = access.pages_read, access.pages_pruned
        zoned = self._zoned
        source = self.table.scan_partition_batches(
            partition, need_temporal=self.need_temporal, size=batch_size(),
            window=checks[0][2] if zoned else None,
            app_windows=checks[1:] if zoned else checks,
            columns=self.columns,
        )
        # the deadline is polled once per batch, not per row
        out: List[Batch] = []
        for batch in source:
            env.check()
            out.append(batch)
        pages = (access.pages_read - read, access.pages_pruned - pruned)
        self.decisions.append(
            AccessDecision(partition, "scan", pages=pages, cols=self._cols)
        )
        return out

    def _finish(self, rows, checks) -> List[Batch]:
        """A probe's full-width rows, windowed and in the plan's layout."""
        rows = window_rows(rows, checks)
        if self._project is not None:
            rows = list(map(self._project, rows))
        return batches_from_rows(rows)

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
        if sys_filter is None or not sys_filter.is_point:
            return None
        tick = sys_filter.low(env)
        if not tick < END_OF_TIME:
            return None  # no version is open after the sentinel (or at NaN)
        return self.table.rows_for_rids(
            partition, timeline.snapshot_rids(tick), self.need_temporal
        )

    def _choose_index(self, partition, env):
        candidates = self._candidate_indexes(partition)
        if not candidates:
            # no index to weigh: the scan-only path builds nothing.  On
            # history this also skips the undo drain below, which the scan
            # that follows performs anyway (scan_partition_batches)
            return None
        by_column: Dict[str, List[ColumnConstraint]] = {}
        for c in self.constraints:
            by_column.setdefault(c.column, []).append(c)
        if partition == HISTORY:
            # versions still in System B's undo log are in no history index
            # yet: flush them first, as a history scan would, so the probe
            # sees them (the drain appends and indexes them; no rid moves)
            self.table.drain_undo()
        partition_size = max(
            1,
            self.table.current_count()
            if partition in (CURRENT, SINGLE)
            else self.table.history_count(),
        )
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
        if est / partition_size > INDEX_SELECTIVITY_THRESHOLD:
            return None  # not selective enough: the optimizer prefers a scan
        return index_def, self.table.rows_for_rids(partition, rids, self.need_temporal)

    def _try_index(self, index_def, structure, by_column, env, partition_size):
        if index_def.kind == "rtree":
            return self._try_rtree(index_def, structure, by_column, env)
        if index_def.kind == "hash":
            values = [_single_equality(by_column, c, env) for c in index_def.columns]
            if None in values:
                return None
            rids = structure.search(values[0] if len(values) == 1 else tuple(values))
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
        if fraction > INDEX_SELECTIVITY_THRESHOLD:
            # skip before materialising a huge rid list; outer code re-checks
            return None
        rids = [rid for _key, rid in structure.range_scan(low, high, low_inc, high_inc)]
        return (len(rids), rids)

    def _try_rtree(self, index_def, structure, by_column, env):
        """The versions whose period overlaps what the constraints ask of
        it: ``begin <= h`` (``< h``) and ``end > l`` (``>= l``) search the
        tree for ``[l, after(h))`` (``[l, h)``), a superset for ``>=``
        that the filter above the scan trims."""
        begin_col, end_col = index_def.columns
        high = low = None
        for c in by_column.get(begin_col, ()):
            if c.op in ("<=", "<") and c.high is not None:
                high = c.high(env)
                if c.op == "<=":
                    high = after(high)
        for c in by_column.get(end_col, ()):
            if c.op in (">", ">=") and c.low is not None:
                low = c.low(env)
                if c.op == ">=" and low is not None:
                    low -= 1
        if high is None or low is None:
            return None
        rids = structure.search_overlap(low, high)
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
