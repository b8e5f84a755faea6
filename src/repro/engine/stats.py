"""Per-column statistics: the raw material of the cost model.

``ANALYZE [TABLE]`` (or :meth:`Database.analyze`) scans every partition of
a table and records, per column: non-null count, null count, number of
distinct values, min/max, and an equi-width histogram over numeric
domains.  Statistics are collected *per partition* because the paper's
systems split current and history storage (§5.2) and the two populations
differ exactly where it matters — a history partition's ``sys_end``
column spans closed intervals while the current partition's is pinned at
``END_OF_TIME`` — so temporal-predicate selectivities (AS OF, OVERLAPS)
only make sense partition by partition.

Statistics are stored in the catalog and invalidated the same way cached
plans are (PR 1): the ``ANALYZE`` run bumps the table's catalog version
(which also forces cached plans to replan with the new statistics), and
the snapshot records both that version and the table's mutation marker.
DDL moves the catalog version, DML moves the mutation marker; either
drift makes :meth:`Database.stats_for` report the snapshot as stale and
the planner falls back to the pre-statistics greedy heuristics — unless
``auto_analyze_threshold`` is armed and the marker drifted that far, in
which case ``stats_for`` takes a new snapshot for the statement being
planned.  Writes only ever move the marker; they never collect.

This module sits beside the storage layer: it imports nothing from
``engine/sql`` or ``engine/plan`` so the cost model (:mod:`.plan.cost`)
can consume its dataclasses without dragging the parser in.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from math import inf, isfinite
from typing import Dict, Optional, Sequence, Tuple

#: number of equi-width buckets collected for numeric columns
HISTOGRAM_BUCKETS = 16


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column within one partition."""

    count: int                  # non-null values observed
    nulls: int                  # NULL values observed
    ndv: int                    # number of distinct non-null values
    min_value: object = None
    max_value: object = None
    #: equi-width buckets ``(low, high, count)`` over numeric domains;
    #: empty when the column is non-numeric or constant
    histogram: Tuple[Tuple[float, float, int], ...] = ()

    @property
    def null_fraction(self) -> float:
        total = self.count + self.nulls
        return (self.nulls / total) if total else 0.0


@dataclass
class PartitionStats:
    """Row count plus per-column statistics of one storage partition."""

    partition: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)


@dataclass
class TableStats:
    """One ANALYZE snapshot of a table, all partitions included."""

    table: str
    partitions: Dict[str, PartitionStats] = field(default_factory=dict)
    #: catalog version of the table when the snapshot was taken
    catalog_version: int = 0
    #: storage mutation marker (inserts + invalidations + plain writes)
    mutation_marker: int = 0

    @property
    def row_count(self) -> int:
        return sum(p.row_count for p in self.partitions.values())

    def partition(self, name: str) -> Optional[PartitionStats]:
        return self.partitions.get(name)

    def column(self, partition: str, name: str) -> Optional[ColumnStats]:
        part = self.partitions.get(partition)
        return part.columns.get(name) if part is not None else None

    def merged_column(self, name: str) -> Optional[ColumnStats]:
        """Column statistics folded across partitions (for join NDV).

        NDV is approximated by the largest per-partition NDV — current and
        history versions of the same key overlap heavily, so summing would
        overcount badly; the max is the conservative under-count.
        """
        parts = [p.columns[name] for p in self.partitions.values() if name in p.columns]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        mins = [p.min_value for p in parts if p.min_value is not None]
        maxes = [p.max_value for p in parts if p.max_value is not None]
        try:
            low = min(mins) if mins else None
            high = max(maxes) if maxes else None
        except TypeError:
            low = high = None
        return ColumnStats(
            count=sum(p.count for p in parts),
            nulls=sum(p.nulls for p in parts),
            ndv=max(p.ndv for p in parts),
            min_value=low,
            max_value=high,
        )


def mutation_marker(table) -> int:
    """Monotone DML marker of a table: any write moves it forward."""
    stats = table.stats
    return stats.inserts + stats.invalidations + stats.plain_writes


def _column_stats(values: Sequence[object], buckets: int) -> ColumnStats:
    nulls = values.count(None)
    non_null = [v for v in values if v is not None] if nulls else values
    distinct = set(non_null)
    # NaN has no order and ±inf no bucket width: both count towards
    # count/ndv but stay out of min/max and the histogram
    ranked = non_null
    try:
        if not all(map(isfinite, distinct)):
            ranked = [v for v in non_null if isfinite(v)]
    except TypeError:
        pass  # not a numeric column: nothing to exclude
    low = high = None
    if ranked:
        try:
            low, high = min(ranked), max(ranked)
        except TypeError:
            pass  # mixed types: no order statistics
    histogram: Tuple[Tuple[float, float, int], ...] = ()
    numeric = (
        isinstance(low, (int, float))
        and isinstance(high, (int, float))
        and not isinstance(low, bool)
        and not isinstance(high, bool)
        and high > low
    )
    width = (high - low) / buckets if numeric else 0.0
    if 0.0 < width < inf:  # a denormal or overflowing range has no buckets

        def slot_of(value):
            return int((value - low) / width)

        # slot_of is monotone, so each bucket is a run of the sorted
        # values; the last bucket takes every slot >= buckets - 1
        ordered = sorted(ranked)
        edges = [0, *(bisect_left(ordered, slot, key=slot_of)
                      for slot in range(1, buckets)), len(ordered)]
        histogram = tuple(
            (low + i * width, low + (i + 1) * width, edges[i + 1] - edges[i])
            for i in range(buckets)
        )
    return ColumnStats(
        count=len(non_null),
        nulls=nulls,
        ndv=len(distinct),
        min_value=low,
        max_value=high,
        histogram=histogram,
    )


def collect_table_stats(table, buckets: int = HISTOGRAM_BUCKETS) -> TableStats:
    """Scan every partition of *table* and compute its statistics, one
    transposed column at a time."""
    schema = table.schema
    column_names = schema.column_names()
    out = TableStats(table=schema.name)
    for name in table.partition_names():
        rows = [row for _rid, row in table.scan_partition(name, need_temporal=True)]
        columns = zip(*rows) if rows else repeat((), len(column_names))
        part = PartitionStats(partition=name, row_count=len(rows))
        for column, values in zip(column_names, columns):
            part.columns[column] = _column_stats(values, buckets)
        out.partitions[name] = part
    return out
