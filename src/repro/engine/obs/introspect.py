"""Storage introspection: engine internals as SQL-queryable system views.

The paper's headline finding is the cost asymmetry between current-partition
and history access (26×–73×, §5.3) — but a global metrics registry cannot
say *which* tables, partitions, indexes or version chains a workload
actually hammers.  This module assembles that per-object picture from the
cheap access counters the storage and index layers maintain
(:class:`~repro.engine.storage.versioned.AccessCounters`,
:class:`~repro.engine.index.counters.IndexAccessCounters`) and exposes it
as five relations, the ``pg_stat_*`` idiom:

* ``repro_stat_tables``     — per-table, per-partition size and scan split;
* ``repro_stat_indexes``    — per-index probe/range-scan/row accounting;
* ``repro_stat_history``    — version-chain depth histogram, live vs. dead
  versions, temporal extents per partition;
* ``repro_stat_statements`` — the PR 8 statement store, now queryable;
* ``repro_stat_metrics``    — the metrics registry itself.

The SQL layer resolves these names like tables (``Database.
system_view_columns`` / ``system_view_rows``) and lowers them to a
``VirtualScan`` operator, so filters, joins and EXPLAIN all compose.
Assembling a view reads engine state but never perturbs it: row iteration
goes through ``VersionedTable.walk``, which bumps no metrics or access
counters and drains no undo log.

``SYSTEM_VIEWS`` below is the one declaration of every view and column:
``tools/gen_docs.py`` renders the column tables of ``docs/OBSERVABILITY.md``
from it.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional, Tuple

from .metrics import HISTOGRAMS

#: reserved relation-name prefix; CREATE TABLE/VIEW reject it
SYSTEM_VIEW_PREFIX = "repro_stat_"

#: view name -> {column name -> description}.  Column order here *is* the
#: row layout produced by :func:`view_rows`; keep the two in lockstep.
SYSTEM_VIEWS: Dict[str, Dict[str, str]] = {
    "repro_stat_tables": {
        "table_name": "table the partition belongs to",
        "partition": "physical partition: current, history or single",
        "row_count": "row versions physically stored in the partition",
        "est_bytes": "estimated partition payload bytes (sampled row sizes x row count)",
        "scans": "full scans of this partition since database start",
        "rows_read": "live rows on the pages those scans read; zone-map-pruned pages excluded (cumulative)",
        "scan_share": "this partition's fraction of the table's scans (NULL before any scan)",
        "last_analyze": (
            "table catalog version at the last ANALYZE snapshot, manual or taken "
            "by the planner's demand-driven refresh (NULL if never analyzed)"
        ),
        "stats_stale": "1 if DDL/DML invalidated the snapshot, 0 if fresh, NULL if never analyzed",
    },
    "repro_stat_indexes": {
        "index_name": "index name as created (timeline indexes use <table>_timeline)",
        "table_name": "indexed table",
        "partition": "partition the structure lives on (timeline: all)",
        "kind": "structure kind: btree, hash, rtree or timeline",
        "columns": "indexed columns, comma separated",
        "entries": "entries currently stored in the structure",
        "probes": "point lookups against the structure",
        "range_scans": "range/interval scans and event-list sweeps",
        "rows_returned": "row ids handed back across probes and scans",
    },
    "repro_stat_history": {
        "table_name": "table the chains belong to",
        "partition": "partition the versions are stored in",
        "chain_depth": "versions per primary key (histogram bucket)",
        "chains": "number of keys with exactly chain_depth versions here",
        "versions": "row versions in this bucket (chains x chain_depth)",
        "live_versions": "versions still open (sys_end = END_OF_TIME)",
        "dead_versions": "versions closed by a later update/delete",
        "sys_time_min": "earliest sys_begin in the bucket (NULL if non-versioned)",
        "sys_time_max": "latest closed sys_end in the bucket (NULL if all open)",
        "app_time_min": "earliest application-time begin (NULL without app time)",
        "app_time_max": "latest application-time end (NULL without app time)",
    },
    "repro_stat_statements": {
        "fingerprint": "stable 12-hex-digit hash of the normalized statement",
        "query": "normalized statement text (literals collapsed to ?)",
        "calls": "number of executions (successful and aborted)",
        "time_total_s": "total wall seconds across all executions",
        "time_min_s": "fastest single execution (seconds)",
        "time_max_s": "slowest single execution (seconds)",
        "time_mean_s": "mean execution time (seconds)",
        "time_p50_s": (
            "streaming median over a bounded reservoir of recent samples "
            "(the metrics Histogram machinery)"
        ),
        "time_p95_s": "streaming 95th percentile over the retained reservoir",
        "rows": "total rows returned (SELECT) or affected (DML)",
        "rows_scanned": (
            "total rows produced by leaf operators (scans): actual scan "
            "effort, not output size"
        ),
        "batches": "total batches produced by all plan operators",
        "peak_ws_bytes": (
            "peak estimated working-set bytes of any single operator "
            "(Batch.estimated_bytes sampling)"
        ),
        "cache_hits": "executions answered by a cached plan",
        "cache_misses": "executions that parsed and planned from scratch",
        "cache_hit_ratio": "cache_hits / (cache_hits + cache_misses), null before any lookup",
        "diagnostics": (
            "cumulative analyzer findings attributed to this statement "
            "(recorded by the benchmark service, outside the timed region)"
        ),
        "timeouts": "executions aborted by deadline",
        "aborts": "executions aborted by any other error",
    },
    "repro_stat_metrics": {
        "name": "metric name as declared in the registry",
        "kind": "counter or histogram",
        "value": "counter value (NULL for histograms)",
        # obs_-prefixed so the columns stay selectable: bare count/sum/
        # min/max parse as aggregate calls, not identifiers
        "obs_count": "histogram observation count (NULL for counters)",
        "obs_sum": "histogram observation sum (NULL for counters)",
        "obs_min": "smallest observation (NULL for counters)",
        "obs_max": "largest observation (NULL for counters)",
        "mean": "mean observation (NULL for counters)",
        "p50": "streaming median over the reservoir (NULL for counters)",
        "p95": "streaming 95th percentile over the reservoir (NULL for counters)",
    },
}

#: rows sampled per partition when estimating ``est_bytes``
_BYTES_SAMPLE = 64


def is_system_view(name: str) -> bool:
    return name.lower() in SYSTEM_VIEWS


def view_columns(name: str) -> Optional[Tuple[str, ...]]:
    """Column tuple of a system view, or ``None`` for ordinary names."""
    spec = SYSTEM_VIEWS.get(name.lower())
    if spec is None:
        return None
    return tuple(spec)


def view_rows(db, name: str) -> List[tuple]:
    """Materialise one system view over *db* (a ``Database``).

    Raised KeyError means the caller failed to check :func:`is_system_view`.
    """
    return _ASSEMBLERS[name.lower()](db)


# ---------------------------------------------------------------------------
# row assemblers
# ---------------------------------------------------------------------------


def _row_bytes(row) -> int:
    total = sys.getsizeof(row)
    for value in row:
        total += sys.getsizeof(value)
    return total


def _estimate_partition_bytes(part) -> int:
    """Payload estimate: mean sampled row size x row count.  Sampling goes
    straight to the store so the estimate never moves the scan counters."""
    count = len(part)
    if not count:
        return 0
    sampled = 0
    sampled_bytes = 0
    for _rid, row in part.store.scan():
        sampled_bytes += _row_bytes(tuple(row))
        sampled += 1
        if sampled >= _BYTES_SAMPLE:
            break
    return int(sampled_bytes / sampled * count) if sampled else 0


def _stats_freshness(db, table) -> Tuple[Optional[int], Optional[int]]:
    """(last_analyze, stats_stale) for one table, without bumping the
    ``stats.*`` lookup counters the way ``Database.stats_for`` does."""
    from ..stats import is_fresh

    snapshot = db.catalog.stats_of(table.schema.name)
    if snapshot is None:
        return None, None
    return snapshot.catalog_version, (0 if is_fresh(snapshot, db.catalog, table) else 1)


def _stat_tables_rows(db) -> List[tuple]:
    out = []
    for table in db.tables():
        last_analyze, stale = _stats_freshness(db, table)
        parts = [table.partition(name) for name in table.partition_names()]
        total_scans = sum(p.access.scans for p in parts)
        for part in parts:
            share = (part.access.scans / total_scans) if total_scans else None
            out.append((
                table.schema.name,
                part.name,
                len(part),
                _estimate_partition_bytes(part),
                part.access.scans,
                part.access.rows_read,
                share,
                last_analyze,
                stale,
            ))
    return out


def _index_structures(db) -> Iterator[Tuple[str, str, str, str, str, object]]:
    """(index_name, table, partition, kind, columns, structure) for every
    index structure in the database, timeline indexes included."""
    for table in db.tables():
        for part_name in table.partition_names():
            part = table.partition(part_name)
            for index_name, (index, structure) in part.indexes.items():
                yield (
                    index_name,
                    table.schema.name,
                    part_name,
                    index.kind,
                    ",".join(index.columns),
                    structure,
                )
        timeline = getattr(table, "timeline", None)
        if timeline is not None:
            period = table.schema.system_period
            columns = (
                f"{period.begin_column},{period.end_column}" if period else ""
            )
            yield (
                f"{table.schema.name}_timeline",
                table.schema.name,
                "all",
                "timeline",
                columns,
                timeline,
            )


def _stat_indexes_rows(db) -> List[tuple]:
    out = []
    for name, table, partition, kind, columns, structure in _index_structures(db):
        access = structure.access
        out.append((
            name,
            table,
            partition,
            kind,
            columns,
            len(structure),
            access.probes,
            access.range_scans,
            access.rows_returned,
        ))
    return out


def _stat_history_rows(db) -> List[tuple]:
    from ..types import END_OF_TIME

    out = []
    for table in db.tables():
        schema = table.schema
        sys_period = schema.system_period
        app_periods = schema.application_periods
        app_period = app_periods[0] if app_periods else None
        sys_pos = (
            (schema.position(sys_period.begin_column),
             schema.position(sys_period.end_column))
            if sys_period else None
        )
        app_pos = (
            (schema.position(app_period.begin_column),
             schema.position(app_period.end_column))
            if app_period else None
        )
        for part_name in table.partition_names():
            chains: Dict[tuple, List[tuple]] = {}
            for _rid, row in table.walk(part_name):
                chains.setdefault(schema.key_of(row), []).append(tuple(row))
            buckets: Dict[int, List[tuple]] = {}
            for versions in chains.values():
                buckets.setdefault(len(versions), []).append(versions)
            for depth in sorted(buckets):
                grouped = buckets[depth]
                rows = [row for versions in grouped for row in versions]
                live = dead = 0
                sys_min = sys_max = None
                app_min = app_max = None
                if sys_pos is not None:
                    begins = [row[sys_pos[0]] for row in rows]
                    closed = [
                        row[sys_pos[1]] for row in rows
                        if row[sys_pos[1]] < END_OF_TIME
                    ]
                    live = len(rows) - len(closed)
                    dead = len(closed)
                    sys_min = min(begins) if begins else None
                    sys_max = max(closed) if closed else None
                else:
                    live = len(rows)
                if app_pos is not None:
                    app_min = min(row[app_pos[0]] for row in rows)
                    app_max = max(row[app_pos[1]] for row in rows)
                out.append((
                    schema.name,
                    part_name,
                    depth,
                    len(grouped),
                    len(rows),
                    live,
                    dead,
                    sys_min,
                    sys_max,
                    app_min,
                    app_max,
                ))
    return out


def _stat_statements_rows(db) -> List[tuple]:
    columns = view_columns("repro_stat_statements")
    return [
        tuple(entry[column] for column in columns)
        for entry in db.telemetry.snapshot()
    ]


def _stat_metrics_rows(db) -> List[tuple]:
    out = []
    for name, value in db.metrics.counters().items():
        out.append((name, "counter", value, None, None, None, None, None, None, None))
    for name in HISTOGRAMS:
        hist = db.metrics.histogram(name)
        mean = hist.total / hist.count if hist.count else None
        out.append((
            name,
            "histogram",
            None,
            hist.count,
            hist.total,
            hist.min,
            hist.max,
            mean,
            hist.percentile(50),
            hist.percentile(95),
        ))
    return out


_ASSEMBLERS = {
    "repro_stat_tables": _stat_tables_rows,
    "repro_stat_indexes": _stat_indexes_rows,
    "repro_stat_history": _stat_history_rows,
    "repro_stat_statements": _stat_statements_rows,
    "repro_stat_metrics": _stat_metrics_rows,
}


__all__ = [
    "SYSTEM_VIEWS",
    "SYSTEM_VIEW_PREFIX",
    "is_system_view",
    "view_columns",
    "view_rows",
]
