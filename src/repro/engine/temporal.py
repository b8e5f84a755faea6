"""Bitemporal DML semantics: by-key versioning and sequenced updates.

Implements the SEQUENCED model of Snodgrass that the paper attributes to
DB2 (§2.3): *"deletes or updates may introduce additional rows when the
time interval of the update does not exactly correspond to the intervals of
the affected rows"*.

All functions operate on :class:`~repro.engine.storage.versioned.VersionedTable`
instances and a system-time tick supplied by the transaction manager; they
are shared by every system archetype, because the paper found that all
systems realise these semantics by rewriting into plain row operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .catalog import TableSchema
from .errors import DataError, IntegrityError
from .storage.versioned import VersionedTable
from .types import END_OF_TIME, Period


def app_period_of(schema: TableSchema, row, period_name) -> Period:
    """The application period *row* stores.  A NULL end is open, as reads
    treat it; a NULL begin has no place on the timeline (``DataError``)."""
    period = schema.period(period_name)
    begin = row[schema.position(period.begin_column)]
    end = row[schema.position(period.end_column)]
    if begin is None:
        raise DataError(
            f"{schema.name}: period {period_name} of key "
            f"{schema.key_of(row)} has a NULL begin"
        )
    return Period(begin, END_OF_TIME if end is None else end)


def _set_period(schema: TableSchema, row, period_name, period: Period):
    pdef = schema.period(period_name)
    row[schema.position(pdef.begin_column)] = period.begin
    end = schema.position(pdef.end_column)
    if row[end] is not None or not period.is_open:  # an open NULL end stays NULL
        row[end] = period.end


def current_versions_for_key(table: VersionedTable, key) -> List[Tuple[int, list]]:
    """(rid, row) of all currently visible versions of a primary key."""
    rids = table.current_rids_for_key(key)
    out = []
    part = table.current_partition_name()
    for rid in rids:
        row = table.fetch(part, rid)
        if row is not None:
            out.append((rid, row))
    return out


def check_app_overlap(
    table: VersionedTable, key, period_name, period: Period, ignore_rids=()
):
    """Raise IntegrityError if *period* overlaps an existing version of *key*.

    DB2-style ``BUSINESS_TIME WITHOUT OVERLAPS`` constraint (§2.3).
    """
    for rid, row in current_versions_for_key(table, key):
        if rid in ignore_rids:
            continue
        existing = app_period_of(table.schema, row, period_name)
        if existing.overlaps(period):
            raise IntegrityError(
                f"{table.schema.name}: application period {period} overlaps "
                f"{existing} for key {key}"
            )


def temporal_insert(
    table: VersionedTable,
    values: list,
    tick: int,
    enforce_overlap: Optional[str] = None,
    txn_meta=None,
) -> int:
    """Insert one new version, optionally enforcing app-time uniqueness."""
    if enforce_overlap is not None and table.schema.primary_key:
        key = table.schema.key_of(values)
        period = app_period_of(table.schema, values, enforce_overlap)
        check_app_overlap(table, key, enforce_overlap, period)
    return table.insert_version(values, sys_begin=tick, txn_meta=txn_meta)


def nontemporal_update(
    table: VersionedTable,
    key,
    changes: Dict[str, object],
    tick: int,
    txn_meta=None,
) -> int:
    """Update value columns of all current versions of *key*.

    Only system time advances: each affected version is invalidated and a
    successor with identical application time but new values is inserted.
    Returns the number of versions rewritten.
    """
    victims = current_versions_for_key(table, key)
    for rid, row in victims:
        new_row = table.schema.row_from(changes, row)  # checked before any write
        table.invalidate(rid, tick, txn_meta=txn_meta)
        table.insert_version(new_row, sys_begin=tick, txn_meta=txn_meta)
    return len(victims)


def sequenced_update(
    table: VersionedTable,
    key,
    changes: Dict[str, object],
    period_name: str,
    portion: Period,
    tick: int,
    txn_meta=None,
) -> int:
    """``UPDATE ... FOR PORTION OF <period> FROM .. TO ..`` for one key.

    Every current version overlapping *portion* is invalidated; the
    non-overlapping remainders are re-inserted unchanged and the overlap is
    re-inserted with the new values — so a single row can fan out into up to
    three successors.  Returns the number of affected versions.
    """
    schema = table.schema
    affected = 0
    for rid, row in current_versions_for_key(table, key):
        existing = app_period_of(schema, row, period_name)
        overlap = existing.intersect(portion)
        if overlap is None:
            continue
        affected += 1
        changed = schema.row_from(changes, row)  # checked before any write
        table.invalidate(rid, tick, txn_meta=txn_meta)
        for remainder in existing.subtract(portion):
            keep = list(row)
            _set_period(schema, keep, period_name, remainder)
            table.insert_version(keep, sys_begin=tick, txn_meta=txn_meta)
        _set_period(schema, changed, period_name, overlap)
        table.insert_version(changed, sys_begin=tick, txn_meta=txn_meta)
    return affected


def sequenced_delete(
    table: VersionedTable,
    key,
    period_name: str,
    portion: Period,
    tick: int,
    txn_meta=None,
) -> int:
    """``DELETE ... FOR PORTION OF`` — remainders survive, overlap dies."""
    schema = table.schema
    affected = 0
    for rid, row in current_versions_for_key(table, key):
        existing = app_period_of(schema, row, period_name)
        if existing.intersect(portion) is None:
            continue
        affected += 1
        table.invalidate(rid, tick, txn_meta=txn_meta)
        for remainder in existing.subtract(portion):
            keep = list(row)
            _set_period(schema, keep, period_name, remainder)
            table.insert_version(keep, sys_begin=tick, txn_meta=txn_meta)
    return affected


def temporal_delete(table: VersionedTable, key, tick: int, txn_meta=None) -> int:
    """Plain DELETE: close every current version of *key*."""
    victims = current_versions_for_key(table, key)
    for rid, _row in victims:
        table.delete_version(rid, tick, txn_meta=txn_meta)
    return len(victims)
