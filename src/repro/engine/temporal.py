"""Bitemporal DML semantics: by-key versioning and sequenced updates.

Implements the SEQUENCED model of Snodgrass that the paper attributes to
DB2 (§2.3): *"deletes or updates may introduce additional rows when the
time interval of the update does not exactly correspond to the intervals of
the affected rows"*.

Every write — SQL INSERT / UPDATE / DELETE and the row API the loader
uses — takes one path, shared by every system archetype because the paper
found that all systems realise these semantics by rewriting into plain row
operations.  It first computes its *write set* from the current versions of
the keys it touches: the ``(rid, row)`` versions to close (*victims*) and
the rows to add.  :func:`check` then refuses a write set that would store
an empty or inverted application period or break the temporal primary key,
and only then does :func:`apply` write it at one system-time tick.  A
statement computes and checks the write sets of all its keys before it
applies any, so it writes all or nothing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .catalog import TableSchema
from .errors import DataError, IntegrityError
from .storage.versioned import VersionedTable
from .types import END_OF_TIME, Period


def app_period_of(schema: TableSchema, row, period_name) -> Period:
    """The application period *row* stores.  A NULL end is open, as reads
    treat it; a NULL begin has no place on the timeline (``DataError``)."""
    period = schema.resolve_period(period_name)
    begin = row[schema.position(period.begin_column)]
    end = row[schema.position(period.end_column)]
    if begin is None:
        raise DataError(
            f"{schema.name}: period {period_name} of key "
            f"{schema.key_of(row)} has a NULL begin"
        )
    return Period(begin, END_OF_TIME if end is None else end)


def _set_period(schema: TableSchema, row, period_name, period: Period):
    pdef = schema.resolve_period(period_name)
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


def updated_rows(schema: TableSchema, versions, changes: Dict[str, object]) -> list:
    """The successors of a versioning UPDATE: every version with *changes*
    applied and its application time unchanged."""
    successors = []
    for _rid, row in versions:  # a loop, not a comprehension: one frame less
        successors.append(schema.row_from(changes, row))
    return successors


def sequenced_rows(schema: TableSchema, versions, period_name, portion: Period,
                   changes, victims: list, adds: list):
    """Add the write set of ``... FOR PORTION OF <period> FROM .. TO ..`` on
    one key's *versions* to *victims* and *adds*.

    Every version overlapping *portion* is closed and its non-overlapping
    remainders are re-added unchanged.  An UPDATE (*changes* given) also
    re-adds the overlap with the new values, so a single row can fan out
    into up to three successors; a DELETE (*changes* None) drops it.
    """
    for rid, row in versions:
        existing = app_period_of(schema, row, period_name)
        overlap = existing.intersect(portion)
        if overlap is None:
            continue
        victims.append((rid, row))
        for remainder in existing.subtract(portion):
            keep = list(row)
            _set_period(schema, keep, period_name, remainder)
            adds.append(keep)
        if changes is not None:
            changed = schema.row_from(changes, row)
            _set_period(schema, changed, period_name, overlap)
            adds.append(changed)


def check(table: VersionedTable, victims, adds, keyed=True):
    """Refuse a write set before any of it is applied.

    Every added row's application periods must have a begin before the end
    (a NULL end is open), or the write raises ``DataError``.  Unless
    *keyed* is False (a closed version on the bulk path is not current), the
    primary key is also the temporal key: once *victims* are closed and
    *adds* added, the current versions of one key must not overlap on the
    table's first application period (SQL:2011 ``WITHOUT OVERLAPS``, the
    period ``FOR PORTION OF business_time`` names), and a key of a table
    without one has at most one current row (``IntegrityError``).

    A write that only re-adds slices of the versions it closes cannot break
    either rule, so a sequenced write, or an UPDATE whose SET names no key
    or period column, skips this check.
    """
    schema = table.schema
    for row in adds:
        for name, begin, end in schema.app_bounds:
            low = row[begin]
            if low is None or (row[end] is not None and low >= row[end]):
                raise DataError(
                    f"{schema.name}: period {name} of key {schema.key_of(row)}"
                    f" is [{low}, {row[end]}): empty, inverted or without a begin"
                )
    if not keyed or not schema.primary_key:
        return
    if len(adds) == 1:
        # the common write: a new key, or one version replaced by one row
        live = table.live_rids(schema.key_of(adds[0]))
        if not live or (
            len(live) == 1 and len(victims) == 1 and live[0] == victims[0][0]
        ):
            return
    _check_keys(table, victims, adds)


def _check_keys(table: VersionedTable, victims, adds):
    """:func:`check`'s key rule where it needs the key's other current
    versions.  Kept apart from the common path: its comprehensions turn
    the variables they read into cells, which every call would build."""
    schema = table.schema
    key_of = schema.key_of
    closed = {rid for rid, _row in victims}
    by_key: Dict[tuple, list] = {}
    for row in adds:
        by_key.setdefault(key_of(row), []).append(row)
    part = table.current_partition_name()
    for key, rows in by_key.items():
        rows += [
            table.fetch(part, rid) for rid in table.live_rids(key) or ()
            if rid not in closed
        ]
        if len(rows) < 2:
            continue
        if not schema.app_bounds:
            raise IntegrityError(f"{schema.name}: key {key} already has a current row")
        # a current row passed this check or was cut from one that did (a
        # sequenced write's periods come from app_period_of), so its begin
        # is set
        name, begin_at, end_at = schema.app_bounds[0]
        periods = sorted(
            (row[begin_at], END_OF_TIME if row[end_at] is None else row[end_at])
            for row in rows
        )
        for (begin, end), (later, later_end) in zip(periods, periods[1:]):
            if later < end:
                raise IntegrityError(
                    f"{schema.name}: period {name} [{later}, {later_end}) overlaps"
                    f" [{begin}, {end}) for key {key}"
                )


def apply(table: VersionedTable, victims, adds, txns):
    """Write a checked write set at one system-time tick: close the victims,
    then add the rows.  The tick is the open transaction's, which can then
    no longer roll back, or that of an implicit transaction of its own; an
    empty write set takes no tick, and a table without system time needs
    none.  Returns the rid of the last row added.

    *txns* is the database's :class:`~repro.engine.txn.TransactionManager`.
    """
    if not victims and not adds:
        return None
    txn = txns.current()
    if txn is not None:
        txn.wrote = True
        tick = txn.tick
    elif table.is_versioned:
        with txns.begin():
            return apply(table, victims, adds, txns)
    else:
        tick = None  # no system time, no tick
    if table.is_versioned:
        for rid, _row in victims:
            table.invalidate(rid, tick)
    else:
        # without system time a successor overwrites its version in place
        for (rid, _row), row in zip(victims, adds):
            table.plain_update(rid, row)
        for rid, _row in victims[len(adds):]:
            table.plain_delete(rid)
        adds = adds[len(victims):]
    rid = None
    for row in adds:
        rid = table.insert_version(row, tick)
    return rid
