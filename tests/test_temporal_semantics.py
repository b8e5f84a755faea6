"""Bitemporal DML semantics: visibility, sequenced updates/deletes.

Includes property-based tests of the core invariant: at any (system time,
application time) point, at most one version of a key is visible, and the
visible value is the one written by the latest sequenced operation whose
portion covers the application point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, temporal
from repro.engine.catalog import Column, PeriodDef, TableSchema
from repro.engine.errors import IntegrityError
from repro.engine.storage.versioned import HISTORY, StorageOptions, VersionedTable
from repro.engine.txn import TransactionManager
from repro.engine.types import END_OF_TIME, Period, SqlType


def _schema():
    return TableSchema(
        "t",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("v", SqlType.INTEGER),
            Column("ab", SqlType.DATE),
            Column("ae", SqlType.DATE),
            Column("sb", SqlType.TIMESTAMP),
            Column("se", SqlType.TIMESTAMP),
        ],
        primary_key=("id",),
        periods=[
            PeriodDef("app", "ab", "ae"),
            PeriodDef("system_time", "sb", "se", is_system=True),
        ],
    )


def _table():
    return VersionedTable(_schema(), StorageOptions())


# one key's write, computed and applied the way the Database row API does
# it, in a transaction at the given tick


def _at(tick):
    return TransactionManager(start_tick=tick)


def _insert(table, key, value, ab, ae, tick):
    row = [key, value, ab, ae, None, None]
    temporal.check(table, (), [row])
    return temporal.apply(table, (), [row], _at(tick))


def sequenced_update(table, key, changes, period, portion, tick):
    victims, adds = [], []
    temporal.sequenced_rows(
        table.schema, temporal.current_versions_for_key(table, key),
        period, portion, changes, victims, adds,
    )
    temporal.apply(table, victims, adds, _at(tick))
    return len(victims)


def sequenced_delete(table, key, period, portion, tick):
    return sequenced_update(table, key, None, period, portion, tick)


def nontemporal_update(table, key, changes, tick):
    versions = temporal.current_versions_for_key(table, key)
    successors = temporal.updated_rows(table.schema, versions, changes)
    temporal.apply(table, versions, successors, _at(tick))
    return len(versions)


def temporal_delete(table, key, tick):
    versions = temporal.current_versions_for_key(table, key)
    temporal.apply(table, versions, (), _at(tick))
    return len(versions)


def _current(table):
    """The open versions: the split current partition holds nothing else,
    the single table keeps closed versions beside them."""
    return [
        row for _rid, row in table.walk(table.current_partition_name())
        if row[5] == END_OF_TIME
    ]


def _visible_at(table, tick):
    """Every stored version whose system period covers *tick*."""
    return [
        row for _part, _rid, row in table.scan_versions()
        if Period(row[4], row[5]).contains(tick)
    ]


class TestVisibility:
    def test_visible_at(self):
        table = _table()
        _insert(table, 1, 10, 0, 100, tick=5)
        row = next(iter(table.walk(table.current_partition_name())))[1]
        assert (row[4], row[5]) == (5, END_OF_TIME)
        assert [r[1] for r in _visible_at(table, 5)] == [10]
        assert [r[1] for r in _visible_at(table, 999)] == [10]
        assert _visible_at(table, 4) == []

    def test_snapshot_rows_implicit_current(self):
        table = _table()
        rid = _insert(table, 1, 10, 0, 100, tick=1)
        table.invalidate(rid, 3)
        _insert(table, 1, 20, 0, 100, tick=3)
        assert [r[1] for r in _current(table)] == [20]

    def test_snapshot_rows_past(self):
        table = _table()
        rid = _insert(table, 1, 10, 0, 100, tick=1)
        table.invalidate(rid, 3)
        _insert(table, 1, 20, 0, 100, tick=3)
        assert [r[1] for r in _visible_at(table, 2)] == [10]

    def test_snapshot_single_table_current(self):
        table = VersionedTable(_schema(), StorageOptions(split_history=False))
        rid = _insert(table, 1, 10, 0, 100, tick=1)
        table.invalidate(rid, 3)
        _insert(table, 1, 20, 0, 100, tick=3)
        assert [r[1] for r in _current(table)] == [20]


class TestSequencedUpdate:
    def test_middle_portion_splits_into_three(self):
        table = _table()
        _insert(table, 1, 10, 0, 100, tick=1)
        affected = sequenced_update(
            table, (1,), {"v": 99}, "app", Period(30, 60), tick=2
        )
        assert affected == 1
        rows = sorted(
            ((r[2], r[3], r[1]) for r in _current(table))
        )
        assert rows == [(0, 30, 10), (30, 60, 99), (60, 100, 10)]

    def test_covering_portion_replaces(self):
        table = _table()
        _insert(table, 1, 10, 20, 40, tick=1)
        sequenced_update(table, (1,), {"v": 99}, "app", Period(0, 100), tick=2)
        rows = [(r[2], r[3], r[1]) for r in _current(table)]
        assert rows == [(20, 40, 99)]

    def test_disjoint_portion_noop(self):
        table = _table()
        _insert(table, 1, 10, 0, 10, tick=1)
        affected = sequenced_update(
            table, (1,), {"v": 99}, "app", Period(50, 60), tick=2
        )
        assert affected == 0

    def test_old_version_archived_with_close_tick(self):
        table = _table()
        _insert(table, 1, 10, 0, 100, tick=1)
        sequenced_update(table, (1,), {"v": 99}, "app", Period(0, 50), tick=7)
        history = [row for _rid, row in table.walk(HISTORY)]
        assert len(history) == 1
        assert history[0][5] == 7  # sys_end


class TestSequencedDelete:
    def test_remainders_survive(self):
        table = _table()
        _insert(table, 1, 10, 0, 100, tick=1)
        affected = sequenced_delete(table, (1,), "app", Period(40, 60), tick=2)
        assert affected == 1
        rows = sorted((r[2], r[3]) for r in _current(table))
        assert rows == [(0, 40), (60, 100)]

    def test_full_cover_removes_key(self):
        table = _table()
        _insert(table, 1, 10, 0, 100, tick=1)
        sequenced_delete(table, (1,), "app", Period(0, 100), tick=2)
        assert list(_current(table)) == []
        # but the version is still in the history
        assert table.history_count() == 1


class TestNontemporalUpdate:
    def test_all_app_versions_rewritten(self):
        table = _table()
        _insert(table, 1, 10, 0, 50, tick=1)
        _insert(table, 1, 11, 50, 100, tick=1)
        affected = nontemporal_update(table, (1,), {"v": 7}, tick=2)
        assert affected == 2
        values = sorted(r[1] for r in _current(table))
        assert values == [7, 7]
        # app periods unchanged
        periods = sorted((r[2], r[3]) for r in _current(table))
        assert periods == [(0, 50), (50, 100)]


class TestDeleteAndAudit:
    def test_temporal_delete_archives_all(self):
        table = _table()
        _insert(table, 1, 10, 0, 50, tick=1)
        _insert(table, 1, 11, 50, 100, tick=1)
        assert temporal_delete(table, (1,), tick=5) == 2
        assert list(_current(table)) == []
        assert len(list(table.scan_versions())) == 2

    def test_key_history_ordered_by_sys_begin(self):
        table = _table()
        rid = _insert(table, 1, 10, 0, 100, tick=1)
        table.invalidate(rid, 4)
        _insert(table, 1, 20, 0, 100, tick=4)
        history = sorted(row for _part, _rid, row in table.scan_versions())
        assert [row[4] for row in history] == [1, 4]


class TestOverlapConstraint:
    """The primary key is the temporal key: SQL INSERT refuses a period
    that overlaps a current version of the same key."""

    @staticmethod
    def _db():
        db = Database()
        db.execute(
            "CREATE TABLE t (id integer NOT NULL, v integer, ab date, ae date,"
            " sb timestamp, se timestamp, PRIMARY KEY (id),"
            " PERIOD FOR app (ab, ae), PERIOD FOR system_time (sb, se))"
        )
        db.execute("INSERT INTO t (id, v, ab, ae) VALUES (1, 10, 0, 100)")
        return db

    def test_overlapping_insert_rejected(self):
        db = self._db()
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, v, ab, ae) VALUES (1, 11, 50, 150)")

    def test_adjacent_insert_allowed(self):
        db = self._db()
        db.execute("INSERT INTO t (id, v, ab, ae) VALUES (1, 11, 100, 200)")
        assert db.execute("SELECT count(*) FROM t").scalar() == 2


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------

operations = st.lists(
    st.tuples(
        st.integers(1, 3),            # key
        st.integers(0, 99),           # portion begin
        st.integers(1, 30),           # portion width
        st.integers(0, 1000),         # new value
    ),
    max_size=25,
)


@settings(max_examples=40, deadline=None)
@given(operations, st.integers(0, 129))
def test_property_no_overlapping_current_versions(ops, probe_day):
    """After any sequence of sequenced updates, the current application-time
    versions of a key never overlap, and their union is exactly the original
    insert period."""
    table = _table()
    for key in (1, 2, 3):
        _insert(table, key, 0, 0, 130, tick=1)
    tick = 2
    for key, begin, width, value in ops:
        sequenced_update(
            table, (key,), {"v": value}, "app", Period(begin, begin + width), tick
        )
        tick += 1
    for key in (1, 2, 3):
        rows = [
            row
            for row in _current(table)
            if row[0] == key
        ]
        periods = sorted((row[2], row[3]) for row in rows)
        # no overlaps, no gaps, full coverage of [0, 130)
        assert periods[0][0] == 0
        assert periods[-1][1] == 130
        for (b1, e1), (b2, e2) in zip(periods, periods[1:]):
            assert e1 == b2, periods
        # at most one version covers the probe day
        covering = [p for p in periods if p[0] <= probe_day < p[1]]
        assert len(covering) == 1


@settings(max_examples=40, deadline=None)
@given(operations)
def test_property_last_write_wins_at_app_point(ops):
    """The visible value at an application point equals the latest portion
    write covering it (model-checked against a simple day-array)."""
    table = _table()
    _insert(table, 1, 0, 0, 130, tick=1)
    model = [0] * 130
    tick = 2
    for _key, begin, width, value in ops:
        sequenced_update(
            table, (1,), {"v": value}, "app", Period(begin, begin + width), tick
        )
        for day in range(begin, min(begin + width, 130)):
            model[day] = value
        tick += 1
    rows = [row for row in _current(table) if row[0] == 1]
    for row in rows:
        for day in range(row[2], row[3]):
            assert model[day] == row[1], (day, row)


@settings(max_examples=30, deadline=None)
@given(operations)
def test_property_history_is_append_only(ops):
    """Versions never disappear: every operation only adds to the total
    version count (current + history)."""
    table = _table()
    _insert(table, 1, 0, 0, 130, tick=1)
    _insert(table, 2, 0, 0, 130, tick=1)
    previous_total = len(table)
    tick = 2
    for key, begin, width, value in ops:
        key = 1 + (key % 2)
        sequenced_update(
            table, (key,), {"v": value}, "app", Period(begin, begin + width), tick
        )
        assert len(table) >= previous_total
        previous_total = len(table)
        tick += 1
