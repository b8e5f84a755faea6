"""VersionedTable tests: all four architecture layouts."""

import pytest

from repro.engine.catalog import Column, IndexDef, PeriodDef, TableSchema
from repro.engine.errors import CatalogError, InternalError
from repro.engine.storage.versioned import CURRENT, HISTORY, SINGLE, StorageOptions, VersionedTable
from repro.engine.types import END_OF_TIME, SqlType


def _schema():
    return TableSchema(
        "t",
        [
            Column("id", SqlType.INTEGER, nullable=False),
            Column("v", SqlType.VARCHAR),
            Column("sb", SqlType.TIMESTAMP),
            Column("se", SqlType.TIMESTAMP),
        ],
        primary_key=("id",),
        periods=[PeriodDef("system_time", "sb", "se", is_system=True)],
    )


def _row(key, value):
    return [key, value, None, None]


class TestSplitLayout:
    def test_insert_sets_system_time(self):
        table = VersionedTable(_schema(), StorageOptions())
        rid = table.insert_version(_row(1, "a"), sys_begin=5)
        row = table.fetch(CURRENT, rid)
        assert row[2] == 5 and row[3] == END_OF_TIME

    def test_invalidate_moves_to_history(self):
        table = VersionedTable(_schema(), StorageOptions())
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 7)
        assert table.current_count() == 0
        assert table.history_count() == 1
        history = list(table.scan_history())
        assert history[0][1][3] == 7  # closed sys_end

    def test_pk_map_tracks_current_only(self):
        table = VersionedTable(_schema(), StorageOptions())
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        assert table.current_rids_for_key((1,)) == [rid]
        table.invalidate(rid, 2)
        assert table.current_rids_for_key((1,)) == []

    def test_versioned_insert_requires_tick(self):
        table = VersionedTable(_schema(), StorageOptions())
        with pytest.raises(InternalError):
            table.insert_version(_row(1, "a"))

    def test_scan_versions_spans_partitions(self):
        table = VersionedTable(_schema(), StorageOptions())
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 2)
        table.insert_version(_row(1, "b"), sys_begin=2)
        parts = [part for part, _rid, _row in table.scan_versions()]
        assert sorted(parts) == [CURRENT, HISTORY]


class TestSingleTableLayout:
    def test_invalidate_stays_in_place(self):
        table = VersionedTable(_schema(), StorageOptions(split_history=False))
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 9)
        assert table.history_count() == 0
        assert len(table) == 1
        assert table.fetch(SINGLE, rid)[3] == 9

    def test_partition_names(self):
        table = VersionedTable(_schema(), StorageOptions(split_history=False))
        assert table.partition_names() == [SINGLE]
        assert table.current_partition_name() == SINGLE


class TestVerticalPartitioning:
    def _table(self):
        return VersionedTable(
            _schema(),
            StorageOptions(split_history=True, vertical_partition_current=True),
        )

    def test_current_store_has_no_temporal_data(self):
        table = self._table()
        rid = table.insert_version(_row(1, "a"), sys_begin=3)
        raw = table.partition(CURRENT).store.fetch(rid)
        assert raw[2] is None and raw[3] is None

    def test_scan_reconstructs_temporal_columns(self):
        table = self._table()
        table.insert_version(_row(1, "a"), sys_begin=3)
        rows = [row for _rid, row in table.scan_current(need_temporal=True)]
        assert rows[0][2] == 3 and rows[0][3] == END_OF_TIME
        assert table.stats.vp_merge_joins == 1

    def test_scan_without_temporal_skips_join(self):
        table = self._table()
        table.insert_version(_row(1, "a"), sys_begin=3)
        list(table.scan_current(need_temporal=False))
        assert table.stats.vp_merge_joins == 0

    def test_reconstruct_for_rids(self):
        table = self._table()
        rids = [table.insert_version(_row(i, "x"), sys_begin=i) for i in range(1, 6)]
        pairs = table.reconstruct_for_rids(rids[1:3])
        assert [row[2] for _rid, row in pairs] == [2, 3]

    def test_requires_split(self):
        with pytest.raises(CatalogError):
            StorageOptions(split_history=False, vertical_partition_current=True)


class TestUndoLog:
    def _table(self, batch=3):
        return VersionedTable(
            _schema(), StorageOptions(undo_log=True, undo_drain_batch=batch)
        )

    def test_invalidations_buffer_until_batch(self):
        table = self._table(batch=3)
        rids = [table.insert_version(_row(i, "x"), sys_begin=1) for i in range(5)]
        table.invalidate(rids[0], 2)
        table.invalidate(rids[1], 2)
        assert len(table.partition(HISTORY)) == 0
        table.invalidate(rids[2], 2)  # triggers the drain
        assert len(table.partition(HISTORY)) == 3
        assert table.stats.undo_drains == 1

    def test_history_scan_forces_drain(self):
        table = self._table(batch=100)
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 2)
        rows = list(table.scan_history())
        assert len(rows) == 1
        assert table.history_count() == 1

    def test_history_count_includes_pending(self):
        table = self._table(batch=100)
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 2)
        assert table.history_count() == 1


class TestSecondaryIndexes:
    def test_index_maintained_on_insert_and_invalidate(self):
        table = VersionedTable(_schema(), StorageOptions())
        structure = table.create_index(
            IndexDef("iv", "t", ("v",), kind="btree", partition="current")
        )
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        assert structure.search("a") == [rid]
        table.invalidate(rid, 2)
        assert structure.search("a") == []

    def test_history_index_built_from_existing_rows(self):
        table = VersionedTable(_schema(), StorageOptions())
        rid = table.insert_version(_row(1, "a"), sys_begin=1)
        table.invalidate(rid, 2)
        structure = table.create_index(
            IndexDef("ih", "t", ("sb",), kind="btree", partition="history")
        )
        assert len(structure) == 1

    def test_duplicate_index_rejected(self):
        table = VersionedTable(_schema(), StorageOptions())
        table.create_index(IndexDef("iv", "t", ("v",)))
        with pytest.raises(CatalogError):
            table.create_index(IndexDef("iv", "t", ("v",)))

    def test_drop_index(self):
        table = VersionedTable(_schema(), StorageOptions())
        table.create_index(IndexDef("iv", "t", ("v",)))
        assert table.drop_index("iv")
        assert not table.drop_index("iv")

    def test_rtree_index_on_period(self):
        table = VersionedTable(_schema(), StorageOptions())
        structure = table.create_index(
            IndexDef("ir", "t", ("sb", "se"), kind="rtree", partition="current")
        )
        rid = table.insert_version(_row(1, "a"), sys_begin=5)
        assert rid in structure.search_contains(6)


class TestColumnStoreTable:
    def test_column_layout_roundtrip(self):
        table = VersionedTable(
            _schema(), StorageOptions(store_kind="column", column_merge_threshold=2)
        )
        rids = [table.insert_version(_row(i, f"v{i}"), sys_begin=1) for i in range(5)]
        table.merge_column_store()
        for i, rid in enumerate(rids):
            assert table.fetch(CURRENT, rid)[1] == f"v{i}"

    def test_plain_update_nonversioned(self):
        schema = TableSchema(
            "p", [Column("id", SqlType.INTEGER), Column("v", SqlType.VARCHAR)],
            primary_key=("id",),
        )
        table = VersionedTable(schema, StorageOptions())
        rid = table.insert_version([1, "a"], sys_begin=None)
        table.plain_update(rid, [1, "b"])
        assert table.fetch(SINGLE, rid) == (1, "b")
        assert table.plain_delete(rid)
        assert table.fetch(SINGLE, rid) is None
