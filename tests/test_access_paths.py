"""Access-path selection: PK probes, index choice, partition pruning."""

from repro.engine import Database, IndexDef
from repro.engine.database import ArchitectureProfile
from repro.engine.storage.versioned import StorageOptions

DDL = (
    "CREATE TABLE item ("
    " id integer NOT NULL, grp integer, v decimal,"
    " ab date, ae date, sb timestamp, se timestamp,"
    " PRIMARY KEY (id),"
    " PERIOD FOR business_time (ab, ae),"
    " PERIOD FOR system_time (sb, se))"
)


def _make(profile=None, options=None, rows=300):
    db = Database(options=options, profile=profile)
    db.execute(DDL)
    with db.begin():
        for i in range(1, rows + 1):
            db.insert_row("item", {
                "id": i, "grp": i % 10, "v": float(i),
                "ab": 0, "ae": 1000,
            })
    return db


def _scan_count(db):
    return db.table("item").stats.current_scans


class TestPkProbe:
    def test_pk_equality_avoids_scan(self):
        db = _make()
        before = _scan_count(db)
        result = db.execute("SELECT v FROM item WHERE id = 17")
        assert result.rows == [(17.0,)]
        assert _scan_count(db) == before  # no table scan performed

    def test_nonkey_equality_scans_without_index(self):
        db = _make()
        before = _scan_count(db)
        db.execute("SELECT count(*) FROM item WHERE grp = 3")
        assert _scan_count(db) == before + 1


class TestSecondaryIndex:
    def test_selective_index_used(self):
        db = _make()
        db.create_index(IndexDef("ig", "item", ("grp",)))
        before = _scan_count(db)
        result = db.execute("SELECT count(*) FROM item WHERE grp = 3")
        assert result.scalar() == 30
        # 30/300 = 10% < 15% threshold: index used, no scan
        assert _scan_count(db) == before

    def test_unselective_range_falls_back_to_scan(self):
        db = _make()
        db.create_index(IndexDef("iv", "item", ("v",)))
        before = _scan_count(db)
        db.execute("SELECT count(*) FROM item WHERE v > 10.0")
        assert _scan_count(db) == before + 1

    def test_selective_range_uses_index(self):
        db = _make()
        db.create_index(IndexDef("iv", "item", ("v",)))
        before = _scan_count(db)
        result = db.execute("SELECT count(*) FROM item WHERE v <= 5.0")
        assert result.scalar() == 5
        assert _scan_count(db) == before

    def test_profile_can_disable_indexes(self):
        db = _make(profile=ArchitectureProfile(uses_indexes=False))
        db.create_index(IndexDef("ig", "item", ("grp",)))
        before = _scan_count(db)
        db.execute("SELECT count(*) FROM item WHERE grp = 3")
        assert _scan_count(db) == before + 1

    def test_index_results_match_scan_results(self):
        db = _make()
        scan_rows = sorted(db.execute("SELECT id FROM item WHERE grp = 7").rows)
        db.create_index(IndexDef("ig", "item", ("grp",)))
        index_rows = sorted(db.execute("SELECT id FROM item WHERE grp = 7").rows)
        assert scan_rows == index_rows


class TestPartitionSelection:
    def test_implicit_current_skips_history(self):
        db = _make(rows=50)
        db.execute("UPDATE item SET v = 0 WHERE id = 1")
        table = db.table("item")
        before = table.stats.history_scans
        db.execute("SELECT count(*) FROM item")
        assert table.stats.history_scans == before

    def test_explicit_as_of_unions_history(self):
        db = _make(rows=50)
        db.execute("UPDATE item SET v = 0 WHERE id = 1")
        table = db.table("item")
        before = table.stats.history_scans
        db.execute("SELECT count(*) FROM item FOR SYSTEM_TIME AS OF 1")
        assert table.stats.history_scans == before + 1

    def test_system_time_all_returns_every_version(self):
        db = _make(rows=10)
        db.execute("UPDATE item SET v = 0 WHERE id = 1")
        count = db.execute("SELECT count(*) FROM item FOR SYSTEM_TIME ALL").scalar()
        assert count == 11


class TestRtreeAccess:
    def test_rtree_serves_as_of(self):
        db = _make(
            profile=ArchitectureProfile(manual_system_time=True),
            options=StorageOptions(split_history=False),
            rows=100,
        )
        # close versions at varying ticks to give the rtree short intervals
        for i in range(1, 50):
            db.execute("UPDATE item SET v = v + 1 WHERE id = ?", [i])
        db.create_index(IndexDef(
            "irt", "item", ("sb", "se"), kind="rtree", partition="current"
        ))
        expected = db.execute(
            "SELECT count(*) FROM item FOR SYSTEM_TIME AS OF 1"
        ).scalar()
        assert expected == 100


class TestCorrelatedParameterProbes:
    def test_pk_probe_with_outer_reference(self):
        db = _make(rows=100)
        db.execute("CREATE TABLE probe (pid integer)")
        for i in (5, 10):
            db.execute("INSERT INTO probe (pid) VALUES (?)", [i])
        before = _scan_count(db)
        result = db.execute(
            "SELECT (SELECT v FROM item WHERE id = p.pid) FROM probe p ORDER BY p.pid"
        )
        assert result.rows == [(5.0,), (10.0,)]
        assert _scan_count(db) == before  # probes, not scans


class TestUndoLogHistoryProbe:
    """System B buffers closed versions in an undo log; an index probe on
    the history partition must see them, as a history scan does."""

    def _versions(self, name, early_key=None):
        from repro.systems import IndexSetting, apply_index_setting, make_system

        system = make_system(name)
        db = system.db
        db.execute(DDL)

        def insert(i):
            db.insert_row("item", {
                "id": i, "grp": i % 10, "v": float(i), "ab": 0, "ae": 1000,
            })

        if early_key is not None:
            # an older sys_begin than every other row: the drain's recluster
            # moves its closed versions to the front, renumbering all rids
            with db.begin():
                insert(early_key)
        with db.begin():
            for i in range(1, 201):
                if i != early_key:
                    insert(i)
        apply_index_setting(system, IndexSetting.KEY_TIME, ["item"])
        # enough history for the key index to be selective; the first 64
        # closed versions are drained, the rest stay in B's undo log
        for i in range(101, 201):
            db.execute("UPDATE item SET v = 0 WHERE id = ?", [i])
        for step in range(3):
            db.execute("UPDATE item SET v = ? WHERE id = 17", [float(step)])
        scans_before = db.table("item").stats.history_scans
        result = db.execute(
            "SELECT v, sb, se FROM item FOR SYSTEM_TIME ALL WHERE id = 17"
        )
        # the history index answered, not a scan (which would drain anyway)
        assert db.table("item").stats.history_scans == scans_before
        return sorted(result.rows)

    def test_key_lookup_sees_undo_log_versions(self):
        expected = self._versions("A")
        assert len(expected) == 4
        assert self._versions("B") == expected

    def test_probe_uses_the_indexes_rebuilt_by_the_drain(self):
        expected = self._versions("A", early_key=17)
        assert len(expected) == 4
        assert self._versions("B", early_key=17) == expected
