"""Access-path selection: PK probes, index choice, partition pruning."""

import pytest

from repro.core.loader import Loader
from repro.engine import Database, IndexDef
from repro.engine.database import ArchitectureProfile
from repro.engine.plan import access
from repro.engine.storage.versioned import StorageOptions
from repro.systems import IndexSetting, apply_index_setting, make_system

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


def _index_and_scan_reads(system, indexes, queries, strategy):
    """Each query's sorted rows with *indexes* (whose probe EXPLAIN ANALYZE
    names *strategy* where the profile uses indexes), then without them."""
    indexed = [sorted(system.execute(sql).rows) for sql in queries]
    if system.db.profile.uses_indexes:
        assert strategy in system.db.explain_analyze(queries[0])
    for index in indexes:
        system.execute(f"DROP INDEX {index}")
    return indexed, [sorted(system.execute(sql).rows) for sql in queries]


def _scan_count(db):
    return db.table("item").partition("current").access.scans


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

    def test_hash_index_needs_equality_on_every_column(self):
        db = _make()
        db.create_index(IndexDef("ih", "item", ("grp", "id"), kind="hash"))
        before = _scan_count(db)
        sql = "SELECT v FROM item WHERE grp = :g AND id = :i"
        assert db.execute(sql, {"g": 7, "i": 17}).rows == [(17.0,)]
        assert db.execute(sql, {"g": None, "i": 17}).rows == []
        assert _scan_count(db) == before  # both answered by the hash probe
        db.execute("SELECT v FROM item WHERE grp = 7")  # a prefix is no key
        assert _scan_count(db) == before + 1


class TestPartitionSelection:
    def test_implicit_current_skips_history(self):
        db = _make(rows=50)
        db.execute("UPDATE item SET v = 0 WHERE id = 1")
        history = db.table("item").partition("history").access
        before = history.scans
        db.execute("SELECT count(*) FROM item")
        assert history.scans == before

    def test_explicit_as_of_unions_history(self):
        db = _make(rows=50)
        db.execute("UPDATE item SET v = 0 WHERE id = 1")
        history = db.table("item").partition("history").access
        before = history.scans
        db.execute("SELECT count(*) FROM item FOR SYSTEM_TIME AS OF 1")
        assert history.scans == before + 1

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


class TestIndexesFollowWrites:
    """Indexes created before the writes read what a scan reads."""

    @pytest.mark.parametrize("name", "ABCDE")
    def test_index_read_equals_scan_read_after_writes(self, name, monkeypatch):
        # the index exists before the writes: on D and E an UPDATE closes
        # the old version in place, and the index must then find it under
        # its closed period only
        monkeypatch.setattr(access, "INDEX_SELECTIVITY_THRESHOLD", 1.0)
        system = make_system(name)
        system.execute(
            "CREATE TABLE t (id INTEGER NOT NULL, v INTEGER, sys_begin INTEGER,"
            " sys_end INTEGER, PERIOD FOR system_time (sys_begin, sys_end),"
            " PRIMARY KEY (id))"
        )
        split = system.db.table("t").has_split
        partitions = ("current", "history") if split else ("current",)
        for partition in partitions:
            system.execute(
                f"CREATE INDEX r_{partition} ON t (sys_begin, sys_end)"
                f" USING rtree ON {partition}"
            )
        for i in range(100):
            system.execute("INSERT INTO t (id, v) VALUES (?, ?)", [i, i])
        for v in range(5):
            system.execute("UPDATE t SET v = ? WHERE id = 0", [v])
        queries = [
            f"SELECT id, v FROM t FOR SYSTEM_TIME AS OF {tick}"
            for tick in (3, 50, 101, 103)
        ] + ["SELECT id, v FROM t", "SELECT id, v FROM t FOR SYSTEM_TIME ALL"]
        indexed, scanned = _index_and_scan_reads(
            system, [f"r_{p}" for p in partitions], queries, "rtree[r_"
        )
        assert indexed == scanned
        assert len(indexed[0]) == 3

    @pytest.mark.parametrize("name", "ABCDE")
    def test_btree_on_a_period_end_finds_open_versions(self, name, monkeypatch):
        monkeypatch.setattr(access, "INDEX_SELECTIVITY_THRESHOLD", 1.0)
        system = make_system(name)
        system.execute(
            "CREATE TABLE a (k INTEGER NOT NULL, b INTEGER, e INTEGER,"
            " PERIOD FOR p (b, e), PRIMARY KEY (k))"
        )
        system.execute("CREATE INDEX ae ON a (e)")
        for k in range(20):  # odd keys: an open (NULL) end
            end = None if k % 2 else k % 5 + 3
            system.execute("INSERT INTO a VALUES (?, ?, ?)", [k, k % 5, end])
        queries = [f"SELECT k FROM a FOR p AS OF {tick}" for tick in range(9)]
        indexed, scanned = _index_and_scan_reads(system, ["ae"], queries, "index[ae]")
        assert indexed == scanned
        assert len(indexed[8]) == 10


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

    def _load(self, name, early_key=None):
        system = make_system(name)
        db = system.db
        db.execute(DDL)

        def insert(i):
            db.insert_row("item", {
                "id": i, "grp": i % 10, "v": float(i), "ab": 0, "ae": 1000,
            })

        if early_key is not None:
            # an older sys_begin than every other row: a drain that sorted
            # all of history would move its closed versions to the front
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
        return db

    def _probe(self, db):
        history = db.table("item").partition("history").access
        scans_before = history.scans
        result = db.execute(
            "SELECT v, sb, se FROM item FOR SYSTEM_TIME ALL WHERE id = 17"
        )
        # the history index answered, not a scan (which would drain anyway)
        assert history.scans == scans_before
        return sorted(result.rows)

    def _versions(self, name, early_key=None):
        return self._probe(self._load(name, early_key))

    def test_key_lookup_sees_undo_log_versions(self):
        expected = self._versions("A")
        assert len(expected) == 4
        assert self._versions("B") == expected

    def test_history_rids_are_stable_across_drains(self):
        from repro.engine.storage.versioned import HISTORY

        expected = self._versions("A", early_key=17)
        assert len(expected) == 4
        db = self._load("B", early_key=17)
        assert self._probe(db) == expected
        table = db.table("item")
        before = dict(table.walk(HISTORY))
        drains = db.metrics.counter("storage.undo_drains")
        for i in range(101, 201):  # 100 more closed versions: a drain or more
            db.execute("UPDATE item SET v = 1 WHERE id = ?", [i])
        assert db.metrics.counter("storage.undo_drains") > drains
        for rid, row in before.items():
            assert table.fetch(HISTORY, rid) is row
        assert self._probe(db) == expected


class TestSingleTableKeyReads:
    """On the single-table layouts (D, E) a key read takes a key path under
    every temporal form, as the split layouts do: the PK probe when no
    system-time clause asks for closed versions, the Key+Time index when
    one does — no scan, no timeline replay for one key."""

    INDEX = "single: index[tune_customer_c_custkey_current_btree]"
    PK_PROBE = "single: pk-probe"
    SYSTEM = ["", "FOR SYSTEM_TIME AS OF :t", "FOR SYSTEM_TIME FROM :lo TO :hi",
              "FOR SYSTEM_TIME ALL"]
    FORMS = SYSTEM + [f"{clause} FOR BUSINESS_TIME FROM :blo TO :bhi" for clause in SYSTEM]

    @staticmethod
    def _load(name, tiny_workload, setting):
        system = make_system(name)
        Loader(system, tiny_workload).load()
        apply_index_setting(system, setting, ["customer"])
        return system.db

    @pytest.fixture(scope="class")
    def single(self, tiny_workload):
        return {
            (name, setting): self._load(name, tiny_workload, setting)
            for name in "DE" for setting in (IndexSetting.KEY_TIME, IndexSetting.NONE)
        }

    @staticmethod
    def _params(meta):
        return {
            "k": meta.hottest_customer, "t": meta.mid_tick(),
            "lo": meta.first_scenario_tick, "hi": meta.mid_tick(),
            "blo": meta.first_history_day, "bhi": meta.mid_day(),
        }

    @staticmethod
    def _sql(form):
        return f"SELECT * FROM customer {form} WHERE c_custkey = :k"

    @pytest.mark.parametrize("name", "DE")
    @pytest.mark.parametrize("form", FORMS)
    def test_key_read_takes_the_key_time_index(
        self, single, name, form, tiny_workload, loaded_system_a
    ):
        db = single[name, IndexSetting.KEY_TIME]
        params = self._params(tiny_workload.meta)
        probes = db.metrics.counter("index.pk_probes")
        plan = db.explain_analyze(self._sql(form), params)
        if "SYSTEM_TIME" in form:
            assert self.INDEX in plan and "scan pages=" not in plan, plan
            # a closed-version read on the single table runs no PK probe at all
            assert db.metrics.counter("index.pk_probes") == probes
        else:
            # an implicit-current read wants the open versions the key map holds
            assert self.PK_PROBE in plan and "scan pages=" not in plan, plan
            assert db.metrics.counter("index.pk_probes") == probes + 1
        expected = loaded_system_a.execute(self._sql(form), params).rows
        assert sorted(db.execute(self._sql(form), params).rows) == sorted(expected)
        if form == "FOR SYSTEM_TIME ALL":
            assert len(expected) > 1  # the windows decide between versions

    @pytest.mark.parametrize("form", FORMS)
    def test_without_the_index_d_scans_and_e_replays(self, single, form, tiny_workload):
        params = self._params(tiny_workload.meta)
        plan = single["D", IndexSetting.NONE].explain_analyze(self._sql(form), params)
        expected = "single: scan" if "SYSTEM_TIME" in form else self.PK_PROBE
        assert expected in plan, plan
        plan = single["E", IndexSetting.NONE].explain_analyze(self._sql(form), params)
        if "SYSTEM_TIME" in form:
            expected = "single: timeline" if "AS OF" in form else "single: scan"
        assert expected in plan, plan
