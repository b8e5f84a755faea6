"""One checked write path, on every archetype.

A write is computed from the current versions it touches, checked, and
only then applied at one system-time tick, so it either stores all of its
versions or raises before storing any.  The primary key is the temporal key
(SQL:2011 ``WITHOUT OVERLAPS`` on the first application period), every
stored application period has a begin before its end, and a transaction
that has written cannot roll back.
"""

import pytest

from repro.engine import dbapi
from repro.engine.errors import DataError, IntegrityError, NotSupportedError
from repro.systems import make_system

SYSTEMS = "ABCDE"

DDL = (
    "CREATE TABLE t ("
    " id integer NOT NULL, v integer,"
    " bb date, be date, sb timestamp, se timestamp,"
    " PRIMARY KEY (id),"
    " PERIOD FOR business_time (bb, be),"
    " PERIOD FOR system_time (sb, se))"
)
VERSIONS = "SELECT count(*) FROM t FOR SYSTEM_TIME ALL"


def _database(name, keys=5):
    db = make_system(name).db
    db.execute(DDL)
    for key in range(1, keys + 1):
        db.execute("INSERT INTO t (id, v, bb, be) VALUES (?, 0, 0, 100)", [key])
    return db


def _stored(db):
    """Every stored version, and the tick the next transaction gets."""
    rows = db.execute(
        "SELECT id, v, bb, be, sb, se FROM t FOR SYSTEM_TIME ALL"
        " ORDER BY id, sb, bb"
    ).rows
    return rows, db.txns.clock


def _split_key_1(db):
    """Key 1 as two current slices, [0, 10) and [10, 100)."""
    db.execute(
        "UPDATE t FOR PORTION OF business_time FROM 0 TO 10 SET v = 1"
        " WHERE id = 1"
    )


REFUSED = [
    # a second current version of key 1 over [50, 100)
    ("INSERT INTO t (id, v, bb, be) VALUES (1, 1, 50, 150)", IntegrityError),
    # key 1's version onto the live key 2
    ("UPDATE t SET id = 2 WHERE id = 1", IntegrityError),
    # two rows of one statement overlapping each other
    ("INSERT INTO t (id, v, bb, be) VALUES (9, 1, 0, 10), (9, 2, 5, 20)",
     IntegrityError),
    # one end for both slices of key 1: [0, 200) and [10, 200) overlap
    ("UPDATE t SET be = 200 WHERE id = 1", IntegrityError),
    ("INSERT INTO t (id, v, bb, be) VALUES (9, 1, 50, 40)", DataError),
    ("INSERT INTO t (id, v, bb, be) VALUES (9, 1, 50, 50)", DataError),
    ("INSERT INTO t (id, v, bb, be) VALUES (9, 1, NULL, 50)", DataError),
    ("UPDATE t SET be = bb WHERE id = 3", DataError),
]


@pytest.mark.parametrize("name", SYSTEMS)
class TestChecks:
    @pytest.mark.parametrize("sql, error", REFUSED)
    def test_refused_write_stores_nothing(self, name, sql, error):
        db = _database(name)
        _split_key_1(db)
        before = _stored(db)
        with pytest.raises(error):
            db.execute(sql)
        assert _stored(db) == before

    @pytest.mark.parametrize("sql", [
        "INSERT INTO t (id, v, bb, be) VALUES (1, 1, 100, 200)",  # adjacent
        "INSERT INTO t (id, v, bb, be) VALUES (9, 1, 50, NULL)",  # open end
        "UPDATE t SET id = id + 1",  # every key moves on: checked as a whole
        "UPDATE t SET id = 9 WHERE id = 1",
        "UPDATE t SET be = 50 WHERE id = 2",
    ])
    def test_accepted_write(self, name, sql):
        db = _database(name)
        _split_key_1(db)
        assert db.execute(sql).rowcount > 0

    def test_key_without_application_period_is_unique(self, name):
        db = make_system(name).db
        db.execute(
            "CREATE TABLE s (id integer NOT NULL, v integer,"
            " sb timestamp, se timestamp, PRIMARY KEY (id),"
            " PERIOD FOR system_time (sb, se))"
        )
        db.execute("INSERT INTO s (id, v) VALUES (1, 0), (2, 0)")
        for sql in (
            "INSERT INTO s (id, v) VALUES (1, 1)",
            "UPDATE s SET id = 2 WHERE id = 1",
        ):
            with pytest.raises(IntegrityError):
                db.execute(sql)
        db.execute("DELETE FROM s WHERE id = 1")
        db.execute("INSERT INTO s (id, v) VALUES (1, 1)")
        assert db.execute("SELECT id, v FROM s ORDER BY id").rows == [(1, 1), (2, 0)]

    def test_table_without_system_time(self, name):
        db = make_system(name).db
        db.execute(
            "CREATE TABLE n (id integer NOT NULL, v integer, bb date, be date,"
            " PRIMARY KEY (id), PERIOD FOR business_time (bb, be))"
        )
        db.execute("INSERT INTO n (id, v, bb, be) VALUES (1, 0, 0, 100)")
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO n (id, v, bb, be) VALUES (1, 1, 50, 150)")
        db.execute(
            "UPDATE n FOR PORTION OF business_time FROM 10 TO 20 SET v = 5"
            " WHERE id = 1"
        )
        db.execute(
            "DELETE FROM n FOR PORTION OF business_time FROM 50 TO 60 WHERE id = 1"
        )
        assert db.execute("SELECT v, bb, be FROM n ORDER BY bb").rows == [
            (0, 0, 10), (5, 10, 20), (0, 20, 50), (0, 60, 100)
        ]
        assert db.now() == 0  # no system time, no tick

    def test_sequenced_update_over_a_stored_null_begin_writes_nothing(self, name):
        db = make_system(name).db
        db.execute(DDL)
        # INSERT refuses a NULL begin, so the rows go straight into storage
        with db.begin() as txn:
            for key in range(1, 6):
                db.table("t").insert_version(
                    [key, 0, None if key == 4 else 0, 100, None, None], txn.tick
                )
        with pytest.raises(DataError):
            db.execute(
                "UPDATE t FOR PORTION OF business_time FROM 10 TO 20 SET v = 2"
                " WHERE id >= 1"
            )
        assert db.execute(VERSIONS).scalar() == 5


@pytest.mark.parametrize("name", SYSTEMS)
class TestOneTickPerStatement:
    def test_update_of_five_keys(self, name):
        db = _database(name)
        before = db.now()
        assert db.execute("UPDATE t SET v = 2 WHERE id >= 1").rowcount == 5
        assert db.now() == before + 1
        assert db.execute("SELECT DISTINCT sb FROM t").rows == [(before + 1,)]

    def test_insert_select(self, name):
        db = _database(name)
        before = db.now()
        db.execute("INSERT INTO t (id, v, bb, be) SELECT id + 10, v, bb, be FROM t")
        assert db.now() == before + 1
        assert db.execute(
            "SELECT DISTINCT sb FROM t WHERE id > 10"
        ).rows == [(before + 1,)]

    def test_statement_in_a_transaction_takes_its_tick(self, name):
        db = _database(name)
        with db.begin() as txn:
            db.execute("UPDATE t SET v = 2 WHERE id >= 1")
            db.execute("INSERT INTO t (id, v, bb, be) VALUES (9, 0, 0, 10)")
        assert db.execute("SELECT DISTINCT sb FROM t WHERE v = 2 OR id = 9").rows == [
            (txn.tick,)
        ]


@pytest.mark.parametrize("name", SYSTEMS)
class TestRollback:
    def test_rollback_after_a_write_is_refused(self, name):
        db = _database(name)
        txn = db.begin()
        db.execute("UPDATE t SET v = 2 WHERE id = 1")
        with pytest.raises(NotSupportedError):
            txn.rollback()
        assert db.txns.current() is None
        assert db.execute("SELECT v FROM t WHERE id = 1").scalar() == 2
        with db.begin() as after:
            db.execute("UPDATE t SET v = 3 WHERE id = 1")
        assert after.tick == txn.tick + 1
        assert db.execute(
            "SELECT count(*) FROM t FOR SYSTEM_TIME ALL WHERE sb >= se"
        ).scalar() == 0

    def test_refused_statement_leaves_rollback_possible(self, name):
        db = _database(name)
        txn = db.begin()
        with pytest.raises(IntegrityError):
            db.execute("INSERT INTO t (id, v, bb, be) VALUES (1, 1, 0, 10)")
        txn.rollback()
        assert db.txns.clock == txn.tick

    def test_context_manager_chains_the_error(self, name):
        db = _database(name)
        with pytest.raises(NotSupportedError) as refused:
            with db.begin():
                db.execute("UPDATE t SET v = 2 WHERE id = 1")
                raise ValueError("boom")
        assert isinstance(refused.value.__cause__, ValueError)
        assert db.execute("SELECT v FROM t WHERE id = 1").scalar() == 2

    def test_dbapi(self, name):
        db = _database(name)
        conn = dbapi.connect(database=db)
        update = "UPDATE t SET v = v + 1 WHERE id = 1"
        conn.begin()
        conn.cursor().execute(update)
        with pytest.raises(NotSupportedError):
            conn.rollback()
        first = db.now()
        conn.begin()
        conn.cursor().execute(update)
        with pytest.raises(NotSupportedError):
            conn.close()
        assert db.now() == first + 1
        with pytest.raises(NotSupportedError) as refused:
            with dbapi.connect(database=db) as scoped:
                scoped.begin()
                scoped.cursor().execute(update)
                raise ValueError("boom")
        assert isinstance(refused.value.__cause__, ValueError)
        assert db.execute("SELECT v FROM t WHERE id = 1").scalar() == 3
        assert db.execute(
            "SELECT count(*) FROM t FOR SYSTEM_TIME ALL WHERE sb >= se"
        ).scalar() == 0
