"""UPDATE / DELETE find their rows through the planner, on every archetype.

The row lookup of a DML statement is the implicit-current
``SELECT <pk> FROM t WHERE ...`` run like any SELECT: a timeout stops the
statement before it writes, and a key equality takes the PK probe instead
of scanning the table.  Sequenced DML treats a stored NULL period end as
open, as reads do, and rejects a NULL portion bound.
"""

import pytest

from repro.engine import dbapi
from repro.engine.errors import DataError, QueryTimeout
from repro.engine.types import END_OF_TIME
from repro.systems import make_system

SYSTEMS = "ABCDE"

DDL = (
    "CREATE TABLE w ("
    " id integer NOT NULL, v integer,"
    " ab date, ae date, sb timestamp, se timestamp,"
    " PRIMARY KEY (id),"
    " PERIOD FOR business_time (ab, ae),"
    " PERIOD FOR system_time (sb, se))"
)


def _database(name, rows=20, end=120):
    db = make_system(name).db
    db.execute(DDL)
    for key in range(rows):
        db.execute(
            "INSERT INTO w (id, v, ab, ae) VALUES (?, 0, 0, ?)", [key, end]
        )
    return db


def _versions(db):
    return db.execute("SELECT count(*) FROM w FOR SYSTEM_TIME ALL").scalar()


WRITES = [
    ("UPDATE w SET v = 1 WHERE id = ?", [3]),
    ("UPDATE w FOR PORTION OF business_time FROM 10 TO 20 SET v = 1"
     " WHERE id = ?", [3]),
    ("DELETE FROM w WHERE id = ?", [3]),
    ("DELETE FROM w FOR PORTION OF business_time FROM 10 TO 20"
     " WHERE id = ?", [3]),
    ("UPDATE w SET v = v + 1 WHERE v < 5", []),
    ("INSERT INTO w (id, v, ab, ae) SELECT id + 100, v, ab, ae FROM w", []),
]


class TestTimeout:
    @pytest.mark.parametrize("name", SYSTEMS)
    @pytest.mark.parametrize("sql, params", WRITES)
    def test_zero_timeout_raises_before_any_write(self, name, sql, params):
        db = _database(name)
        before = _versions(db)
        with pytest.raises(QueryTimeout):
            db.execute(sql, params, timeout_s=0)
        assert _versions(db) == before
        # without the timeout the same statement writes
        assert db.execute(sql, params).rowcount > 0

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_dbapi_connection_timeout(self, name):
        db = _database(name)
        before = _versions(db)
        conn = dbapi.connect(database=db)
        conn.timeout_s = 0
        cursor = conn.cursor()
        for sql, params in WRITES:
            with pytest.raises(QueryTimeout):
                cursor.execute(sql, params)
        assert _versions(db) == before


class TestKeyPath:
    """A key-equality lookup costs one PK probe and no scan: the statement
    probes the key map once more than the by-key work it then does."""

    @staticmethod
    def _counts(db, action):
        metrics = db.metrics
        probes = metrics.counter("index.pk_probes")
        scans = metrics.counter("storage.current_scans")
        action()
        return (
            metrics.counter("index.pk_probes") - probes,
            metrics.counter("storage.current_scans") - scans,
        )

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_key_update_probes_once(self, name):
        db = _database(name)
        # the statement fetches the key's versions once, for SET and write
        work, _ = self._counts(db, lambda: db.update_by_key("w", (4,), {"v": 1}))
        probes, scans = self._counts(
            db, lambda: db.execute("UPDATE w SET v = 2 WHERE id = ?", [3])
        )
        assert (probes, scans) == (work + 1, 0)

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_key_delete_probes_once(self, name):
        db = _database(name)
        work, _ = self._counts(db, lambda: db.delete_by_key("w", (4,)))
        probes, scans = self._counts(
            db, lambda: db.execute("DELETE FROM w WHERE id = ?", [3])
        )
        assert (probes, scans) == (work + 1, 0)


SEQUENCED = [
    ("UPDATE w FOR PORTION OF business_time FROM 10 TO 20 SET v = 1"
     " WHERE id = 1", []),
    ("DELETE FROM w FOR PORTION OF business_time FROM 40 TO 50"
     " WHERE id = 1", []),
    ("UPDATE w FOR PORTION OF business_time FROM 90 TO ? SET v = 2"
     " WHERE id = 1", [END_OF_TIME]),
    ("UPDATE w FOR PORTION OF business_time FROM 200 TO 300 SET v = 3"
     " WHERE id = 1", []),
    ("DELETE FROM w FOR PORTION OF business_time FROM 250 TO 280"
     " WHERE id = 1", []),
]


def _answers(db):
    """(id, v, ab, ae) at every (system tick, application day) point, a
    NULL end read as the open end it stands for."""
    answers = []
    for tick in range(1, db.now() + 1):
        for day in (0, 15, 45, 95, 250, 10**6):
            rows = db.execute(
                "SELECT id, v, ab, ae FROM w FOR SYSTEM_TIME AS OF :t"
                " FOR BUSINESS_TIME AS OF :d ORDER BY id, ab",
                {"t": tick, "d": day},
            ).rows
            answers.append(
                (tick, day, [(i, v, ab, END_OF_TIME if ae is None else ae)
                             for i, v, ab, ae in rows])
            )
    return answers


class TestNullPeriodEnds:
    @pytest.mark.parametrize("name", SYSTEMS)
    def test_null_end_is_open(self, name):
        null_end = _database(name, rows=3, end=None)
        open_end = _database(name, rows=3, end=END_OF_TIME)
        for sql, params in SEQUENCED:
            assert (
                null_end.execute(sql, params).rowcount
                == open_end.execute(sql, params).rowcount
            )
        assert _answers(null_end) == _answers(open_end)
        # the untouched open remainder keeps the NULL it was stored with
        assert null_end.execute(
            "SELECT ae FROM w WHERE id = 1 AND ab = 300"
        ).rows == [(None,)]

    @pytest.mark.parametrize("name", SYSTEMS)
    @pytest.mark.parametrize("sql, params", [
        ("UPDATE w FOR PORTION OF business_time FROM NULL TO 5 SET v = 1"
         " WHERE id = 1", []),
        ("UPDATE w FOR PORTION OF business_time FROM 5 TO ? SET v = 1"
         " WHERE id = 1", [None]),
        ("DELETE FROM w FOR PORTION OF business_time FROM NULL TO 5"
         " WHERE id = 1", []),
    ])
    def test_null_portion_bound_raises(self, name, sql, params):
        db = _database(name, rows=3)
        before = _versions(db)
        with pytest.raises(DataError):
            db.execute(sql, params)
        assert _versions(db) == before

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_stored_null_begin_raises(self, name):
        db = _database(name, rows=0)
        # INSERT refuses a NULL begin, so the row goes straight into storage
        with db.begin() as txn:
            db.table("w").insert_version([1, 0, None, 50, None, None], txn.tick)
        with pytest.raises(DataError):
            db.execute(
                "UPDATE w FOR PORTION OF business_time FROM 10 TO 20 SET v = 1"
                " WHERE id = 1"
            )
        assert _versions(db) == 1
