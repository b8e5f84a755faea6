"""PEP 249 (DB-API 2.0) driver for the embedded engine.

The benchmark's calibration note asks for "easy data generation and query
driving via DB-API" — this module provides exactly that surface::

    import repro.engine.dbapi as dbapi

    conn = dbapi.connect(system="A")
    cur = conn.cursor()
    cur.execute("SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF ?", [42])
    print(cur.fetchone())

``connect`` accepts either a prebuilt :class:`~repro.engine.database.Database`
or a system archetype name ("A".."D"), in which case the corresponding
architecture from :mod:`repro.systems` is instantiated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .database import Database
from .errors import (  # noqa: F401 - re-exported per PEP 249
    DataError,
    DatabaseError,
    Error,
    IntegrityError,
    InterfaceError,
    InternalError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
    Warning,
)

apilevel = "2.0"
threadsafety = 1  # threads may share the module, not connections
paramstyle = "qmark"  # also accepts :named


class Cursor:
    """PEP 249 cursor over one Database."""

    arraysize = 1

    def __init__(self, connection: "Connection"):
        self._connection = connection
        self._result = None
        self._position = 0
        self.rowcount = -1
        self.description: Optional[List[Tuple]] = None
        self._closed = False

    # -- helpers ---------------------------------------------------------

    def _check_open(self):
        if self._closed or self._connection._closed:
            raise InterfaceError("cursor is closed")

    @property
    def connection(self):
        return self._connection

    # -- execution -------------------------------------------------------

    def execute(self, operation, parameters=None):
        self._check_open()
        result = self._connection._db.execute(
            operation, parameters, timeout_s=self._connection.timeout_s
        )
        self._result = result
        self._position = 0
        self.rowcount = result.rowcount
        if result.columns:
            self.description = [
                (name, None, None, None, None, None, None)
                for name in result.columns
            ]
        else:
            self.description = None
        return self

    def executemany(self, operation, seq_of_parameters: Sequence):
        self._check_open()
        total = 0
        for parameters in seq_of_parameters:
            result = self._connection._db.execute(operation, parameters)
            if result.rowcount > 0:
                total += result.rowcount
        self.rowcount = total
        self._result = None
        self.description = None
        return self

    # -- fetching ------------------------------------------------------------

    def fetchone(self):
        self._check_open()
        if self._result is None:
            raise ProgrammingError("no result set: call execute() first")
        if self._position >= len(self._result.rows):
            return None
        row = self._result.rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size=None):
        self._check_open()
        if self._result is None:
            raise ProgrammingError("no result set: call execute() first")
        size = size or self.arraysize
        rows = self._result.rows[self._position:self._position + size]
        self._position += len(rows)
        return list(rows)

    def fetchall(self):
        self._check_open()
        if self._result is None:
            raise ProgrammingError("no result set: call execute() first")
        rows = self._result.rows[self._position:]
        self._position = len(self._result.rows)
        return list(rows)

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- no-ops required by the spec ---------------------------------------------

    def setinputsizes(self, sizes):
        pass

    def setoutputsize(self, size, column=None):
        pass

    def close(self):
        self._closed = True
        self._result = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Connection:
    """PEP 249 connection wrapping one Database instance.

    The engine autocommits row operations with per-statement transactions;
    ``begin()`` opens an explicit transaction so several statements share
    one system-time tick (the loader's batching mode).
    """

    def __init__(self, db: Database):
        self._db = db
        self._closed = False
        self._txn = None
        #: per-connection statement timeout in seconds (None = no limit),
        #: enforced cooperatively by the executor
        self.timeout_s = None

    @property
    def database(self) -> Database:
        return self._db

    def lint(self, operation):
        """Static diagnostics for a SELECT without executing it."""
        if self._closed:
            raise InterfaceError("connection is closed")
        return self._db.lint(operation)

    def cache_stats(self):
        """Plan-cache counters of the underlying engine."""
        if self._closed:
            raise InterfaceError("connection is closed")
        return self._db.cache_stats()

    def cursor(self) -> Cursor:
        if self._closed:
            raise InterfaceError("connection is closed")
        return Cursor(self)

    def begin(self):
        if self._txn is not None and self._txn.is_active:
            raise OperationalError("transaction already in progress")
        self._txn = self._db.begin()
        return self._txn

    def commit(self):
        if self._closed:
            raise InterfaceError("connection is closed")
        if self._txn is not None and self._txn.is_active:
            self._txn.commit()
        self._txn = None

    def rollback(self):
        """Roll back the open transaction; one that has written cannot be
        (``NotSupportedError``, see :meth:`Transaction.rollback`)."""
        if self._closed:
            raise InterfaceError("connection is closed")
        self._end_transaction()

    def _end_transaction(self):
        txn, self._txn = self._txn, None
        if txn is not None and txn.is_active:
            txn.rollback()

    def close(self):
        self._closed = True
        self._end_transaction()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self.commit()
            else:
                try:
                    self.rollback()
                except NotSupportedError as refused:
                    raise refused from exc
        finally:
            self.close()
        return False


def connect(database: Optional[Database] = None, system: Optional[str] = None) -> Connection:
    """Open a connection to an embedded database.

    Exactly one of *database* (an existing instance) or *system* (an
    archetype name: "A", "B", "C" or "D") should be given; with neither, a
    generic database is created.
    """
    if database is not None and system is not None:
        raise InterfaceError("pass either a database or a system name, not both")
    if database is None:
        if system is not None:
            from ..systems import make_system

            database = make_system(system).db
        else:
            database = Database()
    return Connection(database)
