"""Catalog: tables, columns, periods, primary keys and index metadata.

The catalog is deliberately explicit about *temporal* structure because the
paper's systems differ exactly there: which columns form the system-time
period, which the application-time period(s), and whether those columns are
stored inline, vertically partitioned, or absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .errors import CatalogError
from .types import CHECKS, SqlType

#: What a period's columns may be: SQL:2011 asks for DATE or TIMESTAMP, and
#: both hold integers here (day numbers, ticks), so scans may read
#: ``AS OF t`` as the window ``[t, t + 1)`` (docs/EXECUTION.md, "Scan layer").
PERIOD_TYPES = (SqlType.DATE, SqlType.TIMESTAMP, SqlType.INTEGER)


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    type: SqlType
    nullable: bool = True

    def __str__(self):
        return f"{self.name} {self.type.value}"


@dataclass(frozen=True)
class PeriodDef:
    """A named period made of a begin and an end column.

    ``SYS_TIME`` is the system-time period; every other name is an
    application-time period (the benchmark schema has up to two, see
    ORDERS in Fig 1).
    """

    name: str
    begin_column: str
    end_column: str
    is_system: bool = False


@dataclass
class IndexDef:
    """Metadata describing one secondary index."""

    name: str
    table: str
    columns: Tuple[str, ...]
    kind: str = "btree"  # "btree" | "hash" | "rtree"
    #: which partition the index lives on: "current", "history" or "single"
    partition: str = "current"

    def __post_init__(self):
        if self.kind not in ("btree", "hash", "rtree"):
            raise CatalogError(f"unknown index kind {self.kind!r}")
        if self.kind == "rtree" and len(self.columns) != 2:
            raise CatalogError("an rtree index needs exactly (begin, end) columns")


@dataclass
class TableSchema:
    """Logical schema of one table, temporal structure included.

    Immutable once built, so what a write needs per column — its position
    and type check — and the primary-key extractor are bound here, once.
    """

    name: str
    columns: List[Column]
    primary_key: Tuple[str, ...] = ()
    periods: List[PeriodDef] = field(default_factory=list)

    def __post_init__(self):
        self.name = self.name.lower()
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column in table {self.name}")
        self._positions: Dict[str, int] = {c.name: i for i, c in enumerate(self.columns)}
        #: column -> (position, type check) for every written value
        self._writers = {
            c.name: (i, CHECKS[c.type]) for i, c in enumerate(self.columns)
        }
        for key in self.primary_key:
            if key not in self._positions:
                raise CatalogError(f"primary key column {key!r} not in {self.name}")
        # key_of(row): the primary-key tuple of a row tuple
        keys = [self._positions[k] for k in self.primary_key]
        if len(keys) == 1:
            (only,) = keys
            self.key_of = lambda row: (row[only],)
        else:  # itemgetter needs a position; a key-less table's key is ()
            self.key_of = itemgetter(*keys) if keys else (lambda row: ())
        for period in self.periods:
            for col in (period.begin_column, period.end_column):
                if col not in self._positions:
                    raise CatalogError(
                        f"period {period.name} references unknown column {col!r}"
                    )
                if self.columns[self._positions[col]].type not in PERIOD_TYPES:
                    raise CatalogError(
                        f"period {period.name} column {col!r} must be"
                        " date, timestamp or integer"
                    )
        # what the write path checks (engine/temporal.py): each application
        # period as (name, begin position, end position), the first one
        # being the key's WITHOUT OVERLAPS period, and the columns an UPDATE
        # must name before its successors need checking
        app = [p for p in self.periods if not p.is_system]
        self.app_bounds = tuple(
            (p.name, self._positions[p.begin_column], self._positions[p.end_column])
            for p in app
        )
        self.checked_columns = frozenset(self.primary_key).union(
            *((p.begin_column, p.end_column) for p in app)
        )

    # -- lookups ---------------------------------------------------------

    def position(self, column_name):
        """Ordinal of *column_name* in a row tuple."""
        try:
            return self._positions[column_name]
        except KeyError:
            raise CatalogError(f"no column {column_name!r} in table {self.name}") from None

    def has_column(self, column_name):
        return column_name in self._positions

    def column(self, column_name):
        return self.columns[self.position(column_name)]

    def column_names(self):
        return [c.name for c in self.columns]

    def row_from(self, values_by_column, base=None) -> list:
        """A row with each of *values_by_column* type-checked into its
        position; the other cells are NULL, or *base*'s values."""
        row = [None] * len(self.columns) if base is None else list(base)
        writers = self._writers
        try:
            for column, value in values_by_column.items():
                position, check = writers[column]
                row[position] = check(value)
        except KeyError:
            raise CatalogError(f"no column {column!r} in table {self.name}") from None
        return row

    @property
    def system_period(self) -> Optional[PeriodDef]:
        for period in self.periods:
            if period.is_system:
                return period
        return None

    @property
    def application_periods(self) -> List[PeriodDef]:
        return [p for p in self.periods if not p.is_system]

    def resolve_period(self, name) -> PeriodDef:
        """The period a temporal clause, a ``FOR PORTION OF`` or a
        ``TEMPORAL JOIN`` names: ``system_time`` is the system-time period,
        ``business_time`` the first application period, any other name a
        declared period."""
        if name == "system_time":
            found = self.system_period
        elif name == "business_time":
            found = next(iter(self.application_periods), None)
        else:
            found = next(
                (p for p in self.periods if p.name.lower() == name.lower()), None
            )
        if found is None:
            raise CatalogError(f"no period {name!r} on table {self.name}")
        return found

    @property
    def is_temporal(self):
        return bool(self.periods)

    def without_periods(self) -> "TableSchema":
        """A copy of this schema with all period columns and metadata removed.

        Used to build the *non-temporal baseline* tables of §5.4.
        """
        period_cols = set()
        for p in self.periods:
            period_cols.add(p.begin_column)
            period_cols.add(p.end_column)
        return TableSchema(
            name=self.name,
            columns=[c for c in self.columns if c.name not in period_cols],
            primary_key=tuple(k for k in self.primary_key if k not in period_cols),
            periods=[],
        )


class Catalog:
    """Registry of table schemas and index definitions for one database."""

    def __init__(self):
        self._tables: Dict[str, TableSchema] = {}
        self._indexes: Dict[str, IndexDef] = {}
        #: per-object DDL version counters; plans record the versions of the
        #: objects they reference, so the plan cache invalidates per name
        #: instead of clearing wholesale on any DDL
        self._versions: Dict[str, int] = {}
        #: per-table ANALYZE snapshots (repro.engine.stats.TableStats);
        #: validity is checked against _versions and the storage mutation
        #: marker by Database.stats_for, not here
        self._stats: Dict[str, object] = {}
        self.version: int = 0

    # -- versioning ------------------------------------------------------

    def bump(self, name: str):
        """Record a DDL change to the named object."""
        key = name.lower()
        self._versions[key] = self._versions.get(key, 0) + 1
        self.version += 1

    def version_of(self, name: str) -> int:
        return self._versions.get(name.lower(), 0)

    # -- statistics ------------------------------------------------------

    def set_stats(self, name: str, stats):
        """Store an ANALYZE snapshot for the named table."""
        self._stats[name.lower()] = stats

    def stats_of(self, name: str):
        """Raw snapshot lookup; staleness is the caller's concern."""
        return self._stats.get(name.lower())

    # -- tables ----------------------------------------------------------

    def add_table(self, schema: TableSchema):
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[schema.name] = schema
        self.bump(schema.name)
        return schema

    def drop_table(self, name):
        name = name.lower()
        if name not in self._tables:
            raise CatalogError(f"no table {name!r}")
        del self._tables[name]
        self._stats.pop(name, None)
        for index_name in [n for n, d in self._indexes.items() if d.table == name]:
            del self._indexes[index_name]
        self.bump(name)

    def table(self, name) -> TableSchema:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def has_table(self, name):
        return name.lower() in self._tables

    def tables(self):
        return list(self._tables.values())

    # -- indexes ---------------------------------------------------------

    def add_index(self, index: IndexDef):
        if index.name in self._indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        schema = self.table(index.table)
        for col in index.columns:
            if not schema.has_column(col):
                raise CatalogError(
                    f"index {index.name} references unknown column {col!r}"
                )
        self._indexes[index.name] = index
        # an index changes the table's access paths: invalidate its plans
        self.bump(index.table)
        return index

    def drop_index(self, name):
        if name not in self._indexes:
            raise CatalogError(f"no index {name!r}")
        table = self._indexes[name].table
        del self._indexes[name]
        self.bump(table)

    def indexes_on(self, table_name) -> List[IndexDef]:
        table_name = table_name.lower()
        return [d for d in self._indexes.values() if d.table == table_name]

    def indexes(self):
        return list(self._indexes.values())
