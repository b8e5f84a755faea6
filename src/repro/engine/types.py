"""Value domains, SQL types and bitemporal periods.

Conventions (see DESIGN.md §6):

* **System time** is an integer *tick*.  The transaction manager assigns one
  tick per committed transaction, so ticks totally order the history exactly
  as commit timestamps do in the paper's systems.
* **Application time** is an integer day number (days since 1992-01-01, the
  start of the TPC-H date range), which keeps date arithmetic exact and
  cheap.  :func:`date_to_day` / :func:`day_to_date` convert to ISO dates.
* Periods are half-open intervals ``[begin, end)``; a row that is currently
  visible carries ``end == END_OF_TIME``.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from enum import Enum

from .errors import DataError

#: Sentinel for "until changed" / "forever"; fits comfortably in an int64.
END_OF_TIME = 2 ** 62

#: The TPC-H calendar starts at 1992-01-01 (day 0 of application time).
EPOCH_DATE = datetime.date(1992, 1, 1)


class SqlType(Enum):
    """The value domains supported by the engine."""

    INTEGER = "integer"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    DATE = "date"
    TIMESTAMP = "timestamp"
    BOOLEAN = "boolean"

    def validate(self, value):
        """Return *value* coerced into this domain, or raise DataError."""
        return CHECKS[self](value)


def _check_for(sql_type, exact, accepted, expected, convert=None):
    """The value check of one type: NULL and a value of exactly type *exact*
    pass untouched; any other *accepted* value but a stray ``bool`` is
    *convert*-ed; the rest is a DataError."""
    prefix = f"expected {expected} for {sql_type.value}, got "

    def check(value):
        if type(value) is exact or value is None:
            return value
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and exact is not bool
        ):
            raise DataError(prefix + repr(value))
        return value if convert is None else convert(value)

    return check


#: one value check per type, the single definition of its domain: a
#: TableSchema binds them per column for its writes, validate looks them up
CHECKS = {
    SqlType.INTEGER: _check_for(SqlType.INTEGER, int, int, "int"),
    SqlType.DECIMAL: _check_for(SqlType.DECIMAL, float, (int, float), "number", float),
    SqlType.VARCHAR: _check_for(SqlType.VARCHAR, str, str, "str"),
    SqlType.DATE: _check_for(SqlType.DATE, int, int, "int"),
    SqlType.TIMESTAMP: _check_for(SqlType.TIMESTAMP, int, int, "int"),
    SqlType.BOOLEAN: _check_for(SqlType.BOOLEAN, bool, bool, "bool"),
}


def date_to_day(value):
    """Convert a ``datetime.date`` or ISO string to an application-time day."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    if not isinstance(value, datetime.date):
        raise DataError(f"not a date: {value!r}")
    return (value - EPOCH_DATE).days


def day_to_date(day):
    """Convert an application-time day number back to a ``datetime.date``."""
    if day >= END_OF_TIME:
        raise DataError("END_OF_TIME has no calendar representation")
    return EPOCH_DATE + datetime.timedelta(days=day)


@dataclass(frozen=True)
class Period:
    """A half-open time interval ``[begin, end)``.

    Used both for system-time validity and application-time validity.
    """

    begin: int
    end: int

    def __post_init__(self):
        if self.begin >= self.end:
            raise DataError(f"empty or inverted period [{self.begin}, {self.end})")

    def contains(self, point):
        """True if *point* lies inside the period."""
        return self.begin <= point < self.end

    def overlaps(self, other):
        """True if the two periods share at least one instant."""
        return self.begin < other.end and other.begin < self.end

    def intersect(self, other):
        """The overlapping sub-period, or ``None`` when disjoint."""
        begin = max(self.begin, other.begin)
        end = min(self.end, other.end)
        if begin >= end:
            return None
        return Period(begin, end)

    def covers(self, other):
        """True if *other* lies entirely within this period."""
        return self.begin <= other.begin and other.end <= self.end

    def meets(self, other):
        """True if this period ends exactly where *other* begins."""
        return self.end == other.begin

    def subtract(self, other):
        """The (0..2) sub-periods of ``self`` not covered by *other*.

        This is the row-splitting primitive behind sequenced updates and
        deletes (Snodgrass's SEQUENCED model, paper §2.3): updating a
        portion of a row's application time leaves the uncovered left and
        right remainders as new rows.
        """
        if not self.overlaps(other):
            return [self]
        parts = []
        if self.begin < other.begin:
            parts.append(Period(self.begin, other.begin))
        if other.end < self.end:
            parts.append(Period(other.end, self.end))
        return parts

    @property
    def is_open(self):
        """True when the period extends to END_OF_TIME."""
        return self.end >= END_OF_TIME

    def duration(self):
        """Length of the period in ticks/days (END_OF_TIME-aware)."""
        if self.is_open:
            return END_OF_TIME
        return self.end - self.begin

    def __str__(self):
        end = "inf" if self.is_open else str(self.end)
        return f"[{self.begin},{end})"


#: The period covering all of time.
ALL_TIME = Period(0, END_OF_TIME)


def compare_values(left, right):
    """Three-way comparison with SQL NULL ordering (NULLs last).

    Returns -1, 0 or 1.  Used by sort and merge-join operators.
    """
    if left is None and right is None:
        return 0
    if left is None:
        return 1
    if right is None:
        return -1
    if left < right:
        return -1
    if left > right:
        return 1
    return 0
