"""Chunked row-batches: the unit of data flow through the execution engine.

Every physical operator consumes and produces :class:`Batch` objects
instead of bare row lists.  A batch is a fixed-capacity chunk of rows in
one of two layouts:

* **row-major** — a list of tuples, the natural shape for join outputs
  and anything that re-arranges whole rows;
* **column-major** — a list of per-column value lists, the natural shape
  straight out of the column store, where handing over array slices
  avoids per-row tuple construction entirely.

Both layouts answer the same protocol (``column(slot)``, ``to_rows()``,
``take(indices)``) so operators never branch on layout; conversion is
lazy and cached.  The materialization boundary — where batches become
the ``list[tuple]`` the DBAPI surface promises — is
:func:`rows_from_batches`, which always builds a *fresh* list so cached
subplan results are aliasing-safe.

The one module-level setting is the batch size, which the equivalence
test-suite varies: results must be byte-identical at every size, and
size 1 is the degenerate row-at-a-time run the others are checked
against.
"""

from __future__ import annotations

from contextlib import contextmanager
from sys import getsizeof
from typing import Iterable, List, Optional, Sequence

DEFAULT_BATCH_SIZE = 1024

_CONFIG = {"size": DEFAULT_BATCH_SIZE}


def batch_size() -> int:
    """The configured rows-per-batch for operators that chunk output."""
    return _CONFIG["size"]


def set_batch_size(size: int) -> None:
    if size < 1:
        raise ValueError("batch size must be >= 1")
    _CONFIG["size"] = int(size)


@contextmanager
def execution_config(size: Optional[int] = None):
    """Temporarily override the batch size."""
    saved = _CONFIG["size"]
    try:
        if size is not None:
            set_batch_size(size)
        yield
    finally:
        _CONFIG["size"] = saved


class Batch:
    """A chunk of rows in row-major or column-major layout.

    ``to_rows()`` may return an internal list; callers must treat it as
    read-only (materialization points copy via :func:`rows_from_batches`).
    """

    __slots__ = ("_rows", "_columns", "length", "width")

    def __init__(self, rows=None, columns=None, length=0, width=0):
        self._rows = rows
        self._columns = columns
        self.length = length
        self.width = width

    @classmethod
    def from_rows(cls, rows: List[tuple], width: Optional[int] = None) -> "Batch":
        if width is None:
            width = len(rows[0]) if rows else 0
        return cls(rows=rows, length=len(rows), width=width)

    @classmethod
    def from_columns(cls, columns: List[list],
                     length: Optional[int] = None) -> "Batch":
        if length is None:
            length = len(columns[0]) if columns else 0
        return cls(columns=columns, length=length, width=len(columns))

    def column(self, slot: int) -> list:
        """The values of one column across the batch (zero-copy when
        column-major)."""
        if self._columns is not None:
            return self._columns[slot]
        return [row[slot] for row in self._rows]

    def to_rows(self) -> List[tuple]:
        """The batch as a list of tuples (cached for column-major)."""
        if self._rows is None:
            if self._columns:
                self._rows = list(zip(*self._columns))
            else:
                self._rows = [()] * self.length
        return self._rows

    def take(self, indices: Sequence[int]) -> "Batch":
        """A new batch holding the rows at *indices* (in that order),
        preserving layout.  Also used for reordering, so no identity
        shortcut — callers skip the call when taking everything."""
        if self._rows is not None:
            rows = self._rows
            return Batch.from_rows([rows[i] for i in indices], self.width)
        columns = [[col[i] for i in indices] for col in self._columns]
        return Batch(columns=columns, length=len(indices), width=self.width)

    def estimated_bytes(self) -> int:
        """Rough in-memory size of the batch's payload, for working-set
        accounting.

        Sampling-based, not exact: the first row (or the head of each
        column) is measured with ``sys.getsizeof`` and scaled by the batch
        length, assuming rows are shape-homogeneous — which the fixed-width
        operator protocol guarantees.  Container overhead of the backing
        lists is included; per-value object sharing (interned ints,
        repeated strings) is not discounted, so this is an upper-ish
        estimate that is cheap enough to compute per operator call.
        """
        if self.length == 0:
            return 0
        if self._columns is not None:
            per_row = sum(
                getsizeof(col[0]) if col else 0 for col in self._columns
            )
            container = sum(getsizeof(col) for col in self._columns)
            return container + per_row * self.length
        first = self._rows[0]
        per_row = getsizeof(first) + sum(getsizeof(v) for v in first)
        return getsizeof(self._rows) + per_row * self.length

    def __len__(self) -> int:
        return self.length


def rows_from_batches(batches: Iterable[Batch]) -> List[tuple]:
    """Materialize batches into one fresh list of tuples.

    This is the row-level boundary: PlannedQuery results, cached subplan
    rows and the DBAPI surface all pass through here, and the returned
    list is always newly built so in-place consumer mutation can never
    leak back into a batch.
    """
    out: List[tuple] = []
    for batch in batches:
        out.extend(batch.to_rows())
    return out


def batches_from_rows(rows: Sequence[tuple],
                      size: Optional[int] = None) -> List[Batch]:
    """Chunk a row list into row-major batches (slices are fresh lists,
    so the source list is never aliased by any batch)."""
    if size is None:
        size = _CONFIG["size"]
    if not rows:
        return []
    width = len(rows[0])
    if len(rows) <= size:
        return [Batch.from_rows(list(rows), width)]
    return [
        Batch.from_rows(list(rows[start:start + size]), width)
        for start in range(0, len(rows), size)
    ]


def drain_full_batches(chunk: List[tuple], size: int):
    """Yield ``size``-row batches off the front of *chunk* (fresh slices);
    the generator's return value is the remainder, so a page-wise producer
    writes ``chunk = yield from drain_full_batches(chunk, size)``."""
    stop = len(chunk) - len(chunk) % size
    for start in range(0, stop, size):
        yield Batch.from_rows(chunk[start:start + size])
    return chunk[stop:]


__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "batch_size",
    "batches_from_rows",
    "drain_full_batches",
    "execution_config",
    "rows_from_batches",
    "set_batch_size",
]
