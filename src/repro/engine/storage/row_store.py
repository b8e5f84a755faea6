"""A paged, append-mostly row store.

Rows live in fixed-size pages; a row id (rid) encodes (page, slot).  The
page structure matters for the benchmark because the disk-based archetypes
(Systems A, B, D) pay a per-page overhead on sequential scans, which is how
a table scan's cost grows linearly with history length (paper Fig 4).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..batch import Batch, drain_full_batches
from .zonemap import (
    SKIP,
    SOME,
    ScanTally,
    Window,
    Zone,
    window_rows,
    zone_of,
    zone_verdict,
)

PAGE_SIZE = 256  # rows per page


class RowStore:
    """Slotted pages of immutable row tuples, addressed by integer rid.

    Stored rows are never mutated — a writer replaces a whole slot — so
    :meth:`scan_batches` hands pages to the batch engine without copying
    a row.  *period* names the ``(begin, end)`` positions of the system
    period; with it, a windowed scan prunes sealed pages by zone map.
    """

    def __init__(self, page_size=PAGE_SIZE, *, period=None):
        self._page_size = page_size
        self._period = period
        self._pages: List[List[Optional[tuple]]] = []
        self._holes: Dict[int, int] = {}   # page_no -> tombstones on it
        self._zones: Dict[int, Zone] = {}  # sealed pages only, built lazily
        self._count = 0          # live rows
        self._next_rid = 0       # monotonically increasing

    def __len__(self):
        return self._count

    @property
    def page_count(self):
        return len(self._pages)

    def append(self, row) -> int:
        """Store *row* (a sequence of values) and return its rid."""
        rid = self._next_rid
        page_no, slot = divmod(rid, self._page_size)
        if page_no == len(self._pages):
            self._pages.append([])
        self._pages[page_no].append(tuple(row))
        assert len(self._pages[page_no]) == slot + 1
        self._next_rid += 1
        self._count += 1
        return rid

    def fetch(self, rid) -> Optional[tuple]:
        """The row stored under *rid*, or None if deleted/never existed."""
        page_no, slot = divmod(rid, self._page_size)
        if page_no >= len(self._pages) or slot >= len(self._pages[page_no]):
            return None
        return self._pages[page_no][slot]

    def update_in_place(self, rid, row):
        """Overwrite the row at *rid* (used for sys_end invalidation)."""
        page_no, slot = divmod(rid, self._page_size)
        self._pages[page_no][slot] = tuple(row)
        self._zones.pop(page_no, None)

    def delete(self, rid) -> bool:
        """Tombstone the row at *rid*; returns True if a row was present."""
        page_no, slot = divmod(rid, self._page_size)
        if page_no >= len(self._pages) or slot >= len(self._pages[page_no]):
            return False
        if self._pages[page_no][slot] is None:
            return False
        self._pages[page_no][slot] = None
        self._holes[page_no] = self._holes.get(page_no, 0) + 1
        self._zones.pop(page_no, None)
        self._count -= 1
        return True

    def scan(self) -> Iterator[Tuple[int, tuple]]:
        """Yield (rid, row) for every live row in rid order."""
        rid_base = 0
        for page in self._pages:
            for slot, row in enumerate(page):
                if row is not None:
                    yield rid_base + slot, row
            rid_base += self._page_size

    def scan_batches(self, size: int, *, window: Optional[Window] = None,
                     tally: Optional[ScanTally] = None) -> Iterator[Batch]:
        """The rows of :meth:`scan`, in the same order, as row-major
        batches of *size* rows that alias the stored tuples.

        With *window* only rows whose system period overlaps it are
        produced: a sealed page's zone map skips it, accepts it whole, or
        sends it through the row-by-row filter (the open tail page always
        is).  *tally* receives the page and row counts of this scan.
        """
        if tally is None:
            tally = ScanTally()
        holes = self._holes
        chunk: List[tuple] = []
        for page_no, page in enumerate(self._pages):
            rows = page
            if window is not None:
                verdict = SOME
                if len(page) == self._page_size:
                    verdict = zone_verdict(self._zone(page_no), window)
                if verdict is SKIP:
                    tally.pages_pruned += 1
                    continue
                if verdict is SOME:
                    rows = window_rows(page, *self._period, window)
            if rows is page and page_no in holes:
                rows = filter(None, page)  # a stored row is a non-empty tuple
            tally.pages_read += 1
            tally.rows_read += len(page) - holes.get(page_no, 0)
            chunk.extend(rows)
            if len(chunk) >= size:
                chunk = yield from drain_full_batches(chunk, size)
        if chunk:
            yield Batch.from_rows(chunk)

    def _zone(self, page_no) -> Zone:
        zone = self._zones.get(page_no)
        if zone is None:
            begin_pos, end_pos = self._period
            live = [row for row in self._pages[page_no] if row is not None]
            zone = self._zones[page_no] = zone_of(
                [row[begin_pos] for row in live], [row[end_pos] for row in live]
            )
        return zone

    def clear(self):
        self._pages.clear()
        self._holes.clear()
        self._zones.clear()
        self._count = 0
        self._next_rid = 0


class AppendLog:
    """An append-only log of arbitrary records (System B's undo log)."""

    def __init__(self):
        self._records: List[Any] = []

    def __len__(self):
        return len(self._records)

    def append(self, record):
        self._records.append(record)

    def drain(self) -> List[Any]:
        """Return and remove all buffered records in append order."""
        records, self._records = self._records, []
        return records

    def peek(self):
        return list(self._records)
