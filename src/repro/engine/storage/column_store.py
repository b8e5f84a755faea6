"""A delta/main column store (the System C / SAP HANA archetype, §2.6).

Writes land in an unsorted, row-wise *delta*; a *merge* operation folds the
delta into dictionary-encoded *main* column vectors.  Scans stream the main
vectors column-at-a-time and then replay the delta, which is why the paper's
System C is fast at scans, insensitive to B-Tree indexes, and pays a small
merge cost during loading.
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
    window_offsets,
    window_rows,
    zone_of,
    zone_verdict,
)


ZONE_ROWS = 1024  # rows of main per zone map: what a page is to the row store


class _Dictionary:
    """Per-column dictionary encoding (value <-> code)."""

    def __init__(self):
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []

    def encode(self, value) -> int:
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def decode(self, code):
        return self._values[code]

    def __len__(self):
        return len(self._values)


class ColumnStore:
    """Columnar storage with delta/main split and explicit merge.

    *period* names the ``(begin, end)`` positions of the system period;
    with it, a windowed scan prunes chunks of main by the zone maps kept
    per ``ZONE_ROWS`` rows of main, whatever the scan's batch size.
    """

    def __init__(self, column_count, merge_threshold=8192, metrics=None, *,
                 period=None):
        self._column_count = column_count
        self._zone_rows = ZONE_ROWS
        self._merge_threshold = merge_threshold
        self._metrics = metrics  # optional obs.MetricsRegistry
        self._period = period
        self._merge_count = 0
        self.clear()

    def __len__(self):
        return self._live

    @property
    def delta_size(self):
        return len(self._delta)

    @property
    def main_size(self):
        return len(self._main[0]) if self._main else 0

    @property
    def merge_count(self):
        return self._merge_count

    @property
    def page_count(self):
        """Zone-sized units a full scan reads (the row store's pages)."""
        per_page = self._zone_rows
        return -(-self.main_size // per_page) + -(-len(self._delta) // per_page)

    # -- writes ------------------------------------------------------------

    def append(self, row) -> int:
        """Append *row* to the delta; rid is main_size + delta offset."""
        if len(row) != self._column_count:
            raise ValueError("row arity mismatch")
        rid = self.main_size + len(self._delta)
        self._delta.append(tuple(row))
        self._live += 1
        if len(self._delta) >= self._merge_threshold:
            self.merge()
        return rid

    def update_in_place(self, rid, row):
        main_size = self.main_size
        if rid < main_size:
            # rewrite the encoded cells
            for col, value in enumerate(row):
                self._main[col][rid] = self._dictionaries[col].encode(value)
            self._zones.pop(rid // self._zone_rows, None)
        else:
            self._delta[rid - main_size] = tuple(row)

    def delete(self, rid) -> bool:
        main_size = self.main_size
        if rid < main_size:
            if self._main_deleted[rid]:
                return False
            self._main_deleted[rid] = True
            self._dead_main += 1
            self._zones.pop(rid // self._zone_rows, None)
        else:
            offset = rid - main_size
            if offset >= len(self._delta) or self._delta[offset] is None:
                return False
            self._delta[offset] = None
            self._dead_delta += 1
        self._live -= 1
        return True

    def merge(self):
        """Fold the delta into main (preserving rids: delta follows main)."""
        if not self._delta:
            return
        for row in self._delta:
            if row is None:
                # keep the slot to preserve rid arithmetic, mark deleted
                for col in range(self._column_count):
                    self._main[col].append(0)
                self._main_deleted.append(True)
            else:
                for col, value in enumerate(row):
                    self._main[col].append(self._dictionaries[col].encode(value))
                self._main_deleted.append(False)
        self._delta = []
        self._dead_main += self._dead_delta
        self._dead_delta = 0
        self._merge_count += 1
        if self._metrics is not None:
            self._metrics.inc("storage.column_merges")

    # -- reads ---------------------------------------------------------------

    def fetch(self, rid) -> Optional[list]:
        main_size = self.main_size
        if rid < main_size:
            if self._main_deleted[rid]:
                return None
            return [
                self._dictionaries[col].decode(self._main[col][rid])
                for col in range(self._column_count)
            ]
        offset = rid - main_size
        if 0 <= offset < len(self._delta):
            row = self._delta[offset]
            return list(row) if row is not None else None
        return None

    def scan(self) -> Iterator[Tuple[int, list]]:
        """(rid, row) over main then delta, skipping deleted rows."""
        decode = [d.decode for d in self._dictionaries]
        cols = self._main
        for rid in range(self.main_size):
            if self._main_deleted[rid]:
                continue
            yield rid, [decode[c](cols[c][rid]) for c in range(self._column_count)]
        base = self.main_size
        for offset, row in enumerate(self._delta):
            if row is not None:
                yield base + offset, list(row)

    def scan_batches(self, size: int, *, window: Optional[Window] = None,
                     tally: Optional[ScanTally] = None) -> Iterator[Batch]:
        """Scan as batches in :meth:`scan` order: main vectors are decoded
        a *size*-row chunk at a time with C-level dictionary lookups (no
        per-row tuple construction), the delta is replayed as row-major
        chunks aliasing its tuples.

        With *window* only rows whose system period overlaps it are
        produced: the zone maps a chunk of main falls into skip it, accept
        it whole, or send it through the row-by-row filter (the unsealed
        tail of main and the delta always are).  *tally* receives this
        scan's counts.
        """
        if tally is None:
            tally = ScanTally()
        lookups = [d._values.__getitem__ for d in self._dictionaries]
        cols = self._main
        main_size = self.main_size
        for start in range(0, main_size, size):
            stop = min(start + size, main_size)
            live = self._live_offsets(start, stop)  # None = every slot
            rows_on_page = stop - start if live is None else len(live)
            if window is not None:
                verdict = self._chunk_verdict(start, stop, window)
                if verdict is SKIP:
                    tally.pages_pruned += 1
                    continue
                if verdict is SOME:
                    matching = window_offsets(
                        *self._period_values(start, stop, live), window
                    )
                    live = matching if live is None else [live[i] for i in matching]
            tally.pages_read += 1
            tally.rows_read += rows_on_page
            if live is None:
                columns = [
                    list(map(lookup, vector[start:stop]))
                    for lookup, vector in zip(lookups, cols)
                ]
                yield Batch.from_columns(columns, stop - start)
            elif live:
                columns = [
                    list(map(lookup, map(vector[start:stop].__getitem__, live)))
                    for lookup, vector in zip(lookups, cols)
                ]
                yield Batch.from_columns(columns, len(live))
        delta = self._delta
        chunk: List[tuple] = []
        for start in range(0, len(delta), size):
            rows = delta[start:start + size]
            tally.pages_read += 1
            tally.rows_read += len(rows) - (rows.count(None) if self._dead_delta else 0)
            if window is not None:
                rows = window_rows(rows, *self._period, window)
            elif self._dead_delta:
                rows = filter(None, rows)  # a stored row is a non-empty tuple
            chunk.extend(rows)
            if len(chunk) >= size:
                chunk = yield from drain_full_batches(chunk, size)
        if chunk:
            yield Batch.from_rows(chunk)

    def _period_values(self, start, stop, live):
        """Decoded (begins, ends) of main[start:stop], live offsets only."""
        out = []
        for pos in self._period:
            codes = self._main[pos][start:stop]
            if live is not None:
                codes = map(codes.__getitem__, live)
            out.append(list(map(self._dictionaries[pos]._values.__getitem__, codes)))
        return out

    def _live_offsets(self, start, stop) -> Optional[List[int]]:
        """Offsets of the live slots of main[start:stop]; None = all."""
        if not self._dead_main:
            return None
        deleted = self._main_deleted[start:stop]
        if True not in deleted:
            return None
        return [i for i, dead in enumerate(deleted) if not dead]

    def _chunk_verdict(self, start, stop, window) -> str:
        """One verdict for main[start:stop] from the zones it falls into:
        theirs when they agree, the row-by-row filter otherwise."""
        zone_rows = self._zone_rows
        last = (stop - 1) // zone_rows
        if (last + 1) * zone_rows > self.main_size:
            return SOME  # reaches into the unsealed tail of main
        verdicts = {
            zone_verdict(self._zone(zone_no), window)
            for zone_no in range(start // zone_rows, last + 1)
        }
        return verdicts.pop() if len(verdicts) == 1 else SOME

    def _zone(self, zone_no) -> Zone:
        zone = self._zones.get(zone_no)
        if zone is None:
            start = zone_no * self._zone_rows
            stop = start + self._zone_rows
            zone = self._zones[zone_no] = zone_of(
                *self._period_values(start, stop, self._live_offsets(start, stop))
            )
        return zone

    def scan_column(self, col) -> Iterator[Tuple[int, Any]]:
        """Single-column scan — the column store's natural access path."""
        decode = self._dictionaries[col].decode
        vector = self._main[col]
        for rid in range(self.main_size):
            if not self._main_deleted[rid]:
                yield rid, decode(vector[rid])
        base = self.main_size
        for offset, row in enumerate(self._delta):
            if row is not None:
                yield base + offset, row[col]

    def clear(self):
        self._dictionaries = [_Dictionary() for _ in range(self._column_count)]
        self._main: List[List[int]] = [[] for _ in range(self._column_count)]
        self._main_deleted: List[bool] = []
        self._delta: List[Optional[tuple]] = []
        self._live = 0        # live rows, main + delta
        self._dead_main = 0   # tombstones in main / in the delta
        self._dead_delta = 0
        # zone number -> zone of that zone_rows-row block of main: full blocks
        # only, built lazily (main grows at its end, so they stay valid)
        self._zones: Dict[int, Zone] = {}
