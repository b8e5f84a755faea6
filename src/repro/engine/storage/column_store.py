"""A delta/main column store (the System C / SAP HANA archetype, §2.6).

Writes land in an unsorted, row-wise *delta*; a *merge* operation folds the
delta into dictionary-encoded *main* column vectors.  Scans stream the main
vectors column-at-a-time and then replay the delta, which is why the paper's
System C is fast at scans, insensitive to B-Tree indexes, and pays a small
merge cost during loading.
"""

from __future__ import annotations

from itertools import compress
from operator import and_
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..batch import Batch, drain_full_batches, projector
from .zonemap import (
    ALL,
    SKIP,
    SOME,
    ScanTally,
    Window,
    Zone,
    window_codes,
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


def _select(values, live):
    """The items of *values* (one per slot of a chunk) at the *live* slots:
    all (None), those whose flag is set (a bytearray, one flag per slot),
    or those at the offsets listed (a list)."""
    if live is None:
        return values
    return compress(values, live) if type(live) is bytearray else map(values.__getitem__, live)


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
            if not self._main_live[rid]:
                return False
            self._main_live[rid] = 0
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
                self._main_live.append(0)
            else:
                for col, value in enumerate(row):
                    self._main[col].append(self._dictionaries[col].encode(value))
                self._main_live.append(1)
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
            if not self._main_live[rid]:
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
            if not self._main_live[rid]:
                continue
            yield rid, [decode[c](cols[c][rid]) for c in range(self._column_count)]
        base = self.main_size
        for offset, row in enumerate(self._delta):
            if row is not None:
                yield base + offset, list(row)

    def scan_batches(self, size: int, *, window: Optional[Window] = None,
                     app_windows=(), columns=None,
                     tally: Optional[ScanTally] = None) -> Iterator[Batch]:
        """Scan as batches in :meth:`scan` order, restricting first and
        decoding last.  Per *size*-row chunk of main: the verdict of the
        zones the chunk falls into for the system-time *window* (skip,
        accept, or check row by row); the live flags; each remaining window
        (*app_windows*: ``(begin_pos, end_pos, window)`` triples) tested on
        the live slots' period codes where the dictionaries are small
        (:meth:`_code_tables`), narrowing them to the offsets that pass;
        then the *columns* (positions; None = all) of the surviving slots,
        each decoded once with C-level selection and dictionary lookup
        (:func:`_select`).  The delta is replayed row-major and filtered
        row by row, aliasing its tuples unless *columns* projects them.
        *tally* receives this scan's counts.
        """
        if tally is None:
            tally = ScanTally()
        both = app_windows
        if window is not None:
            both = [(*self._period, window), *app_windows]
        project = None if columns is None else projector(columns)
        if columns is None:
            columns = range(self._column_count)
        main_size = self.main_size
        chunks = [(start, min(start + size, main_size)) for start in range(0, main_size, size)]
        verdicts = [ALL if window is None else self._chunk_verdict(*chunk, window)
                    for chunk in chunks]
        tested = {}  # check -> slots of main it will be tested on
        for (start, stop), verdict in zip(chunks, verdicts):
            for check in both if verdict is SOME else app_windows if verdict is ALL else ():
                tested[check] = tested.get(check, 0) + stop - start
        tables = self._code_tables(tested)
        for (start, stop), verdict in zip(chunks, verdicts):
            if verdict is SKIP:
                tally.pages_pruned += 1
                continue
            live = self._live_flags(start, stop)  # None = every slot
            count = stop - start if live is None else live.count(1)
            tally.pages_read += 1
            tally.rows_read += count
            for check in both if verdict is SOME else app_windows:
                keep = self._overlapping(check, tables.get(check), start, stop, live)
                matching = list(compress(_select(range(stop - start), live), keep))
                if len(matching) < count:
                    live, count = matching, len(matching)
            if count:
                yield Batch.from_columns(
                    [self._decode(pos, start, stop, live) for pos in columns], count
                )
        delta = self._delta
        chunk: List[tuple] = []
        for start in range(0, len(delta), size):
            rows = delta[start:start + size]
            tally.pages_read += 1
            tally.rows_read += len(rows) - (rows.count(None) if self._dead_delta else 0)
            if both:
                rows = window_rows(rows, both)
            elif self._dead_delta:
                rows = filter(None, rows)  # a stored row is a non-empty tuple
            chunk.extend(rows if project is None else map(project, rows))
            if len(chunk) >= size:
                chunk = yield from drain_full_batches(chunk, size)
        if chunk:
            yield Batch.from_rows(chunk)

    def _decode(self, pos, start, stop, live) -> list:
        """Decoded values of column *pos* over the *live* slots of
        main[start:stop] (:func:`_select`): one C-level dictionary lookup."""
        codes = _select(self._main[pos][start:stop], live)
        return list(map(self._dictionaries[pos]._values.__getitem__, codes))

    def _code_tables(self, tested) -> dict:
        """For each check of *tested* (check -> slots it will be tested on)
        whose period dictionaries hold no more values than those slots:
        which codes of its begin and of its end dictionary pass it.  The
        checks left out are tested on each chunk's decoded period values
        instead, so a scan never compares more values than the slots it
        tests, however large a long history has grown its dictionaries."""
        tables = {}
        for check, slots in tested.items():
            begin_pos, end_pos, window = check
            begins = self._dictionaries[begin_pos]._values
            ends = self._dictionaries[end_pos]._values
            if len(begins) + len(ends) <= 2 * slots:
                tables[check] = window_codes(begins, ends, window)
        return tables

    def _overlapping(self, check, table, start, stop, live):
        """Per *live* slot of main[start:stop], whether its period overlaps
        the window of *check*: looked up by code in its *table*
        (:meth:`_code_tables`), else tested on the decoded values."""
        begin_pos, end_pos, window = check
        if table is None:
            return map(and_, *window_codes(self._decode(begin_pos, start, stop, live),
                                           self._decode(end_pos, start, stop, live), window))
        begin_ok, end_ok = table
        begins = _select(self._main[begin_pos][start:stop], live)
        ends = _select(self._main[end_pos][start:stop], live)
        return map(and_, map(begin_ok.__getitem__, begins), map(end_ok.__getitem__, ends))

    def _live_flags(self, start, stop) -> Optional[bytearray]:
        """The live flags of main[start:stop] (1 live, 0 deleted); None
        when every slot is live."""
        if not self._dead_main:
            return None
        flags = self._main_live[start:stop]
        return flags if 0 in flags else None

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
            live = self._live_flags(start, stop)
            zone = self._zones[zone_no] = zone_of(
                *(self._decode(pos, start, stop, live) for pos in self._period)
            )
        return zone

    def clear(self):
        self._dictionaries = [_Dictionary() for _ in range(self._column_count)]
        self._main: List[List[int]] = [[] for _ in range(self._column_count)]
        self._main_live = bytearray()  # per slot of main: 1 live, 0 deleted
        self._delta: List[Optional[tuple]] = []
        self._live = 0        # live rows, main + delta
        self._dead_main = 0   # tombstones in main / in the delta
        self._dead_delta = 0
        # zone number -> zone of that zone_rows-row block of main: full blocks
        # only, built lazily (main grows at its end, so they stay valid)
        self._zones: Dict[int, Zone] = {}
