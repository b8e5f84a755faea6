"""System-time zone maps: the page-pruning arithmetic both stores share.

A *window* is the half-open system-time interval ``[lo, hi)`` a scan was
asked for; a row version matches when its period overlaps it —
``begin < hi and end > lo``, with a NULL ``begin`` never matching and a
NULL ``end`` read as ``END_OF_TIME`` (exactly
:meth:`~repro.engine.plan.access.TemporalBounds.row_filter`).  A *zone* is
``(min begin, max begin, min end, max end, has_null)`` over the live rows
of one sealed page; :func:`zone_verdict` decides from it alone whether the
page can be skipped, handed over whole, or has to be filtered row by row.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..types import END_OF_TIME

Zone = Tuple[object, object, object, object, bool]
Window = Tuple[object, object]

SKIP, ALL, SOME = "skip", "all", "some"

_INF = float("inf")
#: zone of a page without a single matchable row: every window skips it
_EMPTY_ZONE: Zone = (_INF, -_INF, _INF, -_INF, False)


class ScanTally:
    """What one ``scan_batches`` call touched: pages handed over, pages the
    window pruned, and live rows on the pages that were read."""

    __slots__ = ("pages_read", "pages_pruned", "rows_read")

    def __init__(self):
        self.pages_read = 0
        self.pages_pruned = 0
        self.rows_read = 0


def zone_of(begins: Sequence, ends: Sequence) -> Zone:
    """The zone of one page from its live rows' period endpoints."""
    has_null = None in begins or None in ends
    if has_null:
        pairs = [
            (begin, END_OF_TIME if end is None else end)
            for begin, end in zip(begins, ends)
            if begin is not None
        ]
        begins = [begin for begin, _end in pairs]
        ends = [end for _begin, end in pairs]
    if not begins:
        return _EMPTY_ZONE
    return (min(begins), max(begins), min(ends), max(ends), has_null)


def zone_verdict(zone: Zone, window: Window) -> str:
    """SKIP when no row of the page can overlap *window*, ALL when every
    row must, SOME when only a row-by-row check can tell."""
    min_begin, max_begin, min_end, max_end, has_null = zone
    lo, hi = window
    if min_begin >= hi or max_end <= lo:
        return SKIP
    if max_begin < hi and min_end > lo and not has_null:
        return ALL
    return SOME


def window_rows(rows: Sequence[Optional[tuple]], begin_pos: int, end_pos: int,
                window: Window) -> List[tuple]:
    """The live rows of a row-major page whose period overlaps *window*."""
    lo, hi = window
    return [
        row
        for row in rows
        if row is not None
        and (begin := row[begin_pos]) is not None
        and begin < hi
        and (END_OF_TIME if (end := row[end_pos]) is None else end) > lo
    ]


def window_offsets(begins: Sequence, ends: Sequence, window: Window) -> List[int]:
    """Column-major twin of :func:`window_rows`: the matching offsets."""
    lo, hi = window
    return [
        offset
        for offset, (begin, end) in enumerate(zip(begins, ends))
        if begin is not None
        and begin < hi
        and (END_OF_TIME if end is None else end) > lo
    ]
