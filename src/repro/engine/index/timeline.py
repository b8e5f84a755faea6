"""A Timeline Index: the native temporal index the paper's systems lack.

The paper's conclusion notes that none of the tested systems uses dedicated
temporal structures and points to the Timeline Index (Kaufmann et al.,
SIGMOD 2013 — reference [13] of the paper) as the research alternative.
This module implements that structure for the optional **System E**
archetype, so the repository can also demonstrate what the paper's
"future optimizations" buy.

The index is an *event list* over system time: for every version there is
an **activation** event at ``sys_begin`` and (once closed) an
**invalidation** event at ``sys_end``, both ordered by tick.  Periodic
**checkpoints** materialise the set of visible rids, so a snapshot at any
tick is a checkpoint plus a bounded replay — time travel in O(checkpoint +
events-in-between) instead of a full scan.  Temporal aggregation and the
temporal join are the engine's dialect operators (docs/TEMPORAL_OPS.md),
not methods of this index.
"""

from __future__ import annotations

import bisect
from typing import List, Set, Tuple

from .counters import IndexAccessCounters

ACTIVATE = 1
INVALIDATE = -1


class TimelineIndex:
    """Event list + checkpoints over one table's version history."""

    def __init__(self, checkpoint_interval: int = 1024, metrics=None):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.checkpoint_interval = checkpoint_interval
        self._metrics = metrics  # optional obs.MetricsRegistry
        self.access = IndexAccessCounters()
        #: events sorted by (tick, order-of-arrival): (tick, kind, rid)
        self._events: List[Tuple[int, int, int]] = []
        self._event_ticks: List[int] = []
        #: checkpoints: (event_offset, frozenset of rids visible after
        #: applying events[0:event_offset]).  Offsets, not ticks: several
        #: events can share one tick, and a checkpoint must never split a
        #: tick's event group ambiguously.
        self._checkpoints: List[Tuple[int, frozenset]] = []
        self._events_since_checkpoint = 0
        self._last_tick = 0

    def __len__(self):
        return len(self._events)

    @property
    def checkpoint_count(self):
        return len(self._checkpoints)

    # -- maintenance -------------------------------------------------------

    def _append(self, tick: int, kind: int, rid: int):
        if tick < self._last_tick:
            raise ValueError(
                f"timeline events must arrive in system-time order "
                f"({tick} < {self._last_tick})"
            )
        self._events.append((tick, kind, rid))
        self._event_ticks.append(tick)
        self._last_tick = tick
        self._events_since_checkpoint += 1
        if self._events_since_checkpoint >= self.checkpoint_interval:
            self._materialise_checkpoint()

    def activate(self, rid: int, tick: int):
        """Record that version *rid* became visible at *tick*."""
        self._append(tick, ACTIVATE, rid)

    def invalidate(self, rid: int, tick: int):
        """Record that version *rid* stopped being visible at *tick*."""
        self._append(tick, INVALIDATE, rid)

    def _materialise_checkpoint(self):
        offset = len(self._events)
        visible, base_offset = self._base_at_offset(offset)
        for index in range(base_offset, offset):
            _tick, kind, rid = self._events[index]
            if kind == ACTIVATE:
                visible.add(rid)
            else:
                visible.discard(rid)
        self._checkpoints.append((offset, frozenset(visible)))
        self._events_since_checkpoint = 0

    # -- queries ---------------------------------------------------------------

    def _base_at_offset(self, end_offset: int) -> Tuple[Set[int], int]:
        """Closest checkpoint whose offset is <= *end_offset*."""
        low, high = 0, len(self._checkpoints)
        while low < high:
            mid = (low + high) // 2
            if self._checkpoints[mid][0] <= end_offset:
                low = mid + 1
            else:
                high = mid
        if low == 0:
            return set(), 0
        offset, rids = self._checkpoints[low - 1]
        return set(rids), offset

    def snapshot_rids(self, tick: int) -> Set[int]:
        """Rids of all versions visible at system time *tick*.

        Visibility is half-open: a version activated at ``tick`` is
        visible, one invalidated at ``tick`` is not.
        """
        if self._metrics is not None:
            self._metrics.inc("index.timeline_lookups")
        self.access.probes += 1
        end = bisect.bisect_right(self._event_ticks, tick)
        visible, offset = self._base_at_offset(end)
        for index in range(offset, end):
            _event_tick, kind, rid = self._events[index]
            if kind == ACTIVATE:
                visible.add(rid)
            else:
                visible.discard(rid)
        self.access.rows_returned += len(visible)
        return visible

    def boundaries(self) -> List[int]:
        """All distinct ticks at which visibility changed."""
        out = []
        last = None
        for tick in self._event_ticks:
            if tick != last:
                out.append(tick)
                last = tick
        return out
