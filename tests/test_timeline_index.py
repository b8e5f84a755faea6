"""Timeline Index tests (the System E substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.index.timeline import TimelineIndex


class TestBasics:
    def test_snapshot_half_open(self):
        timeline = TimelineIndex()
        timeline.activate(1, 5)
        timeline.invalidate(1, 9)
        assert timeline.snapshot_rids(4) == set()
        assert timeline.snapshot_rids(5) == {1}
        assert timeline.snapshot_rids(8) == {1}
        assert timeline.snapshot_rids(9) == set()

    def test_events_must_be_ordered(self):
        timeline = TimelineIndex()
        timeline.activate(1, 5)
        with pytest.raises(ValueError):
            timeline.activate(2, 4)

    def test_same_tick_events_allowed(self):
        timeline = TimelineIndex()
        timeline.activate(1, 3)
        timeline.invalidate(1, 3)
        timeline.activate(2, 3)
        assert timeline.snapshot_rids(3) == {2}

    def test_checkpoint_interval_validation(self):
        with pytest.raises(ValueError):
            TimelineIndex(checkpoint_interval=0)

    def test_checkpoints_created(self):
        timeline = TimelineIndex(checkpoint_interval=10)
        for i in range(35):
            timeline.activate(i, i + 1)
        assert timeline.checkpoint_count == 3

    def test_boundaries(self):
        timeline = TimelineIndex()
        timeline.activate(1, 2)
        timeline.activate(2, 2)
        timeline.invalidate(1, 7)
        assert timeline.boundaries() == [2, 7]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 60), st.integers(1, 15)),  # (begin, duration)
        max_size=60,
    ),
    st.integers(0, 80),
    st.integers(1, 16),
)
def test_property_snapshot_matches_bruteforce(intervals, probe, interval_size):
    """Checkpointed snapshots agree with direct interval arithmetic at any
    probe tick and any checkpoint interval."""
    events = []
    for rid, (begin, duration) in enumerate(intervals):
        events.append((begin, "a", rid))
        events.append((begin + duration, "i", rid))
    events.sort(key=lambda e: e[0])
    timeline = TimelineIndex(checkpoint_interval=interval_size)
    for tick, kind, rid in events:
        if kind == "a":
            timeline.activate(rid, tick)
        else:
            timeline.invalidate(rid, tick)
    expected = {
        rid
        for rid, (begin, duration) in enumerate(intervals)
        if begin <= probe < begin + duration
    }
    assert timeline.snapshot_rids(probe) == expected
