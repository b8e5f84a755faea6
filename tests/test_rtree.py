"""R-Tree (GiST stand-in) unit and property tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.index.rtree import RTree


class TestBasics:
    def test_insert_and_contains(self):
        tree = RTree(max_entries=4)
        tree.insert((0, 10), "a")
        tree.insert((5, 15), "b")
        tree.insert((20, 30), "c")
        assert sorted(tree.search_overlap(7, 8)) == ["a", "b"]
        assert tree.search_overlap(25, 26) == ["c"]
        assert tree.search_overlap(16, 17) == []

    def test_empty_interval_rejected(self):
        tree = RTree()
        with pytest.raises(ValueError):
            tree.insert((5, 5), "x")

    def test_min_entries_enforced(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_overlap_half_open(self):
        tree = RTree(max_entries=4)
        tree.insert((0, 10), "a")
        assert tree.search_overlap(10, 20) == []
        assert tree.search_overlap(9, 20) == ["a"]

    def test_growth_and_height(self):
        tree = RTree(max_entries=4)
        for i in range(100):
            tree.insert((i, i + 5), i)
        assert len(tree) == 100
        assert tree.height() >= 2
        assert sorted(tree.all_values()) == list(range(100))


intervals = st.lists(
    st.tuples(st.integers(0, 500), st.integers(1, 50)), max_size=150
)


@settings(max_examples=50, deadline=None)
@given(intervals, st.integers(0, 550))
def test_property_contains_matches_bruteforce(items, point):
    tree = RTree(max_entries=4)
    for index, (start, length) in enumerate(items):
        tree.insert((start, start + length), index)
    expected = sorted(
        i for i, (s, n) in enumerate(items) if s <= point < s + n
    )
    assert sorted(tree.search_overlap(point, point + 1)) == expected


@settings(max_examples=50, deadline=None)
@given(intervals, st.integers(0, 550), st.integers(1, 80))
def test_property_overlap_matches_bruteforce(items, low, width):
    high = low + width
    tree = RTree(max_entries=4)
    for index, (start, length) in enumerate(items):
        tree.insert((start, start + length), index)
    expected = sorted(
        i for i, (s, n) in enumerate(items) if s < high and low < s + n
    )
    assert sorted(tree.search_overlap(low, high)) == expected


@settings(max_examples=25, deadline=None)
@given(intervals)
def test_property_all_values_complete(items):
    tree = RTree(max_entries=4)
    for index, (start, length) in enumerate(items):
        tree.insert((start, start + length), index)
    assert sorted(tree.all_values()) == list(range(len(items)))
