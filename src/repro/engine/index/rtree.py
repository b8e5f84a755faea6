"""A one-dimensional R-Tree over periods.

PostgreSQL (the paper's System D) exposes GiST indexes, whose canonical
instantiation is the R-Tree (paper §2.5).  For temporal data the indexed
geometry is a 1-D interval ``[begin, end)``.  This implementation uses the
classic Guttman insertion algorithm with quadratic split, restricted to one
dimension.  ``search_overlap(lo, hi)`` returns every entry whose interval
intersects [lo, hi) (a point ``t`` is the window [t, t + 1)), and
``remove`` deletes an entry eagerly, so a version whose period changed in
place is found under its new interval only.

The paper found the GiST index "constantly higher cost than the B-Tree"
(§5.3.3); our benchmarks reproduce that because interval MBRs on
append-ordered history data overlap heavily, forcing multi-path descents.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from .counters import IndexAccessCounters


class _Entry:
    __slots__ = ("lo", "hi", "child", "value")

    def __init__(self, lo, hi, child=None, value=None):
        self.lo = lo
        self.hi = hi
        self.child = child  # _RNode for internal entries
        self.value = value  # row id for leaf entries


class _RNode:
    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf):
        self.is_leaf = is_leaf
        self.entries: List[_Entry] = []


def _enlargement(entry, lo, hi):
    """Area (length) increase needed for *entry* to cover [lo, hi)."""
    new_lo = min(entry.lo, lo)
    new_hi = max(entry.hi, hi)
    return (new_hi - new_lo) - (entry.hi - entry.lo)


class RTree:
    """Guttman R-Tree specialised to 1-D intervals."""

    def __init__(self, max_entries=32, metrics=None):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self._root = _RNode(is_leaf=True)
        self._size = 0
        self._metrics = metrics  # optional obs.MetricsRegistry
        self.access = IndexAccessCounters()

    def __len__(self):
        return self._size

    # -- insertion --------------------------------------------------------

    def insert(self, interval: Tuple[int, int], value: Any):
        lo, hi = interval
        if lo >= hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        split = self._insert(self._root, lo, hi, value)
        if split is not None:
            left_entry, right_entry = split
            new_root = _RNode(is_leaf=False)
            new_root.entries = [left_entry, right_entry]
            self._root = new_root
        self._size += 1

    def _insert(self, node, lo, hi, value):
        if node.is_leaf:
            node.entries.append(_Entry(lo, hi, value=value))
        else:
            best = min(
                node.entries,
                key=lambda e: (_enlargement(e, lo, hi), e.hi - e.lo),
            )
            split = self._insert(best.child, lo, hi, value)
            best.lo = min(best.lo, lo)
            best.hi = max(best.hi, hi)
            if split is not None:
                node.entries.remove(best)
                node.entries.extend(split)
        if len(node.entries) > self.max_entries:
            return self._split(node)
        return None

    def _split(self, node):
        """Quadratic split: pick the two most wasteful seeds, distribute."""
        entries = node.entries
        worst, seeds = -1, (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                combined = max(entries[i].hi, entries[j].hi) - min(
                    entries[i].lo, entries[j].lo
                )
                waste = combined - (entries[i].hi - entries[i].lo) - (
                    entries[j].hi - entries[j].lo
                )
                if waste > worst:
                    worst, seeds = waste, (i, j)
        i, j = seeds
        left = _RNode(node.is_leaf)
        right = _RNode(node.is_leaf)
        left.entries = [entries[i]]
        right.entries = [entries[j]]
        remaining = [e for k, e in enumerate(entries) if k not in (i, j)]
        for entry in remaining:
            # force-assign to an underfull group near the end
            slack = self.min_entries - len(left.entries)
            if slack >= len(remaining):
                left.entries.append(entry)
                continue
            slack = self.min_entries - len(right.entries)
            if slack >= len(remaining):
                right.entries.append(entry)
                continue
            grow_left = _enlargement(_bounding(left), entry.lo, entry.hi)
            grow_right = _enlargement(_bounding(right), entry.lo, entry.hi)
            (left if grow_left <= grow_right else right).entries.append(entry)
        return _wrap(left), _wrap(right)

    # -- removal ----------------------------------------------------------

    def remove(self, interval: Tuple[int, int], value: Any) -> bool:
        """Remove one (interval, value) entry; returns True if it existed.

        No rebalancing, as in the B-Tree: the bounds on the path shrink to
        what is left and an emptied node leaves its parent."""
        lo, hi = interval
        if not self._remove(self._root, lo, hi, value):
            return False
        if not self._root.entries:
            self._root = _RNode(is_leaf=True)
        self._size -= 1
        return True

    def _remove(self, node, lo, hi, value) -> bool:
        for i, entry in enumerate(node.entries):
            if node.is_leaf:
                found = entry.value == value and entry.lo == lo and entry.hi == hi
            else:
                found = (entry.lo <= lo and hi <= entry.hi
                         and self._remove(entry.child, lo, hi, value))
            if found:
                break
        else:
            return False
        if node.is_leaf or not entry.child.entries:
            del node.entries[i]
        else:
            bound = _bounding(entry.child)
            entry.lo, entry.hi = bound.lo, bound.hi
        return True

    # -- search -----------------------------------------------------------

    def search_overlap(self, lo, hi) -> List[Any]:
        """Row ids whose interval intersects the half-open [lo, hi)."""
        if self._metrics is not None:
            self._metrics.inc("index.rtree_searches")
        self.access.range_scans += 1
        out: List[Any] = []
        self._search(self._root, lo, hi, out)
        self.access.rows_returned += len(out)
        return out

    def _search(self, node, lo, hi, out):
        for entry in node.entries:
            if entry.lo < hi and lo < entry.hi:
                if node.is_leaf:
                    out.append(entry.value)
                else:
                    self._search(entry.child, lo, hi, out)

    def all_values(self):
        """Every stored row id (tests use this for completeness checks)."""
        out: List[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.is_leaf:
                    out.append(entry.value)
                else:
                    stack.append(entry.child)
        return out

    def height(self):
        h, node = 1, self._root
        while not node.is_leaf:
            node = node.entries[0].child
            h += 1
        return h


def _bounding(node) -> _Entry:
    lo = min(e.lo for e in node.entries)
    hi = max(e.hi for e in node.entries)
    return _Entry(lo, hi)


def _wrap(node) -> _Entry:
    entry = _bounding(node)
    entry.child = node
    return entry
