"""System B's undo-log drain appends sealed runs to history.

Properties, over generated write sequences on B's layout (vertically
partitioned current, undo log with a small drain batch) with a B-tree, a
hash, a composite B-tree and an R-tree index on the history partition,
checked after every operation:

* each history index holds exactly the (key, rid) multiset a rebuild from
  the history rows gives (keys written here, not taken from the engine;
  NULL keys and R-tree entries with a NULL endpoint are never indexed);
* a history rid keeps its row for ever: every rid read before a drain
  fetches the identical row after it;
* the rows a drain appends are sorted by ``(sys_begin, sys_end)``, and a
  sealed page's cached zone map still describes its rows.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Column, IndexDef, PeriodDef, TableSchema
from repro.engine.storage.versioned import HISTORY, StorageOptions, VersionedTable
from repro.engine.storage.zonemap import zone_of
from repro.engine.types import END_OF_TIME, SqlType

SCHEMA = TableSchema(
    "t",
    [
        Column("id", SqlType.INTEGER, nullable=False),
        Column("grp", SqlType.INTEGER),
        Column("v", SqlType.VARCHAR),
        Column("ab", SqlType.INTEGER),
        Column("ae", SqlType.INTEGER),
        Column("sb", SqlType.TIMESTAMP),
        Column("se", SqlType.TIMESTAMP),
    ],
    primary_key=("id",),
    periods=[PeriodDef("system_time", "sb", "se", is_system=True)],
)
SB, SE = 5, 6

#: name -> (kind, columns, the key a history row is indexed under)
INDEXES = {
    "h_grp": ("btree", ("grp",), lambda row: row[1]),
    "h_v": ("hash", ("v",), lambda row: row[2]),
    "h_id_sb": ("btree", ("id", "sb"), lambda row: (row[0], row[SB])),
    "h_app": (
        "rtree", ("ab", "ae"),
        # a NULL end is indexed as open, a NULL begin not at all
        lambda row: None if row[3] is None else (
            row[3], END_OF_TIME if row[4] is None else row[4]
        ),
    ),
}


def _index_def(name):
    kind, columns, _key = INDEXES[name]
    return IndexDef(name, "t", columns, kind=kind, partition=HISTORY)


def _pairs(structure):
    """The (key, rid) pairs an index structure holds."""
    if hasattr(structure, "items"):
        return Counter(structure.items())
    pairs, stack = Counter(), [structure._root]  # an R-tree: walk to its leaves
    while stack:
        node = stack.pop()
        for entry in node.entries:
            if node.is_leaf:
                pairs[(entry.lo, entry.hi), entry.value] += 1
            else:
                stack.append(entry.child)
    return pairs


def _history(table):
    """History rows by rid, read without draining the undo log."""
    return dict(table.walk(HISTORY))


def _check(table, seen, drains_before):
    history = _history(table)
    for name, (_kind, _columns, key_of) in INDEXES.items():
        _index, structure = table.indexes_on_partition(HISTORY)[name]
        rebuilt = Counter(
            (key, rid) for rid, row in history.items()
            if (key := key_of(row)) is not None
        )
        assert _pairs(structure) == rebuilt, name
    for rid, row in seen.items():
        assert table.fetch(HISTORY, rid) is row
    new = [row for rid, row in history.items() if rid not in seen]
    if table.metrics.counter("storage.undo_drains") == drains_before:
        assert not new
    periods = [(row[SB], row[SE]) for row in new]
    assert periods == sorted(periods)
    store = table.partition(HISTORY).store
    for page_no, zone in store._zones.items():
        live = [row for row in store._pages[page_no] if row is not None]
        assert zone == zone_of([row[SB] for row in live], [row[SE] for row in live])
    seen.update(history)


values = st.tuples(
    st.one_of(st.none(), st.integers(0, 3)),           # grp: NULL keys too
    st.sampled_from(["a", "b", "c"]),                  # v
    st.one_of(st.none(), st.integers(0, 5)),           # ab
    st.one_of(st.none(), st.integers(1, 4)),           # ae - ab
)
inserts = st.tuples(st.just("insert"), values)
closes = st.tuples(st.just("close"), st.integers(0, 50))
operations = st.lists(
    st.one_of(
        inserts, inserts, closes, closes,
        st.tuples(st.just("drain")),
        st.tuples(st.just("scan")),
        st.tuples(st.just("recreate"), st.sampled_from(sorted(INDEXES))),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), operations)
def test_drains_append_sorted_runs_under_stable_rids(batch, ops):
    table = VersionedTable(
        SCHEMA,
        StorageOptions(
            vertical_partition_current=True, undo_log=True,
            undo_drain_batch=batch,
        ),
    )
    table.partition(HISTORY).store._page_size = 4  # seal pages within a few rows
    for name in INDEXES:
        table.create_index(_index_def(name))
    tick, next_id, open_rids, seen = 1, 0, [], {}
    for op in ops:
        drains_before = table.metrics.counter("storage.undo_drains")
        if op[0] == "insert":
            grp, v, ab, length = op[1]
            ae = None if ab is None or length is None else ab + length
            row = [next_id, grp, v, ab, ae, None, None]
            # a few versions share a tick, so a run has ties on sys_begin
            open_rids.append(table.insert_version(row, sys_begin=tick // 2 + 1))
            next_id += 1
        elif op[0] == "close" and open_rids:
            table.invalidate(open_rids.pop(op[1] % len(open_rids)), tick // 2 + 2)
        elif op[0] == "drain":
            table.drain_undo()
        elif op[0] == "scan":
            list(table.scan_partition_batches(HISTORY))  # forces a drain
            # scans cache the zones of sealed pages; later drains keep them
            list(table.scan_partition_batches(HISTORY, window=(tick // 3, tick // 3 + 1)))
        elif op[0] == "recreate":
            # a history index built while versions wait in the undo log
            table.drop_index(op[1])
            table.create_index(_index_def(op[1]))
        tick += 1
        _check(table, seen, drains_before)
