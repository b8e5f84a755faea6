"""The scan layer: page hand-off and system-time zone-map pruning.

Properties, over generated write sequences on both stores and on whole
tables of every layout:

* ``scan_batches(size)`` produces exactly the rows of ``scan()``, in order;
* ``len(store)`` is the number of live rows;
* a windowed scan produces exactly the rows the full scan produces after
  ``TemporalBounds.row_filter`` — the zone maps may only skip or accept
  pages the row-by-row filter would have emptied or kept whole, also right
  after a write has made a cached zone stale.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Column, PeriodDef, TableSchema
from repro.engine.plan.access import TemporalBounds
from repro.engine.storage.column_store import ColumnStore
from repro.engine.storage.row_store import RowStore
from repro.engine.storage.versioned import HISTORY, StorageOptions, VersionedTable
from repro.engine.storage.zonemap import ALL, SKIP, SOME, ScanTally, zone_of, zone_verdict
from repro.engine.types import END_OF_TIME, SqlType

SIZES = (1, 7, 256, 1024)
PERIOD = (1, 2)  # positions of sb / se in the test rows

SCHEMA = TableSchema(
    "t",
    [
        Column("id", SqlType.INTEGER, nullable=False),
        Column("sb", SqlType.TIMESTAMP),
        Column("se", SqlType.TIMESTAMP),
        Column("v", SqlType.VARCHAR),
    ],
    primary_key=("id",),
    periods=[PeriodDef("system_time", "sb", "se", is_system=True)],
)

# few distinct ticks, so that whole pages fall inside or outside a window;
# windows reach below and above the data
ticks = st.integers(0, 6)
begins = st.one_of(st.none(), ticks)
ends = st.one_of(st.none(), ticks, st.just(END_OF_TIME))
probe_ticks = st.one_of(st.integers(-2, 8), st.just(END_OF_TIME - 1), st.just(END_OF_TIME))
windows = st.one_of(
    st.tuples(st.just("as_of"), probe_ticks, st.none()),
    st.tuples(st.just("overlap"), probe_ticks, probe_ticks),  # also lo == hi, lo > hi
)

_append = st.tuples(st.just("append"), begins, ends)
_update = st.tuples(st.just("update"), st.integers(0, 200), begins, ends)
store_ops = st.lists(
    st.one_of(  # mostly appends and updates: pages must seal before a write can stale a zone
        _append, _append, _append, _append, _update, _update,
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("merge")),
        st.tuples(st.just("probe"), windows),
        st.tuples(st.sampled_from(["clear", "merge", "merge", "merge"])),
    ),
    min_size=8,
    max_size=80,
)


def _bounds(window):
    mode, low, high = window
    return TemporalBounds("sb", "se", mode, low=lambda env: low, high=lambda env: high)


def _batch_rows(batches):
    return [row for batch in batches for row in batch.to_rows()]


def _check_store(store, window, sizes=SIZES):
    full = [tuple(row) for _rid, row in store.scan()]
    assert len(store) == len(full)
    bounds = _bounds(window)
    keep = bounds.row_filter(SCHEMA)
    expected = [row for row in full if keep(row, None)]
    for size in sizes:
        batches = list(store.scan_batches(size))
        assert _batch_rows(batches) == full
        assert all(0 < batch.length <= size for batch in batches)
        tally = ScanTally()
        windowed = store.scan_batches(size, window=bounds.window(None), tally=tally)
        assert _batch_rows(windowed) == expected
        assert tally.rows_read <= len(full)


def _run_store_ops(store, ops, sizes):
    next_id = 0
    window = ("overlap", 2, 4)
    for op in ops:
        kind = op[0]
        if kind == "append":
            store.append((next_id, op[1], op[2], f"v{next_id}"))
            next_id += 1
        elif kind == "update" and next_id:
            rid = op[1] % next_id
            if store.fetch(rid) is not None:
                store.update_in_place(rid, (rid, op[2], op[3], "updated"))
        elif kind == "delete" and next_id:
            store.delete(op[1] % next_id)
        elif kind == "merge" and isinstance(store, ColumnStore):
            store.merge()
        elif kind == "clear":
            store.clear()
            next_id = 0
        elif kind == "probe":
            window = op[1]
        # a windowed scan after every step caches zones, so the next write
        # has a zone to make stale
        _check_store(store, window, sizes[1:2])
    _check_store(store, window, sizes)
    _check_store(store, ("as_of", END_OF_TIME - 1, None), sizes)


@settings(max_examples=120, deadline=None)
@given(store_ops)
def test_row_store_scan_batches_match_scan(ops):
    _run_store_ops(RowStore(page_size=4, period=PERIOD), ops, SIZES)


@settings(max_examples=120, deadline=None)
@given(store_ops, st.sampled_from([3, 8, 10_000]), st.sampled_from([2, 3]))
def test_column_store_scan_batches_match_scan(ops, merge_threshold, zone_rows):
    store = ColumnStore(4, merge_threshold=merge_threshold, period=PERIOD)
    store._zone_rows = zone_rows
    # zones seal within a handful of rows; chunks of 1, 2, 3 and 7 rows sit
    # inside one zone, match it, or straddle several
    _run_store_ops(store, ops, (1, 3, 2, 7, 256, 1024))


def test_row_store_prunes_and_accepts_sealed_pages():
    store = RowStore(page_size=4, period=PERIOD)
    for i in range(12):  # three sealed pages: ends 1..4, 5..8, 9..12
        store.append((i, 0, i + 1, "x"))
    tally = ScanTally()
    rows = _batch_rows(store.scan_batches(1024, window=(6, 7), tally=tally))
    assert [row[0] for row in rows] == [6, 7, 8, 9, 10, 11]
    # page 0 ends before the window; page 2 is accepted whole, page 1 filtered
    assert (tally.pages_pruned, tally.pages_read, tally.rows_read) == (1, 2, 8)
    store.append((12, 0, 13, "x"))  # an open tail page is always filtered
    tally = ScanTally()
    assert len(_batch_rows(store.scan_batches(2, window=(100, 101), tally=tally))) == 0
    assert (tally.pages_pruned, tally.pages_read) == (3, 1)


def test_batches_alias_stored_tuples():
    store = RowStore(page_size=4)
    row = (1, "a")
    rid = store.append(row)
    assert store.fetch(rid) is row
    assert next(store.scan_batches(8)).to_rows()[0] is row
    store.update_in_place(rid, [1, "b"])  # replaces the slot, mutates nothing
    assert row == (1, "a") and store.fetch(rid) == (1, "b")


def test_column_store_len_is_a_counter():
    store = ColumnStore(2, merge_threshold=4)
    rids = [store.append((i, i)) for i in range(10)]  # two automatic merges
    assert store.delete(rids[0]) and store.delete(rids[9])
    assert not store.delete(rids[0])
    assert len(store) == 8
    store.merge()
    assert len(store) == 8 == sum(1 for _ in store.scan())
    store.clear()
    assert len(store) == 0


def test_column_store_write_to_main_drops_the_zone():
    store = ColumnStore(4, merge_threshold=100, period=PERIOD)
    store._zone_rows = 3
    for i in range(6):
        store.append((i, 3, 5, "x"))
    store.merge()
    window = (4, 5)
    assert len(_batch_rows(store.scan_batches(3, window=window))) == 6
    assert set(store._zones) == {0, 1}  # both full zones accepted whole
    store.update_in_place(1, (1, 6, 7, "later"))
    store.delete(5)
    assert store._zones == {}
    tally = ScanTally()
    rows = _batch_rows(store.scan_batches(3, window=window, tally=tally))
    assert [row[0] for row in rows] == [0, 2, 3, 4]
    assert (tally.pages_read, tally.rows_read) == (2, 5)


def test_column_store_zones_do_not_depend_on_the_batch_size():
    store = ColumnStore(4, merge_threshold=100, period=PERIOD)
    store._zone_rows = 4
    for i in range(14):  # three sealed zones (ends 1..4, 5..8, 9..12) and a tail
        store.append((i, 0, i + 1, "x"))
    store.merge()
    outcomes = {}
    for size in (1, 2, 4, 8, 1024):
        tally = ScanTally()
        rows = _batch_rows(store.scan_batches(size, window=(9, 10), tally=tally))
        assert [row[0] for row in rows] == [9, 10, 11, 12, 13]
        outcomes[size] = (tally.pages_pruned, tally.pages_read, tally.rows_read)
        assert set(store._zones) == {0, 1, 2}  # one zone set serves every size
    # chunks inside or equal to a zone take its verdict: zones 0 and 1 are
    # skipped, zone 2 is accepted whole, only the unsealed tail is filtered
    assert outcomes[1] == (8, 6, 6)
    assert outcomes[2] == (4, 3, 6)
    assert outcomes[4] == (2, 2, 6)
    # rows 0..7 still agree on "skip"; 8..13 reach into the tail
    assert outcomes[8] == (1, 1, 6)
    # one chunk over zones that disagree: filtered row by row
    assert outcomes[1024] == (0, 1, 14)


def test_zone_verdicts():
    zone = zone_of([2, 5, 3], [8, 9, END_OF_TIME])
    assert zone == (2, 5, 8, END_OF_TIME, False)
    assert zone_verdict(zone, (0, 2)) is SKIP       # hi is exclusive
    assert zone_verdict(zone, (0, 3)) is SOME
    assert zone_verdict(zone, (5, 6)) is ALL        # every begin <= 5 < every end
    assert zone_verdict(zone, (8, 9)) is SOME       # [.., 8) ended
    assert zone_verdict(zone, (END_OF_TIME, END_OF_TIME + 1)) is SKIP
    nulls = zone_of([None, 4], [None, None])
    assert nulls == (4, 4, END_OF_TIME, END_OF_TIME, True)
    assert zone_verdict(nulls, (6, 7)) is SOME      # a NULL never accepts a page whole
    assert zone_verdict(nulls, (0, 4)) is SKIP
    assert zone_verdict(zone_of([None], [3]), (0, END_OF_TIME)) is SKIP
    assert zone_verdict(zone_of([], []), (0, END_OF_TIME)) is SKIP


# -- whole tables ------------------------------------------------------------

LAYOUTS = {
    "A": StorageOptions(),
    "B": StorageOptions(vertical_partition_current=True, undo_log=True,
                        undo_drain_batch=5, record_metadata=True),
    "C": StorageOptions(store_kind="column", column_merge_threshold=6),
    "D": StorageOptions(split_history=False),
    # not a paper archetype, but an accepted combination: B's side table
    # over a column store
    "VC": StorageOptions(store_kind="column", column_merge_threshold=6,
                         vertical_partition_current=True),
}

table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert")),
        st.tuples(st.just("invalidate"), st.integers(0, 200)),
        st.tuples(st.just("probe"), windows),
    ),
    max_size=50,
)


def _check_table(table, window, size):
    bounds = _bounds(window)
    keep = bounds.row_filter(SCHEMA)
    for name in table.partition_names():
        expected = [
            tuple(row) for _rid, row in table.scan_partition(name) if keep(row, None)
        ]
        got = _batch_rows(
            table.scan_partition_batches(name, size=size, window=bounds.window(None))
        )
        assert got == expected, (name, window)
        assert _batch_rows(table.scan_partition_batches(name, size=size)) == [
            tuple(row) for _rid, row in table.scan_partition(name)
        ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), table_ops, st.sampled_from([1, 3, 7, 1024]))
def test_table_windowed_scan_matches_filtered_scan(layout, ops, size):
    table = VersionedTable(SCHEMA, LAYOUTS[layout])
    for store in (part.store for part in table._partitions.values()):
        if isinstance(store, RowStore):
            store._page_size = 4  # seal pages within a few rows
        else:
            store._zone_rows = 4
    tick, open_rids, window = 1, [], ("as_of", 3, None)
    for op in ops:
        if op[0] == "insert":
            open_rids.append(table.insert_version((tick, None, None, "v"), sys_begin=tick))
            tick += 1
        elif op[0] == "invalidate" and open_rids:
            # D closes in place (stale zone on that page), A/C move to
            # history, B goes through the undo log and _recluster_history
            table.invalidate(open_rids.pop(op[1] % len(open_rids)), tick)
            tick += 1
        elif op[0] == "probe":
            window = op[1]
        _check_table(table, window, size)
    _check_table(table, ("as_of", tick // 2, None), size)
    _check_table(table, ("overlap", END_OF_TIME - 1, END_OF_TIME), size)


def test_in_place_invalidation_drops_the_page_zone():
    table = VersionedTable(SCHEMA, StorageOptions(split_history=False))
    store = table.partition("single").store
    store._page_size = 4
    rids = [table.insert_version((i, None, None, "v"), sys_begin=1) for i in range(4)]
    current = (END_OF_TIME - 1, END_OF_TIME)
    assert len(_batch_rows(table.scan_partition_batches("single", window=current))) == 4
    assert 0 in store._zones  # the sealed page was accepted by its zone
    table.invalidate(rids[2], 9)
    assert 0 not in store._zones
    rows = _batch_rows(table.scan_partition_batches("single", window=current))
    assert [row[0] for row in rows] == [0, 1, 3]


def test_pruned_pages_are_not_counted_as_read():
    table = VersionedTable(SCHEMA, StorageOptions())
    table.partition(HISTORY).store._page_size = 4
    for i in range(16):
        rid = table.insert_version((i, None, None, "v"), sys_begin=i)
        table.invalidate(rid, i + 1)  # history in sys_end order: 4 sealed pages
    access = table.partition(HISTORY).access
    rows = _batch_rows(table.scan_partition_batches(HISTORY, window=(2, 3)))
    assert [row[0] for row in rows] == [2]
    assert (access.scans, access.pages_read, access.pages_pruned) == (1, 1, 3)
    assert access.rows_read == 4
    assert table.metrics.counter("storage.history_rows_scanned") == 4
    assert table.metrics.counter("storage.pages_pruned") == 3
    assert table.metrics.counter("storage.pages_scanned") == 1
