"""The scan layer: page hand-off, zone-map pruning, late materialisation.

Properties, over generated write sequences on both stores and on whole
tables of every layout:

* ``scan_batches(size)`` produces exactly the rows of ``scan()``, in order;
* ``len(store)`` is the number of live rows;
* a scan with a system-time window, an application-time window and (on a
  column store) a column subset produces exactly the full scan's rows that
  satisfy the desugared predicates (:func:`_matches`, written here from
  SQL:2011, not taken from the engine), projected to the subset — the zone maps may only
  skip or accept pages the row-by-row check would have emptied or kept
  whole, also right after a write has made a cached zone stale.

And at the planner, on the column store (System C, as shipped and with
fine chunks), where the scan's layout is the list of columns the query
reads: queries whose column use is easy to miss — correlated outer
references, stars, set operations, derived tables, GROUP BY / HAVING /
ORDER BY, period columns only a native temporal operator reads — answer
exactly what a row store (System A) answers.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loader import Loader
from repro.core.queries.range_timeslice import QUERIES as R_QUERIES
from repro.engine import Database, IndexDef
from repro.engine.batch import execution_config
from repro.engine.catalog import Column, PeriodDef, TableSchema
from repro.engine.database import ArchitectureProfile
from repro.engine.errors import CatalogError
from repro.engine.plan.access import TemporalBounds
from repro.engine.sql import ast
from repro.engine.storage import column_store
from repro.engine.storage.column_store import ColumnStore
from repro.engine.storage.row_store import RowStore
from repro.engine.storage.versioned import HISTORY, StorageOptions, VersionedTable
from repro.engine.storage.zonemap import ALL, SKIP, SOME, ScanTally, zone_of, zone_verdict
from repro.engine.types import END_OF_TIME, SqlType
from repro.systems import make_system
from repro.systems.system_c import SystemC
from tests.test_temporal_ops import AGG_NATIVE, AGG_REWRITE, JOIN_NATIVE, JOIN_REWRITE

SIZES = (1, 7, 256, 1024)
PERIOD = (1, 2)  # positions of sb / se in the test rows
APP = (3, 4)     # positions of ab / ae

SCHEMA = TableSchema(
    "t",
    [
        Column("id", SqlType.INTEGER, nullable=False),
        Column("sb", SqlType.TIMESTAMP),
        Column("se", SqlType.TIMESTAMP),
        Column("ab", SqlType.DATE),
        Column("ae", SqlType.DATE),
        Column("v", SqlType.VARCHAR),
    ],
    primary_key=("id",),
    periods=[
        PeriodDef("business_time", "ab", "ae"),
        PeriodDef("system_time", "sb", "se", is_system=True),
    ],
)
WIDTH = len(SCHEMA.columns)

# few distinct ticks, so that whole pages fall inside or outside a window;
# windows reach below and above the data, take NULL and non-integer bounds
ticks = st.integers(0, 6)
begins = st.one_of(st.none(), ticks)
ends = st.one_of(st.none(), ticks, st.just(END_OF_TIME))
probe_ticks = st.one_of(
    st.integers(-2, 8), st.just(END_OF_TIME - 1), st.just(END_OF_TIME),
    st.none(), st.just(2.5),
)
windows = st.one_of(
    st.tuples(st.just("as_of"), probe_ticks, st.none()),
    # also lo == hi, lo > hi
    st.tuples(st.sampled_from(["from_to", "between"]), probe_ticks, probe_ticks),
)
clauses = st.one_of(st.none(), windows)
# empty, one column, the period columns only, everything, anything
subsets = st.one_of(
    st.sampled_from([(), (5,), PERIOD, APP, PERIOD + APP, None]),
    st.lists(st.integers(0, WIDTH - 1), unique=True).map(lambda c: tuple(sorted(c))),
)

_append = st.tuples(st.just("append"), begins, ends, begins, ends)
_update = st.tuples(st.just("update"), st.integers(0, 200), begins, ends)
store_ops = st.lists(
    st.one_of(  # mostly appends and updates: pages must seal before a write can stale a zone
        _append, _append, _append, _append, _update, _update,
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("merge")),
        st.tuples(st.just("probe"), clauses, clauses, subsets),
        st.tuples(st.sampled_from(["clear", "merge", "merge", "merge"])),
    ),
    min_size=8,
    max_size=80,
)


def _window(spec):
    """The storage window of a clause spec ``(mode, low, high)``, built the
    way lowering builds it: from the clause's ``(low, high, inclusive)``."""
    mode, low, high = spec
    clause = ast.TemporalClause(
        "system_time", mode, ast.Literal(low), None if mode == "as_of" else ast.Literal(high)
    )
    low_expr, high_expr, inclusive = clause.window()
    low_fn = lambda env: low_expr.value  # noqa: E731
    high_fn = low_fn if high_expr is low_expr else (lambda env: high_expr.value)
    return TemporalBounds("b", "e", low_fn, high_fn, inclusive).window(None)


def _matches(row, period, spec) -> bool:
    """The clause's SQL:2011 predicate: ``AS OF t`` is ``begin <= t AND
    end > t``, ``FROM lo TO hi`` is ``begin < hi AND end > lo``, ``BETWEEN
    lo AND hi`` is ``begin <= hi AND end > lo``; a NULL begin or bound is
    UNKNOWN (no match), a NULL end is open."""
    if spec is None:
        return True
    mode, low, high = spec
    if mode == "as_of":
        high = low
    begin, end = row[period[0]], row[period[1]]
    end = END_OF_TIME if end is None else end
    if begin is None or low is None or high is None:
        return False
    if mode == "from_to":
        return begin < high and end > low
    return begin <= high and end > low


def _expected(rows, window, app, columns):
    return [
        row if columns is None else tuple(row[i] for i in columns)
        for row in rows
        if _matches(row, PERIOD, window) and _matches(row, APP, app)
    ]


def _scan_args(window, app, columns):
    args = {
        "window": None if window is None else _window(window),
        "app_windows": () if app is None else [(*APP, _window(app))],
    }
    if columns is not None:  # only column stores narrow
        args["columns"] = columns
    return args


def _batch_rows(batches):
    return [row for batch in batches for row in batch.to_rows()]


def _check_store(store, probe, sizes=SIZES):
    window, app, columns = probe
    if isinstance(store, RowStore):
        columns = None  # a row store hands over whole stored tuples
    full = [tuple(row) for _rid, row in store.scan()]
    assert len(store) == len(full)
    expected = _expected(full, window, app, columns)
    for size in sizes:
        batches = list(store.scan_batches(size))
        assert _batch_rows(batches) == full
        assert all(0 < batch.length <= size for batch in batches)
        tally = ScanTally()
        windowed = list(store.scan_batches(
            size, tally=tally, **_scan_args(window, app, columns)
        ))
        assert _batch_rows(windowed) == expected
        assert all(b.width == len(columns) for b in windowed if columns is not None)
        assert tally.rows_read <= len(full)


def _run_store_ops(store, ops, sizes):
    next_id = 0
    probe = (("from_to", 2, 4), ("as_of", 3, None), (0, 3, 5))
    for op in ops:
        kind = op[0]
        if kind == "append":
            store.append((next_id, *op[1:], f"v{next_id}"))
            next_id += 1
        elif kind == "update" and next_id:
            rid = op[1] % next_id
            if store.fetch(rid) is not None:
                store.update_in_place(rid, (rid, op[2], op[3], op[3], op[2], "updated"))
        elif kind == "delete" and next_id:
            store.delete(op[1] % next_id)
        elif kind == "merge" and isinstance(store, ColumnStore):
            store.merge()
        elif kind == "clear":
            store.clear()
            next_id = 0
        elif kind == "probe":
            probe = op[1:]
        # a windowed scan after every step caches zones, so the next write
        # has a zone to make stale
        _check_store(store, probe, sizes[1:2])
    _check_store(store, probe, sizes)
    _check_store(store, (("as_of", END_OF_TIME - 1, None), None, None), sizes)


@settings(max_examples=120, deadline=None)
@given(store_ops)
def test_row_store_scan_batches_match_scan(ops):
    _run_store_ops(RowStore(page_size=4, period=PERIOD), ops, SIZES)


@settings(max_examples=120, deadline=None)
@given(store_ops, st.sampled_from([3, 8, 10_000]), st.sampled_from([2, 3]))
def test_column_store_scan_batches_match_scan(ops, merge_threshold, zone_rows):
    store = ColumnStore(WIDTH, merge_threshold=merge_threshold, period=PERIOD)
    store._zone_rows = zone_rows
    # zones seal within a handful of rows; chunks of 1, 2, 3 and 7 rows sit
    # inside one zone, match it, or straddle several; tombstones land in
    # main and in the delta, merges happen mid-sequence
    _run_store_ops(store, ops, (1, 3, 2, 7, 256, 1024))


def test_column_store_decodes_only_the_surviving_rows_of_wanted_columns():
    store = ColumnStore(WIDTH, merge_threshold=100, period=PERIOD)
    store._zone_rows = 4
    for i in range(8):  # two sealed zones, every version open
        store.append((i, 0, END_OF_TIME, i, i + 1, f"v{i}"))
    store.merge()
    store.delete(2)
    list(store.scan_batches(1024, window=(5, 6)))  # builds both zones
    decoded = []
    real = store._decode
    store._decode = lambda pos, *args: decoded.append(pos) or real(pos, *args)
    batches = list(store.scan_batches(
        1024, window=(5, 6), app_windows=[(*APP, (3, 6))], columns=(0, 3)
    ))
    assert _batch_rows(batches) == [(3, 3), (4, 4), (5, 5)]
    # both zones accept the chunk whole, so the system period is not
    # tested; the application window is tested on codes, not values; only
    # the wanted columns are decoded, once each, for the surviving rows
    assert decoded == [0, 3]


def test_column_store_tests_no_more_codes_than_the_checked_chunks_hold(monkeypatch):
    store = ColumnStore(WIDTH, merge_threshold=10_000, period=PERIOD)
    store._zone_rows = 256
    for i in range(4096):  # 4096 distinct values in each period dictionary
        store.append((i, i, i + 1, i, i + 2, "v"))
    store.merge()
    tested = []
    real = column_store.window_codes

    def counting(begins, ends, window):
        tested.append(len(begins) + len(ends))
        return real(begins, ends, window)

    monkeypatch.setattr(column_store, "window_codes", counting)
    rows = _batch_rows(store.scan_batches(
        256, window=(2000, 2001), app_windows=[(*APP, (2001, 2002))], columns=(0,)
    ))
    assert rows == [(2000,)]
    # zones prune every chunk but one: the system window tests its 256
    # begins and ends, the application window the one survivor's, not the
    # 4096 values of either dictionary
    assert tested == [2 * 256, 2]
    # a scan that reads as many rows as the dictionaries hold tests each
    # dictionary value once instead
    tested.clear()
    rows = _batch_rows(store.scan_batches(256, app_windows=[(*APP, (0, 10_000))]))
    assert len(rows) == 4096 and tested == [2 * 4096]


def test_a_period_over_non_integer_columns_is_refused():
    db = Database()
    with pytest.raises(CatalogError):
        db.execute("CREATE TABLE d (id integer, b decimal, e decimal, PERIOD FOR p (b, e))")
    assert not db.catalog.has_table("d")


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
    # a NULL bound's window skips every zone
    assert zone_verdict(zone, _window(("as_of", None, None))) is SKIP


# -- whole tables ------------------------------------------------------------

LAYOUTS = {
    "A": StorageOptions(),
    "B": StorageOptions(vertical_partition_current=True, undo_log=True,
                        undo_drain_batch=5),
    "C": StorageOptions(store_kind="column", column_merge_threshold=6),
    "D": StorageOptions(split_history=False),
    # not a paper archetype, but an accepted combination: B's side table
    # over a column store
    "VC": StorageOptions(store_kind="column", column_merge_threshold=6,
                         vertical_partition_current=True),
}

table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), begins, ends),
        st.tuples(st.just("invalidate"), st.integers(0, 200)),
        st.tuples(st.just("probe"), clauses, clauses, subsets),
    ),
    max_size=50,
)


def _check_table(table, probe, size):
    if table.options.store_kind == "row":
        probe = (*probe[:2], None)  # a row store hands over whole stored tuples
    table.drain_undo()  # as a history scan does: the walk leaves the log alone
    for name in table.partition_names():
        full = [tuple(row) for _rid, row in table.walk(name)]
        got = _batch_rows(
            table.scan_partition_batches(name, size=size, **_scan_args(*probe))
        )
        assert got == _expected(full, *probe), (name, probe)
        assert _batch_rows(table.scan_partition_batches(name, size=size)) == full


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LAYOUTS)), table_ops, st.sampled_from([1, 3, 7, 1024]))
def test_table_windowed_scan_matches_filtered_scan(layout, ops, size):
    table = VersionedTable(SCHEMA, LAYOUTS[layout])
    for store in (part.store for part in table._partitions.values()):
        if isinstance(store, RowStore):
            store._page_size = 4  # seal pages within a few rows
        else:
            store._zone_rows = 4
    tick, open_rids = 1, []
    probe = (("as_of", 3, None), None, None)
    for op in ops:
        if op[0] == "insert":
            row = (tick, None, None, op[1], op[2], "v")
            open_rids.append(table.insert_version(row, sys_begin=tick))
            tick += 1
        elif op[0] == "invalidate" and open_rids:
            # D closes in place (stale zone on that page), A/C move to
            # history, B buffers in the undo log and a drain appends a
            # sorted run (earlier pages and their zones stay as they are)
            table.invalidate(open_rids.pop(op[1] % len(open_rids)), tick)
            tick += 1
        elif op[0] == "probe":
            probe = op[1:]
        _check_table(table, probe, size)
    _check_table(table, (("as_of", tick // 2, None), ("between", 1, 4), (0, 3)), size)
    _check_table(table, (("from_to", END_OF_TIME - 1, END_OF_TIME), None, ()), size)


def test_in_place_invalidation_drops_the_page_zone():
    table = VersionedTable(SCHEMA, StorageOptions(split_history=False))
    store = table.partition("single").store
    store._page_size = 4
    rids = [
        table.insert_version((i, None, None, 0, 1, "v"), sys_begin=1) for i in range(4)
    ]
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
        rid = table.insert_version((i, None, None, 0, 1, "v"), sys_begin=i)
        table.invalidate(rid, i + 1)  # history in sys_end order: 4 sealed pages
    access = table.partition(HISTORY).access
    rows = _batch_rows(table.scan_partition_batches(HISTORY, window=(2, 3)))
    assert [row[0] for row in rows] == [2]
    assert (access.scans, access.pages_read, access.pages_pruned) == (1, 1, 3)
    assert access.rows_read == 4
    assert table.metrics.counter("storage.history_rows_scanned") == 4
    assert table.metrics.counter("storage.pages_pruned") == 3
    assert table.metrics.counter("storage.pages_scanned") == 1


# -- the planner's column lists, on the column store ---------------------------


class _FineChunkedC(SystemC):
    """System C merging its delta every 64 rows into zones of 4 rows: the
    same late-materialised scans cross many zone and delta/main borders."""

    def storage_options(self):
        return dataclasses.replace(super().storage_options(), column_merge_threshold=64)


@pytest.fixture(scope="module")
def pair(tiny_workload):
    """The row store (A) as reference, the column stores (C, FC) under test."""
    systems = {"A": make_system("A"), "C": make_system("C")}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(column_store, "ZONE_ROWS", 4)
        systems["FC"] = _FineChunkedC()  # its tables are created at load
        Loader(systems["FC"], tiny_workload).load()
    for name in ("A", "C"):
        Loader(systems[name], tiny_workload).load()
    return systems


PLANNER_QUERIES = [
    # a correlated subquery reads an outer column used nowhere else
    "SELECT o.o_orderkey FROM orders o WHERE o.o_orderkey <= 25 AND EXISTS ("
    "SELECT 1 FROM lineitem l WHERE l.l_orderkey = o.o_orderkey"
    " AND l.l_extendedprice * 3 > o.o_totalprice)",
    "SELECT o_orderkey, (SELECT count(*) FROM lineitem WHERE l_orderkey = o_orderkey"
    " AND l_quantity < o_shippriority + 20) FROM orders WHERE o_orderkey <= 25",
    # an unqualified name two tables have: the inner one of a correlated
    # subquery, and one of two joined tables
    "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT 1 FROM customer"
    " WHERE c_custkey = o_custkey AND sys_begin <= 5)",
    "SELECT count(*) FROM orders o, customer c"
    " WHERE o.o_custkey = c.c_custkey AND sys_begin <= 5",
    # stars
    "SELECT o.*, c_name FROM orders o, customer c WHERE o.o_custkey = c.c_custkey",
    "SELECT * FROM supplier FOR SYSTEM_TIME ALL",
    "SELECT count(*), max(x.o_comment) FROM (SELECT * FROM orders) x",
    # set operation and derived tables
    "SELECT o_custkey FROM orders WHERE o_totalprice > 5000"
    " UNION SELECT c_custkey FROM customer ORDER BY 1",
    "SELECT d.k, d.p FROM (SELECT o_orderkey AS k, o_totalprice AS p FROM orders"
    " WHERE o_orderstatus = 'F') d WHERE d.p > 1000",
    # columns used only in GROUP BY, HAVING or ORDER BY
    "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL GROUP BY o_orderpriority",
    "SELECT o_custkey FROM orders GROUP BY o_custkey HAVING max(o_totalprice) > 1000",
    "SELECT o_orderkey FROM orders ORDER BY o_orderdate, o_orderkey LIMIT 5",
    # none at all, and only a period
    "SELECT count(*) FROM lineitem FOR SYSTEM_TIME ALL",
    "SELECT count(*) FROM orders FOR SYSTEM_TIME ALL FOR active_time AS OF 1100",
    "SELECT o_active_begin FROM orders FOR active_time FROM 900 TO 1000",
    # a PK probe's full-width row, projected to the layout
    "SELECT o_totalprice FROM orders WHERE o_orderkey = 5",
    # the SQL:2011 temporal-aggregation / overlap-join rewrites and the
    # dialect's native operators, whose period columns the text never names
    AGG_REWRITE, AGG_NATIVE, JOIN_REWRITE, JOIN_NATIVE,
    *(q.sql for q in R_QUERIES if q.qid in ("R3a", "R3b")),
]


def _params(sql):
    return {name: 1000 for name in re.findall(r":(\w+)", sql)}


@pytest.mark.parametrize("sql", PLANNER_QUERIES)
@pytest.mark.parametrize("system", ["C", "FC"])
def test_column_store_answers_what_a_row_store_answers(pair, system, sql):
    reference = sorted(pair["A"].execute(sql, _params(sql)).rows, key=repr)
    assert reference
    for size in (1, 7, 1024):
        with execution_config(size=size):
            got = pair[system].execute(sql, _params(sql)).rows
        assert sorted(got, key=repr) == reference, (system, size)


def _scan_cols(db, sql):
    text = "\n".join(line for (line,) in db.execute("EXPLAIN ANALYZE " + sql).rows)
    return re.findall(r"(\w+): scan pages=\d+/\d+ cols=(\d+)/(\d+)", text)


def test_explain_analyze_reports_decoded_columns(pair):
    db = pair["C"].db
    width = str(len(db.table("orders").schema.columns))
    assert _scan_cols(
        db, "SELECT o_custkey, count(*) FROM orders FOR SYSTEM_TIME ALL"
        " WHERE o_totalprice > 10 GROUP BY o_custkey"
    ) == [("current", "2", width), ("history", "2", width)]
    assert _scan_cols(db, "SELECT count(*) FROM orders") == [("current", "0", width)]
    assert _scan_cols(db, "SELECT * FROM orders") == [("current", width, width)]
    # row stores hand over whole rows and report no column count
    assert _scan_cols(pair["A"].db, "SELECT count(*) FROM orders") == []


def test_index_rows_on_a_column_store_take_the_scan_layout():
    db = Database(options=StorageOptions(store_kind="column"),
                  profile=ArchitectureProfile())
    db.execute(
        "CREATE TABLE item (id integer NOT NULL, grp integer, v decimal,"
        " ab date, ae date, sb timestamp, se timestamp, PRIMARY KEY (id),"
        " PERIOD FOR business_time (ab, ae), PERIOD FOR system_time (sb, se))"
    )
    with db.begin():
        for i in range(1, 301):
            db.insert_row("item", {"id": i, "grp": i % 10, "v": float(i),
                                   "ab": i, "ae": i + 5})
    db.create_index(IndexDef("ig", "item", ("grp",)))
    sql = "SELECT v FROM item FOR BUSINESS_TIME AS OF 15 WHERE grp = 3"
    text = "\n".join(line for (line,) in db.execute("EXPLAIN ANALYZE " + sql).rows)
    assert "index[ig]" in text
    assert db.execute(sql).rows == [(13.0,)]
    assert db.execute("SELECT grp, v FROM item WHERE id = 7").rows == [(7, 7.0)]
