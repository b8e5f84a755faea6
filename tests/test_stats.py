"""Per-column statistics: collection, ANALYZE, and invalidation.

The statistics snapshot must describe each partition separately, go
stale on any DDL/DML, and surface its lifecycle through the ``stats.*``
counters — the cost model trusts ``Database.stats_for`` to never return
a snapshot that no longer matches the table.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine import stats as stats_mod
from repro.engine.storage.versioned import StorageOptions


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE t (a integer NOT NULL, b integer, c varchar,"
        " sb timestamp, se timestamp,"
        " PRIMARY KEY (a), PERIOD FOR system_time (sb, se))"
    )
    for i in range(20):
        database.execute(
            "INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
            [i, (i % 5) if i % 4 else None, f"s{i}"],
        )
    return database


class TestCollection:
    def test_partition_row_counts(self, db):
        db.execute("UPDATE t SET b = 99 WHERE a < 3")  # 3 versions -> history
        snap = db.analyze("t")[0]
        assert snap.partition("current").row_count == 20
        assert snap.partition("history").row_count == 3
        assert snap.row_count == 23

    def test_column_ndv_and_minmax(self, db):
        snap = db.analyze("t")[0]
        col = snap.column("current", "a")
        assert col.ndv == 20
        assert (col.min_value, col.max_value) == (0, 19)

    def test_null_fraction(self, db):
        snap = db.analyze("t")[0]
        col = snap.column("current", "b")
        assert col.nulls == 5  # a = 0, 4, 8, 12, 16
        assert col.null_fraction == pytest.approx(0.25)

    def test_histogram_covers_numeric_range(self, db):
        snap = db.analyze("t")[0]
        col = snap.column("current", "a")
        assert col.histogram
        assert sum(count for _, _, count in col.histogram) == 20
        assert col.histogram[0][0] == 0
        assert col.histogram[-1][1] == 19

    def test_constant_column_has_no_histogram(self, db):
        database = Database()
        database.execute(
            "CREATE TABLE k (a integer NOT NULL, b integer, PRIMARY KEY (a))"
        )
        for i in range(5):
            database.execute("INSERT INTO k (a, b) VALUES (?, 7)", [i])
        snap = database.analyze("k")[0]
        col = snap.column("single", "b")
        assert col.histogram == ()
        assert (col.min_value, col.max_value) == (7, 7)

    def test_string_column_minmax_no_histogram(self, db):
        snap = db.analyze("t")[0]
        col = snap.column("current", "c")
        assert col.histogram == ()
        assert col.ndv == 20

    def test_merged_column_spans_partitions(self, db):
        db.execute("UPDATE t SET b = 77 WHERE a = 0")
        snap = db.analyze("t")[0]
        merged = snap.merged_column("b")
        assert merged.max_value == 77


class TestAnalyzeStatement:
    def test_analyze_table_result_shape(self, db):
        result = db.execute("ANALYZE TABLE t")
        assert result.columns == [
            "table", "partition", "row_count", "columns_analyzed"
        ]
        partitions = {row[1]: row[2] for row in result.rows}
        assert partitions["current"] == 20

    def test_analyze_without_table_covers_all(self, db):
        db.execute(
            "CREATE TABLE u (x integer NOT NULL, PRIMARY KEY (x))"
        )
        result = db.execute("ANALYZE")
        assert {row[0] for row in result.rows} == {"t", "u"}

    def test_analyze_unknown_table_fails(self, db):
        with pytest.raises(Exception):
            db.execute("ANALYZE TABLE missing")

    def test_table_keyword_optional(self, db):
        assert db.execute("ANALYZE t").rows == db.execute("ANALYZE TABLE t").rows


class TestValidity:
    def test_stats_for_after_analyze(self, db):
        db.analyze("t")
        assert db.stats_for("t") is not None

    def test_no_analyze_no_stats(self, db):
        assert db.stats_for("t") is None

    def test_insert_invalidates(self, db):
        db.analyze("t")
        db.execute("INSERT INTO t (a, b) VALUES (100, 1)")
        assert db.stats_for("t") is None

    def test_versioning_update_invalidates(self, db):
        db.analyze("t")
        db.execute("UPDATE t SET b = 1 WHERE a = 5")
        assert db.stats_for("t") is None

    def test_delete_invalidates(self, db):
        db.analyze("t")
        db.execute("DELETE FROM t WHERE a = 5")
        assert db.stats_for("t") is None

    def test_ddl_invalidates(self, db):
        db.analyze("t")
        db.execute("CREATE INDEX i_t_b ON t (b)")
        assert db.stats_for("t") is None

    def test_reanalyze_restores(self, db):
        db.analyze("t")
        db.execute("INSERT INTO t (a, b) VALUES (100, 1)")
        db.analyze("t")
        snap = db.stats_for("t")
        assert snap is not None
        assert snap.partition("current").row_count == 21

    def test_plain_write_invalidates_nonversioned_table(self):
        database = Database()
        database.execute(
            "CREATE TABLE p (x integer NOT NULL, y integer, PRIMARY KEY (x))"
        )
        database.execute("INSERT INTO p (x, y) VALUES (1, 1)")
        database.analyze("p")
        database.execute("UPDATE p SET y = 2 WHERE x = 1")
        assert database.stats_for("p") is None

    def test_drop_table_drops_stats(self, db):
        db.analyze("t")
        db.execute("DROP TABLE t")
        assert db.catalog.stats_of("t") is None


class TestMetrics:
    def test_analyze_counters(self, db):
        db.execute("CREATE TABLE u (x integer NOT NULL, PRIMARY KEY (x))")
        db.execute("ANALYZE")
        counters = db.metrics.snapshot()["counters"]
        assert counters["stats.analyze_runs"] == 1
        assert counters["stats.tables_analyzed"] == 2

    def test_lookup_counters(self, db):
        db.stats_for("t")  # miss
        db.analyze("t")
        db.stats_for("t")  # hit
        db.execute("INSERT INTO t (a) VALUES (500)")
        db.stats_for("t")  # stale
        counters = db.metrics.snapshot()["counters"]
        assert counters["stats.lookups"] == 3
        assert counters["stats.misses"] == 1
        assert counters["stats.hits"] == 1
        assert counters["stats.stale"] == 1


class TestModuleHelpers:
    def test_column_stats_histogram_slots(self):
        col = stats_mod._column_stats(list(range(100)), buckets=4)
        assert len(col.histogram) == 4
        assert all(count == 25 for _, _, count in col.histogram)

    def test_mutation_marker_ingredients(self, db):
        table = db.table("t")
        before = stats_mod.mutation_marker(table)
        db.execute("INSERT INTO t (a) VALUES (900)")
        assert stats_mod.mutation_marker(table) == before + 1


class TestNonFiniteValues:
    """ANALYZE never raises on storable data: NaN has no order and an
    infinity no bucket width, so both count towards ``count`` / ``ndv``
    and stay out of ``min_value`` / ``max_value`` / ``histogram``."""

    @staticmethod
    def _analyzed(values):
        db = Database()
        db.execute("CREATE TABLE t (a integer NOT NULL, b double, PRIMARY KEY (a))")
        db.execute("CREATE TABLE u (k integer NOT NULL, PRIMARY KEY (k))")
        for a, b in enumerate(values):
            db.execute("INSERT INTO t (a, b) VALUES (?, ?)", [a, 0.0])
            db.update_by_key("t", (a,), {"b": b})  # raw: ints stay ints
            db.execute("INSERT INTO u (k) VALUES (?)", [a])
        db.analyze()
        # the snapshot must also carry a planned join, not just exist
        joined = db.execute("SELECT count(*) FROM t, u WHERE t.a = u.k AND u.k >= 0")
        assert joined.rows == [(len(values),)]
        assert db.metrics.counter("plan.cost_based_joins") == 1
        return db.stats_for("t").column("single", "b")

    @pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_value(self, odd):
        col = self._analyzed([1.5, odd, 4.0])
        assert (col.count, col.nulls, col.ndv) == (3, 0, 3)
        assert (col.min_value, col.max_value) == (1.5, 4.0)
        assert sum(count for _, _, count in col.histogram) == 2

    def test_nan_first_does_not_poison_min_max(self):
        col = self._analyzed([math.nan, 2.0, 1.0])
        assert (col.min_value, col.max_value) == (1.0, 2.0)

    def test_all_nan_column(self):
        col = self._analyzed([math.nan, float("nan")])
        assert (col.count, col.ndv) == (2, 2)
        assert (col.min_value, col.max_value, col.histogram) == (None, None, ())

    def test_mixed_int_and_float_column(self):
        col = self._analyzed([3, 1.5, math.nan, None, 7])
        assert (col.count, col.nulls, col.ndv) == (4, 1, 4)
        assert (col.min_value, col.max_value) == (1.5, 7)
        assert sum(count for _, _, count in col.histogram) == 3

    @pytest.mark.parametrize("values", [[0.0, 5e-324], [-1.7e308, 1.7e308]])
    def test_range_without_a_usable_bucket_width(self, values):
        col = self._analyzed(values)  # width underflows to 0 / overflows to inf
        assert (col.min_value, col.max_value) == tuple(values)
        assert col.histogram == ()


# -- the parent's row-at-a-time ANALYZE, kept here as the reference ----------


def _reference_column_stats(values, buckets):
    non_null = [v for v in values if v is not None]
    nulls = len(values) - len(non_null)
    distinct = set(non_null)
    low = high = None
    if non_null:
        try:
            low = min(non_null)
            high = max(non_null)
        except TypeError:
            low = high = None  # mixed types: no order statistics
    histogram = ()
    numeric = (
        low is not None
        and isinstance(low, (int, float))
        and isinstance(high, (int, float))
        and not isinstance(low, bool)
        and not isinstance(high, bool)
        and high > low
    )
    if numeric:
        width = (high - low) / buckets
        counts = [0] * buckets
        for value in non_null:
            slot = min(buckets - 1, int((value - low) / width))
            counts[slot] += 1
        histogram = tuple(
            (low + i * width, low + (i + 1) * width, counts[i])
            for i in range(buckets)
        )
    return stats_mod.ColumnStats(
        count=len(non_null), nulls=nulls, ndv=len(distinct),
        min_value=low, max_value=high, histogram=histogram,
    )


def _reference_table_stats(table, buckets=stats_mod.HISTOGRAM_BUCKETS):
    column_names = table.schema.column_names()
    out = stats_mod.TableStats(table=table.schema.name)
    for name in table.partition_names():
        rows = [row for _rid, row in table.scan_partition(name, need_temporal=True)]
        part = stats_mod.PartitionStats(partition=name, row_count=len(rows))
        for position, column in enumerate(column_names):
            part.columns[column] = _reference_column_stats(
                [row[position] for row in rows], buckets
            )
        out.partitions[name] = part
    return out


# finite, and float32-wide so no bucket width under- or overflows: the
# reference raises there (TestNonFiniteValues covers what the engine does)
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, width=32)
_INTS = st.integers(-2**40, 2**40)
_STRINGS = st.text("abc", max_size=3)
_COLUMNS = st.one_of(
    *(
        st.lists(st.one_of(st.none(), *kinds), max_size=40)
        for kinds in (
            [_INTS], [_FLOATS], [_STRINGS], [st.booleans()],
            [_INTS, _FLOATS, st.booleans()],            # comparable mix
            [_INTS, _FLOATS, _STRINGS, st.booleans()],  # no common order
            [st.just(7)], [st.just(None)],              # constant / all NULL
        )
    )
)
_LAYOUTS = {
    "row": StorageOptions(),
    "row-single": StorageOptions(split_history=False),
    "column": StorageOptions(store_kind="column"),
    "vertical": StorageOptions(vertical_partition_current=True, undo_log=True,
                               undo_drain_batch=4, record_metadata=True),
}


@settings(max_examples=120, deadline=None)
@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    xs=_COLUMNS,
    ys=_COLUMNS,
    closed=st.sets(st.integers(0, 39)),
    merge_at=st.integers(0, 40),
)
def test_collect_table_stats_equals_row_at_a_time_reference(
    layout, xs, ys, closed, merge_at
):
    db = Database(options=_LAYOUTS[layout])
    db.execute(
        "CREATE TABLE h (k integer NOT NULL, x integer, y integer,"
        " sb timestamp, se timestamp,"
        " PRIMARY KEY (k), PERIOD FOR system_time (sb, se))"
    )
    table = db.table("h")
    rows = list(zip(xs, ys))  # the shorter column bounds the partition
    for k, (x, y) in enumerate(rows):
        if k == merge_at:
            db.merge_all()  # column store: rows before here in main, after in delta
        rid = table.insert_version([k, x, y, None, None], sys_begin=k + 1)
        if k in closed:
            table.invalidate(rid, k + 2)  # to history (or B's undo log)
    expected = _reference_table_stats(table)
    collected = stats_mod.collect_table_stats(table)
    assert collected == expected
    assert repr(collected) == repr(expected)
