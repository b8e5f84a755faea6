"""The write path's per-table bindings: value checks, index keys, PK keys.

* Every :class:`SqlType`'s bound check (``CHECKS``, ``SqlType.validate``
  and a schema's ``row_from``) returns exactly what the original
  per-value ``validate`` returned — the same ``repr`` and type — or raises
  what it raised, over ints, bools, floats with NaN and ±inf, strings, NULL
  and int / float / str subclasses.  The original is kept below as the
  reference.
* UPDATE (with and without ``FOR PORTION OF``) and System D's bulk path
  check and coerce values exactly as INSERT does, on A–E.
* Index keys are bound when the index is created: a re-created index
  uses its new columns, and an R-tree never indexes a NULL endpoint.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Column, IndexDef, PeriodDef, TableSchema
from repro.engine.errors import CatalogError, DataError
from repro.engine.storage.versioned import CURRENT, SINGLE, StorageOptions, VersionedTable
from repro.engine.types import CHECKS, END_OF_TIME, SqlType
from repro.systems import make_system


def reference_validate(sql_type, value):
    """``SqlType.validate`` as it was before the checks were bound."""
    if value is None:
        return None
    if sql_type in (SqlType.INTEGER, SqlType.DATE, SqlType.TIMESTAMP):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"expected int for {sql_type.value}, got {value!r}")
        return value
    if sql_type is SqlType.DECIMAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DataError(f"expected number for {sql_type.value}, got {value!r}")
        return float(value)
    if sql_type is SqlType.VARCHAR:
        if not isinstance(value, str):
            raise DataError(f"expected str for {sql_type.value}, got {value!r}")
        return value
    if sql_type is SqlType.BOOLEAN:
        if not isinstance(value, bool):
            raise DataError(f"expected bool for {sql_type.value}, got {value!r}")
        return value
    raise DataError(f"unknown type {sql_type}")


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


def _outcome(check, value):
    try:
        result = check(value)
    except Exception as error:
        return "raises", type(error), str(error)
    return "returns", type(result), repr(result)


ALL_TYPES = list(SqlType)
WIDE = TableSchema("wide", [Column(t.value, t) for t in ALL_TYPES])

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10 ** 400),  # float() overflows: the same OverflowError
    st.floats(),  # NaN and ±inf included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=4),
    st.builds(_Int, st.integers()),
    st.builds(_Float, st.floats()),
    st.builds(_Str, st.text(max_size=4)),
    st.binary(max_size=2),
    st.lists(st.integers(), max_size=1),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_TYPES), values)
def test_bound_checks_agree_with_the_original_validate(sql_type, value):
    expected = _outcome(lambda v: reference_validate(sql_type, v), value)
    assert _outcome(CHECKS[sql_type], value) == expected
    assert _outcome(sql_type.validate, value) == expected
    written = _outcome(lambda v: WIDE.row_from({sql_type.value: v})[
        ALL_TYPES.index(sql_type)], value)
    assert written == expected


def test_a_value_of_the_exact_type_passes_untouched():
    for sql_type, value in [
        (SqlType.INTEGER, 12345678901), (SqlType.DECIMAL, math.nan),
        (SqlType.VARCHAR, "x" * 40), (SqlType.BOOLEAN, True),
    ]:
        assert CHECKS[sql_type](value) is value


def test_unknown_column_raises_the_same_catalog_error():
    with pytest.raises(CatalogError, match="no column 'nope' in table wide"):
        WIDE.row_from({"integer": 1, "nope": 2})


def test_row_from_overlays_a_base_row():
    base = (1, 2.0, "a", 3, 4, False)
    assert WIDE.row_from({"decimal": 7}, base) == [1, 7.0, "a", 3, 4, False]


def test_key_of_is_a_tuple_for_every_key_width():
    columns = [Column("a", SqlType.INTEGER), Column("b", SqlType.INTEGER)]
    row = (1, 2)
    assert TableSchema("k0", columns).key_of(row) == ()
    assert TableSchema("k1", columns, primary_key=("b",)).key_of(row) == (2,)
    assert TableSchema("k2", columns, primary_key=("b", "a")).key_of(row) == (2, 1)


# -- UPDATE and the bulk path check values like INSERT, on A-E ----------------

DDL = (
    "CREATE TABLE item ("
    " id integer NOT NULL, grp integer, v decimal,"
    " ab date, ae date, sb timestamp, se timestamp,"
    " PRIMARY KEY (id),"
    " PERIOD FOR business_time (ab, ae),"
    " PERIOD FOR system_time (sb, se))"
)
PORTIONS = ["", " FOR PORTION OF business_time FROM 10 TO 20"]


def _item_db(name):
    db = make_system(name).db
    db.execute(DDL)
    db.execute("INSERT INTO item (id, grp, v, ab, ae) VALUES (1, 1, 1.5, 0, 100)")
    return db


def _versions(db):
    return db.execute("SELECT count(*) FROM item FOR SYSTEM_TIME ALL").scalar()


@pytest.mark.parametrize("portion", PORTIONS)
@pytest.mark.parametrize("name", "ABCDE")
def test_update_rejects_a_string_in_an_integer_column(name, portion):
    db = _item_db(name)
    before = _versions(db)
    with pytest.raises(DataError, match="expected int for integer, got 'abc'"):
        db.execute(f"UPDATE item{portion} SET grp = 'abc' WHERE id = 1")
    assert _versions(db) == before  # nothing was closed or written
    assert db.execute("SELECT grp FROM item").rows == [(1,)]


@pytest.mark.parametrize("portion", PORTIONS)
@pytest.mark.parametrize("name", "ABCDE")
def test_update_stores_an_integer_in_a_decimal_column_as_float(name, portion):
    db = _item_db(name)
    db.execute(f"UPDATE item{portion} SET v = 7 WHERE id = 1")
    stored = db.execute("SELECT v FROM item WHERE id = 1 AND ab <= 10 AND ae > 10").rows
    assert [(type(v), repr(v)) for (v,) in stored] == [(float, "7.0")]


def test_bulk_path_checks_values():
    db = make_system("D").db
    db.execute(DDL)
    with pytest.raises(DataError, match="expected int for integer, got 'abc'"):
        db.insert_row_explicit("item", {"id": 1, "grp": "abc"}, 1, END_OF_TIME)
    db.insert_row_explicit("item", {"id": 2, "v": 7, "ab": 0, "ae": 9}, 1, 5)
    stored = db.execute("SELECT v FROM item FOR SYSTEM_TIME ALL").rows
    assert [(type(v), repr(v)) for (v,) in stored] == [(float, "7.0")]


# -- index keys bound at create_index -------------------------------------------

SCHEMA = TableSchema(
    "t",
    [
        Column("id", SqlType.INTEGER),
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


def test_a_recreated_index_uses_its_new_columns():
    table = VersionedTable(SCHEMA, StorageOptions())
    first = table.insert_version([1, 5, "x", 0, 1, None, None], sys_begin=1)
    table.create_index(IndexDef("ix", "t", ("grp",)))
    assert table.drop_index("ix")
    structure = table.create_index(IndexDef("ix", "t", ("v", "id")))
    second = table.insert_version([2, 5, "y", 0, 1, None, None], sys_begin=2)
    assert list(structure.items()) == [(("x", 1), first), (("y", 2), second)]
    assert table.indexes_on_partition(CURRENT)["ix"][1] is structure
    table.invalidate(second, 3)
    assert list(structure.items()) == [(("x", 1), first)]


def test_an_rtree_indexes_a_null_end_as_open_and_no_null_begin():
    table = VersionedTable(SCHEMA, StorageOptions(split_history=False))
    null_end = table.insert_version([1, 0, "a", 3, None, None, None], sys_begin=1)
    full = table.insert_version([2, 0, "a", 3, 8, None, None], sys_begin=1)
    structure = table.create_index(
        IndexDef("ir", "t", ("ab", "ae"), kind="rtree", partition=SINGLE)
    )
    null_begin = table.insert_version([3, 0, "a", None, 8, None, None], sys_begin=2)
    assert sorted(structure.all_values()) == [null_end, full]
    table.invalidate(full, 5)  # closed in place: same key, no new entry
    assert sorted(structure.all_values()) == [null_end, full]
    assert structure.search_overlap(END_OF_TIME - 1, END_OF_TIME) == [null_end]
    assert null_begin not in structure.search_overlap(0, 100)
