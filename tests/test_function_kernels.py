"""The scalar function table the generated expressions call: every entry
is total over NULL and non-finite input — a value or a ``DataError``,
never a raw Python exception — and NULL in any argument gives NULL
(``coalesce`` / ``nullif`` keep their SQL rules)."""

import math

import pytest

from repro.engine import Database
from repro.engine.errors import DataError
from repro.engine.expr import FUNCTIONS

NAN, INF = float("nan"), float("inf")
NON_FINITE = (0, NAN, INF, -INF)

#: argument kinds per call form; "num" positions also take 0 / NaN / ±inf
SIGNATURES = {
    "date": [("str",)],
    "timestamp": [("num",), ("str",)],
    "extract": [("field", "num")],
    "substring": [("str", "num"), ("str", "num", "num")],
    "substr": [("str", "num"), ("str", "num", "num")],
    "abs": [("num",)],
    "round": [("num",), ("num", "num")],
    "floor": [("num",)],
    "ceil": [("num",)],
    "mod": [("num", "num")],
    "coalesce": [("num", "num")],
    "nullif": [("num", "num")],
    "upper": [("str",)],
    "lower": [("str",)],
    "length": [("str",)],
    "greatest": [("num", "num")],
    "least": [("num", "num")],
}
TYPICAL = {"str": "1995-06-17", "num": 3, "field": "year"}


def _calls():
    for name, forms in SIGNATURES.items():
        for kinds in forms:
            yield name, kinds


def test_the_sweep_covers_every_entry():
    assert set(SIGNATURES) == set(FUNCTIONS)


def _value_or_data_error(fn, args):
    try:
        return fn(*args)
    except DataError:
        return DataError


@pytest.mark.parametrize("name,kinds", list(_calls()))
def test_null_in_any_argument(name, kinds):
    fn = FUNCTIONS[name]
    for position in range(len(kinds)):
        args = [TYPICAL[kind] for kind in kinds]
        args[position] = None
        result = fn(*args)
        if name == "coalesce":
            assert result == 3
        elif name == "nullif" and position == 1:
            assert result == 3
        else:
            assert result is None, (name, args)


@pytest.mark.parametrize("name,kinds", list(_calls()))
def test_zero_and_non_finite_numbers(name, kinds):
    fn = FUNCTIONS[name]
    for position, kind in enumerate(kinds):
        if kind != "num":
            continue
        for value in NON_FINITE:
            args = [TYPICAL[k] for k in kinds]
            args[position] = value
            _value_or_data_error(fn, args)  # anything else raised fails the test


def test_the_fixed_kernels():
    for value in (NAN, INF, -INF):
        for name in ("floor", "ceil"):
            result = FUNCTIONS[name](value)
            assert result is value or (math.isnan(result) and math.isnan(value))
        assert FUNCTIONS["round"](2.5, value) is None
        with pytest.raises(DataError):
            FUNCTIONS["extract"]("year", value)
        with pytest.raises(DataError):
            FUNCTIONS["timestamp"](value)
    assert FUNCTIONS["floor"](-2.5) == -3 and FUNCTIONS["ceil"](-2.5) == -2
    with pytest.raises(DataError):
        FUNCTIONS["extract"]("day", 10**9)
    with pytest.raises(DataError):
        FUNCTIONS["extract"]("decade", 5)
    assert FUNCTIONS["substring"]("abcdef", 2, None) is None
    assert FUNCTIONS["substr"]("abcdef", None) is None


def test_substring_positions_before_the_first_character():
    # SQL: the characters at positions start .. start + length - 1 that exist
    substring = FUNCTIONS["substring"]
    assert substring("abc", 0, 2) == "a"
    assert substring("abc", -1, 3) == "a"
    assert substring("abc", 0) == "abc"
    assert substring("abc", 2, 5) == "bc"
    assert substring("abc", 1, 0) == ""


# -- the same bugs, reproduced through SQL ------------------------------------


@pytest.fixture(scope="module")
def database():
    db = Database()
    db.execute("CREATE TABLE t (id integer NOT NULL, s varchar(16), PRIMARY KEY (id))")
    db.execute("INSERT INTO t (id, s) VALUES (1, 'abcdef')")
    return db


def _one(db, sql, params=None):
    return db.execute(sql, params).rows


def test_sql_substring_with_a_null_length_is_null(database):
    assert _one(database, "SELECT substring(s, 1, NULL) FROM t") == [(None,)]
    assert _one(database, "SELECT id FROM t WHERE substring(s, 2, NULL) = 'bcdef'") == []
    assert _one(database, "SELECT substring(s, NULL), substr(s, NULL) FROM t") == [
        (None, None)]
    assert _one(database, "SELECT substring(s FROM 2 FOR 3) FROM t") == [("bcd",)]


def test_sql_floor_ceil_round_of_non_finite_input(database):
    rows = _one(database, "SELECT floor(:v), ceil(:v), round(2.5, :v)", {"v": INF})
    assert rows == [(INF, INF, None)]
    rows = _one(database, "SELECT floor(:v), ceil(:v), round(2.5, :v)", {"v": -INF})
    assert rows == [(-INF, -INF, None)]
    ((floor, ceil, rounded),) = _one(
        database, "SELECT floor(:v), ceil(:v), round(2.5, :v)", {"v": NAN})
    assert math.isnan(floor) and math.isnan(ceil) and rounded is None


@pytest.mark.parametrize("day", [NAN, INF, -INF, 10**9])
def test_sql_extract_of_a_day_with_no_date_is_a_data_error(database, day):
    with pytest.raises(DataError):
        database.execute("SELECT extract(year FROM :d)", {"d": day})
