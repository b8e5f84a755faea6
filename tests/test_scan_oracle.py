"""An independent oracle for the scan surface: SQLite.

A small generated history (two seeds) is loaded into Systems A–E and, as
plain tables whose period columns are ordinary values, into ``sqlite3``
(standard library).  Generated single-table SELECTs — a star, one column,
the period columns only, any column subset, or none (``count(*)``) —
under every temporal clause form (``FOR SYSTEM_TIME`` / ``FOR
BUSINESS_TIME`` × ``AS OF`` / ``FROM .. TO`` / ``BETWEEN`` / ``ALL``, both
dimensions together, bounds that are NULL, a parameter bound to NULL, the
``END_OF_TIME`` sentinel, non-integer, or degenerate) must return on every
archetype the multiset SQLite returns for the clause desugared by hand:

* no system-time clause: the current versions, ``sys_end = END_OF_TIME``;
* ``AS OF t``: ``begin <= t AND end > t``;
* ``FROM a TO b``: ``begin < b AND end > a``;
* ``BETWEEN a AND b``: ``begin <= b AND end > a``;
* ``ALL``: every version.

``end`` is ``coalesce(end, END_OF_TIME)`` — the engine's documented reading
of a NULL period end — and a NULL bound makes the predicate UNKNOWN, so no
row qualifies.  ``BUSINESS_TIME`` is a table's first application period.

The versions SQLite holds are System A's stored versions, read straight
from storage (not through the query engine); that every archetype stores
the same versions is checked first.

A second world carries the paper's Key+Time indexes, and its queries may
add a full primary-key equality (a stored key, an absent one, or NULL in
one key column), so the index paths are checked too: the key reads of
every layout, and System E's time index ahead of its timeline.
"""

import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import BitemporalDataGenerator, GeneratorConfig
from repro.core.loader import Loader
from repro.engine import IndexDef
from repro.engine.types import END_OF_TIME
from repro.systems import IndexSetting, apply_index_setting, make_system

SEEDS = (7, 59)
SYSTEMS = "ABCDE"
TABLES = ("orders", "lineitem", "customer", "part", "partsupp", "supplier")
MODES = ("as_of", "from_to", "between", "all")


class World:
    """One seed's history in A–E and in SQLite."""

    def __init__(self, seed, setting=IndexSetting.NONE):
        workload = BitemporalDataGenerator(
            GeneratorConfig(h=0.0003, m=0.00005, seed=seed)
        ).generate()
        self.systems = {}
        for name in SYSTEMS:
            system = make_system(name)
            Loader(system, workload).load()
            apply_index_setting(system, setting)
            self.systems[name] = system
        self.sqlite = sqlite3.connect(":memory:")
        self.schemas = {}
        self.endpoints = {}
        self.keys = {}
        reference = self.systems["A"].db
        for name in TABLES:
            schema = reference.table(name).schema
            self.schemas[name] = schema
            columns = schema.column_names()
            rows = self.versions("A", name)
            self.sqlite.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
            marks = ", ".join("?" * len(columns))
            self.sqlite.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
            key = [schema.position(c) for c in schema.primary_key]
            self.keys[name] = sorted({tuple(row[pos] for pos in key) for row in rows})
            for period in filter(None, self.periods(name)):
                begin, end = (schema.position(c) for c in period)
                values = {row[pos] for row in rows for pos in (begin, end)} - {None}
                self.endpoints[name, period] = sorted({
                    v + d for v in values if v < END_OF_TIME
                    for d in (-1, -0.5, 0, 0.5, 1)
                })

    def versions(self, system, table):
        return sorted(
            (tuple(row) for _part, _rid, row in
             self.systems[system].db.table(table).scan_versions()),
            key=repr,
        )

    def periods(self, table):
        """(system-time, first application-time) column pairs; None if absent."""
        schema = self.schemas[table]
        app = schema.application_periods
        system = schema.system_period
        return [
            None if p is None else (p.begin_column, p.end_column)
            for p in (system, app[0] if app else None)
        ]

    def expected(self, query):
        return _multiset(self.sqlite.execute(query.oracle_sql, query.params).fetchall())


@pytest.fixture(scope="module", params=SEEDS)
def world(request):
    built = World(request.param)
    yield built
    built.sqlite.close()


@pytest.fixture(scope="module")
def keyed_world():
    built = World(SEEDS[0], IndexSetting.KEY_TIME)
    yield built
    built.sqlite.close()


def _multiset(rows):
    return sorted((tuple(row) for row in rows), key=repr)


class Query:
    """One generated SELECT: the engine's text, SQLite's desugaring, and
    the parameters both bind."""

    def __init__(self, table, select, clauses, params, predicates, keys=()):
        self.params = params
        self.engine_sql = " ".join([f"SELECT {select[0]} FROM {table}", *clauses])
        if keys:
            self.engine_sql += " WHERE " + " AND ".join(keys)
        where = " AND ".join([*predicates, *keys]) or "1"
        self.oracle_sql = f"SELECT {select[1]} FROM {table} WHERE {where}"

    def __repr__(self):
        return f"{self.engine_sql!r} params={self.params!r} ~ {self.oracle_sql!r}"


def _bound(draw, world, table, period, params):
    """A bound's SQL: an endpoint of the data, ±0.5 or ±1, NULL (as a
    literal or a parameter) or the sentinel."""
    value = draw(st.one_of(
        st.sampled_from(world.endpoints[table, period]),
        st.sampled_from([None, END_OF_TIME, END_OF_TIME - 1]),
    ))
    if value is None and draw(st.booleans()):
        return "NULL"
    name = f"p{len(params)}"
    params[name] = value
    return f":{name}"


def _clause(draw, world, table, period, keyword, params):
    """(engine clause, SQLite predicate) for one period, or None."""
    mode = draw(st.sampled_from(MODES))
    begin, end = period
    end = f"coalesce({end}, {END_OF_TIME})"
    if mode == "all":
        return f"FOR {keyword} ALL", "1"
    low = _bound(draw, world, table, period, params)
    if mode == "as_of":
        return f"FOR {keyword} AS OF {low}", f"{begin} <= {low} AND {end} > {low}"
    high = (
        low if draw(st.booleans()) and mode == "between"  # degenerate
        else _bound(draw, world, table, period, params)
    )
    if mode == "from_to":
        return (f"FOR {keyword} FROM {low} TO {high}",
                f"{begin} < {high} AND {end} > {low}")
    return (f"FOR {keyword} BETWEEN {low} AND {high}",
            f"{begin} <= {high} AND {end} > {low}")


def _key_equality(draw, world, table, params):
    """``col = :kN`` for every primary-key column: a stored key, a key no
    version holds, or a stored key with NULL in one column."""
    stored = world.keys[table]
    kind = draw(st.sampled_from(["stored", "stored", "stored", "absent", "null"]))
    key = list(draw(st.sampled_from(stored)))
    if kind == "absent":
        key = [value + 1 for value in stored[-1]]
    elif kind == "null":
        key[draw(st.sampled_from(range(len(key))))] = None
    equalities = []
    for column, value in zip(world.schemas[table].primary_key, key):
        name = f"k{len(equalities)}"
        params[name] = value
        equalities.append(f"{column} = :{name}")
    return equalities


@st.composite
def queries(draw, world, keys=False):
    table = draw(st.sampled_from(TABLES))
    columns = world.schemas[table].column_names()
    system, app = world.periods(table)
    shape = draw(st.sampled_from(["star", "one", "periods", "count", "subset"]))
    if shape == "star":
        select = ("*", ", ".join(columns))
    elif shape == "count":
        select = ("count(*)", "count(*)")
    else:
        if shape == "one":
            chosen = [draw(st.sampled_from(columns))]
        elif shape == "periods":
            chosen = list(draw(st.sampled_from([p for p in (system, app) if p])))
        else:
            chosen = draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
        select = (", ".join(chosen),) * 2
    params, clauses, predicates = {}, [], []
    if draw(st.booleans()):
        clause, predicate = _clause(draw, world, table, system, "SYSTEM_TIME", params)
        clauses.append(clause)
        predicates.append(predicate)
    else:
        predicates.append(f"{system[1]} = {END_OF_TIME}")
    if app is not None and draw(st.booleans()):
        clause, predicate = _clause(draw, world, table, app, "BUSINESS_TIME", params)
        clauses.append(clause)
        predicates.append(predicate)
    key = _key_equality(draw, world, table, params) if keys and draw(st.booleans()) else ()
    return Query(table, select, clauses, params, predicates, key)


def test_every_archetype_stores_the_same_versions(world):
    for table in TABLES:
        reference = world.versions("A", table)
        assert reference
        for name in SYSTEMS[1:]:
            assert world.versions(name, table) == reference, (name, table)


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_scans_agree_with_sqlite(world, data):
    _agree(world, data.draw(queries(world)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_indexed_reads_agree_with_sqlite(keyed_world, data):
    _agree(keyed_world, data.draw(queries(keyed_world, keys=True)))


def _agree(world, query):
    expected = world.expected(query)
    for name in SYSTEMS:
        got = world.systems[name].execute(query.engine_sql, query.params).rows
        assert _multiset(got) == expected, (name, query)


# -- the disagreements the oracle found, pinned --------------------------------

_ORDERS = (
    "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate,"
    " o_orderpriority, o_clerk, o_shippriority, o_comment, o_active_begin,"
    " o_active_end, o_receivable_begin, o_receivable_end, sys_begin, sys_end"
)
PINNED = [
    # System B left the system-time columns of its current rows NULL under
    # a star (its side table was joined back only for named columns)
    ("SELECT * FROM orders", {},
     f"SELECT {_ORDERS} FROM orders WHERE sys_end = {END_OF_TIME}"),
    # a NULL bound raised TypeError on every archetype
    ("SELECT count(*) FROM orders FOR SYSTEM_TIME AS OF :t", {"t": None}, "SELECT 0"),
    ("SELECT * FROM orders FOR SYSTEM_TIME FROM 0 TO NULL", {},
     f"SELECT {_ORDERS} FROM orders WHERE 0"),
    ("SELECT o_orderkey FROM orders FOR BUSINESS_TIME FROM NULL TO 30", {},
     "SELECT 1 WHERE 0"),
    # BETWEEN with a non-integer upper bound took hi + 1 as the exclusive
    # bound, so versions beginning in (hi, hi + 1) matched
    ("SELECT count(*) FROM orders FOR SYSTEM_TIME BETWEEN 0 AND 2.5", {},
     "SELECT count(*) FROM orders WHERE sys_begin <= 2.5 AND sys_end > 0"),
    # System E's timeline answered AS OF END_OF_TIME with the open versions,
    # whose end is END_OF_TIME, not after it
    ("SELECT s_suppkey FROM supplier FOR SYSTEM_TIME AS OF :t", {"t": END_OF_TIME},
     "SELECT 1 WHERE 0"),
    # a non-integer AS OF over integer days stays exact
    ("SELECT o_orderkey FROM orders FOR BUSINESS_TIME AS OF 1100.5", {},
     f"SELECT o_orderkey FROM orders WHERE sys_end = {END_OF_TIME}"
     " AND o_active_begin <= 1100.5 AND o_active_end > 1100.5"),
]


@pytest.mark.parametrize("sql, params, oracle_sql", PINNED)
def test_pinned_disagreements(world, sql, params, oracle_sql):
    expected = _multiset(world.sqlite.execute(oracle_sql).fetchall())
    for name in SYSTEMS:
        assert _multiset(world.systems[name].execute(sql, params).rows) == expected, name


# -- a NULL bound on every access path -------------------------------------------

NULL_CLAUSES = [
    "FOR SYSTEM_TIME AS OF :t",
    "FOR SYSTEM_TIME FROM 0 TO :t",
    "FOR SYSTEM_TIME BETWEEN :t AND 5",
    "FOR BUSINESS_TIME FROM :t TO 30",
    "FOR BUSINESS_TIME AS OF :t",
]
#: the access path each WHERE clause takes when the bound is not NULL
PATHS = {"scan": "", "pk-probe": "WHERE c_custkey = 3", "index": "WHERE c_nationkey = 3"}


@pytest.fixture(scope="module")
def indexed(tiny_workload):
    systems = {}
    for name in SYSTEMS:
        system = make_system(name)
        Loader(system, tiny_workload).load()
        system.db.create_index(IndexDef("ix_nation", "customer", ("c_nationkey",)))
        systems[name] = system
    return systems


def test_the_null_bound_queries_reach_each_access_path(indexed):
    def detail(name, sql):
        return indexed[name].db.explain_analyze(sql, {"t": 20})

    clause = "FOR SYSTEM_TIME AS OF :t"
    assert "current: pk-probe" in detail("A", f"SELECT c_name FROM customer {clause} {PATHS['pk-probe']}")
    assert "current: index[ix_nation]" in detail("A", f"SELECT c_name FROM customer {clause} {PATHS['index']}")
    assert "single: timeline" in detail("E", f"SELECT c_name FROM customer {clause}")


@pytest.mark.parametrize("name", SYSTEMS)
def test_a_null_bound_matches_no_row_on_any_access_path(indexed, name):
    db = indexed[name].db
    for clause in NULL_CLAUSES:
        for where in PATHS.values():
            sql = f"SELECT c_custkey, c_name FROM customer {clause} {where}"
            assert db.execute(sql, {"t": None}).rows == [], sql
    # a NULL bound reads no page a zone map can rule out
    plan = db.explain_analyze("SELECT count(*) FROM customer FOR SYSTEM_TIME AS OF :t", {"t": None})
    assert re.findall(r"scan pages=(\d+)/\d+", plan) and "actual rows=0" in plan
