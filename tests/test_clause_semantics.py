"""One reading of a temporal clause, checked against its definition.

A clause admits a version whose period ``[begin, end)`` — a NULL end is
open — overlaps the clause's window (:func:`admits`, written here from
SQL:2011, not taken from the engine):

* ``AS OF t``: ``begin <= t AND end > t``;
* ``FROM a TO b``: ``begin < b AND end > a``;
* ``BETWEEN a AND b``: ``begin <= b AND end > a``;

and a NULL bound admits nothing.  Every reader derives its own form from
``ast.TemporalClause.window``; over every mode × bounds (integers below,
inside and above the data, NULL, equal, inverted) × every small integer
period, each form must admit exactly what the definition admits:

* the storage window, and the rows a query returns through a scan, a
  B-Tree on the period's begin and an R-Tree on the whole period;
* the index constraints lowering hands the access path;
* the cost sketches the rewrite prices (a NULL bound: an unknown value);
* the interval domains of constraint pruning (a NULL bound: no claim);
* TQ004, which fires exactly when the window holds no instant.
"""

import itertools
import operator

import pytest

from repro.engine import Database
from repro.engine.analyze import analyze_sql
from repro.engine.analyze_domains import scan_domain_map
from repro.engine.errors import CatalogError
from repro.engine.plan import access
from repro.engine.plan.access import TemporalBounds
from repro.engine.plan.logical import build_logical, scans_in_order
from repro.engine.plan.operators import TableAccess
from repro.engine.plan.rewrite import _scan_cost_inputs, rewrite_logical
from repro.engine.sql.parser import parse_statement
from repro.engine.storage.zonemap import window_rows
from repro.engine.types import END_OF_TIME

BOUNDS = (None, -1, 0, 1, 2, 3, 4, 5, 6, 7)
CLAUSES = [("as_of", t, None) for t in BOUNDS] + [
    (mode, low, high)
    for mode in ("from_to", "between")
    for low, high in itertools.product(BOUNDS, BOUNDS)
]
#: every period over ticks 0..6, open ones (NULL end) included
PERIODS = [
    (begin, end)
    for begin in range(6)
    for end in list(range(begin + 1, 7)) + [None]
]
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt}


def _ends(clause):
    """(low, high) of a clause: AS OF names one instant for both."""
    mode, low, high = clause
    return (low, low) if mode == "as_of" else (low, high)


def _known(clause) -> bool:
    return None not in _ends(clause)


def admits(clause, period) -> bool:
    low, high = _ends(clause)
    begin, end = period
    end = END_OF_TIME if end is None else end
    if low is None or high is None:
        return False
    if clause[0] == "from_to":
        return begin < high and end > low
    return begin <= high and end > low


def _sql(clause, select="k"):
    mode, low, high = clause
    low, high = ("NULL" if v is None else v for v in (low, high))
    text = {"as_of": f"AS OF {low}", "from_to": f"FROM {low} TO {high}",
            "between": f"BETWEEN {low} AND {high}"}[mode]
    return f"SELECT {select} FROM t FOR p {text}"


def _database(index=None):
    db = Database()
    db.execute(
        "CREATE TABLE t (k INTEGER, b INTEGER, e INTEGER, "
        "PERIOD FOR p (b, e), PRIMARY KEY (k))"
    )
    for key, (begin, end) in enumerate(PERIODS):
        db.execute("INSERT INTO t VALUES (:k, :b, :e)", {"k": key, "b": begin, "e": end})
    if index is not None:
        db.execute(f"CREATE INDEX ti ON t ({', '.join(index[1])}) USING {index[0]}")
    db.execute("ANALYZE")
    return db


def _expected_keys(clause):
    return {key for key, period in enumerate(PERIODS) if admits(clause, period)}


def _access_plan(db, sql):
    op = db._engine().planner.plan_select(parse_statement(sql)).op
    while not isinstance(op, TableAccess):
        (op,) = op.children
    return op.access_plan


def _scan(db, sql):
    """The scan as costing and pruning read it: constants folded."""
    query = rewrite_logical(
        build_logical(parse_statement(sql), db), db, db.profile,
        exclude=("constraint-pruning",),
    )
    (scan,) = scans_in_order(query.relation)
    return scan


@pytest.fixture(scope="module")
def db():
    return _database()


@pytest.mark.parametrize("index", [
    None,
    ("btree", ("b",)),
    ("rtree", ("b", "e")),
    ("btree", ("e",)),
], ids=["scan", "btree", "rtree", "btree-on-end"])
def test_queries_return_what_the_clause_admits(index, monkeypatch):
    # an index probe however unselective, so every probe path runs
    monkeypatch.setattr(access, "INDEX_SELECTIVITY_THRESHOLD", 1.0)
    db = _database(index)
    for clause in CLAUSES:
        sql = _sql(clause)
        assert {k for (k,) in db.execute(sql).rows} == _expected_keys(clause), sql
        plan = _access_plan(db, sql)
        if index is not None and _known(clause):
            plan.batches(None)
            assert plan.decisions[0].strategy == ("rtree" if index[0] == "rtree" else "index"), sql


def test_storage_windows_and_index_constraints(db):
    for clause in CLAUSES:
        plan = _access_plan(db, _sql(clause))
        (bounds,) = plan.temporal_filters
        assert isinstance(bounds, TemporalBounds)
        window = bounds.window(None)
        values = {c.column: c for c in plan.constraints}
        assert set(values) == {"b", "e"}
        for period in PERIODS:
            row = (0, *period)
            stored = bool(window_rows([row], [(1, 2, window)]))
            assert stored == admits(clause, period), (clause, period)
            begin_c, end_c = values["b"], values["e"]
            high, low = begin_c.high(None), end_c.low(None)
            end = END_OF_TIME if period[1] is None else period[1]
            constrained = (
                high is not None and low is not None
                and COMPARE[begin_c.op](period[0], high)
                and COMPARE[end_c.op](end, low)
            )
            assert constrained == admits(clause, period), (clause, period)


def test_cost_sketches(db):
    snapshot = db.stats_for("t")
    for clause in CLAUSES:
        _partitions, sketches = _scan_cost_inputs(_scan(db, _sql(clause)), snapshot)
        assert sorted(s.column for s in sketches) == ["b", "e"]
        if not _known(clause):
            # an unknown value: the estimator's default fraction
            assert any(s.value is None for s in sketches)
            continue
        for period in PERIODS:
            values = {"b": period[0], "e": END_OF_TIME if period[1] is None else period[1]}
            priced = all(COMPARE[s.op](values[s.column], s.value) for s in sketches)
            assert priced == admits(clause, period), (clause, period)


def test_domain_intervals(db):
    for clause in CLAUSES:
        domains = scan_domain_map(_scan(db, _sql(clause)))
        if not _known(clause):
            assert not domains.contributions  # no claim on a NULL bound
            continue
        for period in PERIODS:
            inside = True
            for c in domains.contributions:
                value = period[0] if c.column == "b" else period[1]
                if value is None:  # a NULL end is open: only a NULL-rejecting bound fails it
                    inside = inside and not c.null_rejecting
                    continue
                low, high = c.interval.low, c.interval.high
                inside = inside and (low is None or value >= low) and (high is None or value <= high)
            assert inside == admits(clause, period), (clause, period)


def test_tq004_fires_exactly_on_a_window_without_an_instant(db):
    for clause in CLAUSES:
        low, high = _ends(clause)
        codes = {d.code for d in analyze_sql(db, _sql(clause, select="count(*)"))}
        instants = _known(clause) and [
            t for t in range(-2, 9)
            if low <= t and (t < high if clause[0] == "from_to" else t <= high)
        ]
        assert ("TQ004" in codes) == (instants == []), clause


def test_an_inverted_window_still_admits_the_periods_spanning_it(db):
    # the window holds no instant, yet a version open across the gap
    # overlaps it by the definition: TQ004's range is empty, the answer not
    rows = db.execute("SELECT b, e FROM t FOR p FROM 4 TO 2").rows
    assert rows and all(b < 2 and (e is None or e > 4) for b, e in rows)
    assert any(d.code == "TQ004" for d in analyze_sql(db, "SELECT b FROM t FOR p FROM 4 TO 2"))


@pytest.mark.parametrize("sql", [
    "SELECT k FROM t FOR nope AS OF 3",
    "SELECT k FROM t FOR SYSTEM_TIME AS OF 3",
    "SELECT count(*) FROM t GROUP BY TEMPORAL(nope)",
    "SELECT t.k FROM t TEMPORAL JOIN t AS u ON t.k = u.k",
    "UPDATE t FOR PORTION OF nope FROM 1 TO 2 SET k = 1",
])
def test_every_reader_resolves_a_period_name_the_same_way(db, sql):
    # one resolution (TableSchema.resolve_period), one error; the analyzer
    # skips a statement that cannot be planned
    period = "nope" if "nope" in sql else "system_time"
    with pytest.raises(CatalogError, match=f"no period '{period}' on table t"):
        db.execute(sql)
    if sql.startswith("SELECT"):
        assert analyze_sql(db, sql) == []
