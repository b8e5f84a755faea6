"""Edge cases across the engine: empty inputs, NULLs, odd-but-legal SQL."""

import pytest

from repro.engine import Database
from repro.engine.errors import CatalogError, DataError, ProgrammingError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a integer, b varchar(10))")
    return database


class TestEmptyInputs:
    def test_scan_empty_table(self, db):
        assert db.execute("SELECT * FROM t").rows == []

    def test_aggregate_empty_table(self, db):
        result = db.execute("SELECT count(*), sum(a), min(a), max(a), avg(a) FROM t")
        assert result.rows == [(0, None, None, None, None)]

    def test_group_by_empty_table_yields_no_groups(self, db):
        assert db.execute("SELECT b, count(*) FROM t GROUP BY b").rows == []

    def test_join_with_empty_side(self, db):
        db.execute("CREATE TABLE u (a integer)")
        db.execute("INSERT INTO u (a) VALUES (1)")
        assert db.execute("SELECT * FROM t, u WHERE t.a = u.a").rows == []
        left = db.execute("SELECT u.a, t.b FROM u LEFT JOIN t ON u.a = t.a")
        assert left.rows == [(1, None)]

    def test_exists_on_empty(self, db):
        db.execute("CREATE TABLE u (a integer)")
        db.execute("INSERT INTO u (a) VALUES (1)")
        result = db.execute(
            "SELECT a FROM u WHERE NOT EXISTS (SELECT 1 FROM t)"
        )
        assert result.rows == [(1,)]

    def test_in_empty_subquery(self, db):
        db.execute("CREATE TABLE u (a integer)")
        db.execute("INSERT INTO u (a) VALUES (1)")
        assert db.execute("SELECT a FROM u WHERE a IN (SELECT a FROM t)").rows == []
        assert db.execute(
            "SELECT a FROM u WHERE a NOT IN (SELECT a FROM t)"
        ).rows == [(1,)]

    def test_limit_zero(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert db.execute("SELECT a FROM t LIMIT 0").rows == []

    def test_scalar_subquery_empty_is_null(self, db):
        assert db.execute("SELECT (SELECT a FROM t)").rows == [(None,)]


class TestNullHandling:
    def _seed(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, 'y'), (3, NULL)")

    def test_null_join_keys_never_match(self, db):
        self._seed(db)
        result = db.execute(
            "SELECT count(*) FROM t x, t y WHERE x.a = y.a"
        )
        assert result.scalar() == 2  # only 1=1 and 3=3

    def test_group_by_null_forms_group(self, db):
        self._seed(db)
        result = db.execute("SELECT a, count(*) FROM t GROUP BY a")
        assert (None, 1) in result.rows

    def test_distinct_keeps_single_null(self, db):
        self._seed(db)
        db.execute("INSERT INTO t (a, b) VALUES (NULL, 'z')")
        result = db.execute("SELECT DISTINCT a FROM t")
        assert sum(1 for r in result.rows if r[0] is None) == 1

    def test_aggregates_skip_nulls(self, db):
        self._seed(db)
        result = db.execute("SELECT count(a), sum(a), avg(a) FROM t")
        assert result.rows == [(2, 4, 2.0)]

    def test_where_null_is_not_true(self, db):
        self._seed(db)
        assert db.execute("SELECT count(*) FROM t WHERE a > 0").scalar() == 2

    def test_mod_by_zero_is_null(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (4, 'x'), (0, 'y'), (NULL, 'z')")
        result = db.execute("SELECT mod(7, a), 7 % a FROM t")
        assert result.rows == [(3, 3), (None, None), (None, None)]

    def test_timestamp_of_null_is_null(self, db):
        self._seed(db)
        result = db.execute("SELECT timestamp(a) FROM t")
        assert result.rows == [(1,), (None,), (3,)]

    def test_round_to_null_digits_is_null(self, db):
        self._seed(db)
        result = db.execute("SELECT round(2.567, a) FROM t")
        assert result.rows == [(2.6,), (None,), (2.567,)]


class TestCatalogErrors:
    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(ProgrammingError):
            db.execute("SELECT zz FROM t")

    def test_duplicate_table(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (x integer)")

    def test_drop_missing_index(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX nothing")

    def test_ambiguous_unqualified_column(self, db):
        db.execute("CREATE TABLE u (a integer)")
        with pytest.raises(ProgrammingError):
            db.execute("SELECT a FROM t, u WHERE t.a = u.a")


class TestOddButLegal:
    def test_quoted_identifier_roundtrip(self, db):
        db.execute('CREATE TABLE "Mixed" (x integer)')
        db.execute('INSERT INTO "Mixed" (x) VALUES (1)')
        assert db.execute('SELECT x FROM "Mixed"').scalar() == 1

    def test_union_of_three(self, db):
        result = db.execute(
            "SELECT 1 UNION SELECT 2 UNION SELECT 3 ORDER BY 1"
        )
        assert [r[0] for r in result.rows] == [1, 2, 3]

    def test_nested_derived_tables(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        result = db.execute(
            "SELECT outerq.total FROM"
            " (SELECT sum(innerq.a) AS total FROM"
            "   (SELECT a FROM t WHERE a > 0) innerq) outerq"
        )
        assert result.scalar() == 3

    def test_double_nested_correlation(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        db.execute("CREATE TABLE u (a integer)")
        db.execute("INSERT INTO u (a) VALUES (1), (2)")
        result = db.execute(
            "SELECT u.a FROM u WHERE EXISTS ("
            "  SELECT 1 FROM t WHERE t.a = u.a AND t.a IN ("
            "    SELECT x.a FROM t x WHERE x.a = u.a))"
            " ORDER BY u.a"
        )
        assert [r[0] for r in result.rows] == [1, 2]

    def test_case_in_group_by(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (5, 'y'), (9, 'z')")
        result = db.execute(
            "SELECT CASE WHEN a < 4 THEN 'low' ELSE 'high' END AS bucket,"
            "       count(*)"
            " FROM t GROUP BY CASE WHEN a < 4 THEN 'low' ELSE 'high' END"
            " ORDER BY bucket"
        )
        assert result.rows == [("high", 2), ("low", 1)]

    def test_order_by_multiple_directions(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (1, 'a'), (2, 'm')")
        result = db.execute("SELECT a, b FROM t ORDER BY a DESC, b ASC")
        assert result.rows == [(2, "m"), (1, "a"), (1, "x")]

    def test_parameter_reuse(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        result = db.execute(
            "SELECT count(*) FROM t WHERE a >= :v AND a <= :v", {"v": 1}
        )
        assert result.scalar() == 1

    def test_plan_cache_reuse_with_new_params(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        sql = "SELECT b FROM t WHERE a = ?"
        assert db.execute(sql, [1]).scalar() == "x"
        assert db.execute(sql, [2]).scalar() == "y"  # cached plan, new param


#: the same six rows, 1..6, as one SELECT and as a UNION of two
_SHAPES = {
    "plain": "SELECT a FROM t ORDER BY a",
    "union": "SELECT a FROM t WHERE a <= 3 UNION SELECT a FROM t WHERE a > 3"
             " ORDER BY 1",
}


class TestLimitOffset:
    """One LIMIT / OFFSET semantics for every SELECT shape: a negative
    count is an error, NULL means no limit / offset 0 (PostgreSQL)."""

    @pytest.fixture
    def six(self, db):
        db.execute("INSERT INTO t (a, b) VALUES (1, 'a'), (2, 'b'), (3, 'c'),"
                   " (4, 'd'), (5, 'e'), (6, 'f')")
        return db

    @staticmethod
    def _run(db, shape, limit, offset, form):
        if form == "literal":
            text = "NULL" if limit is None else str(limit)
            sql = f"{_SHAPES[shape]} LIMIT {text}"
            if offset is not ...:
                sql += " OFFSET " + ("NULL" if offset is None else str(offset))
            return db.execute(sql).rows
        sql = f"{_SHAPES[shape]} LIMIT :n"
        params = {"n": limit}
        if offset is not ...:
            sql += " OFFSET :o"
            params["o"] = offset
        return db.execute(sql, params).rows

    @pytest.mark.parametrize("form", ["literal", "param"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("limit, offset", [(-1, ...), (2, -3), (2, -1)])
    def test_negative_count_raises(self, six, shape, form, limit, offset):
        with pytest.raises(DataError, match="must not be negative"):
            self._run(six, shape, limit, offset, form)

    @pytest.mark.parametrize("form", ["literal", "param"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("limit, offset, expected", [
        (None, ..., [1, 2, 3, 4, 5, 6]),
        (None, 4, [5, 6]),
        (2, None, [1, 2]),
        (2, 1, [2, 3]),
        (0, 1, []),
        (9, 5, [6]),
    ])
    def test_null_and_in_range_bounds(self, six, shape, form, limit, offset,
                                      expected):
        rows = self._run(six, shape, limit, offset, form)
        assert [a for (a,) in rows] == expected

    def test_union_order_by_is_a_finalize_node(self, six):
        plan = six.explain(_SHAPES["union"] + " LIMIT 2")
        assert plan.splitlines()[0].startswith("Finalize[Project(1), sort=1, limit]")
        assert "Union" in plan

    def test_union_order_by_non_output_expression_raises(self, six):
        with pytest.raises(ProgrammingError, match="output columns"):
            six.execute("SELECT a FROM t UNION SELECT a FROM t ORDER BY a + 1")


class TestStorageMaintenance:
    def test_storage_report_and_merge(self):
        from repro.systems import make_system

        system = make_system("C")
        system.execute(
            "CREATE TABLE v (id integer NOT NULL, x integer,"
            " sb timestamp, se timestamp, PRIMARY KEY (id),"
            " PERIOD FOR system_time (sb, se))"
        )
        for i in range(5):
            system.execute("INSERT INTO v (id, x) VALUES (?, ?)", [i, i])
        system.db.merge_all()
        report = system.storage_report()["v"]
        assert report["current"] == 5
        assert report["history"] == 0

    def test_drain_all_undo(self):
        from repro.systems import make_system

        system = make_system("B")
        system.execute(
            "CREATE TABLE v (id integer NOT NULL, x integer,"
            " sb timestamp, se timestamp, PRIMARY KEY (id),"
            " PERIOD FOR system_time (sb, se))"
        )
        system.execute("INSERT INTO v (id, x) VALUES (1, 1)")
        system.execute("UPDATE v SET x = 2 WHERE id = 1")
        system.db.drain_all_undo()
        table = system.db.table("v")
        assert len(table.partition("history")) == 1
