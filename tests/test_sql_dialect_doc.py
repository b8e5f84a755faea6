"""Every SQL snippet shown in docs/SQL_DIALECT.md must actually work.

Documentation rot is a bug; this suite executes representative statements
for each documented feature group against a fresh database.
"""

import pytest

from repro.engine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE orders_doc ("
        " o_orderkey integer NOT NULL, o_total decimal,"
        " o_active_begin date, o_active_end date,"
        " sys_begin timestamp, sys_end timestamp,"
        " PRIMARY KEY (o_orderkey),"
        " PERIOD FOR active_time (o_active_begin, o_active_end),"
        " PERIOD FOR system_time (sys_begin, sys_end))"
    )
    database.execute(
        "INSERT INTO orders_doc (o_orderkey, o_total, o_active_begin,"
        " o_active_end) VALUES (1, 10.0, 0, 100), (2, 20.0, 10, 50)"
    )
    return database


class TestDocumentedDdl:
    def test_index_variants(self, db):
        db.execute("CREATE INDEX d1 ON orders_doc (o_total)")
        db.execute("CREATE INDEX d2 ON orders_doc (o_total) USING hash")
        db.execute(
            "CREATE INDEX d3 ON orders_doc (o_active_begin, o_active_end)"
            " USING rtree"
        )
        db.execute("CREATE INDEX d4 ON orders_doc (o_total) ON history")
        assert len(db.catalog.indexes_on("orders_doc")) == 4

    def test_view_lifecycle(self, db):
        db.execute("CREATE VIEW doc_v AS SELECT o_orderkey FROM orders_doc")
        assert db.execute("SELECT count(*) FROM doc_v").scalar() == 2
        db.execute("DROP VIEW doc_v")


class TestDocumentedTemporalRefs:
    @pytest.mark.parametrize("clause,params", [
        ("FOR SYSTEM_TIME AS OF 1", {}),
        ("FOR SYSTEM_TIME FROM 1 TO 5", {}),
        ("FOR SYSTEM_TIME BETWEEN 1 AND 5", {}),
        ("FOR SYSTEM_TIME ALL", {}),
        ("FOR BUSINESS_TIME AS OF 20", {}),
        ("FOR active_time AS OF 20", {}),
        ("FOR active_time FROM 0 TO 60", {}),
    ])
    def test_every_documented_clause(self, db, clause, params):
        result = db.execute(f"SELECT count(*) FROM orders_doc {clause}", params)
        assert result.scalar() >= 0

    def test_business_time_aliases_first_period(self, db):
        via_alias = db.execute(
            "SELECT count(*) FROM orders_doc FOR BUSINESS_TIME AS OF 20"
        ).scalar()
        via_name = db.execute(
            "SELECT count(*) FROM orders_doc FOR active_time AS OF 20"
        ).scalar()
        assert via_alias == via_name == 2


class TestDocumentedExpressions:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + 2 * 3", 7),
        ("'a' || 'b'", "ab"),
        ("5 BETWEEN 1 AND 9", True),
        ("'abc' LIKE 'a%'", True),
        ("2 IN (1, 2)", True),
        ("NULL IS NULL", True),
        ("CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END", "y"),
        ("extract(year FROM date '1994-06-17')", 1994),
        ("substring('hello' FROM 1 FOR 2)", "he"),
        ("coalesce(NULL, 9)", 9),
        ("greatest(1, 5, 3)", 5),
        ("least(4, 2)", 2),
        ("mod(7, 3)", 1),
        ("abs(-2)", 2),
        ("upper('x')", "X"),
        ("lower('X')", "x"),
        ("length('abcd')", 4),
        ("nullif(1, 1)", None),
        ("round(2.345, 2)", 2.35),
        ("floor(2.9)", 2),
        ("ceil(2.1)", 3),
    ])
    def test_documented_functions(self, db, expr, expected):
        assert db.execute(f"SELECT {expr}").scalar() == expected

    def test_interval_units(self, db):
        from repro.engine.types import date_to_day

        assert db.execute(
            "SELECT date '1994-01-01' + interval '1' year"
        ).scalar() == date_to_day("1995-01-01")
        assert db.execute(
            "SELECT date '1994-01-31' + interval '1' month"
        ).scalar() == date_to_day("1994-02-28")
        assert db.execute(
            "SELECT date '1994-01-01' + interval '10' day"
        ).scalar() == date_to_day("1994-01-11")


class TestDocumentedExplain:
    def test_explain_returns_plan_rows(self, db):
        result = db.execute(
            "EXPLAIN SELECT o_orderkey FROM orders_doc WHERE o_total > 5"
        )
        assert result.columns == ["plan"]
        assert any("Access(orders_doc" in row[0] for row in result.rows)

    def test_explain_analyze_reports_counters(self, db):
        result = db.execute(
            "EXPLAIN ANALYZE SELECT o_orderkey FROM orders_doc"
            " FOR SYSTEM_TIME AS OF 1"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "actual rows=" in text
        assert "loops=" in text
        assert "time=" in text

    def test_explain_lint_reports_diagnostics(self, db):
        result = db.execute(
            "EXPLAIN (LINT) SELECT * FROM orders_doc FOR SYSTEM_TIME ALL"
        )
        assert result.columns == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "TQ010" in text
        assert "hint:" in text

    def test_explain_lint_clean_statement(self, db):
        result = db.execute(
            "EXPLAIN LINT SELECT o_orderkey FROM orders_doc"
        )
        assert [row[0] for row in result.rows] == ["no diagnostics"]

    def test_explain_analyze_lint_combines_both(self, db):
        result = db.execute(
            "EXPLAIN (ANALYZE, LINT) SELECT o_orderkey FROM orders_doc"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "no diagnostics" in text
        assert "actual rows=" in text

    def test_explain_rejects_dml(self, db):
        from repro.engine.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            db.execute("EXPLAIN DELETE FROM orders_doc")


class TestDocumentedLimits:
    def test_no_full_outer_join(self, db):
        from repro.engine.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT 1 FROM orders_doc FULL OUTER JOIN orders_doc x ON 1 = 1")

    def test_no_intersect(self, db):
        from repro.engine.errors import SqlSyntaxError

        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT 1 INTERSECT SELECT 1")

    def test_order_by_null_placement(self, db):
        db.execute("INSERT INTO orders_doc (o_orderkey, o_total,"
                    " o_active_begin, o_active_end) VALUES (3, NULL, 0, 10)")
        ascending = db.execute(
            "SELECT o_total FROM orders_doc ORDER BY o_total"
        ).rows
        assert ascending[-1][0] is None          # NULLs last ascending
        descending = db.execute(
            "SELECT o_total FROM orders_doc ORDER BY o_total DESC"
        ).rows
        assert descending[0][0] is None          # NULLs first descending
