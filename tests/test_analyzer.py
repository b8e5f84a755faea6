"""Golden tests for the static analyzer (repro.engine.analyze).

One positive and one negative case per rule TQ001..TQ017, span/path
anchoring, severity ordering, per-profile suppression, the EXPLAIN (LINT)
surface, and the no-false-positives sweep over the full benchmark workload
on every architecture archetype.
"""

from types import SimpleNamespace

import pytest

from repro.engine.analyze import RULES, SEVERITIES, analyze_sql
from repro.engine.errors import ProgrammingError
from repro.systems import make_system


def codes(db, sql, profile=None):
    return [d.code for d in analyze_sql(db, sql, profile=profile)]


def only(db, sql, code):
    found = [d for d in analyze_sql(db, sql) if d.code == code]
    assert found, f"expected {code} for: {sql}"
    return found[0]


class TestRuleCatalog:
    def test_seventeen_stable_codes(self):
        assert sorted(RULES) == [f"TQ{n:03d}" for n in range(1, 18)]

    def test_every_rule_is_complete(self):
        for rule in RULES.values():
            assert rule.severity in SEVERITIES
            assert rule.summary and rule.paper and rule.hint
            assert rule.code == rule.code.upper()

    @staticmethod
    def _golden_methods(code):
        return [
            name
            for cls_name, cls in globals().items()
            if cls_name.startswith(f"Test{code}")
            for name in vars(cls)
        ]

    def test_every_rule_has_a_positive_golden_test(self):
        for code in RULES:
            methods = self._golden_methods(code)
            assert any(m.startswith("test_positive") for m in methods), code

    def test_every_rule_has_a_negative_golden_test(self):
        for code in RULES:
            methods = self._golden_methods(code)
            assert any(m.startswith("test_negative") for m in methods), code

    def test_analyzer_rejects_dml(self, db):
        with pytest.raises(ProgrammingError):
            analyze_sql(db, "DELETE FROM item")


class TestTQ001FullHistoryScan:
    def test_positive(self, db):
        d = only(db, "SELECT id FROM item FOR SYSTEM_TIME ALL", "TQ001")
        assert d.severity == "info"
        assert "ALL" in d.fragment

    def test_negative_bounded_range(self, db):
        assert "TQ001" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME FROM 1 TO 5"
        )


class TestTQ002ExplicitCurrentAsOf:
    def test_positive_literal_at_or_after_now(self, db):
        sql = f"SELECT id FROM item FOR SYSTEM_TIME AS OF {db.now() + 5}"
        assert only(db, sql, "TQ002").severity == "warning"

    def test_negative_parameter_is_prunable(self, db):
        assert "TQ002" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF ?"
        )


class TestTQ003NonSargableTemporal:
    def test_positive_wrapped_period_column(self, db):
        d = only(db, "SELECT id FROM item WHERE sb + 1 <= 5", "TQ003")
        assert d.severity == "warning"

    def test_negative_bare_column(self, db):
        assert "TQ003" not in codes(db, "SELECT id FROM item WHERE sb <= 5")

    def test_negative_non_period_column(self, db):
        assert "TQ003" not in codes(
            db, "SELECT id FROM item WHERE price + 1 <= 5"
        )


class TestTQ004ContradictoryRange:
    def test_positive_from_to_reversed(self, db):
        d = only(db, "SELECT id FROM item FOR SYSTEM_TIME FROM 5 TO 1", "TQ004")
        assert d.severity == "error"

    def test_positive_from_to_empty_halfopen(self, db):
        # FROM..TO is half-open: equal bounds select nothing
        assert "TQ004" in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME FROM 5 TO 5"
        )

    def test_negative_between_equal_bounds_closed(self, db):
        # BETWEEN is closed: equal bounds are a one-instant range
        assert "TQ004" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME BETWEEN 5 AND 5"
        )

    def test_positive_business_between_reversed(self, db):
        assert "TQ004" in codes(
            db, "SELECT id FROM item FOR business_time BETWEEN 30 AND 10"
        )

    def test_negative_ordered_range(self, db):
        assert "TQ004" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME FROM 1 TO 5"
        )


class TestTQ005LeftJoinFilterDegeneration:
    def test_positive_filter_on_null_extended_side(self, db):
        d = only(
            db,
            "SELECT a.id FROM item a LEFT JOIN item b ON a.id = b.id"
            " WHERE b.price > 1",
            "TQ005",
        )
        assert d.severity == "warning"

    def test_negative_filter_on_preserved_side(self, db):
        assert "TQ005" not in codes(
            db,
            "SELECT a.id FROM item a LEFT JOIN item b ON a.id = b.id"
            " WHERE a.price > 1",
        )

    def test_negative_is_null_guard(self, db):
        assert "TQ005" not in codes(
            db,
            "SELECT a.id FROM item a LEFT JOIN item b ON a.id = b.id"
            " WHERE b.price IS NULL",
        )


class TestTQ006CartesianProduct:
    def test_positive_disconnected_from(self, db):
        d = only(db, "SELECT a.id FROM item a, item b", "TQ006")
        assert d.severity == "warning"

    def test_negative_connected_by_where(self, db):
        assert "TQ006" not in codes(
            db, "SELECT a.id FROM item a, item b WHERE a.id = b.id"
        )


class TestTQ007UnindexedHistoryProbe:
    SQL = "SELECT id FROM item FOR SYSTEM_TIME AS OF 1 WHERE id = 7"

    def test_positive_no_history_index(self, db):
        assert only(db, self.SQL, "TQ007").severity == "info"

    def test_negative_with_history_index(self, db):
        db.execute("CREATE INDEX item_hist_id ON item (id) ON history")
        assert "TQ007" not in codes(db, self.SQL)

    def test_positive_current_only_index_does_not_cover(self, db):
        db.execute("CREATE INDEX item_cur_id ON item (id) ON current")
        assert "TQ007" in codes(db, self.SQL)


class TestTQ008SimulatedApplicationTime:
    CREATE = (
        "CREATE TABLE item ("
        " id integer NOT NULL, price decimal,"
        " ab date, ae date, sb timestamp, se timestamp,"
        " PRIMARY KEY (id),"
        " PERIOD FOR business_time (ab, ae),"
        " PERIOD FOR system_time (sb, se))"
    )

    def test_positive_on_system_c(self):
        from repro.systems import make_system

        system = make_system("C")
        system.db.execute(self.CREATE)
        found = [d.code for d in
                 system.lint("SELECT id FROM item FOR business_time AS OF 10")]
        assert "TQ008" in found

    def test_negative_on_system_a(self):
        from repro.systems import make_system

        system = make_system("A")
        system.db.execute(self.CREATE)
        found = [d.code for d in
                 system.lint("SELECT id FROM item FOR business_time AS OF 10")]
        assert "TQ008" not in found


class TestTQ009DuplicateTemporalClause:
    def test_positive_same_period_twice(self, db):
        d = only(
            db,
            "SELECT id FROM item"
            " FOR SYSTEM_TIME AS OF 1 FOR SYSTEM_TIME FROM 1 TO 2",
            "TQ009",
        )
        assert d.severity == "error"

    def test_positive_alias_and_name_same_period(self, db):
        # BUSINESS_TIME aliases the first application period: same columns
        assert "TQ009" in codes(
            db,
            "SELECT id FROM item"
            " FOR BUSINESS_TIME AS OF 1 FOR business_time AS OF 2",
        )

    def test_negative_distinct_periods(self, db):
        assert "TQ009" not in codes(
            db,
            "SELECT id FROM item"
            " FOR SYSTEM_TIME AS OF 1 FOR business_time AS OF 2",
        )


class TestTQ010HistoryStarProjection:
    def test_positive_star_over_history(self, db):
        d = only(db, "SELECT * FROM item FOR SYSTEM_TIME ALL", "TQ010")
        assert d.severity == "info"

    def test_negative_as_of_is_a_snapshot(self, db):
        assert "TQ010" not in codes(
            db, "SELECT * FROM item FOR SYSTEM_TIME AS OF 1"
        )

    def test_negative_explicit_projection(self, db):
        assert "TQ010" not in codes(
            db, "SELECT id, price FROM item FOR SYSTEM_TIME ALL"
        )


class TestTQ011JoinTypeMismatch:
    def test_positive_string_vs_numeric_edge(self, db):
        d = only(db, "SELECT a.id FROM item a, item b WHERE a.name = b.price", "TQ011")
        assert d.severity == "warning"
        assert "a.name" in d.message and "b.price" in d.message

    def test_negative_same_type_edge(self, db):
        assert "TQ011" not in codes(
            db, "SELECT a.id FROM item a, item b WHERE a.id = b.id"
        )

    def test_negative_numeric_category_is_compatible(self, db):
        # INTEGER vs DECIMAL both live in the numeric category.
        assert "TQ011" not in codes(
            db, "SELECT a.id FROM item a, item b WHERE a.id = b.price"
        )

    def test_negative_same_binding_is_not_a_join_edge(self, db):
        assert "TQ011" not in codes(
            db,
            "SELECT a.id FROM item a, item b WHERE a.name = a.name AND a.id = b.id",
        )


class TestTQ012CrossPeriodJoin:
    def test_positive_app_vs_system_column(self, db):
        d = only(
            db,
            "SELECT a.id FROM item a, item b WHERE a.ab = b.sb AND a.id = b.id",
            "TQ012",
        )
        assert d.severity == "error"
        assert "a.ab" in d.message and "b.sb" in d.message

    def test_positive_same_table_cross_period(self, db):
        assert "TQ012" in codes(db, "SELECT id FROM item WHERE ab = sb")

    def test_positive_suppresses_tq011(self, db):
        found = codes(
            db, "SELECT a.id FROM item a, item b WHERE a.ae = b.se AND a.id = b.id"
        )
        assert "TQ012" in found
        assert "TQ011" not in found

    def test_negative_both_application(self, db):
        assert "TQ012" not in codes(
            db, "SELECT a.id FROM item a, item b WHERE a.ab = b.ae AND a.id = b.id"
        )

    def test_negative_both_system(self, db):
        assert "TQ012" not in codes(
            db, "SELECT a.id FROM item a, item b WHERE a.sb = b.se AND a.id = b.id"
        )


class TestTQ013TemporalLiteralDomain:
    def test_positive_yyyymmdd_integer(self, db):
        d = only(db, "SELECT id FROM item WHERE ab >= 20200101", "TQ013")
        assert d.severity == "warning"
        assert "ab" in d.message and "20200101" in d.message

    def test_positive_literal_on_the_left(self, db):
        assert "TQ013" in codes(db, "SELECT id FROM item WHERE 20200101 < ae")

    def test_positive_between_bounds(self, db):
        assert "TQ013" in codes(
            db, "SELECT id FROM item WHERE ab BETWEEN 20200101 AND 20201231"
        )

    def test_negative_date_literal(self, db):
        assert "TQ013" not in codes(
            db, "SELECT id FROM item WHERE ab >= date '2020-01-01'"
        )

    def test_negative_plausible_day_number(self, db):
        # day 10000 from the 1992 epoch is a perfectly ordinary date
        assert "TQ013" not in codes(db, "SELECT id FROM item WHERE ab > 10000")

    def test_negative_system_period_ticks(self, db):
        # system time counts commit ticks; large integers are legal there
        assert "TQ013" not in codes(
            db, "SELECT id FROM item WHERE sb <= 20200101"
        )

    def test_negative_non_temporal_column(self, db):
        assert "TQ013" not in codes(
            db, "SELECT id FROM item WHERE price > 20200101"
        )

    def test_negative_parameter(self, db):
        assert "TQ013" not in codes(db, "SELECT id FROM item WHERE ab >= ?")


class TestTQ014SubsumedTemporalConstraint:
    def test_positive_wider_predicate(self, db):
        d = only(db, "SELECT id FROM item WHERE sb >= 2 AND sb >= 1", "TQ014")
        assert d.severity == "warning"
        assert "sb" in d.message

    def test_positive_clause_subsumes_predicate(self, db):
        # AS OF 5 already implies sb <= 5; the wider sb <= 9 adds nothing
        assert "TQ014" in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF 5 WHERE sb <= 9"
        )

    def test_negative_single_predicate(self, db):
        assert "TQ014" not in codes(db, "SELECT id FROM item WHERE sb >= 2")

    def test_negative_equality_never_flagged(self, db):
        # an implied equality still drives pk/hash-index probes: keep it
        assert "TQ014" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF 9 WHERE sb = 5"
        )

    def test_negative_clause_never_flagged(self, db):
        # a clause wider than the predicates still gates partition choice
        assert "TQ014" not in codes(
            db,
            "SELECT id FROM item FOR SYSTEM_TIME BETWEEN 1 AND 9 WHERE sb <= 2",
        )


class TestTQ015ContradictoryConstraints:
    def test_positive_contradictory_predicates(self, db):
        d = only(db, "SELECT id FROM item WHERE sb > 10 AND sb < 5", "TQ015")
        assert d.severity == "error"
        assert "sb" in d.message

    def test_positive_clause_vs_predicate(self, db):
        assert "TQ015" in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME AS OF 5 WHERE sb > 10"
        )

    def test_negative_satisfiable_range(self, db):
        assert "TQ015" not in codes(
            db, "SELECT id FROM item WHERE sb > 5 AND sb < 10"
        )

    def test_negative_empty_period_can_still_overlap(self, db):
        # FROM 5 TO 5 is an empty *period* (TQ004's business), but the
        # engine's overlap test is begin < 5 AND end > 5, which a long
        # version satisfies — the per-column intervals stay satisfiable
        assert "TQ015" not in codes(
            db, "SELECT id FROM item FOR SYSTEM_TIME FROM 5 TO 5"
        )


class TestTQ016TautologicalClause:
    def _load_and_analyze(self, db):
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (1, 'a', 1, DATE '1995-01-01', DATE '1996-01-01')"
        )
        db.execute(
            "INSERT INTO item (id, name, price, ab, ae) VALUES"
            " (2, 'b', 2, DATE '1995-06-01', DATE '1997-01-01')"
        )
        db.execute("ANALYZE item")

    WIDE = (
        "SELECT id FROM item WHERE ab BETWEEN DATE '1900-01-01'"
        " AND DATE '2100-01-01'"
    )

    def test_positive_predicate_spanning_domain(self, db):
        self._load_and_analyze(db)
        d = only(db, self.WIDE, "TQ016")
        assert d.severity == "warning"
        assert "ab" in d.message

    def test_positive_clause_spanning_domain(self, db):
        self._load_and_analyze(db)
        assert "TQ016" in codes(
            db,
            "SELECT id FROM item FOR business_time BETWEEN"
            " DATE '1900-01-01' AND DATE '2100-01-01'",
        )

    def test_negative_without_statistics(self, db):
        # no ANALYZE snapshot: the recorded domain is unknown
        assert "TQ016" not in codes(db, self.WIDE)

    def test_negative_narrow_predicate(self, db):
        self._load_and_analyze(db)
        assert "TQ016" not in codes(
            db,
            "SELECT id FROM item WHERE ab BETWEEN DATE '1995-02-01'"
            " AND DATE '1995-03-01'",
        )

    def test_negative_as_of_keeps_snapshot_semantics(self, db):
        self._load_and_analyze(db)
        assert "TQ016" not in codes(
            db, "SELECT id FROM item FOR business_time AS OF DATE '2100-01-01'"
        )


class TestTQ017RewriteShapedTemporalOperator:
    AGG_REWRITE = (
        "SELECT b.t, count(*)"
        " FROM (SELECT sb AS t FROM item FOR SYSTEM_TIME ALL"
        "       UNION SELECT se AS t FROM item FOR SYSTEM_TIME ALL) b,"
        "      item FOR SYSTEM_TIME ALL o"
        " WHERE o.sb <= b.t AND o.se > b.t"
        " GROUP BY b.t"
    )
    JOIN_REWRITE = (
        "SELECT count(*)"
        " FROM item FOR SYSTEM_TIME ALL l, item FOR SYSTEM_TIME ALL r"
        " WHERE l.id = r.id AND l.sb < r.se AND r.sb < l.se"
    )

    def test_positive_boundary_self_join_aggregation(self, db):
        d = only(db, self.AGG_REWRITE, "TQ017")
        assert d.severity == "info"
        assert "GROUP BY TEMPORAL" in d.message

    def test_positive_fires_on_system_e(self, db):
        # E executes the text it is sent: the shape is not auto-silent there
        profile = make_system("E").db.profile
        assert "TQ017" in codes(db, self.AGG_REWRITE, profile=profile)

    def test_negative_inequality_pair_overlap_join(self, db):
        # the hash join with an overlap residual measured faster than
        # TEMPORAL JOIN, so the analyzer suggests it on no profile
        assert "TQ017" not in codes(db, self.JOIN_REWRITE)
        for name in "ABCDE":
            profile = make_system(name).db.profile
            assert "TQ017" not in codes(db, self.JOIN_REWRITE, profile=profile)

    def test_negative_native_dialect_syntax(self, db):
        assert "TQ017" not in codes(
            db,
            "SELECT TEMPORAL(system_time) AS t, count(*)"
            " FROM item FOR SYSTEM_TIME ALL"
            " GROUP BY TEMPORAL(system_time)",
        )
        assert "TQ017" not in codes(
            db,
            "SELECT count(*)"
            " FROM item FOR SYSTEM_TIME ALL l"
            " TEMPORAL JOIN item FOR SYSTEM_TIME ALL r ON l.id = r.id",
        )

    def test_negative_begins_only_boundary_list(self, db):
        # the legacy begins-only DISTINCT shape is *not* equivalent to the
        # native sweep (it misses pure-deletion boundaries), so the
        # analyzer must not claim the native operator can replace it
        assert "TQ017" not in codes(
            db,
            "SELECT b.t, count(*)"
            " FROM (SELECT DISTINCT sb AS t FROM item FOR SYSTEM_TIME ALL) b,"
            "      item FOR SYSTEM_TIME ALL o"
            " WHERE o.sb <= b.t AND o.se > b.t"
            " GROUP BY b.t",
        )


class TestAnchoring:
    def test_line_and_column_on_multiline_sql(self, db):
        sql = "SELECT id\nFROM item FOR SYSTEM_TIME ALL"
        d = only(db, sql, "TQ001")
        assert d.line == 2
        assert d.column == 11  # the FOR keyword
        assert d.span is not None

    def test_plan_path_names_the_scan(self, db):
        d = only(db, "SELECT id FROM item FOR SYSTEM_TIME ALL", "TQ001")
        assert d.plan_path == "query/scan:item"

    def test_plan_path_enters_subqueries(self, db):
        d = only(
            db,
            "SELECT id FROM item WHERE id IN"
            " (SELECT id FROM item FOR SYSTEM_TIME ALL)",
            "TQ001",
        )
        assert d.plan_path.startswith("query/subquery[0]")

    def test_plan_path_enters_derived_tables(self, db):
        d = only(
            db,
            "SELECT x.id FROM"
            " (SELECT id FROM item FOR SYSTEM_TIME ALL) x",
            "TQ001",
        )
        assert d.plan_path.startswith("query/derived:x")

    def test_plan_path_enters_union_branches(self, db):
        d = only(
            db,
            "SELECT id FROM item UNION"
            " SELECT id FROM item FOR SYSTEM_TIME ALL",
            "TQ001",
        )
        assert "union[1]" in d.plan_path

    def test_errors_sort_before_info(self, db):
        diags = analyze_sql(
            db, "SELECT * FROM item FOR SYSTEM_TIME FROM 5 TO 1"
        )
        assert [d.code for d in diags][0] == "TQ004"
        assert [d.severity for d in diags] == sorted(
            (d.severity for d in diags),
            key=lambda s: -SEVERITIES.index(s),
        )

    def test_render_shape(self, db):
        d = only(db, "SELECT id FROM item FOR SYSTEM_TIME ALL", "TQ001")
        text = d.render()
        assert text.startswith("info[TQ001] ")
        assert "\n    hint: " in text


class TestSuppression:
    def test_suppressed_code_is_silent(self, db):
        profile = SimpleNamespace(lint_suppressions=("TQ001",))
        found = codes(
            db, "SELECT * FROM item FOR SYSTEM_TIME ALL", profile=profile
        )
        assert "TQ001" not in found
        assert "TQ010" in found  # other rules still fire


class TestSurfaces:
    def test_explain_lint_rows(self, db):
        result = db.execute(
            "EXPLAIN (LINT) SELECT id FROM item FOR SYSTEM_TIME ALL"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "TQ001" in text

    def test_database_lint(self, db):
        diags = db.lint("SELECT id FROM item FOR SYSTEM_TIME ALL")
        assert [d.code for d in diags] == ["TQ001"]

    def test_analyze_sql_accepts_explain_prefix(self, db):
        assert "TQ001" in codes(
            db, "EXPLAIN SELECT id FROM item FOR SYSTEM_TIME ALL"
        )


SWEEP_SYSTEMS = ("A", "B", "C", "D", "E")


@pytest.mark.parametrize("name", SWEEP_SYSTEMS)
def test_workload_sweep_no_false_positives(name):
    """The benchmark's own queries are known-good: every T/H/K/R/B statement
    must lint without warnings or errors on every archetype (deliberate
    history scans are info-level by design)."""
    from repro.core.queries import Workload
    from repro.core.queries.tpch import as_benchmark_queries
    from repro.core.schema import create_benchmark_tables
    from repro.systems import make_system

    system = make_system(name)
    create_benchmark_tables(system.db, temporal=True)
    targets = [(q.qid, q.sql) for q in Workload()]
    for mode in ("plain", "app", "sys"):
        targets.extend((q.qid, q.sql) for q in as_benchmark_queries(mode))
    assert len(targets) > 100
    offenders = []
    for qid, sql in targets:
        for d in system.lint(sql):
            if d.severity in ("warning", "error"):
                offenders.append(f"{name}/{qid}: {d.render()}")
    assert not offenders, "\n".join(offenders)
