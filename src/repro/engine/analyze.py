"""Static semantic analyzer: temporal query lint over the logical plan IR.

The paper's headline finding is that innocuous workload variations cause
order-of-magnitude slowdowns — history access costs 26x/73x/7x/2.1x over
current-data access across the four commercial systems (PAPER.md §5) —
and most of those cliffs are *statically detectable* from the query shape
before execution.  This module walks the logical plan **after** rewrite
(so pushdown has already decided which conjuncts reach which scan, exactly
the index-vs-scan boundary of §5.3.3) and emits structured diagnostics
without executing anything.

Each diagnostic carries a stable code (``TQ002``..), a severity, the plan
node path, and — thanks to the token spans the parser threads onto AST
nodes — the line/column and source fragment of the offending SQL text.

Severities:

* ``error`` — the query is almost certainly wrong (contradictory range,
  duplicate temporal clause);
* ``warning`` — the shape silently changes semantics or falls off a
  measured performance cliff that a rewrite would avoid;
* ``info`` — the cost is real but often deliberate (the benchmark's own
  time-travel queries scan history on purpose), so figure runs report it
  without failing anything.

Per-archetype gating: ``ArchitectureProfile.lint_suppressions`` lists
the performance rules whose suggested rewrite measured below 1.5x on that
archetype (``benchmarks/test_analyzer_cliffs.py``); it is the only profile
field the rules read.  Codes of deleted rules are never reused.

Entry points: :func:`analyze_sql` / :func:`analyze_select`; surfaced as
``EXPLAIN (LINT)`` in the session layer and ``repro lint`` in the CLI.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .analyze_domains import scan_domain_map
from .errors import CatalogError, PlanError, ProgrammingError
from .plan.logical import (
    LogicalAlignJoin,
    LogicalDerived,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProduct,
    LogicalScan,
    build_logical,
    collect_column_refs,
    split_conjuncts,
)
from .plan.rewrite import conjunct_bindings, rewrite_logical
from .sql import ast
from .sql.lexer import line_col
from .sql.parser import parse_statement
from .types import SqlType, date_to_day

SEVERITIES = ("info", "warning", "error")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_FRAGMENT_LIMIT = 48

#: plausible day-number window for TQ013 (years 1900..2199).  Dates are
#: integers counting days from the 1992 epoch, so a numeric literal far
#: outside this window — most often a ``yyyymmdd`` integer like 20200101
#: — can never match a date column.  System-time columns are exempt:
#: they hold small logical commit ticks, not day numbers.
_DAY_DOMAIN = (
    date_to_day(datetime.date(1900, 1, 1)),
    date_to_day(datetime.date(2199, 12, 31)),
)

#: coarse comparability classes for TQ011 — types in the same category
#: compare meaningfully, types across categories do not.
_TYPE_CATEGORY = {
    SqlType.INTEGER: "numeric",
    SqlType.DECIMAL: "numeric",
    SqlType.VARCHAR: "string",
    SqlType.BOOLEAN: "boolean",
    SqlType.DATE: "date",
    SqlType.TIMESTAMP: "timestamp",
}


# ---------------------------------------------------------------------------
# rule registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One analyzer rule: identity, severity and its paper grounding."""

    code: str
    name: str
    severity: str
    summary: str
    paper: str  # the measurement/section that motivates the rule
    hint: str  # suggested fix, shown with every diagnostic


_RULE_LIST = (
    Rule(
        "TQ002",
        "explicit-current-as-of",
        "warning",
        "AS OF <current time> spelled explicitly forces a time-travel read",
        "§5.5 Fig 6: explicit current timestamps lose the current-partition "
        "pruning that implicit time travel gets for free",
        "drop the temporal clause (implicit current) or use a parameter the "
        "planner can prune",
    ),
    Rule(
        "TQ003",
        "non-sargable-temporal",
        "warning",
        "expression wraps a period column, defeating timeline/R-tree indexes",
        "§5.3.3: indexes only help very selective predicates; a wrapped "
        "column is never matched to an index at all",
        "rewrite so the bare period column stands alone on one side of the "
        "comparison",
    ),
    Rule(
        "TQ004",
        "contradictory-temporal-range",
        "error",
        "temporal range is empty (lower bound not below upper bound)",
        "SQL:2011 period semantics: FROM..TO is half-open, BETWEEN closed",
        "swap or widen the bounds; an empty range returns no versions",
    ),
    Rule(
        "TQ005",
        "left-join-filter-degeneration",
        "warning",
        "WHERE filter on the NULL-extended side degenerates LEFT JOIN to INNER",
        "§5.6: the TPC-H Q13 pattern — the predicate belongs in the ON clause",
        "move the predicate into the join's ON clause or guard it with IS NULL",
    ),
    Rule(
        "TQ006",
        "cartesian-product",
        "warning",
        "FROM units have no connecting join predicate",
        "§5.6: join order and edges decide intermediate sizes; a cross "
        "product is quadratic before the first filter runs",
        "add the missing join predicate between the disconnected tables",
    ),
    Rule(
        "TQ007",
        "unindexed-history-probe",
        "info",
        "key-in-time probe reads past versions with no matching index",
        "§5.3.3: past versions are scanned unless an index on the probe "
        "column covers the partition that holds them",
        "CREATE INDEX ... ON <table> (<column>) ON history (ON current on a "
        "table without a history partition) to cover the probe",
    ),
    Rule(
        "TQ009",
        "duplicate-temporal-clause",
        "error",
        "two temporal clauses resolve to the same period of one table",
        "SQL:2011 allows at most one clause per period per table reference",
        "keep a single clause per period",
    ),
    Rule(
        "TQ010",
        "history-star-projection",
        "info",
        "SELECT * over history versions returns duplicate business keys",
        "§5.2: versioned tables hold many rows per key; * exposes all of "
        "them plus the period columns",
        "project explicit columns (and version timestamps if wanted)",
    ),
    Rule(
        "TQ011",
        "join-type-mismatch",
        "warning",
        "join predicate compares columns of incompatible types",
        "§5.6: join edges decide intermediate sizes; a mistyped edge can "
        "never use an index probe and usually selects nothing",
        "join on columns of the same domain, or cast explicitly so the "
        "mismatch is deliberate",
    ),
    Rule(
        "TQ012",
        "cross-period-join",
        "error",
        "application-period column compared against a system-period column",
        "§2/§4: application time counts days, system time counts commit "
        "ticks — the domains never align, so the comparison is meaningless",
        "compare application periods with application periods and system "
        "periods with system periods",
    ),
    Rule(
        "TQ013",
        "temporal-literal-domain",
        "warning",
        "date/period column compared against a literal outside the date domain",
        "§4: application time counts days since the epoch; a bare numeric "
        "literal outside the day-number window (e.g. a yyyymmdd integer) "
        "matches nothing — the predicate silently selects an empty range",
        "write the bound as DATE '...' so the literal lives in the column's "
        "day-number domain",
    ),
    Rule(
        "TQ015",
        "contradictory-constraints",
        "error",
        "temporal constraints are contradictory: the query provably returns "
        "no rows",
        "interval-domain analysis: the intersection of the clause and "
        "predicate intervals on one period column is empty",
        "widen or fix the bounds; as written the scan can never match a "
        "version",
    ),
    Rule(
        "TQ016",
        "tautological-temporal-clause",
        "warning",
        "temporal constraint spans the column's whole recorded domain",
        "§5.5: a clause wider than the stats min/max selects everything "
        "anyway — it only forces the history partition to be read",
        "drop the constraint, or narrow it to the range actually needed",
    ),
    Rule(
        "TQ017",
        "rewrite-shaped-temporal-operator",
        "info",
        "query spells temporal aggregation as its SQL:2011 rewrite",
        "§5.6: the boundaries-self-join aggregation costs orders of "
        "magnitude more than the native sweep operator this engine provides",
        "use GROUP BY TEMPORAL(<period>)",
    ),
)

RULES: Dict[str, Rule] = {rule.code: rule for rule in _RULE_LIST}


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class Diagnostic:
    """One analyzer finding, source-anchored when spans are available."""

    code: str
    severity: str
    message: str
    hint: str
    plan_path: str
    span: Optional[Tuple[int, int]] = None
    line: Optional[int] = None
    column: Optional[int] = None
    fragment: Optional[str] = None

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def render(self) -> str:
        where = f"{self.line}:{self.column}: " if self.line is not None else ""
        out = f"{self.severity}[{self.code}] {where}{self.message}"
        if self.fragment:
            out += f"  <{self.fragment}>"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out


def analyze_sql(db, sql: str, profile=None) -> List[Diagnostic]:
    """Parse *sql* and statically analyze it (SELECT / EXPLAIN ... SELECT)."""
    stmt = parse_statement(sql)
    if isinstance(stmt, ast.Explain):
        stmt = stmt.statement
    if not isinstance(stmt, ast.Select):
        raise ProgrammingError("the analyzer only lints SELECT statements")
    return analyze_select(db, stmt, sql=sql, profile=profile)


def analyze_select(db, select: ast.Select, sql=None, profile=None) -> List[Diagnostic]:
    """Analyze an already-parsed SELECT against *db*'s catalog and profile."""
    profile = profile if profile is not None else getattr(db, "profile", None)
    analysis = _Analysis(db, profile, sql)
    analysis.check_select(select, "query")
    return analysis.finish()


# ---------------------------------------------------------------------------
# the walker
# ---------------------------------------------------------------------------


class _Analysis:
    def __init__(self, db, profile, sql):
        self.db = db
        self.profile = profile
        self.sql = sql
        self.diagnostics: List[Diagnostic] = []
        self.suppressed: Set[str] = set(
            getattr(profile, "lint_suppressions", ()) or ()
        )

    # -- emission --------------------------------------------------------

    def emit(self, code, message, node=None, path="query"):
        if code in self.suppressed:
            return
        rule = RULES[code]
        span = ast.span_of(node) if node is not None else None
        line = column = fragment = None
        if span is not None and self.sql:
            line, column = line_col(self.sql, span[0])
            text = " ".join(self.sql[span[0]:span[1]].split())
            if len(text) > _FRAGMENT_LIMIT:
                text = text[:_FRAGMENT_LIMIT] + "..."
            fragment = text or None
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=rule.severity,
                message=message,
                hint=rule.hint,
                plan_path=path,
                span=span,
                line=line,
                column=column,
                fragment=fragment,
            )
        )

    def finish(self) -> List[Diagnostic]:
        self.diagnostics.sort(
            key=lambda d: (
                -_SEVERITY_RANK[d.severity],
                d.code,
                d.span[0] if d.span else 1 << 30,
            )
        )
        return self.diagnostics

    # -- traversal -------------------------------------------------------

    def check_select(self, select: ast.Select, path: str):
        core = select
        index = 0
        while core is not None:
            core_path = path if index == 0 else f"{path}/union[{index}]"
            self.check_core(core, core_path)
            core = core.set_op[1] if core.set_op is not None else None
            index += 1

    def check_core(self, select: ast.Select, path: str):
        try:
            query = build_logical(select, self.db)
            # lint the pre-pruning plan: constraint pruning would delete
            # exactly the evidence TQ015/TQ016 report on
            query = rewrite_logical(
                query, self.db, self.profile, exclude=("constraint-pruning",)
            )
        except (CatalogError, PlanError, ProgrammingError):
            # lowering/execution reports these as hard errors; there is no
            # plan shape to lint
            self._recurse_subqueries(select, path)
            return
        relation = query.relation
        self._check_native_operators(query.select, relation, path)
        self._check_scans(relation, path)
        self._check_sargability(relation, path)
        self._check_left_join_filters(relation, path)
        self._check_connectivity(relation, path)
        self._check_join_predicates(relation, path)
        self._check_literal_domains(relation, path)
        self._check_domains(relation, path)
        self._check_projection(select, relation, path)
        for derived in _derived_in(relation):
            self.check_select(derived.select, f"{path}/derived:{derived.alias}")
        self._recurse_subqueries(select, path)

    def _recurse_subqueries(self, select: ast.Select, path: str):
        count = 0
        for expr in _expressions_of(select):
            for node in ast.walk_expr(expr):
                if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                    self.check_select(node.subquery, f"{path}/subquery[{count}]")
                    count += 1

    # -- native temporal operators (TQ017) --------------------------------

    def _check_native_operators(self, select: ast.Select, relation, path: str):
        """Flag the temporal-aggregation rewrite ``GROUP BY TEMPORAL``
        answers 48–143× faster.

        The inequality-pair overlap join is deliberately not flagged: its
        hash join with an overlap residual measured 1.2–2.1× *faster* than
        ``TEMPORAL JOIN`` on every benchmark cell (docs/TEMPORAL_OPS.md,
        "Why no fusion rule").
        """
        if _is_temporal_aggregate_rewrite(select, relation):
            self.emit(
                "TQ017",
                "boundaries-self-join temporal aggregation could use the "
                "native sweep operator (GROUP BY TEMPORAL(...))",
                select,
                path,
            )

    # -- per-scan rules (TQ002/TQ004/TQ007/TQ009) ---------------------------

    def _check_scans(self, relation: LogicalNode, path: str):
        for scan in _scans_in(relation):
            scan_path = f"{path}/scan:{scan.binding}"
            table = self._table_of(scan)
            seen_periods: Dict[Tuple[str, str], ast.TemporalClause] = {}
            for clause in scan.ref.temporal:
                period = _clause_period(scan.schema, clause)
                if period is None:
                    continue
                key = (period.begin_column, period.end_column)
                if key in seen_periods:
                    self.emit(
                        "TQ009",
                        f"table {scan.schema.name!r} has two temporal clauses "
                        f"for period {period.name!r}",
                        clause,
                        scan_path,
                    )
                else:
                    seen_periods[key] = clause
                self._check_range(scan, clause, period, scan_path)
                if period.is_system:
                    self._check_system_clause(scan, clause, table, scan_path)

    def _check_system_clause(self, scan, clause, table, scan_path):
        if clause.mode == "as_of" and isinstance(clause.low, ast.Literal):
            try:
                is_current = clause.low.value >= self.db.now()
            except TypeError:
                is_current = False
            if is_current:
                self.emit(
                    "TQ002",
                    f"explicit AS OF the current time on {scan.schema.name!r} "
                    f"reads past versions a bare reference would skip",
                    clause,
                    scan_path,
                )
        if table is not None:
            self._check_history_probe(scan, table, scan_path)

    def _check_history_probe(self, scan, table, scan_path):
        # past versions live in the history partition of a split table and
        # in the one partition ("current" or "single") of any other table
        covering = ("history",) if table.has_split else ("current", "single")
        indexed = {
            index.columns[0]
            for index in self.db.catalog.indexes_on(scan.schema.name)
            if index.partition in covering
        }
        for conjunct in scan.pushed:
            column = _probe_column(conjunct, scan)
            if column is not None and column not in indexed:
                self.emit(
                    "TQ007",
                    f"probe on {scan.schema.name}.{column} reads past "
                    f"versions without a covering index",
                    conjunct,
                    scan_path,
                )

    def _check_range(self, scan, clause, period, scan_path):
        low = clause.low.value if isinstance(clause.low, ast.Literal) else None
        high = clause.high.value if isinstance(clause.high, ast.Literal) else None
        if low is None or high is None:
            return
        try:
            empty = (low >= high) if clause.mode == "from_to" else (
                (low > high) if clause.mode == "between" else False
            )
        except TypeError:
            return
        if empty:
            self.emit(
                "TQ004",
                f"temporal range on {scan.schema.name!r} is empty "
                f"({low!r} .. {high!r}, mode {clause.mode})",
                clause,
                scan_path,
            )

    # -- sargability (TQ003) ----------------------------------------------

    def _check_sargability(self, relation: LogicalNode, path: str):
        period_columns = self._period_columns(relation)
        if not period_columns:
            return
        for conjunct, where in _predicate_conjuncts(relation, path):
            sides = _comparison_sides(conjunct)
            for side in sides:
                if isinstance(side, ast.ColumnRef) or side is None:
                    continue
                wrapped = [
                    ref
                    for ref in collect_column_refs(side)
                    if _is_period_column(ref, period_columns)
                ]
                if wrapped:
                    ref = wrapped[0]
                    self.emit(
                        "TQ003",
                        f"period column {ref.name!r} is wrapped in an "
                        f"expression; the predicate cannot use a temporal index",
                        conjunct,
                        where,
                    )
                    break

    def _period_columns(self, relation) -> Dict[Optional[str], Set[str]]:
        """binding -> period column names (None key: unqualified lookup)."""
        out: Dict[Optional[str], Set[str]] = {None: set()}
        for scan in _scans_in(relation):
            cols = {
                col
                for period in scan.schema.periods
                for col in (period.begin_column, period.end_column)
            }
            out[scan.binding] = cols
            out[None] |= cols
        return out

    # -- LEFT JOIN hazards (TQ005) ----------------------------------------

    def _check_left_join_filters(self, relation: LogicalNode, path: str):
        for node in _nodes_in(relation):
            if not isinstance(node, LogicalFilter):
                continue
            null_sides = _null_extended_bindings(node.child)
            if not null_sides:
                continue
            units = list(_scans_in(node.child)) + list(_derived_in(node.child))
            for conjunct in split_conjuncts(node.predicate):
                if any(
                    isinstance(sub, ast.IsNull) and not sub.negated
                    for sub in ast.walk_expr(conjunct)
                ):
                    continue  # the anti-join idiom keeps NULL-extended rows
                bindings = conjunct_bindings(conjunct, units)
                if not bindings:
                    continue
                for side in null_sides:
                    if bindings <= side:
                        self.emit(
                            "TQ005",
                            "filter on the NULL-extended side of a LEFT JOIN "
                            "discards the NULL-extended rows (degenerates to "
                            "INNER JOIN)",
                            conjunct,
                            f"{path}/filter:{node.label}",
                        )
                        break

    # -- cartesian products (TQ006) ---------------------------------------

    def _check_connectivity(self, relation: LogicalNode, path: str):
        leaves = list(_scans_in(relation)) + list(_derived_in(relation))
        if len(leaves) < 2:
            return
        parent = {id(leaf): id(leaf) for leaf in leaves}

        def find(key):
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        def union(a, b):
            parent[find(a)] = find(b)

        by_binding = {}
        for leaf in leaves:
            for binding in leaf.bindings:
                by_binding[binding] = id(leaf)
        for conjunct, _where in _predicate_conjuncts(relation, path):
            bindings = conjunct_bindings(conjunct, leaves) or set()
            keys = sorted({by_binding[b] for b in bindings if b in by_binding})
            for other in keys[1:]:
                union(keys[0], other)
        # an align join's implicit overlap predicate connects its sides
        # even when it carries no equality conjuncts
        for node in _nodes_in(relation):
            if isinstance(node, LogicalAlignJoin):
                keys = sorted(
                    {
                        by_binding[b]
                        for b in (node.left.bindings | node.right.bindings)
                        if b in by_binding
                    }
                )
                for other in keys[1:]:
                    union(keys[0], other)
        components = {find(id(leaf)) for leaf in leaves}
        if len(components) > 1:
            names = ", ".join(sorted(b for leaf in leaves for b in leaf.bindings))
            self.emit(
                "TQ006",
                f"{len(components)} disconnected FROM groups ({names}) form "
                f"a cartesian product",
                None,
                path,
            )

    # -- join-predicate domains (TQ011/TQ012) ------------------------------

    def _check_join_predicates(self, relation: LogicalNode, path: str):
        """Column-vs-column comparisons whose sides live in different value
        domains: incompatible SQL types across a join edge (TQ011), or an
        application-period column against a system-period column (TQ012)."""
        scans = _scans_in(relation)
        if not scans:
            return
        by_binding = {scan.binding: scan for scan in scans}
        for conjunct, where in _predicate_conjuncts(relation, path):
            if not (
                isinstance(conjunct, ast.Binary)
                and conjunct.op in _COMPARISONS
                and isinstance(conjunct.left, ast.ColumnRef)
                and isinstance(conjunct.right, ast.ColumnRef)
            ):
                continue
            left = self._resolve_ref(conjunct.left, by_binding, scans)
            right = self._resolve_ref(conjunct.right, by_binding, scans)
            if left is None or right is None:
                continue
            left_scan, left_ref = left
            right_scan, right_ref = right
            kinds = {
                _period_kind(left_scan.schema, left_ref.name),
                _period_kind(right_scan.schema, right_ref.name),
            }
            if kinds == {"system", "application"}:
                self.emit(
                    "TQ012",
                    f"{_qualified(left_scan, left_ref)} and "
                    f"{_qualified(right_scan, right_ref)} belong to different "
                    f"period kinds (application days vs system ticks)",
                    conjunct,
                    where,
                )
                continue  # the type mismatch is implied; one finding suffices
            if left_scan.binding == right_scan.binding:
                continue  # same-table comparison is not a join edge
            left_cat = _TYPE_CATEGORY.get(left_scan.schema.column(left_ref.name).type)
            right_cat = _TYPE_CATEGORY.get(right_scan.schema.column(right_ref.name).type)
            if left_cat and right_cat and left_cat != right_cat:
                self.emit(
                    "TQ011",
                    f"join predicate compares {_qualified(left_scan, left_ref)} "
                    f"({left_cat}) with {_qualified(right_scan, right_ref)} "
                    f"({right_cat})",
                    conjunct,
                    where,
                )

    # -- literal domains (TQ013) -------------------------------------------

    def _check_literal_domains(self, relation: LogicalNode, path: str):
        """Date/period columns compared against numeric literals that can
        never be day numbers (TQ013) — the classic ``yyyymmdd`` integer
        bug.  System-period columns are skipped: they count commit ticks,
        where small integers are exactly the right domain."""
        scans = _scans_in(relation)
        if not scans:
            return
        by_binding = {scan.binding: scan for scan in scans}
        for conjunct, where in _predicate_conjuncts(relation, path):
            for ref, literal in _column_literal_pairs(conjunct):
                resolved = self._resolve_ref(ref, by_binding, scans)
                if resolved is None:
                    continue
                scan, ref = resolved
                kind = _period_kind(scan.schema, ref.name)
                if kind == "system":
                    continue
                if kind != "application" and (
                    scan.schema.column(ref.name).type is not SqlType.DATE
                ):
                    continue
                value = literal.value
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                if _DAY_DOMAIN[0] <= value <= _DAY_DOMAIN[1]:
                    continue
                self.emit(
                    "TQ013",
                    f"{_qualified(scan, ref)} holds day numbers but is "
                    f"compared against {value!r}, outside the date domain",
                    conjunct,
                    where,
                )

    # -- interval domains (TQ015/TQ016) -------------------------------------

    def _check_domains(self, relation: LogicalNode, path: str):
        """Per-scan interval-domain analysis over temporal constraints.

        The shared constraint engine (:mod:`..analyze_domains`) folds every
        temporal clause and pushed predicate into per-column intervals;
        an empty intersection means the scan provably matches nothing
        (TQ015), and a constraint containing the stats min/max of every
        column it touches selects everything anyway (TQ016 — only with a
        valid ANALYZE snapshot)."""
        for scan in _scans_in(relation):
            scan_path = f"{path}/scan:{scan.binding}"
            domains = scan_domain_map(scan)
            if not domains.contributions:
                continue
            empty_keys = set()
            for (binding, column), contributions in domains.empty_columns():
                empty_keys.add((binding, column))
                node = next(
                    (c.source for c in contributions if ast.span_of(c.source)),
                    contributions[-1].source,
                )
                self.emit(
                    "TQ015",
                    f"constraints on {binding}.{column} intersect to the "
                    f"empty interval; the scan can never match a version",
                    node,
                    scan_path,
                )
            stats_getter = getattr(self.db, "stats_for", None)
            if stats_getter is None:
                continue
            snapshot = stats_getter(scan.schema.name)
            if snapshot is None:
                continue  # no (valid) ANALYZE snapshot: TQ016 stays quiet

            def stats_of(_binding, column, _snapshot=snapshot):
                return _snapshot.merged_column(column)

            for source, contributions in domains.tautological_sources(stats_of):
                if any(
                    (c.binding, c.column) in empty_keys for c in contributions
                ):
                    continue
                what = (
                    "temporal clause"
                    if isinstance(source, ast.TemporalClause)
                    else "predicate"
                )
                columns = ", ".join(
                    sorted({f"{c.binding}.{c.column}" for c in contributions})
                )
                self.emit(
                    "TQ016",
                    f"{what} on {columns} spans the whole recorded domain "
                    f"(stats min/max): it filters nothing",
                    source,
                    scan_path,
                )

    def _resolve_ref(self, ref: ast.ColumnRef, by_binding, scans):
        """The (scan, ref) a column reference resolves to, or None when the
        binding is unknown/ambiguous or the column is not a base column."""
        if ref.table is not None:
            scan = by_binding.get(ref.table)
            if scan is not None and scan.schema.has_column(ref.name):
                return scan, ref
            return None
        owners = [s for s in scans if s.schema.has_column(ref.name)]
        if len(owners) == 1:
            return owners[0], ref
        return None

    # -- projection shape (TQ010) -----------------------------------------

    def _check_projection(self, select, relation, path):
        star = next(
            (item.expr for item in select.items if isinstance(item.expr, ast.Star)),
            None,
        )
        if star is None:
            return
        for scan in _scans_in(relation):
            if star.table is not None and star.table != scan.binding:
                continue
            for clause in scan.ref.temporal:
                period = _clause_period(scan.schema, clause)
                if period is not None and period.is_system and clause.mode != "as_of":
                    self.emit(
                        "TQ010",
                        f"SELECT * over the version history of "
                        f"{scan.schema.name!r} returns one row per version",
                        star,
                        f"{path}/scan:{scan.binding}",
                    )
                    return

    # -- helpers ----------------------------------------------------------

    def _table_of(self, scan: LogicalScan):
        try:
            return self.db.table(scan.schema.name)
        except CatalogError:
            return None


# ---------------------------------------------------------------------------
# plan/AST helpers
# ---------------------------------------------------------------------------


def _nodes_in(node: LogicalNode):
    yield node
    for child in node.children():
        yield from _nodes_in(child)


def _scans_in(node: LogicalNode) -> List[LogicalScan]:
    return [n for n in _nodes_in(node) if isinstance(n, LogicalScan)]


def _derived_in(node: LogicalNode) -> List[LogicalDerived]:
    return [n for n in _nodes_in(node) if isinstance(n, LogicalDerived)]


def _predicate_conjuncts(relation: LogicalNode, path: str):
    """Every predicate conjunct in the tree with a rough location label."""
    for node in _nodes_in(relation):
        if isinstance(node, LogicalFilter):
            for conjunct in split_conjuncts(node.predicate):
                yield conjunct, f"{path}/filter:{node.label}"
        elif isinstance(node, LogicalJoin):
            for conjunct in node.conjuncts:
                yield conjunct, f"{path}/join"
        elif isinstance(node, LogicalProduct):
            for _bindings, conjunct in node.edges:
                yield conjunct, f"{path}/join"
        elif isinstance(node, LogicalAlignJoin):
            for conjunct in node.conjuncts:
                yield conjunct, f"{path}/join"
        elif isinstance(node, LogicalScan):
            for conjunct in node.pushed:
                yield conjunct, f"{path}/scan:{node.binding}"


def _clause_period(schema, clause: ast.TemporalClause):
    """Mirror of the planner's period resolution, returning None on failure."""
    if clause.period == "system_time":
        return schema.system_period
    if clause.period == "business_time":
        app = schema.application_periods
        return app[0] if app else None
    try:
        return schema.period(clause.period)
    except CatalogError:
        return None


def _period_kind(schema, column_name: str) -> Optional[str]:
    """``"system"``/``"application"`` if the column belongs to a period."""
    for period in schema.periods:
        if column_name in (period.begin_column, period.end_column):
            return "system" if period.is_system else "application"
    return None


def _qualified(scan: LogicalScan, ref: ast.ColumnRef) -> str:
    return f"{scan.binding}.{ref.name}"


def _column_literal_pairs(conjunct):
    """(column ref, literal) pairs of a comparison or BETWEEN conjunct."""
    if isinstance(conjunct, ast.Binary) and conjunct.op in _COMPARISONS:
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            yield left, right
        elif isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            yield right, left
    elif isinstance(conjunct, ast.Between) and isinstance(
        conjunct.operand, ast.ColumnRef
    ):
        for bound in (conjunct.low, conjunct.high):
            if isinstance(bound, ast.Literal):
                yield conjunct.operand, bound


def _comparison_sides(conjunct):
    if isinstance(conjunct, ast.Binary) and conjunct.op in _COMPARISONS:
        return (conjunct.left, conjunct.right)
    if isinstance(conjunct, ast.Between):
        return (conjunct.operand,)
    return ()


def _is_period_column(ref: ast.ColumnRef, period_columns) -> bool:
    if ref.table is not None:
        return ref.name in period_columns.get(ref.table, ())
    return ref.name in period_columns[None]


def _probe_column(conjunct, scan: LogicalScan) -> Optional[str]:
    """The column of a ``col = <constant>`` equality pushed onto *scan*."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
        return None
    for column_side, value_side in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not isinstance(column_side, ast.ColumnRef):
            continue
        if column_side.table not in (None, scan.binding):
            continue
        if not scan.schema.has_column(column_side.name):
            continue
        if isinstance(value_side, (ast.Literal, ast.Param)):
            return column_side.name
    return None


def _null_extended_bindings(node: LogicalNode) -> List[Set[str]]:
    """Binding sets sitting on the right side of a LEFT JOIN under *node*."""
    out: List[Set[str]] = []
    for sub in _nodes_in(node):
        if isinstance(sub, LogicalJoin) and sub.kind == "left":
            out.append(set(sub.right.bindings))
    return out


def _expressions_of(select: ast.Select):
    for item in select.items:
        yield item.expr
    if select.where is not None:
        yield select.where
    for expr in select.group_by:
        yield expr
    if select.having is not None:
        yield select.having
    for item in select.order_by:
        yield item.expr
    for from_item in select.from_items:
        yield from _from_item_expressions(from_item)


def _from_item_expressions(item):
    if isinstance(item, ast.Join):
        yield from _from_item_expressions(item.left)
        yield from _from_item_expressions(item.right)
        if item.on is not None:
            yield item.on
    elif isinstance(item, ast.TableRef):
        for clause in item.temporal:
            if clause.low is not None:
                yield clause.low
            if clause.high is not None:
                yield clause.high


# ---------------------------------------------------------------------------
# TQ017: the temporal-aggregation rewrite shape
# ---------------------------------------------------------------------------


def _normalize_ineq(conjunct):
    """(smaller, larger, strict) for a ``< <= > >=`` comparison, else None."""
    if not isinstance(conjunct, ast.Binary):
        return None
    if conjunct.op == "<":
        return conjunct.left, conjunct.right, True
    if conjunct.op == "<=":
        return conjunct.left, conjunct.right, False
    if conjunct.op == ">":
        return conjunct.right, conjunct.left, True
    if conjunct.op == ">=":
        return conjunct.right, conjunct.left, False
    return None


def _is_scan_col(expr, column, scan: LogicalScan) -> bool:
    return (
        isinstance(expr, ast.ColumnRef)
        and expr.name == column
        and (
            expr.table == scan.binding
            or (expr.table is None and scan.schema.has_column(column))
        )
    )


def _is_t_ref(expr, t_name, alias) -> bool:
    return (
        isinstance(expr, ast.ColumnRef)
        and expr.name == t_name
        and expr.table in (None, alias)
    )


def _agg_over_scan(agg: ast.Aggregate, scan: LogicalScan) -> bool:
    """True when the aggregate's argument reads only the scan's columns."""
    if agg.arg is None:
        return True
    for node in ast.walk_expr(agg.arg):
        if isinstance(
            node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery, ast.Star)
        ):
            return False
        if isinstance(node, ast.ColumnRef):
            if node.table is not None and node.table != scan.binding:
                return False
            if node.table is None and not scan.schema.has_column(node.name):
                return False
    return True


def _boundary_core(select: ast.Select):
    """Match ``SELECT <endpoint> AS t FROM <table> FOR <period> ALL`` —
    one core of the rewrite's boundary derived table.  Returns
    ``(table_name, endpoint_column, temporal_clause, output_name)``."""
    if (
        len(select.items) != 1
        or select.where is not None
        or select.group_by
        or select.having is not None
        or select.order_by
        or select.limit is not None
        or select.distinct
        or len(select.from_items) != 1
    ):
        return None
    item = select.items[0]
    if not isinstance(item.expr, ast.ColumnRef):
        return None
    ref = select.from_items[0]
    if not isinstance(ref, ast.TableRef) or len(ref.temporal) != 1:
        return None
    clause = ref.temporal[0]
    if clause.mode != "all":
        return None
    if item.expr.table is not None and item.expr.table != ref.binding:
        return None
    return ref.name, item.expr.name, clause, (item.alias or item.expr.name)


def _is_temporal_aggregate_rewrite(select: ast.Select, relation: LogicalNode) -> bool:
    """True for the boundary-union temporal-aggregation rewrite.

    Shape (the corrected R3 family): a derived table unioning *both*
    period endpoints of a table joined back to a pristine scan of the
    same table on ``begin <= t AND t < end``, grouped by ``t``, with the
    select list containing only ``t`` and aggregates over the scan — the
    query ``GROUP BY TEMPORAL`` answers identically.  The begins-only
    legacy shape misses pure-deletion boundaries and does not match.
    """
    if not isinstance(relation, LogicalJoin) or relation.kind != "inner":
        return False
    sides = (relation.left, relation.right)
    scan = next((s for s in sides if isinstance(s, LogicalScan)), None)
    derived = next((s for s in sides if isinstance(s, LogicalDerived)), None)
    if scan is None or derived is None or scan.pushed:
        return False
    dsel = derived.select
    if dsel.set_op is None or dsel.order_by or dsel.limit is not None:
        return False
    op_name, rhs, all_flag = dsel.set_op
    if op_name != "union" or all_flag or rhs.set_op is not None:
        return False
    left_core = ast.Select(
        items=dsel.items,
        from_items=dsel.from_items,
        where=dsel.where,
        group_by=dsel.group_by,
        having=dsel.having,
        distinct=dsel.distinct,
    )
    first = _boundary_core(left_core)
    second = _boundary_core(rhs)
    if first is None or second is None:
        return False
    table_a, col_a, clause_a, t_name = first
    table_b, col_b, clause_b, out_b = second
    if table_a != table_b or t_name != out_b:
        return False
    if (clause_a.period, clause_a.mode) != (clause_b.period, clause_b.mode):
        return False
    if scan.ref.name != table_a or len(scan.ref.temporal) != 1:
        return False
    sclause = scan.ref.temporal[0]
    if sclause.mode != "all" or sclause.period != clause_a.period:
        return False
    period = _clause_period(scan.schema, clause_a)
    if period is None:
        return False
    if {col_a, col_b} != {period.begin_column, period.end_column}:
        return False
    alias = derived.alias
    if len(relation.conjuncts) != 2:
        return False
    saw_begin = saw_end = False
    for conjunct in relation.conjuncts:
        norm = _normalize_ineq(conjunct)
        if norm is None:
            return False
        small, large, strict = norm
        if (
            not strict
            and _is_scan_col(small, period.begin_column, scan)
            and _is_t_ref(large, t_name, alias)
        ):
            saw_begin = True
        elif (
            strict
            and _is_t_ref(small, t_name, alias)
            and _is_scan_col(large, period.end_column, scan)
        ):
            saw_end = True
        else:
            return False
    if not (saw_begin and saw_end):
        return False
    if len(select.group_by) != 1 or not _is_t_ref(
        select.group_by[0], t_name, alias
    ):
        return False
    if select.having is not None or select.distinct:
        return False
    for item in select.items:
        if _is_t_ref(item.expr, t_name, alias):
            continue
        if isinstance(item.expr, ast.Aggregate) and _agg_over_scan(
            item.expr, scan
        ):
            continue
        return False
    return all(
        _is_t_ref(item.expr, t_name, alias) or isinstance(item.expr, ast.Literal)
        for item in select.order_by
    )


__all__ = [
    "Diagnostic",
    "Rule",
    "RULES",
    "SEVERITIES",
    "analyze_select",
    "analyze_sql",
]
