"""Rule-based rewrites over the logical plan IR.

Four rules, applied in order and individually switchable through
``ArchitectureProfile.rewrite_rules`` (for ablation benchmarks):

* **constant-folding** — closed expression subtrees (no columns, params or
  subqueries) are evaluated once at plan time, so ``DATE '1994-01-01' +
  INTERVAL '1' YEAR`` costs nothing per row;
* **predicate-pushdown** — WHERE conjuncts that reference a single base
  table move onto its scan (where they can become index constraints), and
  multi-table conjuncts become join edges;
* **join-reorder** — the edge pool plus per-unit row estimates drive the
  join tree.  When at least one base table in the product has a valid
  ``ANALYZE`` snapshot, the AST predicates are translated into neutral
  sketches and :mod:`.cost` enumerates a left-deep order (DP up to
  :data:`.cost.MAX_DP_RELATIONS` relations, greedy above); without
  statistics the pre-statistics greedy size-ordered tree is produced
  unchanged (the heuristic every §5.9 system uses: "standard storage and
  query processing techniques");
* **constraint-pruning** — interval-domain analysis drops subsumed
  temporal predicates, tightens clause literals and replaces provably
  empty scans (see :func:`_prune_constraints`).

The native temporal operators are not a rule: only the explicit dialect
(``GROUP BY TEMPORAL(p)`` here, ``TEMPORAL JOIN`` in :mod:`.logical`)
reaches them, on every profile.

Join-tree construction from a :class:`LogicalProduct` always runs — physical
lowering requires binary joins — but with ``join-reorder`` disabled the
units keep their textual FROM order instead of being size-sorted.

Scan estimates are also refined here: when a scan's table has statistics,
its ``est_rows`` is recomputed from per-partition selectivities (pushed
predicates plus temporal-period clauses) and marked ``est_source="stats"``
— the flag that arms the cost-based ordering and, downstream, the
hash-join build-side swap.  See docs/COST_MODEL.md.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from ..analyze_domains import scan_domain_map
from ..errors import ProgrammingError
from ..expr import Env, Interval, Scope, compile_expr
from ..sql import ast
from . import cost
from .logical import (
    LogicalAlignJoin,
    LogicalEmpty,
    LogicalFilter,
    LogicalJoin,
    LogicalNode,
    LogicalProduct,
    LogicalQuery,
    LogicalScan,
    LogicalTemporalAggregate,
    LogicalValues,
    collect_column_refs,
    conjoin,
    rebuild_expr,
    replace_scans,
    scans_in_order,
    split_conjuncts,
    unit_layout,
)

ALL_RULES: Tuple[str, ...] = (
    "constant-folding",
    "predicate-pushdown",
    "join-reorder",
    "constraint-pruning",
)

# Every rule must state the invariants it preserves; tools/engine_lint.py
# fails the build when a rule in ALL_RULES has no declaration here.
RULE_INVARIANTS: Dict[str, Tuple[str, ...]] = {
    "constant-folding": (
        "result-equivalence",
        "source-spans",
        "temporal-clause-modes",
    ),
    "predicate-pushdown": (
        "result-equivalence",
        "left-join-null-extension",
        "subqueries-stay-residual",
    ),
    "join-reorder": (
        "result-equivalence",
        "inner-joins-only",
        "left-deep-shape",
    ),
    "constraint-pruning": (
        "result-equivalence",
        "source-spans",
        "temporal-clause-modes",
    ),
}


def rewrite_logical(
    query: LogicalQuery,
    db,
    profile,
    outer_scope: Optional[Scope] = None,
    exclude: Tuple[str, ...] = (),
) -> LogicalQuery:
    """Apply the profile's enabled rules; always normalise products to joins.

    *exclude* masks individual rules for this invocation — the analyzer
    uses it to lint the pre-pruning plan, where the evidence for its
    interval-domain rules is still visible.
    """
    rules = [
        rule
        for rule in getattr(profile, "rewrite_rules", ALL_RULES)
        if rule not in exclude
    ]
    applied: List[str] = list(query.applied_rules)
    select = query.select
    relation = query.relation

    if "constant-folding" in rules:
        select, relation, changed = _fold_query(select, relation)
        if changed:
            applied.append("constant-folding")

    if "predicate-pushdown" in rules:
        relation, changed = _push_predicates(relation, outer_scope)
        if changed:
            applied.append("predicate-pushdown")

    relation = _refine_scan_estimates(relation, db)

    relation, reordered = _order_joins(
        relation, cost_based="join-reorder" in rules, db=db
    )
    if reordered:
        applied.append("join-reorder")

    if "constraint-pruning" in rules:
        relation, changed = _prune_constraints(relation)
        if changed:
            applied.append("constraint-pruning")

    # explicit dialect syntax (GROUP BY TEMPORAL(p)) lowers to the native
    # operator on every profile — it is not a rewrite of standard SQL
    select, relation = _lower_temporal_group(select, relation)

    return LogicalQuery(select, relation, query.referenced, applied)


# ---------------------------------------------------------------------------
# constant folding
# ---------------------------------------------------------------------------

_OPEN_NODES = (
    ast.ColumnRef,
    ast.Param,
    ast.Star,
    ast.Aggregate,
    ast.InSubquery,
    ast.Exists,
    ast.ScalarSubquery,
)


def _is_closed(expr) -> bool:
    """True when the subtree references no columns, params or subqueries."""
    return all(not isinstance(node, _OPEN_NODES) for node in ast.walk_expr(expr))


def fold_expr(expr):
    """Fold closed subtrees bottom-up into literals; returns the input node
    unchanged (identity) when nothing folded."""
    if expr is None or isinstance(expr, (ast.Literal, ast.Param, ast.ColumnRef, ast.Star)):
        return expr
    child_changed = False

    def fold_child(child):
        nonlocal child_changed
        out = fold_expr(child)
        if out is not child:
            child_changed = True
        return out

    folded = rebuild_expr(expr, fold_child)
    if not child_changed:
        folded = expr  # identity-preserving: no child folded
    if isinstance(folded, ast.Literal):
        return folded
    if not _is_closed(folded):
        return folded
    try:
        fn = compile_expr(folded, Scope([]))
        value = fn((), _EMPTY_ENV)
    except Exception:
        return folded
    if isinstance(value, Interval):
        # intervals have no literal form; leave the expression intact
        return folded
    return ast.copy_span(folded, ast.Literal(value))


_EMPTY_ENV = Env({})


def _fold_query(select: ast.Select, relation: LogicalNode):
    changed = False

    def fold(expr):
        nonlocal changed
        out = fold_expr(expr)
        if out is not expr:
            changed = True
        return out

    items = [ast.SelectItem(fold(item.expr), item.alias) for item in select.items]
    group_by = [fold(expr) for expr in select.group_by]
    having = fold(select.having) if select.having is not None else None
    limit = fold(select.limit) if select.limit is not None else None
    offset = fold(select.offset) if select.offset is not None else None

    def fold_order_item(item):
        folded = fold(item.expr)
        if isinstance(folded, ast.Literal) and not isinstance(item.expr, ast.Literal):
            # a bare integer literal in ORDER BY is positional — folding an
            # expression down to one would change its meaning
            return item
        if folded is item.expr:
            return item
        return ast.OrderItem(folded, item.ascending)

    order_by = [fold_order_item(item) for item in select.order_by]
    folded_select = ast.Select(
        items=items,
        from_items=select.from_items,
        where=select.where,
        group_by=group_by,
        having=having,
        order_by=order_by,
        limit=limit,
        offset=offset,
        distinct=select.distinct,
        set_op=select.set_op,
    )
    folded_relation = _fold_relation(relation, fold)
    if not changed:
        return select, relation, False
    return folded_select, folded_relation, True


def _fold_relation(node: LogicalNode, fold) -> LogicalNode:
    if isinstance(node, LogicalFilter):
        child = _fold_relation(node.child, fold)
        predicate = fold(node.predicate)
        if child is node.child and predicate is node.predicate:
            return node
        return replace(node, child=child, predicate=predicate)
    if isinstance(node, LogicalJoin):
        left = _fold_relation(node.left, fold)
        right = _fold_relation(node.right, fold)
        conjuncts = tuple(fold(c) for c in node.conjuncts)
        if (
            left is node.left
            and right is node.right
            and all(a is b for a, b in zip(conjuncts, node.conjuncts))
        ):
            return node
        return replace(node, left=left, right=right, conjuncts=conjuncts)
    if isinstance(node, LogicalProduct):
        units = tuple(_fold_relation(u, fold) for u in node.units)
        if all(a is b for a, b in zip(units, node.units)):
            return node
        return replace(node, units=units)
    if isinstance(node, LogicalScan):
        ref = node.ref
        if not ref.temporal:
            return node
        clauses = tuple(
            ast.copy_span(
                clause,
                replace(
                    clause,
                    low=fold(clause.low) if clause.low is not None else None,
                    high=fold(clause.high) if clause.high is not None else None,
                ),
            )
            for clause in ref.temporal
        )
        if all(
            a.low is b.low and a.high is b.high
            for a, b in zip(clauses, ref.temporal)
        ):
            return node
        return replace(node, ref=ast.copy_span(ref, replace(ref, temporal=clauses)))
    # LogicalDerived sub-selects fold when they are planned themselves
    return node


# ---------------------------------------------------------------------------
# predicate pushdown
# ---------------------------------------------------------------------------


def _push_predicates(relation: LogicalNode, outer_scope):
    """Distribute top-level WHERE conjuncts onto scans and join edges."""
    if not isinstance(relation, LogicalFilter) or relation.label != "where":
        return relation, False
    if isinstance(relation.child, LogicalValues):
        return relation, False
    source = relation.child
    units: Tuple[LogicalNode, ...] = (
        source.units if isinstance(source, LogicalProduct) else (source,)
    )
    all_bindings: Set[str] = set()
    for unit in units:
        all_bindings |= unit.bindings
    # candidate scans in FROM order, excluding any beneath the right side of
    # a LEFT JOIN: filtering that input before the join would suppress the
    # NULL-extended rows a non-null-rejecting predicate (e.g. IS NULL) needs
    scans = []
    for unit in units:
        scans.extend(_pushable_scans(unit))

    conjuncts = split_conjuncts(relation.predicate)
    assigned: Dict[int, List[ast.Expr]] = {id(scan): [] for scan in scans}
    remaining: List[ast.Expr] = []
    for conjunct in conjuncts:
        target = None
        for scan in scans:
            if only_references(
                conjunct, scan.binding, scan.schema, all_bindings, outer_scope
            ):
                target = scan
                break
        if target is not None:
            assigned[id(target)].append(conjunct)
        else:
            remaining.append(conjunct)

    pushed_any = any(assigned[id(scan)] for scan in scans)
    mapping = {
        id(scan): replace(
            scan, pushed=scan.pushed + tuple(assigned[id(scan)])
        )
        for scan in scans
        if assigned[id(scan)]
    }
    new_units = tuple(replace_scans(unit, mapping) for unit in units)

    edges: List[Tuple[frozenset, ast.Expr]] = []
    residual: List[ast.Expr] = []
    if len(new_units) > 1:
        for conjunct in remaining:
            bindings = conjunct_bindings(conjunct, units)
            if bindings is not None and len(bindings) >= 2:
                edges.append((frozenset(bindings), conjunct))
            else:
                residual.append(conjunct)
        out: LogicalNode = LogicalProduct(new_units, tuple(edges))
    else:
        residual = remaining
        out = new_units[0]

    if residual:
        out = LogicalFilter(out, conjoin(residual), "where")
    return out, pushed_any or bool(edges)


def _pushable_scans(node: LogicalNode) -> List[LogicalScan]:
    if isinstance(node, LogicalScan):
        return [node]
    if isinstance(node, LogicalJoin):
        out = _pushable_scans(node.left)
        if node.kind != "left":
            out.extend(_pushable_scans(node.right))
        return out
    if isinstance(node, LogicalAlignJoin):
        # filtering either input before the align merge is sound: the
        # join keeps only key-matched overlapping pairs either way
        out = _pushable_scans(node.left)
        out.extend(_pushable_scans(node.right))
        return out
    if isinstance(node, LogicalFilter):
        return _pushable_scans(node.child)
    if isinstance(node, LogicalProduct):
        out = []
        for unit in node.units:
            out.extend(_pushable_scans(unit))
        return out
    return []


def only_references(
    conjunct, binding, schema, all_bindings=frozenset(), outer_scope=None
) -> bool:
    """True if every column in *conjunct* belongs to *binding*; references
    that resolve only in an enclosing query behave like constants, while
    references to sibling FROM units disqualify the conjunct."""
    has_local = False
    for ref in collect_column_refs(conjunct):
        if ref.table == binding:
            has_local = True
        elif ref.table is None and schema.has_column(ref.name):
            has_local = True
        elif ref.table is not None and ref.table not in all_bindings:
            # qualified with something that is not a sibling: a correlation
            # column from an enclosing query, if it resolves
            if outer_scope is None:
                return False
            try:
                outer_scope.resolve(ref)
            except ProgrammingError:
                return False
        else:
            return False
    # subquery-bearing predicates are never pushed into access paths
    for node in ast.walk_expr(conjunct):
        if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            return False
    return has_local


def conjunct_bindings(conjunct, units) -> Optional[Set[str]]:
    """Bindings (among *units*) referenced by a conjunct."""
    all_bindings: Set[str] = set()
    for unit in units:
        all_bindings |= unit.bindings
    found: Set[str] = set()
    for ref in collect_column_refs(conjunct):
        if ref.table is not None:
            if ref.table in all_bindings:
                found.add(ref.table)
        else:
            owner = _binding_of_unqualified(ref.name, units)
            if owner is not None:
                found.add(owner)
    return found


def _binding_of_unqualified(name, units) -> Optional[str]:
    owners = []
    for unit in units:
        for binding, column in unit_layout(unit):
            if column == name:
                owners.append(binding)
    if len(owners) == 1:
        return owners[0]
    return None


# ---------------------------------------------------------------------------
# statistics: scan-estimate refinement and predicate sketches
# ---------------------------------------------------------------------------


def _refine_scan_estimates(relation: LogicalNode, db) -> LogicalNode:
    """Recompute scan cardinalities from ANALYZE snapshots when available.

    Tables without a valid snapshot keep their partition-count heuristic
    (and ``est_source="heuristic"``), so a database that was never
    analyzed produces plans byte-identical to the pre-statistics engine.
    """
    if db is None or not hasattr(db, "stats_for"):
        return relation
    mapping = {}
    for scan in scans_in_order(relation):
        snapshot = db.stats_for(scan.schema.name)
        if snapshot is None:
            continue
        partitions, predicates = _scan_cost_inputs(scan, snapshot)
        est = cost.estimate_scan_rows(partitions, predicates)
        mapping[id(scan)] = replace(
            scan, est_rows=max(1, int(est + 0.5)), est_source="stats"
        )
    if not mapping:
        return relation
    return replace_scans(relation, mapping)


def _scan_cost_inputs(scan: LogicalScan, snapshot):
    """(partition sketches, predicate sketches) the cost model prices: the
    scan's partitions, its pushed conjuncts and its windows' comparisons.

    Of the implicit-current window only ``end > END_OF_TIME - 1`` is
    priced: every stored version begins before the sentinel.
    """
    table = scan.table
    partitions = []
    for name in scan.partitions:
        part = snapshot.partition(name)
        if part is not None:
            partitions.append(
                cost.PartitionSketch(name, part.row_count, part.columns)
            )
        else:
            rows = (
                table.history_count() if name == "history" else table.current_count()
            )
            partitions.append(cost.PartitionSketch(name, rows))
    predicates = [_conjunct_sketch(c, scan) for c in scan.pushed]
    for restriction in scan.restrictions:
        if restriction.window is not None:
            predicates.extend(_window_sketches(restriction))
    current = scan.current_restriction
    if current is not None:
        predicates.append(_window_sketches(current)[1])
    return partitions, predicates


def _literal_value(expr):
    """Comparison value when closed (constant folding already ran)."""
    if isinstance(expr, ast.Literal):
        return expr.value
    return None


def _window_sketches(restriction) -> List[cost.PredicateSketch]:
    """A window's two comparisons as range sketches.  The per-partition
    statistics then price them naturally: a current partition's ``end``
    column is pinned at END_OF_TIME so ``end > t`` costs ~1.0 there,
    while a history partition prices both bounds from its closed
    intervals."""
    low, high, _inclusive = restriction.window
    return [
        cost.PredicateSketch(column, op, _literal_value(value))
        for column, op, value in restriction.conjuncts(low, high)
    ]


def _conjunct_sketch(conjunct, scan: LogicalScan) -> cost.PredicateSketch:
    """One pushed conjunct as a neutral sketch (op "other" when opaque)."""
    if isinstance(conjunct, ast.IsNull) and scan.owns(conjunct.operand):
        return cost.PredicateSketch(
            conjunct.operand.name, "notnull" if conjunct.negated else "isnull"
        )
    if (
        isinstance(conjunct, ast.InList)
        and not conjunct.negated
        and scan.owns(conjunct.operand)
    ):
        return cost.PredicateSketch(
            conjunct.operand.name, "in", count=len(conjunct.items)
        )
    comparison = ast.column_comparison(conjunct, scan.owns)
    if comparison is not None:
        column, op, value = comparison
        if op == "between":
            low, high = value
            return cost.PredicateSketch(
                column.name, op, _literal_value(low), high=_literal_value(high)
            )
        if op in _SKETCHED_OPS and not isinstance(value, ast.ColumnRef):
            return cost.PredicateSketch(column.name, op, _literal_value(value))
    return cost.PredicateSketch("", "other")


#: the comparisons the cost model prices from statistics
_SKETCHED_OPS = ("=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# join-order selection
# ---------------------------------------------------------------------------


def _order_joins(relation: LogicalNode, cost_based: bool, db=None):
    """Replace every LogicalProduct with a left-deep join chain.

    With *cost_based* the order comes from the cost model when statistics
    are available (see :func:`_cost_based_order`) and from the greedy
    smallest-relation heuristic otherwise; without it textual FROM order
    is kept.  Edges attach as soon as both sides are available; edges
    that never apply surface as a join-residual filter.
    """
    reordered = False

    def transform(node: LogicalNode) -> LogicalNode:
        nonlocal reordered
        if isinstance(node, LogicalFilter):
            child = transform(node.child)
            if child is node.child:
                return node
            return replace(node, child=child)
        if isinstance(node, LogicalProduct):
            reordered = True
            return _join_tree(node, cost_based, db)
        return node

    return transform(relation), reordered


def _join_tree(product: LogicalProduct, cost_based: bool, db=None) -> LogicalNode:
    units = list(product.units)
    ordered: Optional[List[LogicalNode]] = None
    prefix_rows: Optional[Tuple[int, ...]] = None
    metrics = getattr(db, "metrics", None) if db is not None else None
    if cost_based:
        plan = _cost_based_order(product, db)
        if plan is not None:
            ordered, prefix_rows = plan
            if metrics is not None:
                metrics.inc("plan.cost_based_joins")
        elif metrics is not None:
            metrics.inc("plan.greedy_joins")
    if ordered is not None:
        remaining = list(ordered)
    elif cost_based:
        remaining = sorted(units, key=lambda u: u.est_rows)
    else:
        remaining = list(units)
    current = remaining.pop(0)
    pending: List[Tuple[frozenset, ast.Expr]] = list(product.edges)
    step = 0
    while remaining:
        if ordered is not None:
            chosen = remaining.pop(0)
        else:
            # find a unit connected to `current` through at least one edge
            chosen = None
            for candidate in remaining:
                combined = current.bindings | candidate.bindings
                if any(
                    b <= combined and (b & candidate.bindings) and (b & current.bindings)
                    for b, _c in pending
                ):
                    chosen = candidate
                    break
            if chosen is None:
                chosen = remaining[0]
            remaining.remove(chosen)
        combined = current.bindings | chosen.bindings
        applicable = [c for b, c in pending if b <= combined]
        pending = [(b, c) for b, c in pending if c not in applicable]
        step += 1
        hint = prefix_rows[step] if prefix_rows is not None else None
        current = LogicalJoin(
            "inner", current, chosen, tuple(applicable), est_hint=hint
        )
    if pending:
        current = LogicalFilter(
            current, conjoin([c for _b, c in pending]), "join-residual"
        )
    return current


def _cost_based_order(product: LogicalProduct, db):
    """Cost-model join order, or None when the greedy path must run.

    Engages only when the product holds ≥ 2 units and at least one is a
    base-table scan whose estimate was refined from a valid ANALYZE
    snapshot — the no-statistics plan must stay byte-identical to the
    pre-statistics engine.
    """
    if db is None:
        return None
    units = list(product.units)
    if len(units) < 2:
        return None
    if not any(
        isinstance(u, LogicalScan) and u.est_source == "stats" for u in units
    ):
        return None
    sketches = []
    for index, unit in enumerate(units):
        ndv: Dict[Tuple[str, str], int] = {}
        if isinstance(unit, LogicalScan) and unit.est_source == "stats":
            snapshot = db.stats_for(unit.schema.name)
            if snapshot is not None:
                for column in unit.schema.column_names():
                    merged = snapshot.merged_column(column)
                    if merged is not None and merged.ndv > 0:
                        ndv[(unit.binding, column)] = merged.ndv
        sketches.append(
            cost.UnitSketch(
                index,
                frozenset(unit.bindings),
                float(max(1, unit.est_rows)),
                ndv,
            )
        )
    edges = [
        cost.EdgeSketch(frozenset(bindings), _equi_edge_keys(conjunct, units))
        for bindings, conjunct in product.edges
    ]
    result = cost.order_joins(sketches, edges)
    return [units[i] for i in result.order], result.prefix_rows


# ---------------------------------------------------------------------------
# constraint pruning (interval-domain abstract interpretation)
# ---------------------------------------------------------------------------


def _prune_constraints(relation: LogicalNode):
    """Prune provably-redundant temporal constraints per scan.

    Runs last, on the join-ordered tree, using the shared interval-domain
    engine (:mod:`..analyze_domains`).  Three actions, each justified by
    the lattice:

    * a scan whose constraint intersection is *empty* on some column is
      replaced by :class:`LogicalEmpty` (lowered to an ``EmptyScan``);
    * a pushed predicate whose interval contains the intersection of the
      remaining constraints is dropped (only exact, non-equality atoms —
      equalities drive primary-key and hash-index probes);
    * ``FROM..TO`` / ``BETWEEN`` clause literals are tightened to the
      predicate-implied bounds, shrinking what access paths must read.

    Emptiness then propagates upward (filter of empty, inner join with an
    empty side) so EXPLAIN shows the collapse at the highest sound node.
    """
    mapping = {}
    changed = False
    for scan in scans_in_order(relation):
        domains = scan_domain_map(scan)
        if not domains.contributions:
            continue
        empties = domains.empty_columns()
        if empties:
            (binding, column), _contributions = empties[0]
            mapping[id(scan)] = LogicalEmpty(
                scan, f"contradictory constraints on {binding}.{column}"
            )
            changed = True
            continue
        new_scan = scan
        drop = {id(c.source) for c in domains.redundant_predicates()}
        if drop:
            new_scan = replace(
                new_scan,
                pushed=tuple(c for c in new_scan.pushed if id(c) not in drop),
            )
        new_scan = _tighten_clauses(new_scan, domains)
        if new_scan is not scan:
            mapping[id(scan)] = new_scan
            changed = True
    if not changed:
        return relation, False
    relation = replace_scans(relation, mapping)
    return _lift_empty(relation), True


def _tighten_clauses(scan: LogicalScan, domains) -> LogicalScan:
    """Narrow range-clause literals to the predicate-implied bounds.

    Sound as a conjunction: the scan's predicates stay in place, so
    ``clause' = clause AND (bounds the predicates imply)`` selects the
    same rows — including NULL period ends, which the predicates that
    justified the tightening reject themselves.  A window admits
    ``begin <= high`` (``< high`` exclusive) and ``end > low``; an
    ``AS OF`` has one bound for both and is left alone.
    """
    clauses = []
    any_changed = False
    for restriction in scan.restrictions:
        clause = restriction.clause
        if restriction.window is None or restriction.is_point:
            clauses.append(clause)
            continue
        period = restriction.period
        low_expr, high_expr, inclusive = restriction.window
        low = _clause_literal(low_expr)
        high = _clause_literal(high_expr)
        if low is None or high is None:
            clauses.append(clause)
            continue
        begin = domains.predicate_domain((scan.binding, period.begin_column))
        end = domains.predicate_domain((scan.binding, period.end_column))
        new_low, new_high = low, high
        if begin.high is not None:
            limit = begin.high if inclusive else begin.high + 1
            if limit < new_high:
                new_high = limit
        if end.low is not None:
            # end > low, i.e. end >= low + 1
            if end.low - 1 > new_low:
                new_low = end.low - 1
        if (new_low, new_high) == (low, high):
            clauses.append(clause)
            continue
        any_changed = True
        clauses.append(
            ast.copy_span(
                clause,
                replace(
                    clause,
                    low=ast.copy_span(clause.low, ast.Literal(new_low)),
                    high=ast.copy_span(clause.high, ast.Literal(new_high)),
                ),
            )
        )
    if not any_changed:
        return scan
    ref = ast.copy_span(scan.ref, replace(scan.ref, temporal=tuple(clauses)))
    return replace(scan, ref=ref)


def _clause_literal(expr):
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int) and not isinstance(
        expr.value, bool
    ):
        return expr.value
    return None


def _lift_empty(node: LogicalNode) -> LogicalNode:
    """Propagate emptiness upward where it is sound to do so.

    Lifting wraps the rebuilt node, so the original subtree stays
    attached for layout resolution.  It only happens over subtrees whose
    layout is exact (scans all the way down) — derived tables expose
    best-effort column lists that must not decide an EmptyScan's width.
    """
    if isinstance(node, LogicalFilter):
        child = _lift_empty(node.child)
        out = node if child is node.child else replace(node, child=child)
        if isinstance(child, LogicalEmpty) and _exact_layout(out):
            return LogicalEmpty(out, child.reason)
        return out
    if isinstance(node, LogicalJoin):
        left = _lift_empty(node.left)
        right = _lift_empty(node.right)
        out = node
        if left is not node.left or right is not node.right:
            out = replace(node, left=left, right=right)
        reason = None
        if isinstance(left, LogicalEmpty):
            reason = left.reason
        elif node.kind != "left" and isinstance(right, LogicalEmpty):
            # a LEFT JOIN's empty right side still pads — never lifted
            reason = right.reason
        if reason is not None and _exact_layout(out):
            return LogicalEmpty(out, reason)
        return out
    if isinstance(node, LogicalProduct):
        units = tuple(_lift_empty(u) for u in node.units)
        out = node
        if any(a is not b for a, b in zip(units, node.units)):
            out = replace(node, units=units)
        for unit in units:
            if isinstance(unit, LogicalEmpty) and _exact_layout(out):
                return LogicalEmpty(out, unit.reason)
        return out
    return node


def _exact_layout(node: LogicalNode) -> bool:
    """True when ``unit_layout`` is exact for the whole subtree."""
    if isinstance(node, LogicalScan):
        return True
    if isinstance(node, (LogicalEmpty, LogicalFilter)):
        return _exact_layout(node.child)
    if isinstance(node, LogicalJoin):
        return _exact_layout(node.left) and _exact_layout(node.right)
    if isinstance(node, LogicalAlignJoin):
        return _exact_layout(node.left) and _exact_layout(node.right)
    if isinstance(node, LogicalProduct):
        return all(_exact_layout(u) for u in node.units)
    return False


def _equi_edge_keys(conjunct, units):
    """``((binding, column), (binding, column))`` for a two-column equi
    conjunct, else None (the cost model then uses a default selectivity)."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
        return None
    sides = []
    for expr in (conjunct.left, conjunct.right):
        if not isinstance(expr, ast.ColumnRef):
            return None
        binding = expr.table or _binding_of_unqualified(expr.name, units)
        if binding is None:
            return None
        sides.append((binding, expr.name))
    if sides[0][0] == sides[1][0]:
        return None
    return (sides[0], sides[1])


# ---------------------------------------------------------------------------
# native temporal operators: dialect lowering
# ---------------------------------------------------------------------------


def _lower_temporal_group(select: ast.Select, relation: LogicalNode):
    """Lower ``GROUP BY TEMPORAL(p)`` to :class:`LogicalTemporalAggregate`.

    Explicit dialect syntax, honoured on every profile.  The relation
    (filters included — WHERE precedes grouping) becomes the sweep's
    input; the select list may contain only ``TEMPORAL(p)`` and
    aggregates over the input's columns.
    """
    groups = [
        expr for expr in select.group_by if isinstance(expr, ast.TemporalGroup)
    ]
    if not groups:
        for item in select.items:
            if any(
                isinstance(node, ast.TemporalGroup)
                for node in ast.walk_expr(item.expr)
            ):
                raise ProgrammingError(
                    "TEMPORAL(...) in the select list requires GROUP BY "
                    "TEMPORAL(...)"
                )
        return select, relation
    if len(select.group_by) != 1:
        raise ProgrammingError(
            "GROUP BY TEMPORAL(...) cannot be combined with other "
            "grouping expressions"
        )
    if select.having is not None:
        raise ProgrammingError("HAVING is not supported with GROUP BY TEMPORAL")
    period_name = groups[0].period
    scans = scans_in_order(relation)
    if len(scans) != 1:
        raise ProgrammingError(
            "GROUP BY TEMPORAL(...) requires a single-table FROM clause"
        )
    scan = scans[0]
    period = scan.schema.resolve_period(period_name)
    # the select list reads the operator's ``__tagg`` layout: ``t`` for
    # TEMPORAL(p), ``__a<i>`` for the i-th aggregate
    aggregates: List[ast.Aggregate] = []
    items = []
    for index, item in enumerate(select.items):
        if isinstance(item.expr, ast.TemporalGroup):
            column = "t"
        elif isinstance(item.expr, ast.Aggregate):
            column = f"__a{len(aggregates)}"
            aggregates.append(item.expr)
        else:
            raise ProgrammingError(
                "the select list of a GROUP BY TEMPORAL query may contain "
                "only TEMPORAL(...) and aggregates"
            )
        alias = item.alias if item.alias is not None else f"col{index}"
        items.append(ast.SelectItem(ast.ColumnRef(column, table="__tagg"), alias))
    order_by = [
        ast.OrderItem(ast.ColumnRef("t", table="__tagg"), item.ascending)
        if isinstance(item.expr, ast.TemporalGroup)
        else item
        for item in select.order_by
    ]
    lowered_relation = LogicalTemporalAggregate(
        relation,
        ast.ColumnRef(period.begin_column, table=scan.binding),
        ast.ColumnRef(period.end_column, table=scan.binding),
        tuple(aggregates),
        period=period_name,
    )
    lowered = ast.Select(
        items=items,
        from_items=select.from_items,
        where=select.where,
        group_by=[],
        having=None,
        order_by=order_by,
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
        set_op=select.set_op,
    )
    return lowered, lowered_relation
