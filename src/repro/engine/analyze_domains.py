"""Interval-domain abstract interpretation over temporal constraints.

This is the shared constraint engine behind the ``constraint-pruning``
rewrite rule (which drops the predicates :meth:`redundant_predicates`
finds) and analyzer rules TQ015/TQ016: it normalizes every
temporal constraint on a scan — ``AS OF`` / ``FROM .. TO`` / ``BETWEEN``
clauses and raw comparisons pushed onto period or date columns — into
per-(binding, column) **interval lattices**: intersection for
conjunction, an explicit empty element for contradictions and ``TOP``
(unbounded) for everything the domain cannot represent, disjunction
included.

The abstraction is deliberately faithful to how the engine *executes*
each construct, not to SQL:2011 on paper:

* ``AS OF t``       ⇒ ``begin <= t`` and ``end > t`` (NULL end = open now)
* ``FROM l TO h``   ⇒ ``begin < h`` and ``end > l``  (half-open overlap)
* ``BETWEEN l, h``  ⇒ ``begin <= h`` and ``end > l`` (closed overlap)
* ``FOR .. ALL``    ⇒ no constraint

Two soundness subtleties are encoded as flags on each contribution:

* ``null_rejecting`` — whether a NULL column value fails the constraint.
  Clause *begin* constraints and every raw predicate reject NULL; clause
  *end* constraints do **not** (a NULL end means "still current" and
  compares as end-of-time).  Emptiness and redundancy proofs must keep a
  null-rejecting witness, or dropping a predicate could leak NULL rows.
* ``exact`` — whether the interval equals the constraint (vs. an
  over-approximation such as an IN-list hull).  Only exact
  contributions may be *dropped* as redundant or *flagged* as
  tautological; over-approximations remain sound as subsumers and as
  emptiness evidence.

All bounds are closed integers (ticks for system periods, day numbers
for application periods and dates); ``None`` means ±infinity.  Strict
comparisons are normalized away (``> v`` becomes ``low = v + 1``), which
is exact because the domains are integral.

The module depends only on the SQL AST, the type enum and catalog
errors, so both ``analyze`` and ``plan.rewrite`` can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .errors import CatalogError
from .sql import ast
from .types import SqlType

_COMPARISONS = ("=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# the interval lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` bounds mean ±infinity.

    The lattice element for one column: ``TOP`` is ``(None, None)``,
    bottom is any interval with ``low > high`` (canonicalized by
    :meth:`is_empty`; empty intervals compare equal through it, not
    through ``==``).
    """

    low: Optional[int] = None
    high: Optional[int] = None

    def is_empty(self) -> bool:
        return (
            self.low is not None and self.high is not None and self.low > self.high
        )

    def is_top(self) -> bool:
        return self.low is None and self.high is None

    def intersect(self, other: "Interval") -> "Interval":
        low = _max_bound(self.low, other.low)
        high = _min_bound(self.high, other.high)
        return Interval(low, high)

    def contains(self, other: "Interval") -> bool:
        """True when *other* ⊆ *self* (empty ⊆ anything)."""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        if self.low is not None and (other.low is None or other.low < self.low):
            return False
        if self.high is not None and (other.high is None or other.high > self.high):
            return False
        return True

    def describe(self) -> str:
        if self.is_empty():
            return "(empty)"
        low = "-inf" if self.low is None else str(self.low)
        high = "+inf" if self.high is None else str(self.high)
        return f"[{low}, {high}]"


TOP = Interval(None, None)
EMPTY = Interval(1, 0)


def _max_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _int_literal(expr) -> Optional[int]:
    """The int value of a Literal, or None (bools are not ints here)."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


# ---------------------------------------------------------------------------
# contributions: one constraint's effect on one column
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contribution:
    """One constraint's interval on one ``(binding, column)``.

    ``source`` is the AST node the constraint came from (a
    :class:`~repro.engine.sql.ast.TemporalClause` or a predicate
    expression) — it anchors diagnostics and identifies what the rewrite
    may drop.  ``origin`` is ``"clause"`` or ``"predicate"``.
    """

    binding: str
    column: str
    interval: Interval
    source: object
    origin: str
    null_rejecting: bool
    exact: bool
    op: Optional[str] = None  # comparison op for predicate atoms
    clause_mode: Optional[str] = None  # as_of / from_to / between


class DomainMap:
    """The per-scan constraint map: ``(binding, column) -> [Contribution]``.

    Insertion order is preserved so diagnostics and rewrite decisions are
    deterministic.
    """

    def __init__(self):
        self.contributions: List[Contribution] = []
        self._by_key: Dict[Tuple[str, str], List[Contribution]] = {}

    def add(self, contribution: Contribution):
        self.contributions.append(contribution)
        key = (contribution.binding, contribution.column)
        self._by_key.setdefault(key, []).append(contribution)

    def keys(self) -> List[Tuple[str, str]]:
        return list(self._by_key)

    def at(self, key: Tuple[str, str]) -> List[Contribution]:
        return list(self._by_key.get(key, ()))

    def domain(self, key: Tuple[str, str]) -> Interval:
        """The meet (intersection) of every contribution on *key*."""
        interval = TOP
        for contribution in self._by_key.get(key, ()):
            interval = interval.intersect(contribution.interval)
        return interval

    def predicate_domain(self, key: Tuple[str, str]) -> Interval:
        """The meet of the *predicate* contributions only (no clauses)."""
        interval = TOP
        for contribution in self._by_key.get(key, ()):
            if contribution.origin == "predicate":
                interval = interval.intersect(contribution.interval)
        return interval

    # -- the three analyses ------------------------------------------------

    def empty_columns(self) -> List[Tuple[Tuple[str, str], List[Contribution]]]:
        """Columns whose constraint intersection is provably empty.

        Sound including NULL rows: an empty intersection always involves
        a finite upper bound, and every finite-upper-bound contribution
        (clause begin constraints, raw predicates) is null-rejecting —
        we require the witness explicitly anyway.
        """
        out = []
        for key, contributions in self._by_key.items():
            if not self.domain(key).is_empty():
                continue
            if not any(c.null_rejecting for c in contributions):
                continue  # cannot prove NULL rows are excluded
            out.append((key, list(contributions)))
        return out

    def redundant_predicates(self) -> List[Contribution]:
        """Predicate contributions implied by the other constraints.

        Greedy with a dropped-set so mutually-subsuming duplicates drop
        only one side.  A candidate must be an *exact* predicate atom and
        not an equality (equalities drive primary-key probes and hash
        indexes; dropping them could change the access path).  The
        remaining constraints must keep a null-rejecting witness, their
        intersection must be non-empty (emptiness is TQ015's business),
        and it must lie inside the candidate's interval.
        """
        dropped: List[Contribution] = []
        for key, contributions in self._by_key.items():
            for candidate in contributions:
                if candidate.origin != "predicate" or not candidate.exact:
                    continue
                if candidate.op == "=":
                    continue
                rest = [
                    c
                    for c in contributions
                    if c is not candidate and c not in dropped
                ]
                if not rest or not any(c.null_rejecting for c in rest):
                    continue
                remaining = TOP
                for c in rest:
                    remaining = remaining.intersect(c.interval)
                if remaining.is_empty():
                    continue
                if candidate.interval.contains(remaining):
                    dropped.append(candidate)
        return dropped

    def tautological_sources(
        self, stats_of: Callable[[str, str], object]
    ) -> List[Tuple[object, List[Contribution]]]:
        """Sources whose constraints span the whole recorded domain.

        *stats_of* maps ``(binding, column)`` to a per-column stats
        object (``min_value``/``max_value``/``nulls``) or None; without
        stats nothing is tautological.  ``AS OF`` clauses keep snapshot
        semantics regardless of width and equality predicates are never
        flagged; every contribution of the source must be exact, and a
        null-rejecting contribution additionally needs ``nulls == 0``
        (otherwise it really does filter the NULL rows out).
        """
        by_source: Dict[int, Tuple[object, List[Contribution]]] = {}
        for contribution in self.contributions:
            entry = by_source.setdefault(
                id(contribution.source), (contribution.source, [])
            )
            entry[1].append(contribution)
        out = []
        for source, contributions in by_source.values():
            if any(c.clause_mode == "as_of" for c in contributions):
                continue
            if any(c.op == "=" for c in contributions):
                continue
            if not all(c.exact for c in contributions):
                continue
            if all(c.interval.is_top() for c in contributions):
                continue
            tautological = True
            for c in contributions:
                stats = stats_of(c.binding, c.column)
                low = getattr(stats, "min_value", None)
                high = getattr(stats, "max_value", None)
                if (
                    stats is None
                    or not isinstance(low, int)
                    or isinstance(low, bool)
                    or not isinstance(high, int)
                    or isinstance(high, bool)
                ):
                    tautological = False
                    break
                if c.null_rejecting and getattr(stats, "nulls", 1) != 0:
                    tautological = False
                    break
                if not c.interval.contains(Interval(low, high)):
                    tautological = False
                    break
            if tautological:
                out.append((source, contributions))
        return out


# ---------------------------------------------------------------------------
# building the map from a logical scan
# ---------------------------------------------------------------------------


def period_of(schema, clause) -> Optional[object]:
    """The period a temporal clause resolves to (the planner's rules)."""
    if clause.period == "system_time":
        return schema.system_period
    if clause.period == "business_time":
        app = schema.application_periods
        return app[0] if app else None
    try:
        return schema.period(clause.period)
    except CatalogError:
        return None


def tracked_columns(schema) -> Dict[str, str]:
    """column name -> kind (``period-begin``/``period-end``/``date``)."""
    out: Dict[str, str] = {}
    for column in schema.columns:
        if column.type is SqlType.DATE:
            out[column.name] = "date"
    for period in schema.periods:
        out[period.begin_column] = "period-begin"
        out[period.end_column] = "period-end"
    return out


def scan_domain_map(scan) -> DomainMap:
    """The :class:`DomainMap` of one logical scan: its temporal clauses
    plus the predicate conjuncts pushdown placed on it, restricted to
    period and date columns."""
    domains = DomainMap()
    tracked = tracked_columns(scan.schema)
    for clause in scan.ref.temporal:
        _add_clause(domains, scan, clause)
    for conjunct in scan.pushed:
        _add_predicate(domains, scan, conjunct, tracked)
    return domains


def _add_clause(domains: DomainMap, scan, clause):
    if clause.mode == "all":
        return
    period = period_of(scan.schema, clause)
    if period is None:
        return
    low = _int_literal(clause.low)
    high = _int_literal(clause.high)

    def add(column, interval, null_rejecting):
        domains.add(
            Contribution(
                binding=scan.binding,
                column=column,
                interval=interval,
                source=clause,
                origin="clause",
                null_rejecting=null_rejecting,
                exact=True,
                clause_mode=clause.mode,
            )
        )

    # begin constraints reject NULL (an unset begin never matches); end
    # constraints do not (NULL end means "still current" = end of time).
    if clause.mode == "as_of":
        if low is None:
            return
        add(period.begin_column, Interval(None, low), True)
        add(period.end_column, Interval(low + 1, None), False)
    elif clause.mode == "from_to":
        if low is None or high is None:
            return
        add(period.begin_column, Interval(None, high - 1), True)
        add(period.end_column, Interval(low + 1, None), False)
    elif clause.mode == "between":
        if low is None or high is None:
            return
        add(period.begin_column, Interval(None, high), True)
        add(period.end_column, Interval(low + 1, None), False)


def _add_predicate(domains: DomainMap, scan, conjunct, tracked):
    extracted = _interval_of(conjunct, scan, tracked)
    if extracted is None:
        return
    column, interval, exact, op = extracted
    domains.add(
        Contribution(
            binding=scan.binding,
            column=column,
            interval=interval,
            source=conjunct,
            origin="predicate",
            null_rejecting=True,  # NULL compares UNKNOWN and is filtered
            exact=exact,
            op=op,
        )
    )


def _interval_of(expr, scan, tracked):
    """``(column, interval, exact, op)`` of a predicate over one tracked
    column, or None when the expression falls outside the domain (an OR
    among them; conjuncts arrive here already split)."""
    if isinstance(expr, ast.Binary) and expr.op in _COMPARISONS:
        column = op = None
        value = None
        if isinstance(expr.left, ast.ColumnRef):
            column, op, value = expr.left, expr.op, _int_literal(expr.right)
        elif isinstance(expr.right, ast.ColumnRef):
            column = expr.right
            op = _FLIPPED[expr.op]
            value = _int_literal(expr.left)
        if column is None or value is None:
            return None
        name = _tracked_name(column, scan, tracked)
        if name is None:
            return None
        interval = {
            "=": Interval(value, value),
            "<": Interval(None, value - 1),
            "<=": Interval(None, value),
            ">": Interval(value + 1, None),
            ">=": Interval(value, None),
        }[op]
        return (name, interval, True, op)
    if isinstance(expr, ast.Between) and not expr.negated:
        name = _tracked_name(expr.operand, scan, tracked)
        low = _int_literal(expr.low)
        high = _int_literal(expr.high)
        if name is None or low is None or high is None:
            return None
        return (name, Interval(low, high), True, "between")
    if isinstance(expr, ast.InList) and not expr.negated:
        name = _tracked_name(expr.operand, scan, tracked)
        if name is None:
            return None
        values = [_int_literal(item) for item in expr.items]
        if not values or any(v is None for v in values):
            return None
        # the hull of the points: sound but inexact (gaps are lost)
        return (name, Interval(min(values), max(values)), len(values) == 1, "in")
    return None


_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _tracked_name(expr, scan, tracked) -> Optional[str]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    if expr.table not in (None, scan.binding):
        return None
    if not scan.schema.has_column(expr.name):
        return None
    return expr.name if expr.name in tracked else None


__all__ = [
    "Contribution",
    "DomainMap",
    "EMPTY",
    "Interval",
    "TOP",
    "period_of",
    "scan_domain_map",
    "tracked_columns",
]
