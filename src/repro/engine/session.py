"""Statement dispatch: parse → plan → execute, for all statement kinds.

DML statements follow the rewrite strategy the paper documents: an UPDATE
or DELETE first *finds* the affected keys with an ordinary query — the
implicit-current ``SELECT <pk> FROM t WHERE ...``, planned and executed
like any other SELECT — then computes the temporal row operations
(invalidate / re-insert / split) of every key, checks the whole write set
and applies it at one tick (:mod:`repro.engine.temporal`).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import temporal
from .catalog import Column, IndexDef, TableSchema, PeriodDef
from .errors import DataError, NotSupportedError, ProgrammingError, QueryTimeout
from .expr import Env, Scope, compile_expr
from .plan.planner import Planner, PlannedQuery
from .sql import ast, parse_statement
from .types import Period, SqlType


@dataclass
class Result:
    """Outcome of one statement execution."""

    rows: List[tuple] = field(default_factory=list)
    columns: List[str] = field(default_factory=list)
    rowcount: int = -1

    def scalar(self):
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def _normalize_params(params) -> Dict:
    if params is None:
        return {}
    if isinstance(params, dict):
        return {str(k).lower(): v for k, v in params.items()}
    return dict(enumerate(params))


class SqlEngine:
    """Per-database SQL façade with an LRU plan cache.

    Plans are cached per SQL text and validated against the catalog versions
    of the objects they reference: DDL on a table invalidates exactly the
    plans that touch it, everything else stays cached.  Overflow evicts the
    least recently used entry instead of clearing the whole cache.
    """

    def __init__(self, db):
        self.db = db
        self.planner = Planner(db)
        self._plan_cache: "OrderedDict[str, PlannedQuery]" = OrderedDict()
        self.plan_cache_limit = 256
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        #: plan-cache outcome of the most recent statement (True hit /
        #: False miss / None not applicable), for the telemetry store
        self._cache_outcome: Optional[bool] = None

    # -- plan cache ----------------------------------------------------------

    def _cached_plan(self, sql: str) -> Optional[PlannedQuery]:
        metrics = self.db.metrics
        planned = self._plan_cache.get(sql)
        if planned is None:
            self.cache_misses += 1
            metrics.inc("plan.cache_miss")
            return None
        catalog = self.db.catalog
        # per-name checks only run when some DDL happened since this plan
        # was last validated; the common hit path is one int comparison
        if planned.checked_at_version != catalog.version:
            for name, version in planned.dependencies.items():
                if catalog.version_of(name) != version:
                    del self._plan_cache[sql]
                    self.cache_invalidations += 1
                    self.cache_misses += 1
                    metrics.inc("plan.cache_invalidate")
                    metrics.inc("plan.cache_miss")
                    return None
            planned.checked_at_version = catalog.version
        self._plan_cache.move_to_end(sql)
        self.cache_hits += 1
        metrics.inc("plan.cache_hit")
        return planned

    def _store_plan(self, sql: str, planned: PlannedQuery):
        while len(self._plan_cache) >= self.plan_cache_limit:
            self._plan_cache.popitem(last=False)
            self.db.metrics.inc("plan.cache_evict")
        planned.checked_at_version = self.db.catalog.version
        self._plan_cache[sql] = planned

    def cache_stats(self) -> Dict[str, int]:
        return {
            "size": len(self._plan_cache),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.cache_invalidations,
        }

    # -- public API ----------------------------------------------------------

    def execute(self, sql, params=None, timeout_s=None) -> Result:
        tracer = self.db.tracer
        telemetry = self.db.telemetry
        tracking = telemetry.enabled and isinstance(sql, str)
        if not tracer.active and not tracking:
            # hot path: no sinks, no statement stats —
            # zero observability overhead
            return self._dispatch(sql, params, timeout_s)
        self._cache_outcome = None
        # the statement store folds the EXPLAIN ANALYZE record of the run
        metrics = {} if tracking else None
        sql_text = sql if isinstance(sql, str) else type(sql).__name__
        root = tracer.start("query", sql=sql_text) if tracer.active else None
        started = time.perf_counter()
        try:
            result = self._dispatch(sql, params, timeout_s, metrics)
        except BaseException as exc:
            if root is not None:
                tracer.finish(root, aborted=True)
            if tracking:
                timed_out = isinstance(exc, QueryTimeout)
                telemetry.record(
                    sql,
                    time.perf_counter() - started,
                    cache_hit=self._cache_outcome,
                    timed_out=timed_out,
                    aborted=not timed_out,
                    metrics=metrics,
                )
            raise
        elapsed = time.perf_counter() - started
        if root is not None:
            root.set(rows=result.rowcount)
            tracer.finish(root)
        if tracking:
            telemetry.record(
                sql,
                elapsed,
                rows=max(result.rowcount, 0),
                cache_hit=self._cache_outcome,
                metrics=metrics,
            )
        return result

    def _dispatch(self, sql, params, timeout_s, metrics=None) -> Result:
        stmt = None
        tracer = self.db.tracer
        if isinstance(sql, str):
            with tracer.span("plan_cache.lookup") as span:
                cached = self._cached_plan(sql)
                span.set(outcome="hit" if cached is not None else "miss")
            if cached is not None:
                self._cache_outcome = True
                return self._run_planned(cached, params, timeout_s, metrics)
            with tracer.span("parse"):
                stmt = parse_statement(sql)
        else:
            stmt = sql  # pre-parsed AST
        if isinstance(stmt, ast.Select):
            planned = self.planner.plan_select(stmt)
            if isinstance(sql, str):
                self._store_plan(sql, planned)
                self._cache_outcome = False
            return self._run_planned(planned, params, timeout_s, metrics)
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(
                stmt, params, timeout_s, sql if isinstance(sql, str) else None
            )
        if isinstance(stmt, ast.Analyze):
            return self._execute_analyze(stmt)
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt, params, timeout_s, metrics)
        if isinstance(stmt, (ast.Update, ast.Delete)):
            return self._execute_update_delete(stmt, params, timeout_s, metrics)
        if isinstance(stmt, ast.CreateTable):
            return self._execute_create_table(stmt)
        if isinstance(stmt, ast.CreateIndex):
            return self._execute_create_index(stmt)
        if isinstance(stmt, ast.CreateView):
            self.db.create_view(stmt.name, stmt.select)
            return Result(rowcount=0)
        if isinstance(stmt, ast.DropView):
            self.db.drop_view(stmt.name)
            return Result(rowcount=0)
        if isinstance(stmt, ast.DropTable):
            self.db.drop_table(stmt.name)
            return Result(rowcount=0)
        if isinstance(stmt, ast.DropIndex):
            self.db.drop_index(stmt.name)
            return Result(rowcount=0)
        raise ProgrammingError(f"cannot execute statement {stmt!r}")

    def _run_planned(self, planned: PlannedQuery, params, timeout_s,
                     metrics=None) -> Result:
        tracer = self.db.tracer
        env = Env(_normalize_params(params), timeout_s, metrics,
                  tracer if tracer.active else None)
        started = time.perf_counter()
        with tracer.span("execute") as span:
            rows = planned.rows(env)
            span.set(rows=len(rows))
        self.db.metrics.observe("query.execute_s", time.perf_counter() - started)
        return Result(rows, planned.column_names, len(rows))

    def explain(self, sql, params=None) -> str:
        stmt = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(stmt, ast.Explain):
            stmt = stmt.statement
        if not isinstance(stmt, ast.Select):
            raise ProgrammingError("EXPLAIN is only supported for SELECT")
        planned = self.planner.plan_select(stmt)
        return planned.explain()

    def explain_analyze(self, sql, params=None) -> str:
        was_wrapped = False
        stmt = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(stmt, ast.Explain):
            stmt = stmt.statement
            was_wrapped = True
        if not isinstance(stmt, ast.Select):
            raise ProgrammingError("EXPLAIN ANALYZE is only supported for SELECT")
        # The plan cache is keyed by statement text, so when the caller hands
        # us the bare SELECT text we consult (and populate) the same cache
        # execute() uses — the reported hit/miss is the outcome an ordinary
        # execution of this text would have seen.  EXPLAIN-wrapped text keys
        # would collide with the inner SELECT's results, so those bypass.
        outcome = None
        if isinstance(sql, str) and not was_wrapped:
            planned = self._cached_plan(sql)
            outcome = "hit" if planned is not None else "miss"
            if planned is None:
                planned = self.planner.plan_select(stmt)
                self._store_plan(sql, planned)
        else:
            planned = self.planner.plan_select(stmt)
        return self._analyzed(planned, params, None, outcome)

    def _analyzed(self, planned: PlannedQuery, params, timeout_s, cache) -> str:
        """Run *planned* recording per-operator metrics and render them
        (EXPLAIN ANALYZE), ending in a ``plan cache:`` line unless *cache*
        is None."""
        env = Env(_normalize_params(params), timeout_s, metrics={})
        planned.rows(env)
        text = planned.explain_analyze(env.metrics)
        return text if cache is None else f"{text}\nplan cache: {cache}"

    def lint(self, sql):
        """Static diagnostics for a SELECT (see :mod:`repro.engine.analyze`)."""
        from .analyze import analyze_select, analyze_sql  # deferred: cycle

        if isinstance(sql, str):
            return analyze_sql(self.db, sql)
        if isinstance(sql, ast.Explain):
            sql = sql.statement
        if not isinstance(sql, ast.Select):
            raise ProgrammingError("the analyzer only lints SELECT statements")
        return analyze_select(self.db, sql)

    def _execute_explain(self, stmt: ast.Explain, params, timeout_s, sql=None) -> Result:
        # EXPLAIN output is never cached: it is a diagnostic, and ANALYZE
        # runs the query anyway
        if stmt.lint:
            from .analyze import analyze_select  # deferred: cycle

            diagnostics = analyze_select(self.db, stmt.statement, sql=sql)
            lines = []
            for diagnostic in diagnostics:
                lines.extend(diagnostic.render().split("\n"))
            if not lines:
                lines = ["no diagnostics"]
            if stmt.analyze:
                lines.append("")
        else:
            lines = []
        if not stmt.lint or stmt.analyze:
            lines.extend(self._explain_lines(stmt, params, timeout_s))
        return Result([(line,) for line in lines], ["plan"], len(lines))

    def _explain_lines(self, stmt: ast.Explain, params, timeout_s) -> List[str]:
        if stmt.analyze:
            text = self._analyzed(
                self.planner.plan_select(stmt.statement), params, timeout_s,
                "bypass (EXPLAIN statements are never cached)",
            )
        else:
            text = self.explain(stmt.statement)
        return text.split("\n")

    def _execute_analyze(self, stmt: ast.Analyze) -> Result:
        """ANALYZE [TABLE] [name]: collect statistics, report per partition."""
        collected = self.db.analyze(stmt.table)
        rows = []
        for snapshot in collected:
            for name in sorted(snapshot.partitions):
                part = snapshot.partitions[name]
                rows.append(
                    (snapshot.table, name, part.row_count, len(part.columns))
                )
        return Result(
            rows, ["table", "partition", "row_count", "columns_analyzed"], len(rows)
        )

    # -- DML ---------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert, params, timeout_s, metrics) -> Result:
        table = self.db.table(stmt.table)
        schema = table.schema
        if stmt.select is not None:
            planned = self.planner.plan_select(stmt.select)
            source_rows = self._run_planned(planned, params, timeout_s, metrics).rows
        else:
            env = Env(_normalize_params(params))
            scope = Scope([])
            source_rows = [
                tuple(compile_expr(e, scope)((), env) for e in row)
                for row in stmt.rows
            ]
        columns = stmt.columns or schema.column_names()
        rows = []
        for values in source_rows:
            if len(values) != len(columns):
                raise ProgrammingError(
                    f"INSERT arity mismatch: {len(columns)} columns, "
                    f"{len(values)} values"
                )
            rows.append(schema.row_from(dict(zip(columns, values))))
        temporal.check(table, (), rows)
        temporal.apply(table, (), rows, self.db.txns)
        return Result(rowcount=len(rows))

    def _affected_keys(self, stmt, schema, params, timeout_s, metrics) -> List[tuple]:
        """Distinct primary keys of the current versions *stmt* touches.

        The lookup is the implicit-current ``SELECT <pk> FROM t WHERE ...``
        of the statement, planned and run like any SELECT: it takes the
        same access path, and a timeout stops it before any write."""
        if not schema.primary_key:
            raise NotSupportedError(
                f"DML on table {schema.name} requires a primary key"
            )
        lookup = ast.Select(
            [ast.SelectItem(ast.ColumnRef(column)) for column in schema.primary_key],
            [ast.TableRef(stmt.table)],
            stmt.where,
        )
        planned = self.planner.plan_select(lookup)
        rows = self._run_planned(planned, params, timeout_s, metrics).rows
        return list(dict.fromkeys(rows))

    def _portion(self, schema, portion: Optional[ast.Portion], env):
        """(period name, portion) of a FOR PORTION OF clause, evaluated once
        per statement; None without one."""
        if portion is None:
            return None
        scope = Scope([])
        low = compile_expr(portion.low, scope)((), env)
        high = compile_expr(portion.high, scope)((), env)
        if low is None or high is None:
            raise DataError("FOR PORTION OF bounds must not be NULL")
        return schema.resolve_period(portion.period).name, Period(low, high)

    def _execute_update_delete(self, stmt, params, timeout_s, metrics) -> Result:
        """UPDATE, or DELETE (a statement without assignments): the write
        set of every key the lookup finds, written at once."""
        table = self.db.table(stmt.table)
        schema = table.schema
        env = Env(_normalize_params(params))
        assignments = getattr(stmt, "assignments", None)
        scope = Scope([(schema.name, column) for column in schema.column_names()])
        assignment_fns = [
            (column, compile_expr(expr, scope)) for column, expr in assignments or ()
        ]
        portion = self._portion(schema, stmt.portion, env)
        victims, adds = [], []
        for key in self._affected_keys(stmt, schema, params, timeout_s, metrics):
            versions = temporal.current_versions_for_key(table, key)
            if not versions:
                continue
            changes = None
            if assignments is not None:
                # SET is evaluated against the key's first current version
                base_row = tuple(versions[0][1])
                changes = {column: fn(base_row, env) for column, fn in assignment_fns}
            if portion is not None:
                temporal.sequenced_rows(
                    schema, versions, *portion, changes, victims, adds
                )
            else:
                victims += versions
                if changes is not None:
                    adds += temporal.updated_rows(schema, versions, changes)
        if assignments is not None and not schema.checked_columns.isdisjoint(
            column for column, _expr in assignments
        ):
            temporal.check(table, victims, adds)
        temporal.apply(table, victims, adds, self.db.txns)
        return Result(rowcount=len(victims))

    # -- DDL -------------------------------------------------------------------

    def _execute_create_table(self, stmt: ast.CreateTable) -> Result:
        columns = [
            Column(c.name, SqlType(c.type_name), nullable=c.nullable)
            for c in stmt.columns
        ]
        periods = [
            PeriodDef(
                p.name,
                p.begin_column,
                p.end_column,
                is_system=(p.name == "system_time"),
            )
            for p in stmt.periods
        ]
        schema = TableSchema(
            name=stmt.name,
            columns=columns,
            primary_key=tuple(stmt.primary_key),
            periods=periods,
        )
        self.db.create_table(schema)
        return Result(rowcount=0)

    def _execute_create_index(self, stmt: ast.CreateIndex) -> Result:
        index = IndexDef(
            name=stmt.name,
            table=stmt.table,
            columns=tuple(stmt.columns),
            kind=stmt.kind,
            partition=stmt.partition,
        )
        self.db.create_index(index)
        return Result(rowcount=0)
