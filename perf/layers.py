"""The traced run: per-layer metrics measured from outside the program.

Nothing in ``src/`` is instrumented.  Each layer is timed by calling its
public functions directly (``tokenize``, ``parse_statement``,
``build_logical``, ``rewrite_logical``, ``Planner.plan_select``,
``PlannedQuery.rows``, ``scan_partition_batches``, the index structures'
probes, the row-level DML entry points, ``drain_all_undo``/``merge_all``)
under a span, and counts come from the engine's own counters read at the
same boundaries.  Layer names are module names.

A traced statement therefore runs twice — once staged, once through
``system.execute`` for the total — which is the cost
``trace_overhead_frac`` reports.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List

import harness
from workloads import (
    ARCHETYPES, WARMUP_TIMEOUT_S, ReplayWorkload, Tally, apply_operation, warm_up,
)

from repro.engine.batch import rows_from_batches
from repro.engine.errors import CatalogError
from repro.engine.expr import Env
from repro.engine.index import create_index_structure
from repro.engine.plan.logical import build_logical
from repro.engine.plan.planner import Planner
from repro.engine.plan.rewrite import rewrite_logical
from repro.engine.sql import parse_statement
from repro.engine.sql.lexer import tokenize
from repro.engine.storage.column_store import ColumnStore

SCAN_KINDS = ("row_current", "row_history", "row_single", "column_main",
              "column_delta", "vp_current")
INDEX_KINDS = {  # kind -> the engine counter that counts its probes
    "btree": "index.btree_probes",
    "hash": "index.hash_probes",
    "rtree": "index.rtree_searches",
    "timeline": "index.timeline_lookups",
    "pk": "index.pk_probes",
}
WRITE_KINDS = ("insert", "update", "seq_update", "seq_delete", "delete")
_SCAN_COUNTERS = ("storage.current_rows_scanned", "storage.history_rows_scanned")
_CACHE_COUNTERS = ("plan.cache_hit", "plan.cache_miss", "plan.cache_evict",
                   "plan.temporal_fusions")

#: every per-layer metric, in print order: (name, unit, better)
PER_LAYER = (
    [
        ("sql.lexer.lex_us", "us", "lower"),
        ("sql.parser.parse_us", "us", "lower"),
        ("plan.logical.analyze_us", "us", "lower"),
        ("plan.rewrite.rewrite_us", "us", "lower"),
        ("plan.planner.lower_us", "us", "lower"),
        ("plan.temporal_fusions", "count", "higher"),
        ("session.dispatch_us", "us", "lower"),
        ("session.plan_cache_hit_ratio", "ratio", "higher"),
        ("plan.cache_evict", "count", "lower"),
        ("plan.operators.execute_ms", "ms", "lower"),
    ]
    + [(f"storage.scan_ms_per_mrow.{k}", "ms/Mrow", "lower") for k in SCAN_KINDS]
    + [
        ("storage.rows_scanned_per_result_row", "ratio", "lower"),
        ("batch.materialize_us_per_krow", "us/krow", "lower"),
    ]
    + [(f"index.probe_us.{k}", "us", "lower") for k in INDEX_KINDS]
    + [(f"index.probes.{k}", "count", "lower") for k in INDEX_KINDS]
    + [("index.maintain_us_per_write", "us", "lower")]
    + [(f"storage.write_us.{k}", "us", "lower") for k in WRITE_KINDS]
    + [
        ("txn.versions_written_per_op", "ratio", "lower"),
        ("storage.history_moves", "count", "lower"),
        ("storage.undo_drain_ms", "ms", "lower"),
        ("storage.column_merge_ms", "ms", "lower"),
        ("stats.analyze_ms", "ms", "lower"),
        ("stats.auto_analyze_runs", "count", "lower"),
        ("core.generator.generate_s", "s", "lower"),
        ("core.loader.load_s", "s", "lower"),
        ("share.frontend", "ratio", "lower"),
        ("share.session_index", "ratio", "lower"),
        ("share.execute", "ratio", "lower"),
        ("share.scan_materialize", "ratio", "lower"),
        ("share.write_background", "ratio", "lower"),
        ("residual_frac", "ratio", "lower"),
        ("trace_overhead_frac", "ratio", "higher"),
    ]
)


def tracer_for(workload):
    if isinstance(workload, ReplayWorkload):
        return ReplayTracer(workload)
    return QueryTracer(workload)


@contextlib.contextmanager
def collector_paused():
    """No garbage collection inside a traced sweep: a pause would be
    charged to whichever layer happened to be running.  Its cost stays in
    the untraced numbers (``p95_ms``), where a user would see it."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _blank() -> Dict[str, float]:
    return {name: 0.0 for name, _unit, _better in PER_LAYER}


def _with_units(values: Dict[str, float]) -> Dict[str, tuple]:
    return {name: (float(values[name]), unit) for name, unit, _better in PER_LAYER}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# layer micro-measurements shared by both tracers
# ---------------------------------------------------------------------------


def scan_kind(system, partition: str, temporal: bool) -> str:
    options = system.db.default_options
    if options.store_kind == "column":
        return "column_main"  # read workloads scan after merge_all: no delta
    if partition == "single":
        return "row_single"
    if partition == "history":
        return "row_history"
    if options.vertical_partition_current and temporal:
        return "vp_current"
    return "row_current"


class RawScans:
    """Raw partition scan cost, measured once per (archetype, table,
    partition, need_temporal) through ``scan_partition_batches``."""

    def __init__(self, systems, spans):
        self.systems = systems
        self.spans = spans
        self._cache: Dict[tuple, tuple] = {}

    def seconds(self, arch, table, partition, temporal) -> float:
        key = (arch, table.schema.name, partition, temporal)
        if key not in self._cache:
            best, rows = float("inf"), 0
            for _repeat in range(3):
                self.spans.start("storage")
                rows = sum(
                    batch.length
                    for batch in table.scan_partition_batches(partition, need_temporal=temporal)
                )
                best = min(best, self.spans.finish())
            self._cache[key] = (best, rows)
        return self._cache[key][0]

    def ms_per_mrow(self) -> Dict[str, float]:
        seconds = dict.fromkeys(SCAN_KINDS, 0.0)
        rows = dict.fromkeys(SCAN_KINDS, 0)
        for (arch, _table, partition, temporal), (s, n) in self._cache.items():
            kind = scan_kind(self.systems[arch], partition, temporal)
            seconds[kind] += s
            rows[kind] += n
        return {k: seconds[k] * 1e9 / rows[k] if rows[k] else 0.0 for k in SCAN_KINDS}


def column_delta_ms_per_mrow(system_c, spans) -> float:
    """Scan cost of an unmerged column-store delta, on a scratch store
    holding the orders history (the loaded partitions are all main)."""
    table = system_c.db.table("orders")
    rows = [row for batch in table.scan_partition_batches("history")
            for row in batch.to_rows()]
    if not rows:
        return 0.0
    store = ColumnStore(len(rows[0]), merge_threshold=len(rows) + 1)
    for row in rows:
        store.append(row)
    best = float("inf")
    for _repeat in range(3):
        spans.start("storage")
        for _batch in store.scan_batches(1024):
            pass
        best = min(best, spans.finish())
    return best * 1e9 / len(rows)


def materialize_us_per_krow(system, spans) -> float:
    table = system.db.table("orders")
    partition = table.partition_names()[-1]
    best, rows = float("inf"), 0
    for _repeat in range(3):
        batches = list(table.scan_partition_batches(partition))
        spans.start("batch")
        rows = len(rows_from_batches(batches))
        best = min(best, spans.finish())
    return best * 1e9 / rows if rows else 0.0


def index_probe_us(systems, spans) -> Dict[str, float]:
    """Microseconds per probe and index kind, over the customer table:
    the Key+Time B-Tree the workload uses when it has one, scratch
    structures (same keys) for the kinds no archetype builds by default."""
    table = systems["A"].db.table("customer")
    versions = [(rid, tuple(row)) for _part, rid, row in table.scan_versions()]
    schema = table.schema
    key_pos = schema.position("c_custkey")
    begin_pos = schema.position(schema.system_period.begin_column)
    end_pos = schema.position(schema.system_period.end_column)
    keys = sorted({row[key_pos] for _rid, row in versions})
    ticks = sorted({row[begin_pos] for _rid, row in versions})

    structures = {kind: create_index_structure(kind) for kind in ("btree", "hash", "rtree")}
    for index_def, structure in table.indexes_on_partition("history").values():
        if index_def.columns == ("c_custkey",) and index_def.kind == "btree":
            structures["btree"] = structure
            break
    else:
        for rid, row in versions:
            structures["btree"].insert(row[key_pos], rid)
    for rid, row in versions:
        structures["hash"].insert(row[key_pos], rid)
        structures["rtree"].insert((row[begin_pos], row[end_pos]), rid)

    timeline = systems["E"].db.timeline("customer")
    probes = {
        "btree": (structures["btree"].search, keys),
        "hash": (structures["hash"].search, keys),
        "rtree": (lambda tick: structures["rtree"].search_overlap(tick, tick + 1), ticks),
        "timeline": (timeline.snapshot_rids, ticks[:: max(1, len(ticks) // 32)]),
        "pk": (lambda key: table.current_rids_for_key((key,)), keys),
    }
    out = {}
    for kind, (probe, arguments) in probes.items():
        spans.start("index")
        for argument in arguments:
            probe(argument)
        out[kind] = spans.finish() * 1e6 / len(arguments)
    return out


# ---------------------------------------------------------------------------
# the four read workloads
# ---------------------------------------------------------------------------


class QueryTracer:
    def __init__(self, workload):
        self.workload = workload
        self.spans = harness.SpanRecorder()
        self._planners: Dict[str, Planner] = {}
        self._plans: Dict[tuple, tuple] = {}
        self._misses: List[dict] = []   # one record per staged (miss-path) statement
        self._raw = None
        self._flip = False

    # -- one statement ------------------------------------------------------

    def _stage(self, st) -> dict:
        """Front-end stages of one statement through the public functions."""
        db = self.workload.systems[st.arch].db
        planner = self._planners.setdefault(st.arch, Planner(db))
        timed = self.spans.timed
        _tokens, lex = timed("sql.lexer", tokenize, st.sql)
        stmt, parse = timed("sql.parser", parse_statement, st.sql)
        analyze = rewrite = 0.0
        if stmt.set_op is None:  # set operations are split during lowering
            logical, analyze = timed("plan.logical", build_logical, stmt, db)
            _rewritten, rewrite = timed(
                "plan.rewrite", rewrite_logical, logical, db, db.profile
            )
        planned, plan = timed("plan.planner", planner.plan_select, stmt)
        tables = []
        for name in planned.dependencies:
            try:
                tables.append(db.table(name))
            except CatalogError:
                continue  # a view or system view: no partitions of its own
        self._plans[(st.arch, st.sql)] = (planned, tables)
        return {
            # parse_statement tokenizes again, plan_select analyzes and
            # rewrites again: the stage's own share is the difference
            "lex": lex, "parse": max(0.0, parse - lex), "analyze": analyze,
            "rewrite": rewrite, "lower": max(0.0, plan - analyze - rewrite),
            "frontend": parse + plan,
        }

    def _run(self, st, record, timeout_s=None):
        """Staged ``PlannedQuery.rows`` plus the real ``execute``, with the
        counts taken at the same boundaries.  Fills *record*; returns rows."""
        system = self.workload.systems[st.arch]
        planned, tables = self._plans[(st.arch, st.sql)]
        accesses = [
            (table, name, table.partition(name).access)
            for table in tables for name in table.partition_names()
        ]
        env = Env({str(k).lower(): v for k, v in st.params.items()})
        counters = system.db.metrics.counters

        def staged():
            scans_before = [access.scans for _t, _n, access in accesses]
            merges_before = {id(t): t.stats.vp_merge_joins for t in tables}
            _rows, record["rows_s"] = self.spans.timed("plan.operators", planned.rows, env)
            record["scans"] = [
                (table, name, access.scans - before,
                 table.stats.vp_merge_joins - merges_before[id(table)])
                for (table, name, access), before in zip(accesses, scans_before)
                if access.scans != before
            ]

        def real():
            before = counters()
            result, record["exec_s"] = self.spans.timed(
                "session", system.execute, st.sql, st.params, timeout_s
            )
            after = counters()
            record["counts"] = {
                name: after[name] - before[name]
                for name in (*_SCAN_COUNTERS, *_CACHE_COUNTERS, *INDEX_KINDS.values())
            }
            return result

        # whichever runs second finds the data cache-warm; alternating the
        # order keeps that from reading as a negative dispatch cost
        self._flip = not self._flip
        if self._flip:
            staged()
            result = real()
        else:
            result = real()
            staged()

        scan_s = 0.0
        for table, name, scans, merges in record.pop("scans"):
            # on B, a current scan that needs the temporal columns is a
            # sort/merge join with the side table: a different raw cost
            merged = 0
            if name == "current" and table.options.vertical_partition_current:
                merged = min(scans, merges)
            scan_s += merged * self._raw.seconds(st.arch, table, name, True)
            scan_s += (scans - merged) * self._raw.seconds(st.arch, table, name, False)
        record["scan_s"] = min(scan_s, record["rows_s"])
        record["result_rows"] = len(result.rows)
        return result.rows

    def _trace(self, st, miss: bool, timeout_s=None):
        self.spans.next_op()
        self.spans.start("statement")
        try:
            record = {"cell": st.cell, "arch": st.arch, "miss": miss, "frontend": 0.0}
            if miss:
                record.update(self._stage(st))
            rows = self._run(st, record, timeout_s)
            if miss:
                self._misses.append(record)
        finally:
            self.spans.finish()
        return record, rows

    # -- the run ------------------------------------------------------------

    def info(self) -> Dict[str, float]:
        """Shares per archetype (the all-archetype ones are metrics)."""
        return {
            f"share.{arch}.{name}": value
            for arch in ARCHETYPES
            for name, value in self.shares[arch].items()
            if name != "write_background"
        }

    def warmup(self, tally: Tally) -> Dict[str, list]:
        """The traced warm-up sweep: every statement takes the miss path."""
        self._raw = RawScans(self.workload.systems, self.spans)
        results = {}
        for st in self.workload.statements(0):
            warm_up(tally, results, st,
                    lambda: self._trace(st, True, WARMUP_TIMEOUT_S)[1])
        return results

    def measure(self, sweeps, untraced_ops_per_s, stages, tally) -> Dict[str, tuple]:
        workload = self.workload
        systems = workload.systems
        probe_us = index_probe_us(systems, self.spans)
        materialize = materialize_us_per_krow(systems["A"], self.spans)
        delta_scan = column_delta_ms_per_mrow(systems["C"], self.spans)

        # a statement is new text (a plan-cache miss) iff its sweep's text
        # differs from the warm-up's; then the front-end is staged each time
        records = []
        traced_wall = 0.0
        for sweep in sweeps:
            with collector_paused():
                started = time.perf_counter()
                for st in workload.statements(sweep + 1):
                    if st.cell in tally.bad_cells:
                        continue
                    miss = (st.arch, st.sql) not in self._plans
                    record, _rows = self._trace(st, miss)
                    records.append(record)
                    if miss:  # one-off text: its plan is garbage, as in the engine
                        del self._plans[(st.arch, st.sql)]
                traced_wall += time.perf_counter() - started

        out = _blank()
        stage_source = [r for r in records if r["miss"]] or self._misses
        out["sql.lexer.lex_us"] = _mean(r["lex"] for r in stage_source) * 1e6
        out["sql.parser.parse_us"] = _mean(r["parse"] for r in stage_source) * 1e6
        out["plan.logical.analyze_us"] = _mean(r["analyze"] for r in stage_source) * 1e6
        out["plan.rewrite.rewrite_us"] = _mean(r["rewrite"] for r in stage_source) * 1e6
        out["plan.planner.lower_us"] = _mean(r["lower"] for r in stage_source) * 1e6

        def count(name):
            return sum(r["counts"][name] for r in records)

        lookups = count("plan.cache_hit") + count("plan.cache_miss")
        out["plan.temporal_fusions"] = count("plan.temporal_fusions")
        out["session.plan_cache_hit_ratio"] = count("plan.cache_hit") / max(1, lookups)
        out["plan.cache_evict"] = count("plan.cache_evict")
        # the median: dispatch is a few microseconds, and a mean would be
        # swamped by the timing noise of the millisecond cells
        out["session.dispatch_us"] = harness.median(
            [r["exec_s"] - r["frontend"] - r["rows_s"] for r in records]
        ) * 1e6
        out["plan.operators.execute_ms"] = _mean(
            r["rows_s"] - r["scan_s"] for r in records
        ) * 1e3
        for kind, value in self._raw.ms_per_mrow().items():
            out[f"storage.scan_ms_per_mrow.{kind}"] = value
        out["storage.scan_ms_per_mrow.column_delta"] = delta_scan
        out["storage.rows_scanned_per_result_row"] = (
            sum(count(name) for name in _SCAN_COUNTERS)
            / max(1, sum(r["result_rows"] for r in records))
        )
        out["batch.materialize_us_per_krow"] = materialize
        for kind, counter in INDEX_KINDS.items():
            out[f"index.probe_us.{kind}"] = probe_us[kind]
            out[f"index.probes.{kind}"] = count(counter)
        out["stats.analyze_ms"] = stages["analyze_s"] * 1e3
        out["core.generator.generate_s"] = stages["generate_s"]
        out["core.loader.load_s"] = stages["load_s"]

        self.shares = {"all": self._shares(records, probe_us, materialize)}
        for arch in ARCHETYPES:
            self.shares[arch] = self._shares(
                [r for r in records if r["arch"] == arch], probe_us, materialize
            )
        out.update({f"share.{k}": v for k, v in self.shares["all"].items()})
        missed = self._misses
        out["residual_frac"] = (
            sum(r["exec_s"] - r["frontend"] - r["rows_s"] for r in missed)
            / sum(r["exec_s"] for r in missed)
        )
        out["trace_overhead_frac"] = len(records) / traced_wall / untraced_ops_per_s - 1.0
        return _with_units(out)

    @staticmethod
    def _shares(records, probe_us, materialize) -> Dict[str, float]:
        """Where statement time went, as shares of Σ ``execute`` time."""
        total = sum(r["exec_s"] for r in records)
        if not total:
            return dict.fromkeys(
                ("frontend", "session_index", "execute", "scan_materialize",
                 "write_background"), 0.0)
        frontend = session = index = scan = execute = 0.0
        for r in records:
            index_s = sum(
                r["counts"][counter] * probe_us[kind] / 1e6
                for kind, counter in INDEX_KINDS.items()
            )
            moved_s = r["scan_s"] + r["result_rows"] * materialize / 1e9
            moved_s = min(moved_s, r["rows_s"])
            index_s = min(index_s, r["rows_s"] - moved_s)
            frontend += r["frontend"]
            session += max(0.0, r["exec_s"] - r["frontend"] - r["rows_s"])
            index += index_s
            scan += moved_s
            execute += r["rows_s"] - moved_s - index_s
        # the staged parts can exceed the separately timed total by noise
        whole = max(total, frontend + session + index + scan + execute)
        return {
            "frontend": frontend / whole,
            "session_index": (session + index) / whole,
            "execute": execute / whole,
            "scan_materialize": scan / whole,
            "write_background": 0.0,
        }


# ---------------------------------------------------------------------------
# load.replay
# ---------------------------------------------------------------------------

_STALL_COUNTERS = {
    "storage.undo_drains": "storage.undo_drain_ms",
    "storage.column_merges": "storage.column_merge_ms",
    "stats.auto_analyze_runs": "stats.analyze_ms",
}


class ReplayTracer:
    """Traces the write path.  Index maintenance is the difference to a
    twin set of archetypes replaying the same transactions *without* the
    Key+Time indexes."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = harness.SpanRecorder()
        self.twin = ReplayWorkload(
            *workload.h_choices, workload.sweeps_per_second,
            key_time_indexes=False,
        )

    def info(self) -> Dict[str, float]:
        return {}

    def warmup(self, tally: Tally) -> Dict[str, list]:
        workload, twin = self.workload, self.twin
        twin.configure(workload.seed, workload.sweeps, workload.smoke)
        twin.setup()
        twin.warmup(Tally())
        return workload.warmup(tally)

    def _sweep(self, workload, index, totals):
        """One traced chunk on every archetype of *workload*."""
        first, last = workload.chunk_bounds(index + 1)
        spans = self.spans
        for arch, system in workload.systems.items():
            db = system.db
            counter = db.metrics.counter
            latencies, stalls = [], []
            for ops in workload.data.transactions[first:last]:
                before = [counter(name) for name in _STALL_COUNTERS]
                spans.next_op()
                spans.start("txn")
                with db.begin():
                    for op in ops:
                        _done, seconds = spans.timed("storage", apply_operation, db, op)
                        totals["write_s"][op[0]] += seconds
                        totals["writes"][op[0]] += 1
                latency = spans.finish()
                latencies.append(latency)
                for name, was in zip(_STALL_COUNTERS, before):
                    if counter(name) != was:
                        stalls.append((name, latency))
            # what a drain, merge or auto-ANALYZE cost the transaction that
            # triggered it: its latency beyond the chunk's typical one
            typical = harness.median(latencies)
            for name, latency in stalls:
                totals["stall_s"][name] += max(0.0, latency - typical)
            totals["txn_s"] += sum(latencies)
            spans.next_op()
            _done, drain = spans.timed("storage", db.drain_all_undo)
            totals["stall_s"]["storage.undo_drains"] += drain
            totals["background_s"] += drain
            for st in workload.probe_statements(arch):
                spans.next_op()
                _result, seconds = spans.timed("session", system.execute, st.sql, st.params)
                totals["probe_s"] += seconds
            if index == workload.sweeps - 1:
                spans.next_op()
                _done, merge = spans.timed("storage", db.merge_all)
                totals["stall_s"]["storage.column_merges"] += merge
                totals["background_s"] += merge

    def measure(self, sweeps, untraced_ops_per_s, stages, tally) -> Dict[str, tuple]:
        workload, twin = self.workload, self.twin
        for index in range(sweeps.start):  # bring the twin to the same point
            twin.timed_sweep(index, Tally())

        def fresh():
            return {
                "write_s": dict.fromkeys(WRITE_KINDS, 0.0),
                "writes": dict.fromkeys(WRITE_KINDS, 0),
                "stall_s": dict.fromkeys(_STALL_COUNTERS, 0.0),
                "txn_s": 0.0, "probe_s": 0.0, "background_s": 0.0,
            }

        def counted():
            return {
                name: sum(s.db.metrics.counter(name) for s in workload.systems.values())
                for name in ("txn.versions_written", "storage.history_moves",
                             "stats.auto_analyze_runs")
            }

        before = counted()
        totals, twin_totals = fresh(), fresh()
        traced_wall = 0.0
        for index in sweeps:
            with collector_paused():
                started = time.perf_counter()
                self._sweep(workload, index, totals)
                traced_wall += time.perf_counter() - started
        after = counted()
        for index in sweeps:
            with collector_paused():
                self._sweep(twin, index, twin_totals)

        out = _blank()
        writes = sum(totals["writes"].values())
        write_s = sum(totals["write_s"].values())
        for kind in WRITE_KINDS:
            out[f"storage.write_us.{kind}"] = (
                totals["write_s"][kind] * 1e6 / max(1, totals["writes"][kind])
            )
        out["index.maintain_us_per_write"] = (
            (write_s - sum(twin_totals["write_s"].values())) * 1e6 / max(1, writes)
        )
        out["txn.versions_written_per_op"] = (
            (after["txn.versions_written"] - before["txn.versions_written"]) / max(1, writes)
        )
        out["storage.history_moves"] = (
            after["storage.history_moves"] - before["storage.history_moves"]
        )
        out["stats.auto_analyze_runs"] = (
            after["stats.auto_analyze_runs"] - before["stats.auto_analyze_runs"]
        )
        for counter, metric in _STALL_COUNTERS.items():
            out[metric] = totals["stall_s"][counter] * 1e3
        out["stats.analyze_ms"] += stages["analyze_s"] * 1e3
        out["core.generator.generate_s"] = stages["generate_s"]
        out["core.loader.load_s"] = stages["load_s"]

        # foreground drains and merges already sit inside the write spans
        whole = totals["txn_s"] + totals["probe_s"] + totals["background_s"]
        out["share.write_background"] = (write_s + totals["background_s"]) / whole
        out["share.session_index"] = (totals["txn_s"] - write_s) / whole  # txn begin/commit
        out["share.execute"] = totals["probe_s"] / whole                  # the probe reads
        operations = len(sweeps) * len(ARCHETYPES) * (workload.chunk + 3)
        out["trace_overhead_frac"] = operations / traced_wall / untraced_ops_per_s - 1.0
        return _with_units(out)
