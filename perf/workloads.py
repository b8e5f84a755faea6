"""The five benchmark workloads.

Each workload stresses a different set of layers (see README.md for the
full rationale).  A workload knows how to set itself up from a seed, how
to run one *sweep* (every cell once) and which results to hand to the
verifier; the run loop, metrics and tracing live in run.py / layers.py.

Vocabulary: an *operation* is one ``system.execute`` (or one replayed
transaction), a *cell* is one (query id or scenario, archetype) pair.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import harness  # noqa: F401  (puts src/ on sys.path)

from repro.bench.experiments import generate_workload, prepare_systems
from repro.core.loader import Loader
from repro.core.queries import Workload as QueryCatalogue
from repro.core.queries import tpch
from repro.core.queries.params import ParameterSampler
from repro.core.schema import benchmark_schemas
from repro.engine.database import DEFAULT_AUTO_ANALYZE_THRESHOLD
from repro.engine.errors import DataError
from repro.systems import IndexSetting, apply_index_setting, make_system

ARCHETYPES = "ABCDE"
CATALOGUE = QueryCatalogue()

#: a cell that has not answered after this long is a failure, not a sample
WARMUP_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Statement:
    cell: str  # "<qid>/<archetype>"
    qid: str
    arch: str
    sql: str
    params: Dict


_RESEED_STEP = 7919


def generate(h: float, m: float, seed: int):
    """The generated history for *seed*, and the seed that produced it.

    On rare seeds the generator itself raises (``manipulate_order`` builds
    an inverted application period: seed 5 at h=0.0005, m=0.0031).  The
    driver picks the seeds, so such a seed maps, always the same way, to the
    next one that generates."""
    for data_seed in range(seed, seed + 8 * _RESEED_STEP, _RESEED_STEP):
        try:
            return generate_workload(h=h, m=m, seed=data_seed), data_seed
        except DataError:
            continue
    raise DataError(f"no history could be generated for seed {seed}")


class Tally:
    """Per-cell latencies and the failure account of one run."""

    def __init__(self):
        self.latencies: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: cells that raised, timed out or answered wrongly in the warm-up;
        #: their later operations count as failed without being run
        self.bad_cells = set()

    def add(self, cell: str, seconds: float):
        self.attempted += 1
        self.latencies.setdefault(cell, []).append(seconds)

    def fail(self, cell: str, error: Optional[BaseException] = None):
        self.attempted += 1
        self.failed += 1
        if error is not None and len(self.errors) < 5:
            self.errors.append(f"{cell}: {type(error).__name__}: {error}")


def warm_up(tally: Tally, results: Dict[str, list], st: Statement, run):
    """One warm-up operation: *run* returns the rows to verify; a raise or
    a timeout marks the cell bad for the rest of the run."""
    try:
        rows = run()
    except Exception as error:  # boundary: count it, keep running
        tally.bad_cells.add(st.cell)
        tally.fail(st.cell, error)
        return
    tally.attempted += 1
    results[st.cell] = rows


def timed_execute(system, st: Statement, tally: Tally, clock=time.perf_counter):
    """One timed ``system.execute`` on the default (no-deadline) path."""
    if st.cell in tally.bad_cells:
        tally.fail(st.cell)
        return
    started = clock()
    try:
        system.execute(st.sql, st.params)
    except Exception as error:  # boundary: count it, keep running
        tally.fail(st.cell, error)
        return
    tally.add(st.cell, clock() - started)


# ---------------------------------------------------------------------------
# query workloads (the four that read)
# ---------------------------------------------------------------------------


def _catalogue_queries(qids):
    def build(meta):
        return [
            (qid, CATALOGUE.query(qid).sql, CATALOGUE.query(qid).params(meta))
            for qid in qids
        ]
    return build


def _tpch_queries(skip):
    def build(meta):
        return [
            (f"H{number}.{mode}", tpch.tpch_query(number, mode),
             tpch.tpch_params(meta, mode))
            for mode in ("sys", "app")
            for number in tpch.all_numbers()
            if number not in skip
        ]
    return build


def _fixed_binds(queries, meta, sweep):
    return queries


#: enough keys that a run sees the spread of per-key history lengths, so
#: the numbers do not hinge on which few customers one seed happened to draw
POINT_KEYS = 32


def _rotate_customer_key(queries, meta, sweep):
    """Same SQL text every sweep (plan-cache hits); only the key moves."""
    keys = ParameterSampler(meta).customer_keys(POINT_KEYS)
    key = keys[sweep % len(keys)]
    return [(qid, sql, dict(params, key=key)) for qid, sql, params in queries]


_PARAM = re.compile(r":([A-Za-z_][A-Za-z0-9_]*)")
_ANCHORED = ("_begin", "_end", "_lo", "_hi", "_mid", "_sentinel")


def _inline_rotated_literals(queries, meta, sweep):
    """Ad-hoc clients send literals, not binds: every sweep is new text.

    Point-like parameters move by *sweep* inside their valid range; range
    endpoints stay anchored so no interval inverts.  A statement whose
    text would not change (no movable parameter) gets a request-tag
    comment, which is how real ad-hoc tools make texts unique.
    """
    ranges = {
        "sys_": (meta.initial_tick, meta.last_tick),
        "app_": (meta.first_history_day, meta.last_history_day),
        "key": (1, max(1, meta.max_custkey)),
        "part": (1, max(1, meta.initial_counts.get("part", 1))),
    }

    def rotated(name, value):
        if not isinstance(value, int) or name.endswith(_ANCHORED):
            return value
        for prefix, (low, high) in ranges.items():
            if name.startswith(prefix):
                return low + (value - low + sweep) % (high - low + 1)
        return value

    def inline(sql, values):
        return _PARAM.sub(lambda match: repr(values[match.group(1).lower()]), sql)

    out = []
    for qid, sql, params in queries:
        plain = {name.lower(): value for name, value in params.items()}
        text = inline(sql, {name: rotated(name, value) for name, value in plain.items()})
        if sweep and text == inline(sql, plain):
            text = f"/* req {sweep} */ {text}"
        out.append((qid, text, {}))
    return out


class QueryWorkload:
    """Reads over a loaded, analysed history on archetypes A-E."""

    def __init__(self, name, scale, smoke_scale, sweeps_per_second,
                 queries: Callable, bind: Callable = _fixed_binds,
                 key_time_indexes=False):
        self.name = name
        self.scale = scale            # (h, m)
        self.smoke_scale = smoke_scale
        self.sweeps_per_second = sweeps_per_second
        self._queries = queries
        self._bind = bind
        self.key_time_indexes = key_time_indexes
        self.systems: Dict[str, object] = {}
        self.data = None
        self._base: List[Tuple[str, str, Dict]] = []

    def configure(self, seed: int, sweeps: int, smoke: bool):
        self.seed = seed
        self.sweeps = sweeps
        self.h, self.m = self.smoke_scale if smoke else self.scale

    def scale_key(self) -> str:
        return f"h={self.h:g},m={self.m:g}"

    def setup(self) -> Dict[str, float]:
        """Generate, load A-E, index, ANALYZE; returns seconds per stage."""
        stages = {}
        started = time.perf_counter()
        self.data, self.data_seed = generate(self.h, self.m, self.seed)
        stages["generate_s"] = time.perf_counter() - started
        started = time.perf_counter()
        self.systems = prepare_systems(self.data, ARCHETYPES, analyze=False)
        stages["load_s"] = time.perf_counter() - started
        started = time.perf_counter()
        if self.key_time_indexes:
            for system in self.systems.values():
                apply_index_setting(system, IndexSetting.KEY_TIME)
        stages["index_s"] = time.perf_counter() - started
        started = time.perf_counter()
        for system in self.systems.values():
            system.analyze()
        stages["analyze_s"] = time.perf_counter() - started
        self._base = self._queries(self.data.meta)
        return stages

    def statements(self, sweep: int) -> List[Statement]:
        return [
            Statement(f"{qid}/{arch}", qid, arch, sql, params)
            for qid, sql, params in self._bind(self._base, self.data.meta, sweep)
            for arch in ARCHETYPES
        ]

    def warmup(self, tally: Tally) -> Dict[str, list]:
        """Sweep 0, untimed: fills plan caches, returns rows to verify."""
        results = {}
        for st in self.statements(0):
            system = self.systems[st.arch]
            warm_up(tally, results, st, lambda: system.execute(
                st.sql, st.params, timeout_s=WARMUP_TIMEOUT_S).rows)
        return results

    def prepare_sweeps(self):
        """Build every sweep's statement list outside the timed region."""
        self._plan = [self.statements(k) for k in range(1, self.sweeps + 1)]

    def timed_sweep(self, index: int, tally: Tally):
        for st in self._plan[index]:
            timed_execute(self.systems[st.arch], st, tally)

    def finish(self) -> Dict[str, list]:
        return {}


# ---------------------------------------------------------------------------
# load.replay (the one that writes)
# ---------------------------------------------------------------------------

REPLAY_CHUNK = 500   # transactions per sweep and archetype
REPLAY_WARMUP = 100  # transactions replayed untimed during set-up


def apply_operation(db, op):
    """One archive operation through the public row-level DML surface."""
    kind = op[0]
    if kind == "insert":
        return db.insert_row(op[1], op[2])
    if kind == "update":
        return db.update_by_key(op[1], op[2], op[3])
    if kind == "seq_update":
        return db.sequenced_update_by_key(op[1], op[2], op[3], op[4], op[5], op[6])
    if kind == "seq_delete":
        return db.sequenced_delete_by_key(op[1], op[2], op[3], op[4], op[5])
    if kind == "delete":
        return db.delete_by_key(op[1], op[2])
    raise ValueError(f"unknown archive operation {kind!r}")


class ReplayWorkload:
    """Transaction replay (batch size 1) into indexed archetypes A-E,
    with probe reads between chunks and the background work at the end."""

    name = "load.replay"

    def __init__(self, h, smoke_h, sweeps_per_second, key_time_indexes=True):
        self.h_choices = (h, smoke_h)
        self.sweeps_per_second = sweeps_per_second
        self.key_time_indexes = key_time_indexes
        self.systems: Dict[str, object] = {}
        self.data = None

    def configure(self, seed: int, sweeps: int, smoke: bool):
        self.seed = seed
        self.sweeps = sweeps
        self.smoke = smoke
        self.h = self.h_choices[1] if smoke else self.h_choices[0]
        self.chunk = 100 if smoke else REPLAY_CHUNK
        self.transactions = REPLAY_WARMUP + sweeps * self.chunk
        self.m = self.transactions / 1_000_000

    def scale_key(self) -> str:
        return f"h={self.h:g},txns={self.transactions}"

    def setup(self) -> Dict[str, float]:
        stages = {}
        started = time.perf_counter()
        self.data, self.data_seed = generate(self.h, self.m, self.seed)
        stages["generate_s"] = time.perf_counter() - started
        load_s = index_s = analyze_s = 0.0
        self.systems = {}
        for arch in ARCHETYPES:
            system = make_system(arch)
            started = time.perf_counter()
            Loader(system, self.data).create_schema()
            with system.db.begin():  # version 0 shares one tick
                for schema in benchmark_schemas():
                    for values in self.data.initial[schema.name]:
                        system.db.insert_row(schema.name, values)
            load_s += time.perf_counter() - started
            started = time.perf_counter()
            if self.key_time_indexes:
                apply_index_setting(system, IndexSetting.KEY_TIME)
            index_s += time.perf_counter() - started
            started = time.perf_counter()
            system.analyze()
            analyze_s += time.perf_counter() - started
            # armed after the bulk, like prepare_systems: replay churn then
            # re-freshens statistics on its own, and those stalls are timed
            system.db.auto_analyze_threshold = DEFAULT_AUTO_ANALYZE_THRESHOLD
            self.systems[arch] = system
        stages.update(load_s=load_s, index_s=index_s, analyze_s=analyze_s)
        meta = self.data.meta
        # None = bound at probe time to the archetype's current tick
        self._probes = [
            (name, CATALOGUE.query(qid).sql,
             dict(CATALOGUE.query(qid).params(meta), **override))
            for name, qid, override in (
                ("probe.K1.sys", "K1.sys", {}),
                ("probe.T1.now", "T1.sys", {"sys_point": None}),
                ("probe.T2.mid", "T2.sys", {}),
            )
        ]
        return stages

    def probe_statements(self, arch) -> List[Statement]:
        now = self.systems[arch].now()
        return [
            Statement(
                f"{qid}/{arch}", qid, arch, sql,
                {k: (now if v is None else v) for k, v in params.items()},
            )
            for qid, sql, params in self._probes
        ]

    def chunk_bounds(self, sweep: int):
        """(first, last) transaction index of a sweep; sweep 0 = warm-up."""
        if sweep == 0:
            return 0, REPLAY_WARMUP
        first = REPLAY_WARMUP + (sweep - 1) * self.chunk
        return first, first + self.chunk

    def warmup(self, tally: Tally) -> Dict[str, list]:
        results = {}
        first, last = self.chunk_bounds(0)
        for arch, system in self.systems.items():
            db = system.db
            for ops in self.data.transactions[first:last]:
                with db.begin():
                    for op in ops:
                        apply_operation(db, op)
                tally.attempted += 1
            db.drain_all_undo()
            for st in self.probe_statements(arch):
                warm_up(tally, results, st, lambda: system.execute(
                    st.sql, st.params, timeout_s=WARMUP_TIMEOUT_S).rows)
        return results

    def prepare_sweeps(self):
        pass

    def timed_sweep(self, index: int, tally: Tally):
        first, last = self.chunk_bounds(index + 1)
        transactions = self.data.transactions[first:last]
        scenarios = [name for name, _applied in self.data.scenario_log[first:last]]
        clock = time.perf_counter
        for arch, system in self.systems.items():
            db = system.db
            for ops, scenario in zip(transactions, scenarios):
                cell = f"{scenario}/{arch}"
                started = clock()
                try:
                    with db.begin():
                        for op in ops:
                            apply_operation(db, op)
                except Exception as error:  # boundary: count it, keep running
                    tally.fail(cell, error)
                    continue
                tally.add(cell, clock() - started)
            # index-assisted history reads on B do not see versions still in
            # the undo log (scans drain it first, index probes do not), so an
            # audit read is preceded by a checkpoint; its cost is in the wall
            db.drain_all_undo()
            for st in self.probe_statements(arch):
                timed_execute(system, st, tally)
            if index == self.sweeps - 1:
                # background work is part of the price of a write
                db.merge_all()

    def finish(self) -> Dict[str, list]:
        """Final state per archetype, for the cross-archetype check."""
        results = {}
        for arch, system in self.systems.items():
            rows = []
            for schema in benchmark_schemas():
                if schema.system_period is None:
                    continue
                rows.append((
                    schema.name,
                    system.execute(f"SELECT count(*) FROM {schema.name}").scalar(),
                    system.execute(
                        f"SELECT count(*) FROM {schema.name} FOR SYSTEM_TIME ALL"
                    ).scalar(),
                ))
            results[f"final.state/{arch}"] = rows
        return results


# ---------------------------------------------------------------------------
# the catalogue of workloads
# ---------------------------------------------------------------------------

_SCAN_QIDS = [
    "T1.app", "T1.sys", "T2.app", "T2.sys", "T5.all", "T6.appslice",
    "T6.sysslice", "T7.implicit", "T7.explicit", "T8", "T9",
    "R1", "R2", "R4", "R5", "R7", "B3.1", "B3.5", "B3.9",
]
_POINT_QIDS = [
    "K1.app", "K1.app_past", "K1.both", "K1.sys", "K2.app", "K2.sys",
    "K3.app", "K3.sys", "K4.app", "K4.sys", "K5.sys",
]
# R3a/R3b: the boundary self-join is quadratic on A-D (minutes per cell)
_ADHOC_QIDS = [qid for qid in CATALOGUE.ids() if qid not in ("R3a", "R3b")]


def _adhoc_queries(meta):
    return _catalogue_queries(_ADHOC_QIDS)(meta) + _tpch_queries(skip=(17, 20, 21))(meta)


def all_workloads() -> List[object]:
    return [
        QueryWorkload(
            "scan.history",
            scale=(0.0005, 0.0025), smoke_scale=(0.0003, 0.0005),
            sweeps_per_second=3.5,
            queries=_catalogue_queries(_SCAN_QIDS),
        ),
        QueryWorkload(
            "tpch.timetravel",
            scale=(0.0005, 0.0025), smoke_scale=(0.0003, 0.0005),
            sweeps_per_second=0.6,
            # the correlated-subquery family is out: Q4/Q20 are quadratic,
            # and Q2/Q11/Q17/Q21/Q22 cost 2-270x more or less depending on
            # how many rows a selective filter finds at this scale and seed
            # (see README.md, exclusions)
            queries=_tpch_queries(skip=(2, 4, 11, 17, 20, 21, 22)),
        ),
        QueryWorkload(
            "point.indexed",
            scale=(0.0005, 0.0025), smoke_scale=(0.0003, 0.0005),
            sweeps_per_second=22.0,
            queries=_catalogue_queries(_POINT_QIDS),
            bind=_rotate_customer_key,
            key_time_indexes=True,
        ),
        QueryWorkload(
            "adhoc.plan",
            scale=(0.0001, 0.0001), smoke_scale=(0.0001, 0.0001),
            sweeps_per_second=0.8,
            queries=_adhoc_queries,
            bind=_inline_rotated_literals,
        ),
        ReplayWorkload(
            h=0.0005, smoke_h=0.0003, sweeps_per_second=0.65,
        ),
    ]
