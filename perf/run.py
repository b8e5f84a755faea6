#!/usr/bin/env python3
"""The repo benchmark: five TPC-BiH workloads, end to end and per layer.

    python3 perf/run.py                       # all workloads, one subprocess each
    python3 perf/run.py --trace               # ... plus the traced (per-layer) run
    python3 perf/run.py --smoke               # tiny scales, 1 timed sweep, < 30 s
    python3 perf/run.py --workload scan.history --seed 7 --seconds 10 --trace 0

With ``--workload`` the run happens in this process and the last line of
standard output is the contract JSON ``{correct, attempted, failed,
metrics}``.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import harness
import layers
import workloads as wl
from harness import OUT_DIR, PERF_DIR

BENCHMARK_JSON = harness.REPO_ROOT / "BENCHMARK.json"
#: set-up is repeated and its median reported, so one slow load does not
#: read as a set-up regression
SETUPS = 3
MIN_TRACED_SWEEPS = 2
#: p95 needs this many pooled samples to have ten beyond it
MIN_P95_SAMPLES = 200


def load_spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def verify(workload, results, seed, golden) -> set:
    """Cells whose warm-up answer is wrong: archetypes must agree per
    query, and on the golden seed the answer must match the committed
    digest.  Returns the bad cells (every archetype of a disputed query,
    since the benchmark cannot tell which one is right)."""
    by_qid = {}
    for cell, rows in results.items():
        qid, arch = cell.rsplit("/", 1)
        by_qid.setdefault(qid, {})[arch] = harness.digest(rows)
    expected = {}
    if seed == harness.GOLDEN_SEED:
        expected = golden.get(workload.name, {}).get(workload.scale_key(), {})
    bad = set()
    for qid, digests in by_qid.items():
        agreed = len(set(digests.values())) == 1
        matches = qid not in expected or set(digests.values()) == {expected[qid]}
        if not (agreed and matches):
            bad.update(f"{qid}/{arch}" for arch in digests)
    return bad


def digests_of(results) -> dict:
    """One digest per query id (archetype A's; they were checked equal)."""
    out = {}
    for cell in sorted(results):
        qid, _arch = cell.rsplit("/", 1)
        out.setdefault(qid, harness.digest(results[cell]))
    return out


def engine_counters(workload) -> dict:
    totals = {}
    for system in workload.systems.values():
        for name, value in system.db.metrics.counters().items():
            totals[name] = totals.get(name, 0) + value
    return totals


def counter_delta(after, before) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)}


def set_up(workload, tally, setups, warmup):
    """Set up *setups* times; keep the last.  Returns (median seconds,
    stage seconds of the kept set-up, warm-up results)."""
    seconds = []
    for attempt in range(setups):
        last = attempt == setups - 1
        workload.systems = {}
        workload.data = None
        gc.collect()
        started = time.perf_counter()
        stages = workload.setup()
        # only the kept set-up's warm-up feeds the failure account
        results = warmup(tally if last else wl.Tally())
        seconds.append(time.perf_counter() - started)
    return harness.median(seconds), stages, results


def end_to_end(tally, wall_s, setup_s) -> dict:
    medians = [harness.median(v) for v in tally.latencies.values()]
    pooled = [s for v in tally.latencies.values() for s in v]
    return {
        "geomean_ms": (harness.geomean(medians) * 1000.0, "ms"),
        "throughput_ops": (len(pooled) / wall_s, "ops/s"),
        "p95_ms": (harness.percentile(pooled, 95.0) * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
    }


def run_workload(args) -> int:
    spec = load_spec()
    workload = {w.name: w for w in wl.all_workloads()}[args.workload]
    timed = max(1, round(workload.sweeps_per_second * args.seconds))
    setups = SETUPS
    if args.trace:
        # set-up time is an end-to-end metric; the traced run sets up once,
        # times some sweeps untraced (the overhead baseline), then traces
        # as many (a traced sweep costs about twice an untraced one)
        timed, setups = max(MIN_TRACED_SWEEPS, timed // 4), 1
    if args.smoke:
        timed, setups = 1, 1
    workload.configure(args.seed, timed * 2 if args.trace else timed, args.smoke)
    golden = {} if args.regen_golden else harness.load_golden()

    tally = wl.Tally()
    tracer = layers.tracer_for(workload) if args.trace else None
    setup_s, stages, results = set_up(
        workload, tally, setups, tracer.warmup if tracer else workload.warmup
    )
    wrong = verify(workload, results, args.seed, golden)
    tally.failed += len(wrong)  # the verified operation itself
    tally.bad_cells |= wrong    # its timed repeats fail without running
    workload.prepare_sweeps()
    harness.freeze_heap()

    before = engine_counters(workload)
    started = time.perf_counter()
    for index in range(timed):
        workload.timed_sweep(index, tally)
    wall_s = time.perf_counter() - started
    counters = counter_delta(engine_counters(workload), before)

    pooled = sum(len(v) for v in tally.latencies.values())
    if tracer:
        metrics = tracer.measure(range(timed, timed * 2), pooled / wall_s, stages, tally)
        tracer.spans.write(OUT_DIR / f"trace_{workload.name}.jsonl")
    else:
        metrics = end_to_end(tally, wall_s, setup_s)

    final = workload.finish()
    tally.attempted += len(final)
    tally.failed += len(verify(workload, final, args.seed, golden))
    info = {
        "failed_frac": tally.failed / tally.attempted,
        "timed_wall_s": wall_s,
        "timed_sweeps": timed,
        "cells": len(tally.latencies),
        "p95_samples": pooled,
        "p95_supported": pooled >= MIN_P95_SAMPLES,
        **{f"setup.{k}": v for k, v in stages.items()},
    }
    if tracer:
        info.update(tracer.info())
        info.update({f"self_s.{k}": v for k, v in tracer.spans.self_times().items()})

    header = harness.noise_header(args.seed, {
        "workload": workload.name, "scale": workload.scale_key(),
        "data_seed": workload.data_seed,
        "setups": setups, "timed_sweeps": timed,
        "traced": bool(args.trace), "smoke": args.smoke,
    })
    print("# " + json.dumps(header))
    for error in tally.errors:
        print(f"# error: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:<16} {name:<44} {value:>14.6g} {unit}")
    for name, value in info.items():
        print(f"{workload.name:<16} info:{name:<39} {value:>14.6g}")

    detail = {
        "header": header, "info": info, "counters": counters,
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "digests": digests_of({**results, **final}),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"result_{workload.name}{suffix}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True)
    )
    if args.regen_golden and tally.failed == 0:
        write_golden(workload, detail["digests"])

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


# ---------------------------------------------------------------------------
# all workloads, one subprocess each
# ---------------------------------------------------------------------------


def child_command(args, name, trace) -> list:
    command = [
        sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.regen_golden:
        command.append("--regen-golden")
    return command


def run_child(args, name, trace) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        child_command(args, name, trace), env=env, capture_output=True, text=True
    )
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"workload {name} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    spec = load_spec()
    summary = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        summary[name] = run_child(args, name, trace=False)
        if args.trace:
            traced = run_child(args, name, trace=True)
            summary[name]["per_layer"] = traced["metrics"]
            summary[name]["correct"] &= traced["correct"]
    print()
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    print(f"{'workload':<16}" + "".join(f"{n:>16}" for n in names))
    for name, result in summary.items():
        values = [result["metrics"][n]["value"] for n in names[:-1]]
        values.append(result["failed"] / result["attempted"])
        print(f"{name:<16}" + "".join(f"{v:>16.5g}" for v in values))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{'(unit)':<16}" + "".join(f"{units.get(n, 'ratio'):>16}" for n in names))
    print(json.dumps(summary, sort_keys=True))
    return 0 if all(r["correct"] for r in summary.values()) else 1


def write_golden(workload, digests):
    """Replace this workload's committed digests at the current scale."""
    golden = harness.load_golden()
    golden.setdefault(workload.name, {})[workload.scale_key()] = digests
    harness.GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"# golden digests rewritten for {workload.name} at {workload.scale_key()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="traced run: per-layer metrics and span files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scales, one timed sweep")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite perf/golden/seed7.json instead of checking it")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.regen_golden and (args.seed != harness.GOLDEN_SEED or args.trace):
        parser.error("--regen-golden needs seed 7 and an untraced run")
    if not args.workload:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # hash randomisation changes set/dict orders and with them timings
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], dict(os.environ, PYTHONHASHSEED="0"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
