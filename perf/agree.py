#!/usr/bin/env python3
"""Does the benchmark agree with itself?

    python3 perf/agree.py [--runs 2] [--seed 7] [--seconds S] [--smoke]

Runs the whole benchmark ``--runs`` times on this checkout and prints,
per end-to-end metric and workload, the relative spread of the runs
((max - min) / median) against the metric's bound in BENCHMARK.json, and
whether the engine counters of the timed region repeated exactly.  Exits
non-zero when a spread exceeds its bound or a counter differs: a bound
the benchmark cannot hold against itself cannot gate a change.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=harness.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = run.load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    args.regen_golden = False

    values, counters = {}, {}
    for _repeat in range(args.runs):
        for entry in spec["workloads"]:
            name = entry["name"]
            result = run.run_child(args, name, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{name}: incorrect results, nothing to compare")
            for metric, cell in result["metrics"].items():
                values.setdefault((name, metric), []).append(cell["value"])
            detail = json.loads((harness.OUT_DIR / f"result_{name}.json").read_text())
            counters.setdefault(name, []).append(
                dict(detail["counters"], attempted=detail["attempted"])
            )

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = 0
    print()
    print(f"{'workload':<16} {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for (name, metric), samples in values.items():
        middle = harness.median(samples)
        spread = (max(samples) - min(samples)) / middle
        verdict = "ok" if spread <= bounds[metric] else "EXCEEDS"
        failures += verdict != "ok"
        print(f"{name:<16} {metric:<16} {middle:>12.5g} {spread:>8.3f} {bounds[metric]:>6.2f}  {verdict}")
    for name, runs in counters.items():
        same = all(r == runs[0] for r in runs[1:])
        failures += not same
        print(f"{name:<16} counters and operation counts {'repeat exactly' if same else 'DIFFER'}")
        if not same:
            for key in sorted(set().union(*runs)):
                seen = [r.get(key, 0) for r in runs]
                if len(set(seen)) > 1:
                    print(f"    {key}: {seen}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
