"""Smoke test of the repo benchmark (not part of tier-1 ``testpaths``).

    python -m pytest perf/tests -q

Drives ``perf/run.py --smoke`` the way a user would and checks the
benchmark's promises: every workload and metric named in BENCHMARK.json
is printed with its unit, nothing fails, and a second run with the same
seed repeats the operation counts and the engine counters exactly.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = re.compile(r"storage\..*_rows_scanned|plan\.cache_.*|txn\.versions_written")


def smoke(*extra):
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "7", *extra],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    details = {
        name: json.loads((PERF / "out" / f"result_{name}.json").read_text())
        for name in WORKLOADS
    }
    return done.stdout, details


@pytest.fixture(scope="module")
def traced_run():
    return smoke("--trace")


def test_spec_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert SPEC["paths"] == ["perf"]


def test_every_metric_is_printed_with_its_unit(traced_run):
    stdout, _details = traced_run
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            line = re.compile(
                rf"^{re.escape(workload)}\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$",
                re.MULTILINE,
            )
            assert line.search(stdout), (workload, metric["name"])
        assert (PERF / "out" / f"trace_{workload}.jsonl").stat().st_size > 0


def test_nothing_fails(traced_run):
    _stdout, details = traced_run
    for workload, detail in details.items():
        assert detail["failed"] == 0, (workload, detail["errors"])
        assert detail["info"]["failed_frac"] == 0
        assert detail["attempted"] >= 1


def test_per_layer_list_matches_the_tracer():
    sys.path.insert(0, str(PERF))
    import layers

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


def test_same_seed_repeats_counts_exactly(traced_run):
    _stdout, first = traced_run
    _stdout, second = smoke()
    for workload in WORKLOADS:
        assert first[workload]["attempted"] == second[workload]["attempted"]
        for run in (first, second):
            assert any(EXACT.fullmatch(k) for k in run[workload]["counters"])
        exact = lambda detail: {  # noqa: E731
            k: v for k, v in detail["counters"].items() if EXACT.fullmatch(k)
        }
        assert exact(first[workload]) == exact(second[workload]), workload
