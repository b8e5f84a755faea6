"""Shared machinery of the repo benchmark: statistics, result
canonicalisation, the span recorder of the traced run, and the noise
header.  Nothing here knows about a particular workload.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"
GOLDEN_PATH = PERF_DIR / "golden" / "seed7.json"
GOLDEN_SEED = 7

#: the engine under test lives in ``src/``; the benchmark imports it like
#: any client would, so no file of the program changes
sys.path.insert(0, str(REPO_ROOT / "src"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# result verification
# ---------------------------------------------------------------------------


def _canonical_value(value):
    if isinstance(value, float):
        # 9 significant digits: archetypes sum partitions in different orders.
        # Money sums are decimal fractions that land exactly on a rounding
        # tie (163088.5555), where the last bit of the sum decides the digit;
        # the nudge moves every such tie to the same side.
        return float(f"{value * (1 + 1e-12):.9g}")
    return value


def canonical(rows) -> List[tuple]:
    """Order-free, float-rounded form of a result set."""
    out = [tuple(_canonical_value(v) for v in row) for row in rows]
    out.sort(key=repr)
    return out


def digest(rows) -> str:
    return hashlib.sha256(repr(canonical(rows)).encode()).hexdigest()[:16]


def load_golden() -> Dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# spans (traced run only)
# ---------------------------------------------------------------------------


class SpanRecorder:
    """In-memory span list: (id, parent, op, layer, start, end).

    Spans are recorded around the calls the benchmark makes into each
    layer's public functions; ``op`` groups the spans of one operation.
    Self time of a span is its duration minus its children's.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op = 0

    def next_op(self):
        self.op += 1

    def start(self, layer: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, self.op, layer, time.perf_counter(), 0.0])
        self._stack.append(span_id)

    def finish(self) -> float:
        """Close the innermost open span; returns its duration."""
        span = self.spans[self._stack.pop()]
        span[5] = time.perf_counter()
        return span[5] - span[4]

    def timed(self, layer: str, fn, *args):
        """Call *fn* under a span; returns (result, seconds)."""
        self.start(layer)
        try:
            result = fn(*args)
        finally:
            seconds = self.finish()
        return result, seconds

    def self_times(self) -> Dict[str, float]:
        """Self seconds per layer over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _id, parent, _op, _layer, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = {}
        for span_id, _parent, _op, layer, start, end in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[span_id]
        return totals

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, op, layer, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "name": layer, "start": start, "end": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# noise hygiene
# ---------------------------------------------------------------------------


def freeze_heap():
    """Move everything set-up allocated out of the collector's sight, so
    the timed region's collections only walk what the run itself creates."""
    gc.collect()
    gc.freeze()


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def noise_header(seed: int, extra: Optional[Dict] = None) -> Dict:
    """What a reader needs to judge whether two runs are comparable."""
    header = {
        "isolation": "one fresh subprocess per workload",
        "loop": "closed, one client, single thread",
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "gc": "gc.collect(); gc.freeze() after set-up and warm-up",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1min": round(os.getloadavg()[0], 2),
        "git_sha": git_sha(),
        "seed": seed,
    }
    header.update(extra or {})
    return header


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
