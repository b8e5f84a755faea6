"""Machine-readable benchmark artifacts (``repro bench --json``).

Schema ``repro-bench/v2`` (v1 plus per-measurement ``statements``:
per-fingerprint workload-telemetry rows captured when the system's
statement store is enabled; the loader still reads v1 artifacts, which
simply lack the key)::

    {
      "schema": "repro-bench/v2",
      "generator": {"tool": "repro bench"},
      "config": {...},                  # scale factors, experiments, service knobs
      "experiments": [
        {
          "name": "fig02",
          "measurements": [
            {
              "qid": "T1.app", "system": "A", "setting": "no index",
              "runs": 3, "discarded": 1,
              "median_s": ..., "mean_s": ..., "best_s": ...,
              "p95_s": ...,               # null when no samples were kept
              "times_s": [...],           # kept (post-discard) samples
              "rows": ..., "timed_out": false, "timeout_s": null,
              "diagnostics": ["TQ001", ...],
              "metrics": {"storage.current_rows_scanned": 1234, ...},
              "statements": [{"fingerprint": "...", "calls": 8, ...}, ...]
            }, ...
          ],
          "series": {...},              # figure line data, when the experiment has any
          "extra": {...}
        }, ...
      ],
      "systems": {
        "A": {
          "architecture": "...",
          "cache": {...},               # plan-cache counters (cumulative)
          "metrics": {...}              # summed per-measurement metric deltas
        }, ...
      },
      "analyzer": {"TQ001": {"severity": "info", "count": 4}, ...}
    }

Timings are seconds; ``metrics`` values are counter deltas scoped to the
measurement cell (the service resets the registry before each one).
Non-finite floats serialise as null so the artifact stays strict JSON.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

SCHEMA = "repro-bench/v2"

#: schema strings load_artifact accepts; older versions are forward-read
#: (missing keys are treated as absent values by every consumer)
SUPPORTED_SCHEMAS = ("repro-bench/v1", SCHEMA)


def _jsonable(value):
    """Best-effort conversion to strict-JSON-serialisable values."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return str(value)


def measurement_record(measurement) -> Dict:
    """One Measurement as a schema v2 record."""
    try:
        p95 = measurement.percentile(95)
    except ValueError:
        p95 = None
    return {
        "qid": measurement.qid,
        "system": measurement.system,
        "setting": measurement.setting,
        "runs": len(measurement.times),
        "discarded": len(measurement.discarded),
        "median_s": _jsonable(measurement.median),
        "mean_s": _jsonable(measurement.mean),
        "best_s": _jsonable(measurement.best),
        "p95_s": _jsonable(p95),
        "times_s": [_jsonable(t) for t in measurement.times],
        "rows": measurement.rows,
        "timed_out": measurement.timed_out,
        "timeout_s": _jsonable(measurement.timeout_s),
        "diagnostics": [d.code for d in measurement.diagnostics],
        "metrics": dict(measurement.metrics),
        "statements": _jsonable(getattr(measurement, "statements", [])),
    }


def experiment_record(result) -> Dict:
    """One ExperimentResult as a schema v2 record (text is dropped — the
    artifact is for machines; humans read the printed tables)."""
    return {
        "name": result.name,
        "measurements": [measurement_record(m) for m in result.measurements],
        "series": _jsonable(result.series),
        "extra": _jsonable(result.extra),
    }


def _analyzer_tally(results) -> Dict[str, Dict]:
    tally: Dict[str, Dict] = {}
    for result in results:
        for measurement in result.measurements:
            for diagnostic in measurement.diagnostics:
                entry = tally.setdefault(
                    diagnostic.code,
                    {"severity": diagnostic.severity, "count": 0},
                )
                entry["count"] += 1
    return dict(sorted(tally.items()))


def _system_record(name: str, system, results) -> Dict:
    record: Dict = {"architecture": getattr(system, "architecture", "")}
    cache_stats = getattr(system, "cache_stats", None)
    if callable(cache_stats):
        record["cache"] = _jsonable(cache_stats())
    # total metric deltas: the registry is reset per cell, so the artifact
    # re-aggregates from the per-measurement records instead
    totals: Dict[str, int] = {}
    for result in results:
        for measurement in result.measurements:
            if measurement.system != name:
                continue
            for metric, value in measurement.metrics.items():
                totals[metric] = totals.get(metric, 0) + value
    record["metrics"] = dict(sorted(totals.items()))
    return record


def build_artifact(
    results: List,
    systems: Optional[Dict[str, object]] = None,
    config: Optional[Dict] = None,
) -> Dict:
    """Assemble the full artifact from experiment results + systems."""
    artifact = {
        "schema": SCHEMA,
        "generator": {"tool": "repro bench"},
        "config": _jsonable(config or {}),
        "experiments": [experiment_record(r) for r in results],
        "systems": {},
        "analyzer": _analyzer_tally(results),
    }
    for name, system in (systems or {}).items():
        artifact["systems"][name] = _system_record(name, system, results)
    return artifact


def write_artifact(path, artifact: Dict, experiment: str = "bench") -> Path:
    """Write *artifact* as JSON.  A directory path (or one without a
    ``.json`` suffix that names an existing directory) gets the canonical
    ``BENCH_<experiment>.json`` file name."""
    target = Path(path)
    if target.is_dir():
        target = target / f"BENCH_{experiment}.json"
    target.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return target


class ArtifactError(ValueError):
    """A file is not a readable ``repro-bench`` artifact."""


def load_artifact(path) -> Dict:
    """Read and validate one artifact file.

    Validation is shallow on purpose — the schema string must match and
    the experiment list must be a list — so artifacts written by older
    code with extra keys keep loading; consumers treat missing fields as
    absent values.
    """
    source = Path(path)
    try:
        artifact = json.loads(source.read_text())
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{source} is not valid JSON: {exc}") from exc
    if (
        not isinstance(artifact, dict)
        or artifact.get("schema") not in SUPPORTED_SCHEMAS
    ):
        raise ArtifactError(
            f"{source} is not a repro-bench artifact "
            f"(schema={artifact.get('schema') if isinstance(artifact, dict) else '?'!r}; "
            f"supported: {', '.join(SUPPORTED_SCHEMAS)})"
        )
    if not isinstance(artifact.get("experiments"), list):
        raise ArtifactError(f"{source}: 'experiments' must be a list")
    return artifact

