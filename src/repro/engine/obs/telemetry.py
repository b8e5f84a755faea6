"""Workload telemetry: query fingerprints, cumulative per-statement
statistics, and an OpenMetrics/Prometheus text exposition.

The tracer answers "why was *this* query slow"; this module answers "what
has this database been *doing*" — the ``pg_stat_statements`` view of a
long-lived workload.  Three pieces:

* :func:`fingerprint` normalizes a SQL statement (literals and parameter
  markers collapse to ``?``, whitespace and case fold away) over the
  existing lexer token stream and hashes the result, so the same query
  shape with different literals lands on one key;
* :class:`StatementStatsStore` accumulates, per fingerprint, call counts,
  total/min/max execution time plus streaming p50/p95 (reusing the
  :class:`~repro.engine.obs.metrics.Histogram` reservoir machinery), rows
  returned, rows scanned, batches, peak estimated working-set bytes,
  plan-cache hits/misses, analyzer-diagnostic counts and timeout/abort
  counts — thread-safe, bounded, with LRU eviction of cold fingerprints;
* :func:`render_openmetrics` renders a :class:`MetricsRegistry` plus the
  top-K statement entries as an OpenMetrics text exposition
  (``# HELP``/``# TYPE`` lines, histogram buckets, ``# EOF`` terminator),
  and :func:`validate_openmetrics` is the line-format validator the test
  suite and CI run over every emitted snapshot.

Layering: this module is import-light like the rest of ``obs`` — the
lexer is imported lazily inside :func:`fingerprint`, so storage/index/txn
code can keep importing the package without dragging in the SQL
front-end.  No wall-clock reads; callers hand in elapsed durations.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .metrics import COUNTERS, HISTOGRAMS, Histogram, MetricsRegistry

#: statement-statistics columns (snapshot dict keys) -> description.
#: ``tools/engine_lint.py`` (check ``telemetry-docs``) requires every key
#: to be documented in docs/OBSERVABILITY.md.
STATEMENT_FIELDS: Dict[str, str] = {
    "fingerprint": "stable 12-hex-digit hash of the normalized statement",
    "query": "normalized statement text (literals collapsed to ?)",
    "calls": "number of executions (successful and aborted)",
    "time_total_s": "total wall seconds across all executions",
    "time_min_s": "fastest single execution (seconds)",
    "time_max_s": "slowest single execution (seconds)",
    "time_mean_s": "mean execution time (seconds)",
    "time_p50_s": "streaming median over the retained reservoir",
    "time_p95_s": "streaming 95th percentile over the retained reservoir",
    "rows": "total rows returned (SELECT) or affected (DML)",
    "rows_scanned": "total rows produced by leaf operators (scans)",
    "batches": "total batches produced by all plan operators",
    "peak_ws_bytes": "peak estimated working-set bytes of any operator",
    "cache_hits": "executions answered by a cached plan",
    "cache_misses": "executions that parsed and planned from scratch",
    "cache_hit_ratio": "cache_hits / (cache_hits + cache_misses), null before any lookup",
    "diagnostics": "cumulative analyzer findings attributed to this statement",
    "timeouts": "executions aborted by deadline or cancellation",
    "aborts": "executions aborted by any other error",
}

#: OpenMetrics metric families emitted for the statement store itself and
#: for the top-K statement entries (labelled by ``fingerprint``).  Keys are
#: family names (sample names add the spec suffix, e.g. ``_total``);
#: check ``telemetry-docs`` requires every key in docs/OBSERVABILITY.md.
STATEMENT_METRICS: Dict[str, Tuple[str, str]] = {
    "repro_statements_tracked": ("gauge", "distinct fingerprints currently tracked"),
    "repro_statements_evicted": ("counter", "cold fingerprints dropped by LRU eviction"),
    "repro_statement_calls": ("counter", "executions of one statement shape"),
    "repro_statement_time_seconds": ("counter", "total wall seconds of one statement shape"),
    "repro_statement_rows": ("counter", "rows returned/affected by one statement shape"),
    "repro_statement_rows_scanned": ("counter", "rows produced by leaf operators for one statement shape"),
    "repro_statement_batches": ("counter", "batches produced for one statement shape"),
    "repro_statement_cache_hits": ("counter", "plan-cache hits for one statement shape"),
    "repro_statement_cache_misses": ("counter", "plan-cache misses for one statement shape"),
    "repro_statement_timeouts": ("counter", "timed-out/cancelled executions of one statement shape"),
    "repro_statement_aborts": ("counter", "otherwise-aborted executions of one statement shape"),
    "repro_statement_peak_ws_bytes": ("gauge", "peak estimated working-set bytes of one statement shape"),
    "repro_statement_p95_seconds": ("gauge", "streaming p95 execution time of one statement shape"),
}

#: snapshot sort keys accepted by :meth:`StatementStatsStore.snapshot`
SORT_KEYS = {
    "time": "time_total_s",
    "calls": "calls",
    "rows": "rows",
}


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

#: tokens that attach to the previous token when re-joining (cosmetics only;
#: the hash would be stable either way)
_TIGHT_AFTER = {",", ")", ".", ";"}
_TIGHT_BEFORE = ("(", ".")


def normalize_statement(sql: str) -> str:
    """The canonical shape of *sql*: literals and parameter markers become
    ``?``, keywords/identifiers fold to lowercase, whitespace and comments
    collapse.  Falls back to plain whitespace/case folding when the text
    does not tokenize (e.g. a statement recorded on its parse-error path).
    """
    from ..sql.lexer import tokenize  # deferred: obs stays front-end-free

    try:
        tokens = tokenize(sql)
    except Exception:
        return " ".join(sql.split()).lower()
    parts: List[str] = []
    for token in tokens:
        if token.kind == "end":
            break
        if token.kind in ("number", "string", "param"):
            text = "?"
        else:
            text = str(token.value)
        if parts and (text in _TIGHT_AFTER or parts[-1].endswith(_TIGHT_BEFORE)):
            parts[-1] += text
        else:
            parts.append(text)
    return " ".join(parts)


def fingerprint(sql: str) -> Tuple[str, str]:
    """``(stable hash, normalized text)`` of one SQL statement.

    The hash is the first 12 hex digits of the SHA-256 of the normalized
    text — stable across processes and sessions, unlike ``hash()``.
    """
    normalized = normalize_statement(sql)
    digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]
    return digest, normalized


# ---------------------------------------------------------------------------
# the per-database statement store
# ---------------------------------------------------------------------------


class StatementStats:
    """Cumulative counters for one statement fingerprint."""

    __slots__ = (
        "fingerprint", "query", "calls", "time_total_s", "time_min_s",
        "time_max_s", "rows", "rows_scanned", "batches", "peak_ws_bytes",
        "cache_hits", "cache_misses", "diagnostics", "timeouts", "aborts",
        "_times",
    )

    def __init__(self, fp: str, query: str):
        self.fingerprint = fp
        self.query = query
        self.calls = 0
        self.time_total_s = 0.0
        self.time_min_s: Optional[float] = None
        self.time_max_s: Optional[float] = None
        self.rows = 0
        self.rows_scanned = 0
        self.batches = 0
        self.peak_ws_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.diagnostics = 0
        self.timeouts = 0
        self.aborts = 0
        #: streaming percentile reservoir (the metrics.Histogram machinery)
        self._times = Histogram(reservoir=256)

    def as_dict(self) -> Dict:
        """Snapshot row; keys are exactly ``STATEMENT_FIELDS``."""
        looked_up = self.cache_hits + self.cache_misses
        return {
            "fingerprint": self.fingerprint,
            "query": self.query,
            "calls": self.calls,
            "time_total_s": self.time_total_s,
            "time_min_s": self.time_min_s,
            "time_max_s": self.time_max_s,
            "time_mean_s": (self.time_total_s / self.calls) if self.calls else None,
            "time_p50_s": self._times.percentile(50),
            "time_p95_s": self._times.percentile(95),
            "rows": self.rows,
            "rows_scanned": self.rows_scanned,
            "batches": self.batches,
            "peak_ws_bytes": self.peak_ws_bytes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": (self.cache_hits / looked_up) if looked_up else None,
            "diagnostics": self.diagnostics,
            "timeouts": self.timeouts,
            "aborts": self.aborts,
        }


class StatementStatsStore:
    """Bounded, thread-safe ``pg_stat_statements``-style accumulator.

    One store per :class:`~repro.engine.database.Database`.  Disabled by
    default — the session's execute fast path then never touches it.  When
    enabled, every executed SQL string is fingerprinted (amortized by an
    LRU text→fingerprint cache, so a plan-cache hit re-tokenizes nothing)
    and its entry updated under a lock.  At most ``capacity`` fingerprints
    are kept; recording a new one beyond that evicts the least recently
    *updated* (cold) entry and counts it in :attr:`evicted`.
    """

    def __init__(self, capacity: int = 512, enabled: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.enabled = enabled
        self.evicted = 0
        self._entries: "OrderedDict[str, StatementStats]" = OrderedDict()
        self._fingerprints: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        self._lock = threading.Lock()

    # -- writes ------------------------------------------------------------

    def _fingerprint_cached(self, sql: str) -> Tuple[str, str]:
        cached = self._fingerprints.get(sql)
        if cached is not None:
            self._fingerprints.move_to_end(sql)
            return cached
        fp = fingerprint(sql)
        self._fingerprints[sql] = fp
        while len(self._fingerprints) > 4 * self.capacity:
            self._fingerprints.popitem(last=False)
        return fp

    def record(
        self,
        sql: str,
        elapsed_s: float,
        rows: int = 0,
        cache_hit: Optional[bool] = None,
        timed_out: bool = False,
        aborted: bool = False,
        resources=None,
    ) -> StatementStats:
        """Fold one execution into the statement's entry.

        ``resources`` is any object with ``rows_scanned`` / ``batches`` /
        ``peak_ws_bytes`` attributes (the execution context's
        :class:`~repro.engine.plan.context.ResourceCounters`); ``None``
        skips operator-level accounting for this call.
        """
        with self._lock:
            fp, normalized = self._fingerprint_cached(sql)
            entry = self._entries.get(fp)
            if entry is None:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self.evicted += 1
                entry = StatementStats(fp, normalized)
                self._entries[fp] = entry
            else:
                self._entries.move_to_end(fp)
            entry.calls += 1
            entry.time_total_s += elapsed_s
            if entry.time_min_s is None or elapsed_s < entry.time_min_s:
                entry.time_min_s = elapsed_s
            if entry.time_max_s is None or elapsed_s > entry.time_max_s:
                entry.time_max_s = elapsed_s
            entry._times.observe(elapsed_s)
            entry.rows += max(rows, 0)
            if cache_hit is True:
                entry.cache_hits += 1
            elif cache_hit is False:
                entry.cache_misses += 1
            if timed_out:
                entry.timeouts += 1
            elif aborted:
                entry.aborts += 1
            if resources is not None:
                entry.rows_scanned += resources.rows_scanned
                entry.batches += resources.batches
                if resources.peak_ws_bytes > entry.peak_ws_bytes:
                    entry.peak_ws_bytes = resources.peak_ws_bytes
            return entry

    def note_diagnostics(self, sql: str, count: int) -> None:
        """Attribute *count* analyzer findings to *sql*'s entry (if any).

        Lint runs outside the execute path (in the benchmark service);
        findings accumulate on the already-recorded entry rather
        than creating one for a statement that never executed.
        """
        if count <= 0:
            return
        with self._lock:
            fp, _normalized = self._fingerprint_cached(sql)
            entry = self._entries.get(fp)
            if entry is not None:
                entry.diagnostics += count

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self, top: Optional[int] = None, sort: str = "time") -> List[Dict]:
        """Statement rows as dicts, most expensive first.

        ``sort`` is one of ``time`` (total seconds), ``calls``, ``rows``.
        """
        try:
            key = SORT_KEYS[sort]
        except KeyError:
            raise ValueError(
                f"unknown sort {sort!r}; expected one of {sorted(SORT_KEYS)}"
            ) from None
        with self._lock:
            rows = [entry.as_dict() for entry in self._entries.values()]
        rows.sort(key=lambda r: (-(r[key] or 0), r["fingerprint"]))
        if top is not None:
            rows = rows[:top]
        return rows

    def reset(self) -> None:
        """Drop every entry (the benchmark service does this per cell);
        keeps ``enabled`` and the fingerprint cache."""
        with self._lock:
            self._entries.clear()
            self.evicted = 0


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------


def counter_family(name: str) -> str:
    """OpenMetrics family name of a registry counter
    (``plan.cache_hit`` → ``repro_plan_cache_hit``; samples add ``_total``)."""
    return "repro_" + name.replace(".", "_")


def histogram_family(name: str) -> str:
    """OpenMetrics family name of a registry histogram; a trailing ``_s``
    unit becomes the spelled-out ``_seconds``
    (``query.execute_s`` → ``repro_query_execute_seconds``)."""
    flat = name.replace(".", "_")
    if flat.endswith("_s"):
        flat = flat[:-2] + "_seconds"
    return "repro_" + flat


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n")
    )


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def _sample(name: str, labels: Optional[Dict[str, str]], value) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def render_openmetrics(
    registry: MetricsRegistry,
    statements: Optional[StatementStatsStore] = None,
    top: int = 10,
    extra: Optional[List[str]] = None,
) -> str:
    """The registry (and optionally the statement store) as one OpenMetrics
    text exposition: ``# HELP``/``# TYPE`` per family, counter samples with
    the ``_total`` suffix, histogram ``_bucket``/``_sum``/``_count``
    series, top-K statement families labelled by ``fingerprint`` (plus a
    truncated ``query`` label for dashboards), and the ``# EOF``
    terminator the spec requires.  ``extra`` appends pre-rendered family
    lines (the introspection counters) before the terminator.
    """
    lines: List[str] = []
    for name in COUNTERS:
        family = counter_family(name)
        lines.append(f"# HELP {family} {_escape_help(COUNTERS[name])}")
        lines.append(f"# TYPE {family} counter")
        lines.append(_sample(f"{family}_total", None, registry.counter(name)))
    for name in HISTOGRAMS:
        family = histogram_family(name)
        hist = registry.histogram(name)
        lines.append(f"# HELP {family} {_escape_help(HISTOGRAMS[name])}")
        lines.append(f"# TYPE {family} histogram")
        for bound, cumulative in hist.buckets():
            le = "+Inf" if bound is None else _format_value(bound)
            lines.append(
                _sample(f"{family}_bucket", {"le": le}, cumulative)
            )
        lines.append(_sample(f"{family}_sum", None, hist.total))
        lines.append(_sample(f"{family}_count", None, hist.count))
    if statements is not None:
        lines.extend(_statement_lines(statements, top))
    if extra:
        lines.extend(extra)
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _statement_lines(store: StatementStatsStore, top: int) -> List[str]:
    lines: List[str] = []
    for family, (kind, help_text) in STATEMENT_METRICS.items():
        lines.append(f"# HELP {family} {_escape_help(help_text)}")
        lines.append(f"# TYPE {family} {kind}")
        if family == "repro_statements_tracked":
            lines.append(_sample(family, None, len(store)))
        elif family == "repro_statements_evicted":
            lines.append(_sample(f"{family}_total", None, store.evicted))
    rows = store.snapshot(top=top, sort="time")
    per_row = [
        ("repro_statement_calls_total", "calls"),
        ("repro_statement_time_seconds_total", "time_total_s"),
        ("repro_statement_rows_total", "rows"),
        ("repro_statement_rows_scanned_total", "rows_scanned"),
        ("repro_statement_batches_total", "batches"),
        ("repro_statement_cache_hits_total", "cache_hits"),
        ("repro_statement_cache_misses_total", "cache_misses"),
        ("repro_statement_timeouts_total", "timeouts"),
        ("repro_statement_aborts_total", "aborts"),
        ("repro_statement_peak_ws_bytes", "peak_ws_bytes"),
        ("repro_statement_p95_seconds", "time_p95_s"),
    ]
    for row in rows:
        labels = {
            "fingerprint": row["fingerprint"],
            "query": row["query"][:200],
        }
        for sample_name, key in per_row:
            lines.append(_sample(sample_name, labels, row[key]))
    return lines


# ---------------------------------------------------------------------------
# exposition validation (tests + CI)
# ---------------------------------------------------------------------------

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_TYPES = frozenset(
    ("counter", "gauge", "histogram", "summary", "unknown", "info", "stateset")
)
#: sample-name suffixes each family type may emit
_TYPE_SUFFIXES = {
    "counter": ("_total", "_created"),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count", "_created"),
    "summary": ("", "_sum", "_count", "_created"),
    "unknown": ("",),
    "info": ("_info",),
    "stateset": ("",),
}
_LABELS = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(,|$)')


def _parse_sample(line: str) -> Optional[Tuple[str, str]]:
    """``(metric name, value text)`` of one sample line, or None on
    malformed syntax."""
    if "{" in line:
        name, rest = line.split("{", 1)
        end = rest.rfind("}")
        if end == -1:
            return None
        labels, value_part = rest[:end], rest[end + 1:]
        consumed = 0
        for match in _LABELS.finditer(labels):
            if match.start() != consumed:
                return None
            consumed = match.end()
        if consumed != len(labels):
            return None
    else:
        split = line.split(None, 1)
        if len(split) != 2:
            return None
        name, value_part = split
    fields = value_part.split()
    if not fields or len(fields) > 2:  # value [timestamp]
        return None
    return name.strip(), fields[0]


def validate_openmetrics(text: str) -> List[str]:
    """Line-format errors in an OpenMetrics exposition (empty = valid).

    Checks: metric-name syntax, known ``# TYPE`` values, label-pair and
    value syntax per sample, every sample's name reachable from a family
    declared by an earlier ``# TYPE`` line with a suffix that family type
    allows, and a final ``# EOF`` line.
    """
    errors: List[str] = []
    families: Dict[str, str] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    for number, line in enumerate(lines, start=1):
        if line == "# EOF":
            if number != len(lines):
                errors.append(f"line {number}: # EOF before the last line")
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 3 or fields[1] not in ("HELP", "TYPE", "UNIT"):
                errors.append(f"line {number}: malformed comment {line!r}")
                continue
            name = fields[2]
            if not _METRIC_NAME.match(name):
                errors.append(f"line {number}: bad metric name {name!r}")
                continue
            if fields[1] == "TYPE":
                kind = fields[3].strip() if len(fields) > 3 else ""
                if kind not in _TYPES:
                    errors.append(f"line {number}: unknown TYPE {kind!r}")
                else:
                    families[name] = kind
            continue
        if not line.strip():
            errors.append(f"line {number}: blank line inside the exposition")
            continue
        parsed = _parse_sample(line)
        if parsed is None:
            errors.append(f"line {number}: malformed sample {line!r}")
            continue
        name, value_text = parsed
        if not _METRIC_NAME.match(name):
            errors.append(f"line {number}: bad sample name {name!r}")
            continue
        if value_text not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value_text)
            except ValueError:
                errors.append(f"line {number}: bad value {value_text!r}")
                continue
        if not _family_of(name, families):
            errors.append(
                f"line {number}: sample {name!r} has no preceding # TYPE "
                f"family declaration"
            )
    if not lines or lines[-1] != "# EOF":
        errors.append("exposition does not end with # EOF")
    return errors


def _family_of(sample_name: str, families: Dict[str, str]) -> Optional[str]:
    for family, kind in families.items():
        for suffix in _TYPE_SUFFIXES[kind]:
            if sample_name == family + suffix:
                return family
    return None


__all__ = [
    "SORT_KEYS",
    "STATEMENT_FIELDS",
    "STATEMENT_METRICS",
    "StatementStats",
    "StatementStatsStore",
    "counter_family",
    "fingerprint",
    "histogram_family",
    "normalize_statement",
    "render_openmetrics",
    "validate_openmetrics",
]
