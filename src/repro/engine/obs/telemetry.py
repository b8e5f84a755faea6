"""Workload telemetry: query fingerprints and cumulative per-statement
statistics.

The tracer answers "why was *this* query slow"; this module answers "what
has this database been *doing*" — the ``pg_stat_statements`` view of a
long-lived workload.  Two pieces:

* :func:`fingerprint` normalizes a SQL statement (literals and parameter
  markers collapse to ``?``, whitespace and case fold away) over the
  existing lexer token stream and hashes the result, so the same query
  shape with different literals lands on one key;
* :class:`StatementStatsStore` accumulates, per fingerprint, call counts,
  total/min/max execution time plus streaming p50/p95 (reusing the
  :class:`~repro.engine.obs.metrics.Histogram` reservoir machinery), rows
  returned, rows scanned, batches, peak estimated working-set bytes,
  plan-cache hits/misses, analyzer-diagnostic counts and timeout/abort
  counts — thread-safe, bounded, with LRU eviction of cold fingerprints.
  Its snapshot rows are the ``repro_stat_statements`` system view.

Layering: this module is import-light like the rest of ``obs`` — the
lexer is imported lazily inside :func:`fingerprint`, so storage/index/txn
code can keep importing the package without dragging in the SQL
front-end.  No wall-clock reads; callers hand in elapsed durations.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .introspect import SYSTEM_VIEWS
from .metrics import Histogram

#: snapshot row layout: the columns of the ``repro_stat_statements`` view
_COLUMNS: Tuple[str, ...] = tuple(SYSTEM_VIEWS["repro_stat_statements"])

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
        """Snapshot row keyed by the ``repro_stat_statements`` columns."""
        looked_up = self.cache_hits + self.cache_misses
        derived = {
            "time_mean_s": (self.time_total_s / self.calls) if self.calls else None,
            "time_p50_s": self._times.percentile(50),
            "time_p95_s": self._times.percentile(95),
            "cache_hit_ratio": (self.cache_hits / looked_up) if looked_up else None,
        }
        return {
            column: derived[column] if column in derived else getattr(self, column)
            for column in _COLUMNS
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
        metrics=None,
    ) -> StatementStats:
        """Fold one execution into the statement's entry.

        ``metrics`` is the execution's per-operator map, the record EXPLAIN
        ANALYZE renders (``id(op)`` →
        :class:`~repro.engine.plan.operators.NodeMetrics`): ``rows_scanned``
        gains the rows of its leaf nodes, ``batches`` every node's batches,
        and ``peak_ws_bytes`` is the largest node's ``ws_bytes``.  ``None``
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
            for node in (metrics or {}).values():
                if node.leaf:
                    entry.rows_scanned += node.rows
                entry.batches += node.batches
                if node.ws_bytes > entry.peak_ws_bytes:
                    entry.peak_ws_bytes = node.ws_bytes
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


__all__ = [
    "SORT_KEYS",
    "StatementStats",
    "StatementStatsStore",
    "fingerprint",
    "normalize_statement",
]
