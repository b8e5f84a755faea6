"""Transaction manager: commit-ordered system-time ticks.

The paper (§2.1) requires that *"the system time is immutable, and the
values are implicitly generated by the temporal database during transaction
commit"*.  The engine is single-threaded, so the commit order equals the
begin order and we can hand each transaction its tick up front; the tick
still only becomes visible once the transaction commits.

Batching (paper §4.2, Fig 13) groups several update scenarios into one
transaction: all their modifications then share a single system-time tick,
which is exactly the data-shape effect the paper measures.
"""

from __future__ import annotations

from typing import List, Optional

from .errors import NotSupportedError, OperationalError


class Transaction:
    """One unit of work with a single system-time tick."""

    __slots__ = ("tick", "wrote", "_manager", "_state")

    def __init__(self, manager: "TransactionManager", tick: int):
        self._manager = manager
        self.tick = tick
        #: set by the write path before it applies a checked write set
        self.wrote = False
        self._state = "active"

    @property
    def is_active(self):
        return self._state == "active"

    def commit(self):
        if self._state != "active":
            raise OperationalError(f"cannot commit a {self._state} transaction")
        self._state = "committed"
        self._manager._finish(self)

    def rollback(self):
        # The engine applies each checked statement at once and keeps no undo
        # list (the benchmark never aborts), so only a transaction that wrote
        # nothing rolls back.  One that wrote ends as committed: its writes
        # stay and its tick is used up, so no later version reuses it.
        if self._state != "active":
            raise OperationalError(f"cannot roll back a {self._state} transaction")
        if self.wrote:
            self.commit()
            raise NotSupportedError(
                "cannot roll back a transaction that has written: its writes"
                f" stay committed at system time {self.tick}"
            )
        self._state = "aborted"
        self._manager._finish(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._state == "active":
            if exc_type is None:
                self.commit()
            else:
                try:
                    self.rollback()
                except NotSupportedError as refused:
                    raise refused from exc
        return False


class TransactionManager:
    """Issues monotonically increasing system-time ticks."""

    def __init__(self, start_tick=1, metrics=None):
        self._clock = start_tick
        self._active: Optional[Transaction] = None
        self._committed: List[int] = []
        self._metrics = metrics  # optional obs.MetricsRegistry

    @property
    def clock(self):
        """The tick the *next* transaction will receive."""
        return self._clock

    @property
    def last_committed(self):
        """Tick of the most recently committed transaction (0 if none)."""
        return self._committed[-1] if self._committed else 0

    @property
    def commit_count(self):
        return len(self._committed)

    def begin(self) -> Transaction:
        if self._active is not None:
            raise OperationalError("a transaction is already active")
        txn = Transaction(self, self._clock)
        self._active = txn
        return txn

    def current(self) -> Optional[Transaction]:
        # finishing a transaction clears _active, so it is the open one
        return self._active

    def _finish(self, txn: Transaction):
        if txn is not self._active:
            raise OperationalError("finishing a transaction that is not active")
        if txn._state == "committed":
            self._committed.append(txn.tick)
            self._clock = txn.tick + 1
            if self._metrics is not None:
                self._metrics.inc("txn.commits")
        elif self._metrics is not None:
            self._metrics.inc("txn.rollbacks")
        self._active = None

    def set_clock(self, tick):
        """Jump the clock forward (bulk loads with explicit system time)."""
        if tick < self._clock:
            raise OperationalError("system time cannot move backwards")
        self._clock = tick
