"""Two-phase-locking lock manager with wait timeouts.

Record-grain shared/exclusive locks keyed by arbitrary hashables
(``(table, rid)`` by convention).  Deadlocks resolve by timeout: a waiter
that exceeds its budget aborts its transaction (:class:`TxnAborted`),
which the workload drivers retry — the behaviour Shore-MT-style engines
exhibit under lock thrashing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set, Tuple

from ..sim import AnyOf, Granted, Simulator

__all__ = ["LockMode", "TxnAborted", "LockManager"]

# Shared pre-completed target for every immediate-grant path: callers do
# ``yield from acquire(...)`` either way, but the uncontended case costs
# no generator frame and never suspends.
_DONE = Granted(None)


class LockMode:
    SHARED = "S"
    EXCLUSIVE = "X"


class TxnAborted(Exception):
    """The transaction must roll back (lock timeout / explicit abort)."""


class _LockRecord:
    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: Dict[int, str] = {}   # txn_id -> mode
        self.queue: Deque[Tuple] = deque()  # (event, txn_id, mode)


class LockManager:
    """S/X locks, FIFO granting, timeout-based deadlock resolution."""

    def __init__(self, sim: Simulator, timeout_us: float = 200_000.0):
        if timeout_us <= 0:
            raise ValueError("timeout_us must be positive")
        self.sim = sim
        self.timeout_us = timeout_us
        self._locks: Dict[object, _LockRecord] = {}
        self._held: Dict[int, Set[object]] = {}
        self.total_acquisitions = 0
        self.total_waits = 0
        self.total_timeouts = 0

    # -- acquisition ---------------------------------------------------------------

    def acquire(self, txn_id: int, key, mode: str):
        """``yield from`` target: blocks until granted; raises TxnAborted
        on timeout.  Immediate grants complete without suspending."""
        if mode not in (LockMode.SHARED, LockMode.EXCLUSIVE):
            raise ValueError(f"bad lock mode {mode!r}")
        self.total_acquisitions += 1
        # get-then-create instead of setdefault(key, _LockRecord()): the
        # setdefault form constructs a throwaway record (deque + dict) on
        # every acquire, and most acquires hit an existing key.
        record = self._locks.get(key)
        if record is None:
            record = self._locks[key] = _LockRecord()
        held = record.holders.get(txn_id)
        if held is not None:
            if held == LockMode.EXCLUSIVE or mode == LockMode.SHARED:
                return _DONE  # already strong enough
            if len(record.holders) == 1:
                record.holders[txn_id] = LockMode.EXCLUSIVE  # upgrade
                return _DONE
            # Upgrade with other readers present: queue like a fresh X.
        if self._grantable(record, txn_id, mode):
            record.holders[txn_id] = mode
            self._held.setdefault(txn_id, set()).add(key)
            return _DONE
        return self._acquire_wait(record, txn_id, key, mode)

    def _acquire_wait(self, record: _LockRecord, txn_id: int, key, mode: str):
        """Generator: the contended path of :meth:`acquire`."""
        self.total_waits += 1
        event = self.sim.event()
        entry = (event, txn_id, mode)
        record.queue.append(entry)
        deadline = self.sim.timeout(self.timeout_us)
        fired = yield AnyOf(self.sim, [event, deadline])
        if event not in fired:
            try:
                record.queue.remove(entry)
            except ValueError:
                pass
            else:
                self.total_timeouts += 1
                raise TxnAborted(f"lock timeout on {key!r}")
            # Removed already -> the grant raced the timeout: we hold it.
        self._held.setdefault(txn_id, set()).add(key)

    def _grantable(self, record: _LockRecord, txn_id: int, mode: str) -> bool:
        if record.queue:
            return False  # FIFO fairness: no barging
        holders = record.holders
        if not holders:
            return True
        if mode == LockMode.SHARED:
            return all(held_mode == LockMode.SHARED
                       for tid, held_mode in holders.items() if tid != txn_id)
        return all(tid == txn_id for tid in holders)

    # -- release ---------------------------------------------------------------------

    def release_all(self, txn_id: int) -> None:
        """End of transaction: drop every lock and wake compatible waiters.

        Keys are released in sorted order so wake-up order (and therefore
        the whole simulation) is independent of PYTHONHASHSEED.
        """
        for key in sorted(self._held.pop(txn_id, set()), key=repr):
            record = self._locks.get(key)
            if record is None:
                continue
            record.holders.pop(txn_id, None)
            self._wake(record)
            if not record.holders and not record.queue:
                del self._locks[key]

    def _wake(self, record: _LockRecord) -> None:
        while record.queue:
            event, txn_id, mode = record.queue[0]
            others = {tid for tid in record.holders if tid != txn_id}
            if mode == LockMode.EXCLUSIVE:
                if others:
                    break  # an upgrade waits like a fresh X request
                record.queue.popleft()
                record.holders[txn_id] = LockMode.EXCLUSIVE
                event.succeed()
                break
            if any(record.holders[tid] == LockMode.EXCLUSIVE
                   for tid in others):
                break
            record.queue.popleft()
            record.holders[txn_id] = LockMode.SHARED
            event.succeed()
            # keep draining contiguous readers

    # -- introspection ------------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "acquisitions": self.total_acquisitions,
            "waits": self.total_waits,
            "timeouts": self.total_timeouts,
            "active_keys": len(self._locks),
        }
