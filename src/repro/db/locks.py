"""Two-phase-locking lock manager with wait timeouts.

Record-grain shared/exclusive locks keyed by arbitrary hashables
(``(table, rid)`` by convention).  Deadlocks resolve by timeout: a waiter
that exceeds its budget aborts its transaction (:class:`TxnAborted`),
which the workload drivers retry — the behaviour Shore-MT-style engines
exhibit under lock thrashing.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Set, Tuple

from ..sim import AnyOf, Simulator

__all__ = ["LockMode", "TxnAborted", "LockManager"]


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
        self._held: Dict[int, Set[object]] = defaultdict(set)
        self.total_acquisitions = 0
        self.total_waits = 0
        self.total_timeouts = 0

    # -- acquisition ---------------------------------------------------------------

    def acquire(self, txn_id: int, key, mode: str):
        """``yield from`` target: blocks until granted; raises TxnAborted
        on timeout.  An immediate grant returns ``()``, which delegates
        without a generator frame and never suspends."""
        if mode not in (LockMode.SHARED, LockMode.EXCLUSIVE):
            raise ValueError(f"bad lock mode {mode!r}")
        self.total_acquisitions += 1
        record = self._locks.get(key)
        if record is None:
            # Nobody holds or awaits the key: grant at once.
            record = self._locks[key] = _LockRecord()
        else:
            held = record.holders.get(txn_id)
            if held is not None:
                if held == LockMode.EXCLUSIVE or mode == LockMode.SHARED:
                    return ()  # already strong enough
                if len(record.holders) == 1:
                    record.holders[txn_id] = LockMode.EXCLUSIVE  # upgrade
                    return ()
                # Upgrade with other readers present: queue like a fresh X.
            if not self._grantable(record, txn_id, mode):
                return self._acquire_wait(record, txn_id, key, mode)
        record.holders[txn_id] = mode
        self._held[txn_id].add(key)
        return ()

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
        self._held[txn_id].add(key)

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

        Holders drop in any order: only a key with queued waiters can wake
        anyone, and waking one key never touches another.  Those keys are
        woken in ``repr`` order, so the wake-up order (and therefore the
        whole simulation) is independent of PYTHONHASHSEED.
        """
        locks = self._locks
        queued = []
        for key in self._held.pop(txn_id, ()):
            record = locks.get(key)
            if record is None:
                continue
            record.holders.pop(txn_id, None)
            if record.queue:
                queued.append(key)
            elif not record.holders:
                del locks[key]
        if queued:
            queued.sort(key=repr)
            for key in queued:
                self._wake(locks[key])

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
