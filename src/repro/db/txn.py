"""Transactions: ACID bookkeeping over the WAL, lock manager and heaps.

Commit follows the textbook discipline: append a commit record, flush
the log up to it (group commit amortises concurrent committers), then
release locks.  Abort applies the transaction's undo list in reverse —
each entry is a generator produced by the heap/index layer that restores
the before-image through the buffer pool.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.storage import emit_host_op
from ..sim import Simulator
from ..telemetry import EventTrace, OpContext
from .locks import LockManager, LockMode, TxnAborted
from .wal import WALog

__all__ = ["Transaction", "TransactionManager", "TxnAborted"]

_ACTIVE = "active"
_COMMITTED = "committed"
_ABORTED = "aborted"


class Transaction:
    """One transaction's state: id, locks (via the manager), undo list."""

    __slots__ = ("txn_id", "state", "undo", "last_lsn", "on_commit")

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.state = _ACTIVE
        # Each entry is a zero-argument callable returning a DES generator
        # that undoes one change; applied in reverse order on abort.
        self.undo: List[Callable] = []
        # Deferred actions (generator callables) run after the commit
        # record is durable — e.g. the free-space manager releasing pages
        # emptied by this transaction.
        self.on_commit: List[Callable] = []
        self.last_lsn = 0

    @property
    def is_active(self) -> bool:
        return self.state == _ACTIVE


class TransactionManager:
    """Begin / commit / abort over the shared WAL and lock manager."""

    def __init__(self, sim: Simulator, wal: WALog, locks: LockManager,
                 trace: Optional[EventTrace] = None):
        self.sim = sim
        self.wal = wal
        self.locks = locks
        self.trace = trace
        self._next_txn_id = 1
        self.commits = 0
        self.aborts = 0

    def begin(self) -> Transaction:
        txn = Transaction(self._next_txn_id)
        self._next_txn_id += 1
        return txn

    def commit(self, txn: Transaction):
        """Generator: make the transaction durable and release its locks."""
        self._check_active(txn)
        trace = self.trace
        tracing = trace is not None and trace.enabled
        # The commit context only ever feeds the host.op trace event; with
        # tracing off its allocation and cost bookkeeping are unobservable,
        # so both are skipped.
        ctx = OpContext("txn-commit", txn_id=txn.txn_id) if tracing else None
        start = self.sim.now
        before = dict(ctx.costs) if ctx is not None else None
        lsn = self.wal.append("commit", txn.txn_id)
        wal_start = self.sim.now
        yield from self.wal.flush_to(lsn)
        if ctx is not None:
            ctx.charge("wal_us", self.sim.now - wal_start)
        txn.state = _COMMITTED
        for action in txn.on_commit:
            yield from action()
        self.locks.release_all(txn.txn_id)
        self.commits += 1
        if tracing and ctx is not None:
            emit_host_op(trace, "commit", ctx, before, self.sim.now - start)

    def abort(self, txn: Transaction):
        """Generator: undo every change, log the abort, release locks."""
        self._check_active(txn)
        for action in reversed(txn.undo):
            yield from action()
        self.wal.append("abort", txn.txn_id)
        txn.state = _ABORTED
        self.locks.release_all(txn.txn_id)
        self.aborts += 1

    def lock(self, txn: Transaction, key, mode: str = LockMode.EXCLUSIVE):
        """``yield from`` target: 2PL acquire on behalf of ``txn``."""
        if txn.state != _ACTIVE:  # _check_active, inline: once per record
            raise RuntimeError(f"transaction {txn.txn_id} is {txn.state}")
        return self.locks.acquire(txn.txn_id, key, mode)

    @staticmethod
    def _check_active(txn: Transaction) -> None:
        if not txn.is_active:
            raise RuntimeError(f"transaction {txn.txn_id} is {txn.state}")
