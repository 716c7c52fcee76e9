"""The Database facade: a Shore-MT-shaped storage engine.

Wires together the storage adapter (NoFTL native flash or a black-box
block device), buffer pool, write-ahead log, lock manager, transaction
manager, heaps, B+-tree indexes, the page allocator / free-space manager
(whose deallocations reach flash as trims) and the background db-writer
pool.  Everything runs inside one :class:`~repro.sim.Simulator`.

A thin CPU cost model (``cpu_us_per_op`` per record operation) makes
transactions spend host time as well as I/O time, so throughput responds
to both — as on the paper's testbed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim import Simulator, Timeout
from ..telemetry import EventTrace, MetricsRegistry, trace_or_quiet
from .btree import BTreeIndex
from .buffer import BufferPool
from .flusher import DbWriterPool
from .heap import HeapFile
from .locks import LockManager
from .storage import StorageAdapter
from .txn import Transaction, TransactionManager
from .wal import WALog

__all__ = ["Database"]


class Database:
    """One database instance over one storage volume."""

    def __init__(
        self,
        sim: Simulator,
        storage: StorageAdapter,
        page_bytes: int,
        buffer_capacity: int,
        cpu_us_per_op: float = 5.0,
        lock_timeout_us: float = 200_000.0,
        wal_flush_latency_us: float = 150.0,
        foreground_flush: bool = True,
        dirty_throttle_fraction=None,
        wal_keep_records: bool = False,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
        heat_hints: bool = False,
    ):
        if cpu_us_per_op < 0:
            raise ValueError("cpu_us_per_op must be >= 0")
        self.sim = sim
        self.storage = storage
        self.page_bytes = page_bytes
        self.cpu_us_per_op = cpu_us_per_op
        # One registry for the whole stack: prefer the storage backend's
        # (so DBMS counters land next to flash/FTL ones), else make one.
        self.telemetry = (
            telemetry
            or getattr(storage, "telemetry", None)
            or MetricsRegistry()
        )
        self.telemetry.set_clock(lambda: sim.now)
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        self._tm_commit_us = self.telemetry.histogram(
            "db.txn_commit_us", layer="db")
        self.wal = WALog(sim, flush_latency_us=wal_flush_latency_us,
                         keep_records=wal_keep_records)
        self.buffer = BufferPool(
            sim, storage, self.wal, buffer_capacity,
            foreground_flush=foreground_flush,
            dirty_throttle_fraction=dirty_throttle_fraction,
            telemetry=self.telemetry,
            trace=self.trace,
            heat_hints=heat_hints,
        )
        self.locks = LockManager(sim, timeout_us=lock_timeout_us)
        self.txn_manager = TransactionManager(sim, self.wal, self.locks,
                                              trace=self.trace)
        self.heaps: Dict[str, HeapFile] = {}
        self.indexes: Dict[str, BTreeIndex] = {}
        self.writers: Optional[DbWriterPool] = None
        # page allocator / free-space manager
        self._next_page_id = 0
        self._free_page_ids: List[int] = []
        self.pages_allocated = 0
        self.pages_released = 0

    # -- schema ------------------------------------------------------------------

    def create_heap(self, name: str, hint: str = "hot") -> HeapFile:
        if name in self.heaps:
            raise ValueError(f"heap {name!r} already exists")
        heap = HeapFile(self, name, hint)
        self.heaps[name] = heap
        return heap

    def create_index(self, name: str):
        """Generator: indexes allocate their root page, so creation runs
        inside a DES process."""
        if name in self.indexes:
            raise ValueError(f"index {name!r} already exists")
        index = BTreeIndex(self, name)
        yield from index.bootstrap()
        self.indexes[name] = index
        return index

    # -- db-writers -----------------------------------------------------------------

    def start_writers(self, num_writers: int, policy: str = "global") -> DbWriterPool:
        """Start the background flusher pool (global or region-bound)."""
        if self.writers is not None:
            raise RuntimeError("db-writers already running")
        self.writers = DbWriterPool(self.sim, self.buffer, self.storage,
                                    num_writers, policy,
                                    telemetry=self.telemetry,
                                    trace=self.trace)
        return self.writers

    # -- transactions ------------------------------------------------------------------

    def begin(self) -> Transaction:
        return self.txn_manager.begin()

    def commit(self, txn: Transaction):
        start = self.sim.now
        yield from self.txn_manager.commit(txn)
        self._tm_commit_us.observe(self.sim.now - start)

    def abort(self, txn: Transaction):
        yield from self.txn_manager.abort(txn)

    # -- page allocation / free-space manager ---------------------------------------------

    def allocate_page(self) -> int:
        if self._free_page_ids:
            page_id = self._free_page_ids.pop()
        else:
            page_id = self._next_page_id
            self._next_page_id += 1
        if page_id >= self.storage.logical_pages:
            raise RuntimeError("database volume is full")
        self.pages_allocated += 1
        return page_id

    def reserve_pages_through(self, page_id: int) -> None:
        """Bump the allocator past ``page_id`` — used by crash recovery so
        fresh allocations (e.g. rebuilt index roots) never collide with
        page ids that survive on storage."""
        self._next_page_id = max(self._next_page_id, page_id + 1)

    def adopt_free_pages(self, page_ids) -> None:
        """Re-seed the free list after a cold-start mount.

        The free list is host-RAM state a crash destroys; the mount path
        re-derives it — page ids below the allocator floor that are
        neither mapped on storage nor referenced by the durable WAL — and
        hands it back here, so a recovered database does not leak the
        address space its predecessor had released."""
        for page_id in page_ids:
            if page_id < self._next_page_id \
                    and page_id not in self._free_page_ids:
                self._free_page_ids.append(page_id)

    def release_page(self, page_id: int):
        """Generator: return a page to the allocator and *tell the flash*
        (the trim that black-box storage never receives).

        Purges the buffer first — including waiting out any in-flight
        load by a stale reader — so a recycled page id can never meet a
        ghost frame of its previous life.
        """
        yield from self.buffer.purge_page(page_id)
        self.pages_released += 1
        yield from self.storage.trim(page_id)
        # Recycle only after the trim: a reader racing us sees either the
        # old page or a clean miss, never a half-dead id.
        self._free_page_ids.append(page_id)

    # -- misc -----------------------------------------------------------------------------

    def cpu(self, ops: int = 1):
        """``yield from`` target: charge host CPU time for ``ops`` record
        operations.  A 1-tuple delegates exactly like a generator that
        yields the timeout once, minus the generator frame; the
        ``Timeout`` is built directly, without ``sim.timeout``'s call."""
        if self.cpu_us_per_op:
            return (Timeout(self.sim, self.cpu_us_per_op * ops),)
        return ()

    def checkpoint(self):
        """Generator: flush every dirty page (used at benchmark barriers)."""
        yield from self.buffer.flush_all()

    def snapshot(self) -> dict:
        return {
            "buffer": self.buffer.snapshot(),
            "wal": self.wal.snapshot(),
            "locks": self.locks.snapshot(),
            "commits": self.txn_manager.commits,
            "aborts": self.txn_manager.aborts,
            "pages_allocated": self.pages_allocated,
            "pages_released": self.pages_released,
            "writers": self.writers.snapshot() if self.writers else None,
        }
