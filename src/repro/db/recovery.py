"""Crash recovery: ARIES-shaped redo/undo from the write-ahead log.

The engine uses a STEAL / NO-FORCE buffer policy (dirty uncommitted
pages may reach flash; committed pages need not have), so recovery does
both passes:

1. **analysis** — scan the durable log prefix (records with LSN ≤ the
   flushed LSN survive a crash) for the committed transaction set;
2. **redo** — replay heap after-images in LSN order onto the recovered
   pages, guarded by each page's LSN so already-persisted changes are
   not reapplied; pages that never reached flash are recreated;
3. **undo** — walk losers' records backwards applying before-images.

Index changes are redone *logically* (insert-if-absent /
delete-if-present) on top of the physically recovered node pages —
idempotent, so it composes with whatever node state reached flash.

On NoFTL storage, run :meth:`repro.core.NoFTLStorageManager.recover`
(the OOB mapping scan) first so the flash itself is readable, then this
pass to restore transactional consistency — together they are the full
crash story of a NoFTL database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .page import SlottedPage
from .wal import WALRecord

__all__ = ["ColdStart", "RecoveryReport", "cold_start", "recover_database"]


class RecoveryReport:
    """What a recovery pass did."""

    def __init__(self):
        self.durable_lsn = 0
        self.committed_txns: Set[int] = set()
        self.loser_txns: Set[int] = set()
        self.redo_applied = 0
        self.redo_skipped = 0
        self.undo_applied = 0
        self.undo_skipped = 0
        self.pages_recreated = 0
        self.index_ops_replayed = 0

    def snapshot(self) -> dict:
        return {
            "durable_lsn": self.durable_lsn,
            "committed_txns": len(self.committed_txns),
            "loser_txns": len(self.loser_txns),
            "redo_applied": self.redo_applied,
            "redo_skipped": self.redo_skipped,
            "undo_applied": self.undo_applied,
            "undo_skipped": self.undo_skipped,
            "pages_recreated": self.pages_recreated,
            "index_ops_replayed": self.index_ops_replayed,
        }


_HEAP_KINDS = ("insert", "update", "delete")
_INDEX_KINDS = ("index-insert", "index-delete")


def recover_database(db, records: Iterable[WALRecord],
                     durable_lsn: int) -> "RecoveryReport":
    """Generator: bring ``db`` to a transaction-consistent state.

    ``db`` is a freshly constructed :class:`~repro.db.database.Database`
    over the surviving storage, with the same schema re-declared (heaps
    created, indexes created — their *catalog*, not their contents).
    ``records`` is the write-ahead log as saved by the pre-crash WAL
    (``keep_records=True``); ``durable_lsn`` is the pre-crash flushed
    LSN — everything after it was lost with the crash.

    Returns a :class:`RecoveryReport`.
    """
    report = RecoveryReport()
    report.durable_lsn = durable_lsn
    durable = [record for record in records if record.lsn <= durable_lsn]
    # Continue the old log's LSN sequence so recovered page LSNs compare
    # sanely with post-recovery appends.
    db.wal.fast_forward(durable_lsn)

    # -- analysis ---------------------------------------------------------
    seen_txns: Set[int] = set()
    for record in durable:
        seen_txns.add(record.txn_id)
        if record.kind == "commit":
            report.committed_txns.add(record.txn_id)
    report.loser_txns = seen_txns - report.committed_txns
    # Per-slot high-water mark of *committed* writes: a loser record may
    # only be undone if no committed record touched the slot after it.
    # Without this guard a transaction that aborted cleanly before the
    # crash (its rollback already restored the slot, its records still in
    # the durable log) would have its stale before-image clobber a later
    # committed value during the undo pass.  The key is the *physical*
    # ``(page, slot)`` — undo applies physical before-images, so a
    # committed write through a different heap (the page was released
    # and recycled in between) shields the slot all the same.
    committed_slot_lsn: Dict[Tuple[int, int], int] = {}
    for record in durable:
        if record.kind in _HEAP_KINDS \
                and record.txn_id in report.committed_txns:
            key = (record.payload[1], record.payload[2])
            if record.lsn > committed_slot_lsn.get(key, 0):
                committed_slot_lsn[key] = record.lsn

    # Final ownership of every page id the log mentions: the heap whose
    # record touched it *last*.  Page releases are not WAL-logged, so a
    # page id freed by one heap and re-grown by another appears in both
    # heaps' records — re-attaching it to both would let one heap's scan
    # read the other's rows.
    heap_of_page: Dict[int, str] = {}
    for record in durable:
        if record.kind in _HEAP_KINDS:
            heap_of_page[record.payload[1]] = record.payload[0]

    # -- redo (physical, heap pages) ---------------------------------------
    for record in durable:
        if record.kind not in _HEAP_KINDS:
            continue
        yield from _redo_heap(db, record, report, heap_of_page)

    # -- undo (losers, reverse order) ---------------------------------------
    for record in reversed(durable):
        if record.txn_id not in report.loser_txns:
            continue
        if record.kind in _HEAP_KINDS:
            key = (record.payload[1], record.payload[2])
            if committed_slot_lsn.get(key, -1) > record.lsn:
                report.undo_skipped += 1
                continue
            yield from _undo_heap(db, record, report)

    # -- index replay (logical, idempotent) ----------------------------------
    for record in durable:
        if record.kind not in _INDEX_KINDS:
            continue
        winner = record.txn_id in report.committed_txns
        yield from _replay_index(db, record, winner, report)

    yield from db.checkpoint()
    return report


def _fetch_or_recreate(db, page_id: int, report: RecoveryReport):
    """Generator: pin the page, materialising an empty one if it never
    reached storage before the crash."""
    try:
        frame = db.buffer.pin(page_id) or (yield from db.buffer.fetch(page_id))
    except KeyError:
        page = SlottedPage(page_id, db.page_bytes)
        frame = yield from db.buffer.new_page(page_id, page)
        report.pages_recreated += 1
        if page_id >= db._next_page_id:
            db._next_page_id = page_id + 1
    return frame


def _redo_heap(db, record: WALRecord, report: RecoveryReport,
               heap_of_page: Dict[int, str]):
    heap_name, page_id, slot = record.payload[:3]
    heap = db.heaps.get(heap_name)
    if heap is None:
        return
    frame = yield from _fetch_or_recreate(db, page_id, report)
    try:
        if not isinstance(frame.page, SlottedPage):
            # The surviving incarnation of this page id is not a heap
            # page at all (released, then recycled as e.g. a B-tree
            # node).  Its LSN necessarily postdates every heap record —
            # the release only happens after the emptying deletes
            # committed — so the heap's history is superseded wholesale.
            report.redo_skipped += 1
            return
        # Re-attach the page to its heap even when the redo itself is
        # skipped: a page that was fully persisted before the crash
        # carries an LSN covering all its records, so without this a
        # recovered heap would never list it and scans would silently
        # miss committed rows.  Only the heap that touched the page
        # *last* gets it — see ``heap_of_page``.
        if heap_of_page.get(page_id) == heap_name \
                and page_id not in heap.page_ids:
            heap.page_ids.append(page_id)
        if frame.page.lsn >= record.lsn:
            report.redo_skipped += 1
            return
        if record.kind == "insert":
            frame.page.ensure_slot(slot, record.payload[3])
        elif record.kind == "update":
            frame.page.ensure_slot(slot, record.payload[3])
        else:  # delete
            frame.page.ensure_slot(slot, None)
        frame.page.lsn = record.lsn
        db.buffer.mark_dirty(page_id)
        report.redo_applied += 1
    finally:
        db.buffer.unpin(page_id)


def _undo_heap(db, record: WALRecord, report: RecoveryReport):
    heap_name, page_id, slot = record.payload[:3]
    if db.heaps.get(heap_name) is None:
        return
    frame = yield from _fetch_or_recreate(db, page_id, report)
    try:
        if not isinstance(frame.page, SlottedPage):
            # Recycled as a non-heap page after this record: nothing of
            # the loser's heap write survives to be undone.
            report.undo_skipped += 1
            return
        if record.kind == "insert":
            frame.page.ensure_slot(slot, None)
        elif record.kind == "update":
            frame.page.ensure_slot(slot, record.payload[4])  # before-image
        else:  # delete: restore the before-image
            frame.page.ensure_slot(slot, record.payload[3])
        db.buffer.mark_dirty(page_id)
        report.undo_applied += 1
    finally:
        db.buffer.unpin(page_id)


@dataclass
class ColdStart:
    """Everything :func:`cold_start` rebuilt, ready to serve traffic."""

    sim: object
    db: object
    manager: object
    storage: object
    mount: object       # repro.core.MountReport from the OOB scan
    recovery: RecoveryReport


def cold_start(array, geometry, records: Iterable[WALRecord],
               durable_lsn: int, rebuild_schema, *,
               config=None, buffer_capacity: int = 24,
               telemetry=None,
               db_kwargs: Optional[dict] = None) -> ColdStart:
    """Mount a database from nothing but the array and the durable WAL.

    This is the product crash path (promoted out of the test suite): the
    host is gone, so the *only* inputs are the surviving
    :class:`~repro.flash.FlashArray` (power-cycled if it died powered
    off), the device geometry/config (host configuration, not state), the
    saved WAL records with the durable LSN (the separate durable log
    device), and ``rebuild_schema(db)`` — a generator re-declaring the
    catalog (heaps/indexes created empty).  No pre-crash in-memory state
    is consulted, deliberately: the page allocator floor comes from the
    mount scan and the durable log, never from the dead process's RAM.

    Pipeline: power-cycle → OOB mount scan (checksum-verified, torn pages
    rejected, allocation + bad-block state rebuilt) → fresh Database over
    the mounted storage → allocator floor from scan + log → schema →
    ARIES redo/undo via :func:`recover_database` → free-list re-derived.
    """
    from ..core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
    from ..flash import SimExecutor, SimFlashDevice
    from ..ftl.base import UNMAPPED
    from ..sim import Simulator
    from .database import Database

    if array.powered_off:
        array.power_cycle()
    sim = Simulator()
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(
        geometry, config or NoFTLConfig(),
        factory_bad_blocks=array.factory_bad_blocks(),
        telemetry=telemetry,
    )
    storage = NoFTLStorage(sim, manager, executor)
    mount_report = sim.run_process(storage.mount())

    db = Database(sim, storage,
                  page_bytes=geometry.page_bytes,
                  buffer_capacity=buffer_capacity,
                  cpu_us_per_op=0.0,
                  wal_keep_records=True, **(db_kwargs or {}))
    durable = [r for r in records if r.lsn <= durable_lsn]
    wal_pages = {r.payload[1] for r in durable if r.kind in _HEAP_KINDS}
    floor = max([mount_report.max_lpn, *wal_pages], default=-1)
    db.reserve_pages_through(floor)

    def boot():
        yield from rebuild_schema(db)
        report = yield from recover_database(db, durable, durable_lsn)
        return report

    recovery_report = sim.run_process(boot())

    # Free-list re-derivation: ids below the floor that are neither
    # mapped on storage (post-recovery, so checkpointed undo/redo pages
    # count as live) nor referenced anywhere in the durable log.
    free: List[int] = []
    mapping = manager.mapping
    for page_id in range(db._next_page_id):
        if page_id not in wal_pages and mapping.l2p[page_id] == UNMAPPED:
            free.append(page_id)
    db.adopt_free_pages(free)

    return ColdStart(sim=sim, db=db, manager=manager, storage=storage,
                     mount=mount_report, recovery=recovery_report)


def _replay_index(db, record: WALRecord, winner: bool,
                  report: RecoveryReport):
    index_name, key, value = record.payload
    index = db.indexes.get(index_name)
    if index is None:
        return
    txn = db.begin()
    current = yield from index.lookup(txn, key)
    wants_present = (record.kind == "index-insert") == winner
    if wants_present and current is None:
        yield from index.insert(txn, key, value)
        report.index_ops_replayed += 1
    elif not wants_present and current is not None:
        yield from index.delete(txn, key)
        report.index_ops_replayed += 1
    yield from db.commit(txn)
