"""Heap files: slotted-page record storage with a free-space map.

NoFTL integration lives here: when deletes empty a page, the free-space
manager *deallocates it at commit* and tells the storage layer via
``trim`` — so the DBMS's knowledge of dead data reaches flash GC, one of
the paper's integration strategies (Section 3, point ii).  On the
black-box adapter the same call is a no-op, which is exactly the
information asymmetry Figure 3 measures.
"""

from __future__ import annotations

from functools import partial
from typing import List, NamedTuple, Tuple

from .locks import LockMode
from .page import SlottedPage
from .txn import Transaction

__all__ = ["RID", "pack_rid", "unpack_rid", "HeapFile"]


class RID(NamedTuple):
    """Record identifier: (page_id, slot)."""

    page_id: int
    slot: int


#: ``RID`` from a pair without the Python-level ``__new__`` frame.
_new_rid = partial(tuple.__new__, RID)


def pack_rid(rid: RID) -> int:
    """RID as one non-negative int (B+-tree leaf payload)."""
    return (rid.page_id << 16) | rid.slot


def unpack_rid(packed: int) -> RID:
    return _new_rid((packed >> 16, packed & 0xFFFF))


class HeapFile:
    """A table's record storage.  All data paths are DES generators."""

    def __init__(self, db, name: str, hint: str = "hot"):
        self.db = db
        self.name = name
        self.hint = hint
        self.page_ids: List[int] = []
        self._with_space: List[int] = []  # stack of pages likely to fit more
        self._table_lock_key = ("table", name)
        self.record_count = 0

    # -- record operations (generators) -----------------------------------------

    def insert(self, txn: Transaction, record: bytes):
        """Generator: store a record; returns its RID."""
        db = self.db
        buffer = db.buffer
        yield from db.cpu()
        yield from buffer.throttle()
        record = bytes(record)
        while True:
            if self._with_space:
                page_id = self._with_space[-1]
                frame = buffer.pin(page_id) or (yield from buffer.fetch(page_id, self.hint))
            else:
                frame = yield from self._grow()
                page_id = frame.page_id
            slot = frame.page.insert(record)
            if slot is None:
                if self._with_space and self._with_space[-1] == page_id:
                    self._with_space.pop()
                buffer.unpin(page_id)
                continue
            rid = _new_rid((page_id, slot))
            lsn = db.wal.append("insert", txn.txn_id,
                                (self.name, page_id, slot, record))
            frame.page.lsn = lsn
            txn.last_lsn = lsn
            buffer.mark_dirty(page_id)
            buffer.unpin(page_id)
            self.record_count += 1
            txn.undo.append(lambda rid=rid: self._undo_insert(rid))
            yield from db.txn_manager.lock(txn, (self.name, rid),
                                           LockMode.EXCLUSIVE)
            return rid

    def read(self, txn: Transaction, rid: RID,
             mode: str = LockMode.SHARED, acquire_lock: bool = True) -> bytes:
        """Generator: fetch one record, normally under a record lock.

        ``acquire_lock=False`` reads at READ UNCOMMITTED — what TPC-C
        explicitly permits for StockLevel/OrderStatus, and what keeps
        those scans out of the update transactions' lock graphs.
        """
        db = self.db
        buffer = db.buffer
        yield from db.cpu()
        if acquire_lock:
            yield from db.txn_manager.lock(txn, (self.name, rid), mode)
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            page = frame.page
            if not isinstance(page, SlottedPage):
                raise KeyError(
                    f"{self.name}: page {rid.page_id} was released and "
                    f"recycled; record {rid} is gone"
                )
            record = page.get(rid.slot)
        finally:
            buffer.unpin(rid.page_id)
        if record is None:
            raise KeyError(f"{self.name}: record {rid} is deleted")
        return record

    def update(self, txn: Transaction, rid: RID, record: bytes):
        """Generator: replace a record in place (fixed-size records always
        fit; growth beyond the page's free space is unsupported by heaps —
        use delete+insert)."""
        db = self.db
        buffer = db.buffer
        yield from db.cpu()
        yield from buffer.throttle()
        record = bytes(record)
        yield from db.txn_manager.lock(txn, (self.name, rid),
                                       LockMode.EXCLUSIVE)
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            page = frame.page
            if not isinstance(page, SlottedPage):
                raise KeyError(
                    f"{self.name}: page {rid.page_id} was released and "
                    f"recycled; record {rid} is gone"
                )
            before = page.get(rid.slot)
            if before is None:
                raise KeyError(f"{self.name}: record {rid} is deleted")
            if not page.update(rid.slot, record):
                raise ValueError(
                    f"{self.name}: record growth overflows page {rid.page_id}"
                )
            lsn = db.wal.append(
                "update", txn.txn_id,
                (self.name, rid.page_id, rid.slot, record, before),
            )
            page.lsn = lsn
            txn.last_lsn = lsn
            buffer.mark_dirty(rid.page_id)
        finally:
            buffer.unpin(rid.page_id)
        txn.undo.append(
            lambda rid=rid, before=before: self._undo_update(rid, before)
        )
        return rid

    def delete(self, txn: Transaction, rid: RID):
        """Generator: remove a record; empty pages are deallocated (and the
        flash trimmed) when the transaction commits."""
        buffer = self.db.buffer
        yield from self.db.cpu()
        yield from buffer.throttle()
        yield from self.db.txn_manager.lock(txn, (self.name, rid),
                                            LockMode.EXCLUSIVE)
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            if not isinstance(frame.page, SlottedPage):
                raise KeyError(
                    f"{self.name}: page {rid.page_id} was released and "
                    f"recycled; record {rid} is gone"
                )
            before = frame.page.get(rid.slot)
            if before is None:
                raise KeyError(f"{self.name}: record {rid} already deleted")
            frame.page.delete(rid.slot)
            lsn = self.db.wal.append("delete", txn.txn_id,
                                     (self.name, rid.page_id, rid.slot,
                                      before))
            frame.page.lsn = lsn
            txn.last_lsn = lsn
            buffer.mark_dirty(rid.page_id)
            emptied = frame.page.live_records == 0
        finally:
            buffer.unpin(rid.page_id)
        self.record_count -= 1
        txn.undo.append(
            lambda rid=rid, before=before: self._undo_delete(rid, before)
        )
        if emptied:
            txn.on_commit.append(
                lambda page_id=rid.page_id: self._maybe_release_page(page_id)
            )
        else:
            self._note_space(rid.page_id)

    def scan(self, txn: Transaction):
        """Generator: all (rid, record) pairs under a table-level S lock
        (TPC-H style full scans)."""
        buffer = self.db.buffer
        yield from self.db.txn_manager.lock(txn, self._table_lock_key,
                                            LockMode.SHARED)
        result: List[Tuple[RID, bytes]] = []
        for page_id in list(self.page_ids):
            yield from self.db.cpu()
            frame = buffer.pin(page_id) or (yield from buffer.fetch(page_id, self.hint))
            try:
                for slot, record in frame.page.iter_records():
                    result.append((RID(page_id, slot), record))
            finally:
                buffer.unpin(page_id)
        return result

    # -- undo actions -----------------------------------------------------------------

    def _undo_insert(self, rid: RID):
        buffer = self.db.buffer
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            if frame.page.get(rid.slot) is not None:
                frame.page.delete(rid.slot)
                self.record_count -= 1
            buffer.mark_dirty(rid.page_id)
        finally:
            buffer.unpin(rid.page_id)
        self._note_space(rid.page_id)

    def _undo_update(self, rid: RID, before: bytes):
        buffer = self.db.buffer
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            frame.page.update(rid.slot, before)
            buffer.mark_dirty(rid.page_id)
        finally:
            buffer.unpin(rid.page_id)

    def _undo_delete(self, rid: RID, before: bytes):
        buffer = self.db.buffer
        frame = buffer.pin(rid.page_id) or (yield from buffer.fetch(rid.page_id, self.hint))
        try:
            frame.page.restore(rid.slot, before)
            buffer.mark_dirty(rid.page_id)
        finally:
            buffer.unpin(rid.page_id)
        self.record_count += 1

    # -- space management ----------------------------------------------------------------

    def _grow(self):
        """Generator: allocate and install a fresh page (returned pinned)."""
        page_id = self.db.allocate_page()
        page = SlottedPage(page_id, self.db.page_bytes)
        frame = yield from self.db.buffer.new_page(page_id, page, self.hint)
        self.page_ids.append(page_id)
        self._with_space.append(page_id)
        return frame

    def _note_space(self, page_id: int) -> None:
        if page_id not in self._with_space:
            self._with_space.append(page_id)

    def _maybe_release_page(self, page_id: int):
        """Generator (commit hook): deallocate a page that is still empty.

        This is the free-space-manager -> flash integration: the trim
        reaches the NoFTL storage manager, which drops the mapping so GC
        never copies the dead page again.
        """
        buffer = self.db.buffer
        frame = buffer.pin(page_id) or (yield from buffer.fetch(page_id, self.hint))
        still_empty = frame.page.live_records == 0
        buffer.unpin(page_id)
        if not still_empty:
            return
        if page_id in self.page_ids:
            self.page_ids.remove(page_id)
        if page_id in self._with_space:
            self._with_space.remove(page_id)
        yield from self.db.release_page(page_id)
