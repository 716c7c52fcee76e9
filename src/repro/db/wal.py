"""Write-ahead log with group commit.

ARIES-style in shape (every update logs a record carrying its LSN; pages
remember the LSN of their last change; a page may only be written back
once the log is flushed up to that LSN — enforced by the buffer pool).
The log itself lives on a dedicated sequential device, as Shore-MT
deployments put it on a separate volume: flushing costs a fixed latency
and concurrent committers share one flush (group commit).

Undo is handled by the transaction layer with before-images; this module
is durability bookkeeping plus the flush cost model.
"""

from __future__ import annotations

import struct
from typing import Any, List, NamedTuple, Optional

from ..sim import Event, Simulator
from ..telemetry import OpContext

__all__ = ["FlashLogVolume", "WALRecord", "WALog"]


class WALRecord(NamedTuple):
    """One log record.

    A NamedTuple rather than a dataclass: the log buffers raw tuples on
    the append fast path and materialises these views lazily via
    ``_make`` only when someone actually reads :attr:`WALog.records`
    (crash rigs at cut time, recovery replay) — appends in the hot loop
    never pay NamedTuple construction.
    """

    lsn: int
    txn_id: int
    kind: str          # 'update' | 'insert' | 'delete' | 'commit' | 'abort'
    payload: Any = None


#: Fixed-width on-log header: lsn u64, txn_id u64, kind u8.  Payload
#: bytes are host-RAM redo information and are not part of the modelled
#: log footprint.
_HDR = struct.Struct("<QQB")
#: Bytes one :class:`FlashLogVolume` segment page holds.
SEGMENT_PAGE_BYTES = 2048
_KIND_CODES = {
    "insert": 1, "update": 2, "delete": 3, "commit": 4, "abort": 5,
    "index-insert": 6, "index-delete": 7,
}


class WALog:
    """Append-only log buffer with group-commit flushing."""

    def __init__(self, sim: Simulator, flush_latency_us: float = 150.0,
                 keep_records: bool = False):
        if flush_latency_us < 0:
            raise ValueError("flush_latency_us must be >= 0")
        self.sim = sim
        self.flush_latency_us = flush_latency_us
        self.keep_records = keep_records
        #: Optional generator factory ``(nbytes) -> events`` run inside
        #: the exclusive flush with the batch's on-log byte count: the
        #: log segment write itself, when the log lives on the flash
        #: array instead of a latency-modelled side device (see
        #: :class:`FlashLogVolume`).  Runs before the flushed LSN is
        #: published, so group committers only ever observe LSNs whose
        #: segment programs completed.
        self.segment_writer = None
        # Raw (lsn, txn_id, kind, payload) tuples; materialised into
        # WALRecord views on demand by the :attr:`records` property.
        self._raw: List[tuple] = []
        self._views: List[WALRecord] = []
        self._next_lsn = 1
        self.flushed_lsn = 0
        self.appended_lsn = 0
        self._flush_done: Optional[Event] = None
        # Physical log footprint model: every flush batch-encodes the
        # fixed-width headers of the records it carries (one pack_into
        # per group commit) into a reusable scratch buffer.
        self.bytes_flushed = 0
        self._encoded_idx = 0      # first _raw index not yet encoded
        self._enc_scratch = bytearray(0)
        # statistics
        self.total_appends = 0
        self.total_flushes = 0
        self.total_group_commits = 0  # commits that piggybacked on a flush

    def append(self, kind: str, txn_id: int, payload: Any = None) -> int:
        """Host-side append to the log buffer; returns the record's LSN."""
        lsn = self._next_lsn
        self._next_lsn += 1
        self.appended_lsn = lsn
        self.total_appends += 1
        if self.keep_records:
            self._raw.append((lsn, txn_id, kind, payload))
        return lsn

    @property
    def records(self) -> List[WALRecord]:
        """WALRecord views of everything appended (``keep_records`` only).

        Materialised lazily: the hot append path buffers plain tuples and
        this property converts only the tail added since the last read.
        """
        views = self._views
        raw = self._raw
        if len(views) != len(raw):
            views.extend(map(WALRecord._make, raw[len(views):]))
        return views

    def lsn_hint(self) -> int:
        """Most recently appended LSN (used to stamp pages whose covering
        record was appended just before a batch of node edits)."""
        return self.appended_lsn

    def fast_forward(self, lsn: int) -> None:
        """Continue an older log incarnation: future appends get LSNs
        after ``lsn`` and everything up to it counts as durable (crash
        recovery installs pages stamped with pre-crash LSNs)."""
        self._next_lsn = max(self._next_lsn, lsn + 1)
        self.appended_lsn = max(self.appended_lsn, lsn)
        self.flushed_lsn = max(self.flushed_lsn, lsn)

    def flush_to(self, lsn: int):
        """Generator: ensure the log is durable up to ``lsn``.

        If a flush is already in flight, join it (group commit) and
        re-check afterwards.  An ``lsn`` beyond anything appended is
        vacuously durable (pages recovered from an older log incarnation
        carry such LSNs).
        """
        lsn = min(lsn, self.appended_lsn)
        joined = False
        while self.flushed_lsn < lsn:
            if self._flush_done is not None:
                # Joining an in-flight flush is one group commit for this
                # caller no matter how many successive flushes it waits
                # out (a commit can land just after a flush snapshotted
                # its target and have to ride the next one too).
                if not joined:
                    self.total_group_commits += 1
                    joined = True
                yield self._flush_done
                continue
            done = self.sim.event()
            self._flush_done = done
            target = self.appended_lsn  # everything buffered rides along
            try:
                yield self.sim.timeout(self.flush_latency_us)
                prev = self.flushed_lsn
                if self.segment_writer is not None and target > prev:
                    yield from self.segment_writer(
                        (target - prev) * _HDR.size)
                if target > prev:
                    self.flushed_lsn = target
                    self._encode_batch(prev, target)
                self.total_flushes += 1
            finally:
                self._flush_done = None
                done.succeed()
        return self.flushed_lsn

    def _encode_batch(self, prev_lsn: int, target: int) -> None:
        """Account (and, for kept logs, encode) one flush batch.

        The group-commit discipline means record headers never need
        per-append packing: everything the flush made durable is encoded
        here with a single ``struct.pack_into`` into a reusable scratch
        buffer.  Logs that do not keep records model the same footprint
        arithmetically from the LSN window.
        """
        if not self.keep_records:
            self.bytes_flushed += (target - prev_lsn) * _HDR.size
            return
        raw = self._raw
        idx = self._encoded_idx
        end = idx
        nraw = len(raw)
        while end < nraw and raw[end][0] <= target:
            end += 1
        count = end - idx
        if count:
            need = count * _HDR.size
            if len(self._enc_scratch) < need:
                self._enc_scratch = bytearray(need)
            values: List[int] = []
            extend = values.extend
            codes = _KIND_CODES
            for lsn, txn_id, kind, _payload in raw[idx:end]:
                extend((lsn, txn_id, codes.get(kind, 0)))
            struct.pack_into("<" + "QQB" * count, self._enc_scratch, 0,
                             *values)
            self._encoded_idx = end
            self.bytes_flushed += count * _HDR.size

    def snapshot(self) -> dict:
        return {
            "appended_lsn": self.appended_lsn,
            "flushed_lsn": self.flushed_lsn,
            "total_appends": self.total_appends,
            "total_flushes": self.total_flushes,
            "total_group_commits": self.total_group_commits,
            "bytes_flushed": self.bytes_flushed,
        }


class FlashLogVolume:
    """Circular WAL segment window on the flash array itself.

    The latency-model default treats the log as a dedicated side device;
    this volume instead puts real WAL traffic on the array so write
    streams have an actual ``wal`` producer to segregate.  It owns a
    window of ``window_pages`` logical pages (callers place it at the
    *top* of the logical space, clear of the db page allocator growing
    from 0) and appends segments round-robin: each flush programs
    ``ceil(nbytes / SEGMENT_PAGE_BYTES)`` pages — torn-write discipline, a
    partial tail page is padded and the next flush starts fresh — and
    wrapping simply overwrites the oldest slot, which self-invalidates
    the superseded segment in the FTL (checkpointing is out of scope;
    the window is sized so live recovery state always fits).

    Wire it up with ``wal.segment_writer = volume.writer``.  Every
    program carries an ``OpContext("txn-commit")`` chain, which
    :func:`~repro.telemetry.context.data_class_of` resolves to ``wal``.
    """

    def __init__(self, storage, base_page: int, window_pages: int):
        if window_pages < 1:
            raise ValueError("window_pages must be >= 1")
        if base_page < 0:
            raise ValueError("base_page must be >= 0")
        self.storage = storage
        self.base_page = base_page
        self.window_pages = window_pages
        self._cursor = 0
        self.pages_programmed = 0
        self.wraps = 0

    def writer(self, nbytes: int):
        """Generator: program one flush batch (``WALog.segment_writer``)."""
        pages = max(1, -(-nbytes // SEGMENT_PAGE_BYTES))
        for _ in range(pages):
            lpn = self.base_page + self._cursor
            self._cursor += 1
            if self._cursor >= self.window_pages:
                self._cursor = 0
                self.wraps += 1
            ctx = OpContext("txn-commit", data_class="wal")
            yield from self.storage.write(lpn, None, "hot", ctx=ctx)
            self.pages_programmed += 1

    def snapshot(self) -> dict:
        return {
            "pages_programmed": self.pages_programmed,
            "wraps": self.wraps,
            "window_pages": self.window_pages,
        }
