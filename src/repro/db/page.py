"""Database pages: slotted record pages and B+-tree node pages.

Pages serialise to real bytes before they hit the (simulated) flash, so
the whole stack — buffer pool, storage manager, FTL/NoFTL, NAND array —
round-trips actual content.  That is what lets the integration tests
assert transactional durability *through* garbage collection, copybacks
and recovery scans, not just count I/Os.

Format (little-endian):

* common header: magic ``u16``, page_type ``u8``, pad, page_id ``u32``,
  lsn ``u64``;
* slotted page: nslots ``u16``, free_ptr ``u16``, then the slot directory
  (offset ``u16``, length ``u16`` per slot; offset 0xFFFF = tombstone)
  growing from the front and record payloads growing from the back, as in
  every real slotted-page implementation;
* B+-tree node: leaf flag, key/value arrays of ``u64``.
"""

from __future__ import annotations

import struct
from typing import List, Optional

__all__ = [
    "PAGE_MAGIC",
    "PageFormatError",
    "SlottedPage",
    "BTreeNodePage",
    "decode_page",
]

PAGE_MAGIC = 0xDB17
_TYPE_SLOTTED = 1
_TYPE_BTREE = 2
_COMMON = struct.Struct("<HBxIQ")          # magic, type, page_id, lsn
_SLOTTED_SUB = struct.Struct("<HH")        # nslots, free_ptr
_SLOT = struct.Struct("<HH")               # offset, length
_TOMBSTONE = 0xFFFF
_TOMB_SLOT = _SLOT.pack(_TOMBSTONE, 0)
_DIRECTORY = _COMMON.size + _SLOTTED_SUB.size  # first slot entry


class PageFormatError(Exception):
    """Raised when page bytes cannot be decoded."""


class SlottedPage:
    """A classic slotted record page.

    Records are opaque byte strings addressed by slot number; slots are
    stable across compaction (the directory never shrinks), which is what
    makes RIDs durable.

    A page read from storage decodes lazily: :meth:`from_bytes` keeps the
    wire image and the slot count, :meth:`get` and same-length
    :meth:`update` work on the image's slot directory, and any other
    operation materialises the record list once.  Most buffer misses on
    the OLTP path read or overwrite one record before the page is evicted
    again, so they never pay for decoding the rest.
    """

    def __init__(self, page_id: int, page_bytes: int):
        min_size = _DIRECTORY + _SLOT.size + 8
        if page_bytes < min_size:
            raise ValueError(f"page_bytes {page_bytes} too small")
        self.page_id = page_id
        self.page_bytes = page_bytes
        self.lsn = 0
        #: The record list; None while a page read from storage has not
        #: been decoded (``_nslots`` then holds the directory size).
        self._records: Optional[List[Optional[bytes]]] = []
        self._nslots = 0
        # Live payload bytes, maintained incrementally by every mutator —
        # free_space() runs on each insert and update, so an O(records)
        # recount here dominated whole-rig profiles.
        self._payload_bytes = 0
        # Cached serialised image + per-slot payload offsets.  The common
        # page lifecycle is decode -> update a record in place -> flush;
        # keeping the byte image valid across same-length updates turns
        # to_bytes() into a header repack + one copy instead of a full
        # directory/payload rebuild.  Structural mutators (insert, delete,
        # ensure_slot, restore, length-changing update) drop the cache.
        self._image: Optional[bytearray] = None
        self._offsets: Optional[List[int]] = None

    def _decoded(self) -> List[Optional[bytes]]:
        """The record list, decoded from the wire image on first use."""
        records = self._records
        if records is not None:
            return records
        image = self._image
        records = []
        offsets = []
        payload_bytes = 0
        for offset, length in _SLOT.iter_unpack(
            image[_DIRECTORY:_DIRECTORY + self._nslots * _SLOT.size]
        ):
            if offset == _TOMBSTONE:
                records.append(None)
                offsets.append(-1)
            else:
                records.append(bytes(image[offset:offset + length]))
                offsets.append(offset)
                payload_bytes += length
        self._records = records
        self._offsets = offsets
        self._payload_bytes = payload_bytes
        return records

    # -- capacity accounting -------------------------------------------------

    @property
    def live_records(self) -> int:
        return sum(1 for record in self._decoded() if record is not None)

    def free_space(self) -> int:
        records = self._records
        if records is None:
            records = self._decoded()
        return (self.page_bytes - _DIRECTORY - _SLOT.size * len(records)
                - self._payload_bytes)

    # -- record operations -----------------------------------------------------

    def insert(self, record: bytes) -> Optional[int]:
        """Store a record; returns its slot, or None when it does not fit."""
        if not isinstance(record, (bytes, bytearray)):
            raise TypeError("records must be bytes")
        record = bytes(record)
        if len(record) >= _TOMBSTONE:
            raise ValueError("record too large for slot encoding")
        free = self.free_space()
        records = self._records  # decoded by free_space()
        # reuse a tombstoned slot when possible (needs no directory growth)
        if free >= len(record) and None in records:
            slot = records.index(None)
            records[slot] = record
            self._payload_bytes += len(record)
            self._image = None
            return slot
        if free < len(record) + _SLOT.size:
            return None
        records.append(record)
        self._payload_bytes += len(record)
        self._image = None
        return len(records) - 1

    def get(self, slot: int) -> Optional[bytes]:
        """The record at ``slot`` (None if deleted)."""
        records = self._records
        if records is not None:
            if not 0 <= slot < len(records):  # _check_slot, inline
                raise IndexError(f"slot {slot} out of range")
            return records[slot]
        self._check_slot(slot)
        image = self._image
        offset, length = _SLOT.unpack_from(image, _DIRECTORY + _SLOT.size * slot)
        if offset == _TOMBSTONE:
            return None
        return bytes(image[offset:offset + length])

    def update(self, slot: int, record: bytes) -> bool:
        """Replace the record at ``slot``; False when the page is too full."""
        self._check_slot(slot)
        records = self._records
        if records is None:
            image = self._image
            offset, length = _SLOT.unpack_from(image, _DIRECTORY + _SLOT.size * slot)
            if offset == _TOMBSTONE:
                raise KeyError(f"slot {slot} is deleted")
            record = bytes(record)
            if len(record) == length:
                # Same-length overwrite of an undecoded page: patch the
                # wire image, which stays the page's canonical form.
                image[offset:offset + length] = record
                return True
            records = self._decoded()
        old = records[slot]
        if old is None:
            raise KeyError(f"slot {slot} is deleted")
        record = bytes(record)
        growth = len(record) - len(old)
        if growth > self.free_space():
            return False
        records[slot] = record
        self._payload_bytes += growth
        image = self._image
        if image is not None:
            if growth == 0:
                # Same-length overwrite: the directory and every other
                # record keep their offsets — patch the payload in place.
                offset = self._offsets[slot]
                image[offset:offset + len(record)] = record
            else:
                self._image = None
        return True

    def delete(self, slot: int) -> None:
        self._check_slot(slot)
        records = self._decoded()
        if records[slot] is None:
            raise KeyError(f"slot {slot} already deleted")
        self._payload_bytes -= len(records[slot])
        records[slot] = None
        self._image = None

    def ensure_slot(self, slot: int, record) -> None:
        """Force ``slot`` to hold ``record`` (None = tombstone), growing
        the directory as needed — physical redo's page surgery."""
        if slot < 0:
            raise IndexError(f"slot {slot} out of range")
        records = self._decoded()
        while len(records) <= slot:
            records.append(None)
        old = records[slot]
        if old is not None:
            self._payload_bytes -= len(old)
        new = bytes(record) if record is not None else None
        records[slot] = new
        if new is not None:
            self._payload_bytes += len(new)
        self._image = None

    def restore(self, slot: int, record: bytes) -> None:
        """Put a record back into its original (tombstoned) slot — undo of
        a delete.  The slot must currently be empty."""
        self._check_slot(slot)
        records = self._decoded()
        if records[slot] is not None:
            raise KeyError(f"slot {slot} is occupied")
        record = bytes(record)
        if self.free_space() < len(record):
            raise ValueError("no room to restore record")
        records[slot] = record
        self._payload_bytes += len(record)
        self._image = None

    def iter_records(self):
        """(slot, record) pairs of live records."""
        for slot, record in enumerate(self._decoded()):
            if record is not None:
                yield slot, record

    def _check_slot(self, slot: int) -> None:
        records = self._records
        count = self._nslots if records is None else len(records)
        if not 0 <= slot < count:
            raise IndexError(f"slot {slot} out of range")

    # -- serialisation ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        image = self._image
        if image is None:
            image = self._rebuild_image()
        # The lsn mutates between flushes without going through a record
        # mutator (the WAL stamps it as a plain attribute), so the common
        # header is repacked on every serialisation.
        _COMMON.pack_into(image, 0, PAGE_MAGIC, _TYPE_SLOTTED,
                          self.page_id, self.lsn)
        return bytes(image)

    def _rebuild_image(self) -> bytearray:
        """Recompute the canonical byte image and the slot offset table."""
        out = bytearray(self.page_bytes)
        _SLOTTED_SUB.pack_into(out, _COMMON.size, len(self._records), 0)
        payload_end = self.page_bytes
        # Build the slot directory and the payload area as two joined
        # bytes objects instead of a pack_into / slice-assign per slot:
        # serialisation runs on every flush/evict.
        slot_pack = _SLOT.pack
        entries = []
        parts = []
        offsets = []
        for record in self._records:
            if record is None:
                entries.append(_TOMB_SLOT)
                offsets.append(-1)
            else:
                length = len(record)
                payload_end -= length
                parts.append(record)
                entries.append(slot_pack(payload_end, length))
                offsets.append(payload_end)
        if parts:
            parts.reverse()
            out[payload_end:] = b"".join(parts)
        out[_DIRECTORY:_DIRECTORY + _SLOT.size * len(entries)] = b"".join(entries)
        self._image = out
        self._offsets = offsets
        return out

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SlottedPage":
        magic, page_type, page_id, lsn = _COMMON.unpack_from(raw, 0)
        if magic != PAGE_MAGIC or page_type != _TYPE_SLOTTED:
            raise PageFormatError("not a slotted page")
        nslots, __ = _SLOTTED_SUB.unpack_from(raw, _COMMON.size)
        page = cls(page_id, len(raw))
        page.lsn = lsn
        # Keep the wire image undecoded: every page in the stack was
        # produced by to_bytes(), so the raw form *is* the canonical
        # serialisation, and a read-modify-write cycle that only touches
        # record payloads never decodes or rebuilds the page.
        page._records = None
        page._nslots = nslots
        page._image = bytearray(raw)
        return page


class BTreeNodePage:
    """A B+-tree node: sorted ``u64`` keys plus child pointers / values.

    * leaf: ``values[i]`` belongs to ``keys[i]``; ``next_leaf`` chains the
      leaf level for range scans;
    * inner: ``children`` has ``len(keys) + 1`` entries; keys separate the
      child subtrees.
    """

    _SUB = struct.Struct("<BxHIq")  # is_leaf, nkeys, reserved, next_leaf

    def __init__(self, page_id: int, page_bytes: int, is_leaf: bool):
        self.page_id = page_id
        self.page_bytes = page_bytes
        self.lsn = 0
        self.is_leaf = is_leaf
        self.keys: List[int] = []
        self.values: List[int] = []    # leaf payloads (e.g. packed RIDs)
        self.children: List[int] = []  # inner child page ids
        self.next_leaf = -1
        # Reusable serialisation scratch (keys/values are mutated directly
        # by the tree, so unlike SlottedPage there is no validity to track
        # — only the allocation is saved).  _scratch_words remembers how
        # far the previous serialisation wrote so a shrink re-zeroes the
        # stale tail and the output stays canonical.
        self._scratch: Optional[bytearray] = None
        self._scratch_words = 0

    @property
    def capacity(self) -> int:
        """Maximum number of keys that fits in the serialised form."""
        fixed = _COMMON.size + self._SUB.size
        per_key = 16  # key u64 + (value u64 | child u64)
        return max(3, (self.page_bytes - fixed - 8) // per_key)

    def to_bytes(self) -> bytes:
        out = self._scratch
        if out is None:
            out = self._scratch = bytearray(self.page_bytes)
        _COMMON.pack_into(out, 0, PAGE_MAGIC, _TYPE_BTREE,
                          self.page_id, self.lsn)
        self._SUB.pack_into(out, _COMMON.size, int(self.is_leaf),
                            len(self.keys), 0, self.next_leaf)
        cursor = _COMMON.size + self._SUB.size
        payload = self.values if self.is_leaf else self.children
        words = self.keys + payload
        nwords = len(words)
        if nwords:
            struct.pack_into(f"<{nwords}q", out, cursor, *words)
        if nwords < self._scratch_words:
            out[cursor + 8 * nwords:cursor + 8 * self._scratch_words] = \
                bytes(8 * (self._scratch_words - nwords))
        self._scratch_words = nwords
        return bytes(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BTreeNodePage":
        magic, page_type, page_id, lsn = _COMMON.unpack_from(raw, 0)
        if magic != PAGE_MAGIC or page_type != _TYPE_BTREE:
            raise PageFormatError("not a btree page")
        is_leaf, nkeys, __, next_leaf = cls._SUB.unpack_from(raw, _COMMON.size)
        node = cls(page_id, len(raw), bool(is_leaf))
        node.lsn = lsn
        node.next_leaf = next_leaf
        cursor = _COMMON.size + cls._SUB.size
        count = nkeys if node.is_leaf else nkeys + 1
        total = nkeys + count
        if total:
            words = struct.unpack_from(f"<{total}q", raw, cursor)
            node.keys = list(words[:nkeys])
            payload = list(words[nkeys:])
        else:
            payload = []
        if node.is_leaf:
            node.values = payload
        else:
            node.children = payload
        return node


def decode_page(raw: bytes):
    """Dispatch on the page-type byte of serialised page bytes."""
    if raw is None:
        return None
    magic, page_type, __, __ = _COMMON.unpack_from(raw, 0)
    if magic != PAGE_MAGIC:
        raise PageFormatError(f"bad magic 0x{magic:04x}")
    if page_type == _TYPE_SLOTTED:
        return SlottedPage.from_bytes(raw)
    if page_type == _TYPE_BTREE:
        return BTreeNodePage.from_bytes(raw)
    raise PageFormatError(f"unknown page type {page_type}")
