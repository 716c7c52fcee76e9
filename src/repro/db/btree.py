"""Page-based B+-tree index.

Nodes are :class:`~repro.db.page.BTreeNodePage` pages living in the
buffer pool like any table page, so index traffic shares frames, WAL and
flash with the heaps (as in Shore-MT).  Concurrency uses a tree-level
reader-writer latch — coarse but correct; record-level isolation is the
lock manager's job.

Keys are ``u64``; values are packed RIDs (or any small non-negative
int).  Deletion is lazy (no rebalancing) — standard practice for OLTP
engines of this vintage and irrelevant to the paper's I/O questions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from .latches import RWLock
from .page import BTreeNodePage
from .txn import Transaction

__all__ = ["DuplicateKeyError", "BTreeIndex"]


class DuplicateKeyError(Exception):
    """Unique-key violation on insert."""


class BTreeIndex:
    """A unique-key B+-tree.  All operations are DES generators.

    Create via :meth:`repro.db.database.Database.create_index` (the root
    page must be allocated inside a DES process).
    """

    def __init__(self, db, name: str):
        self.db = db
        self.name = name
        #: Index pages are hot: every lookup walks them.
        self.hint = "hot"
        self.latch = RWLock(db.sim)
        self.root_page_id: Optional[int] = None
        self.height = 1
        self.entry_count = 0

    def bootstrap(self):
        """Generator: allocate the empty root leaf (called by Database)."""
        page_id = self.db.allocate_page()
        node = BTreeNodePage(page_id, self.db.page_bytes, is_leaf=True)
        frame = yield from self.db.buffer.new_page(page_id, node, self.hint)
        self.db.buffer.unpin(page_id)
        self.root_page_id = page_id
        return self

    # -- public operations -------------------------------------------------------

    def insert(self, txn: Transaction, key: int, value: int):
        """Generator: add ``key -> value``; DuplicateKeyError if present."""
        yield from self.db.cpu()
        yield from self.latch.acquire_write()
        try:
            # Log first so every node touched below carries a covering LSN.
            self.db.wal.append("index-insert", txn.txn_id,
                               (self.name, key, value))
            split = yield from self._insert_rec(self.root_page_id, key, value)
            if split is not None:
                yield from self._grow_root(split)
            self.entry_count += 1
            txn.undo.append(lambda key=key: self._undo_insert(key))
        finally:
            self.latch.release_write()

    def lookup(self, txn: Transaction, key: int):
        """Generator: value for ``key`` or None."""
        db = self.db
        buffer = db.buffer
        hint = self.hint
        yield from db.cpu()
        yield from self.latch.acquire_read()
        try:
            node_id = self.root_page_id
            while True:
                frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, hint))
                node = frame.page
                keys = node.keys
                if node.is_leaf:
                    index = bisect_left(keys, key)
                    found = index < len(keys) and keys[index] == key
                    value = node.values[index] if found else None
                    buffer.unpin(node_id)
                    return value
                child = node.children[bisect_right(keys, key)]
                buffer.unpin(node_id)
                node_id = child
        finally:
            self.latch.release_read()

    def range(self, txn: Transaction, low: int, high: int,
              limit: Optional[int] = None):
        """Generator: sorted [(key, value)] with low <= key <= high,
        truncated to the first ``limit`` matches when given."""
        buffer = self.db.buffer
        yield from self.db.cpu()
        yield from self.latch.acquire_read()
        try:
            node_id = self.root_page_id
            while True:
                frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
                node = frame.page
                if node.is_leaf:
                    buffer.unpin(node_id)
                    break
                child = node.children[bisect_right(node.keys, low)]
                buffer.unpin(node_id)
                node_id = child
            result: List[Tuple[int, int]] = []
            while node_id != -1:
                frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
                node = frame.page
                for index, key in enumerate(node.keys):
                    if key > high:
                        buffer.unpin(node_id)
                        return result
                    if key >= low:
                        result.append((key, node.values[index]))
                        if limit is not None and len(result) >= limit:
                            buffer.unpin(node_id)
                            return result
                next_leaf = node.next_leaf
                buffer.unpin(node_id)
                node_id = next_leaf
            return result
        finally:
            self.latch.release_read()

    def delete(self, txn: Transaction, key: int):
        """Generator: remove ``key``; returns its value (KeyError if absent).

        Lazy deletion: leaves may underflow, which only wastes space.
        """
        buffer = self.db.buffer
        yield from self.db.cpu()
        yield from self.latch.acquire_write()
        try:
            node_id = self.root_page_id
            while True:
                frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
                node = frame.page
                if node.is_leaf:
                    index = bisect_left(node.keys, key)
                    if index >= len(node.keys) or node.keys[index] != key:
                        buffer.unpin(node_id)
                        raise KeyError(f"{self.name}: key {key} not found")
                    value = node.values.pop(index)
                    node.keys.pop(index)
                    node.lsn = self.db.wal.append(
                        "index-delete", txn.txn_id, (self.name, key, value)
                    )
                    buffer.mark_dirty(node_id)
                    buffer.unpin(node_id)
                    self.entry_count -= 1
                    txn.undo.append(
                        lambda key=key, value=value:
                        self._undo_delete(key, value)
                    )
                    return value
                child = node.children[bisect_right(node.keys, key)]
                buffer.unpin(node_id)
                node_id = child
        finally:
            self.latch.release_write()

    # -- internals --------------------------------------------------------------------

    def _insert_rec(self, node_id: int, key: int, value: int):
        """Generator: recursive insert; returns (sep_key, new_page_id) when
        this node split, else None."""
        buffer = self.db.buffer
        frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
        node = frame.page
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                buffer.unpin(node_id)
                raise DuplicateKeyError(f"{self.name}: key {key} exists")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            split = None
            if len(node.keys) > node.capacity:
                split = yield from self._split_leaf(node)
            self._touch(node_id, node)
            buffer.unpin(node_id)
            return split
        child_index = bisect_right(node.keys, key)
        child_id = node.children[child_index]
        buffer.unpin(node_id)
        child_split = yield from self._insert_rec(child_id, key, value)
        if child_split is None:
            return None
        sep_key, new_child = child_split
        frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
        node = frame.page
        index = bisect_right(node.keys, sep_key)
        node.keys.insert(index, sep_key)
        node.children.insert(index + 1, new_child)
        split = None
        if len(node.keys) > node.capacity:
            split = yield from self._split_inner(node)
        self._touch(node_id, node)
        buffer.unpin(node_id)
        return split

    def _split_leaf(self, node: BTreeNodePage):
        new_id = self.db.allocate_page()
        sibling = BTreeNodePage(new_id, self.db.page_bytes, is_leaf=True)
        mid = len(node.keys) // 2
        sibling.keys = node.keys[mid:]
        sibling.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        sibling.next_leaf = node.next_leaf
        node.next_leaf = new_id
        frame = yield from self.db.buffer.new_page(new_id, sibling, self.hint)
        self.db.buffer.unpin(new_id)
        return sibling.keys[0], new_id

    def _split_inner(self, node: BTreeNodePage):
        new_id = self.db.allocate_page()
        sibling = BTreeNodePage(new_id, self.db.page_bytes, is_leaf=False)
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        sibling.keys = node.keys[mid + 1:]
        sibling.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        frame = yield from self.db.buffer.new_page(new_id, sibling, self.hint)
        self.db.buffer.unpin(new_id)
        return sep_key, new_id

    def _grow_root(self, split):
        sep_key, new_child = split
        new_root_id = self.db.allocate_page()
        root = BTreeNodePage(new_root_id, self.db.page_bytes, is_leaf=False)
        root.keys = [sep_key]
        root.children = [self.root_page_id, new_child]
        frame = yield from self.db.buffer.new_page(new_root_id, root, self.hint)
        self.db.buffer.unpin(new_root_id)
        self.root_page_id = new_root_id
        self.height += 1

    def _touch(self, node_id: int, node: BTreeNodePage) -> None:
        node.lsn = self.db.wal.lsn_hint()
        self.db.buffer.mark_dirty(node_id)

    # -- undo --------------------------------------------------------------------------

    def _undo_insert(self, key: int):
        yield from self.latch.acquire_write()
        try:
            yield from self._silent_delete(key)
        finally:
            self.latch.release_write()

    def _undo_delete(self, key: int, value: int):
        yield from self.latch.acquire_write()
        try:
            split = yield from self._insert_rec(self.root_page_id, key, value)
            if split is not None:
                yield from self._grow_root(split)
            self.entry_count += 1
        finally:
            self.latch.release_write()

    def _silent_delete(self, key: int):
        buffer = self.db.buffer
        node_id = self.root_page_id
        while True:
            frame = buffer.pin(node_id) or (yield from buffer.fetch(node_id, self.hint))
            node = frame.page
            if node.is_leaf:
                index = bisect_left(node.keys, key)
                if index < len(node.keys) and node.keys[index] == key:
                    node.keys.pop(index)
                    node.values.pop(index)
                    self.entry_count -= 1
                    buffer.mark_dirty(node_id)
                buffer.unpin(node_id)
                return
            child = node.children[bisect_right(node.keys, key)]
            buffer.unpin(node_id)
            node_id = child
