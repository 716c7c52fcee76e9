"""Tests for slotted pages and B+-tree node pages (incl. serialisation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import BTreeNodePage, PageFormatError, SlottedPage, decode_page


class TestSlottedPage:
    def make(self, page_bytes=512, page_id=7):
        return SlottedPage(page_id, page_bytes)

    def test_insert_get_roundtrip(self):
        page = self.make()
        slot = page.insert(b"hello")
        assert page.get(slot) == b"hello"

    def test_insert_returns_consecutive_slots(self):
        page = self.make()
        assert page.insert(b"a") == 0
        assert page.insert(b"b") == 1

    def test_insert_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            self.make().insert("not-bytes")

    def test_page_fills_up(self):
        page = self.make(page_bytes=128)
        records = 0
        while page.insert(b"x" * 16) is not None:
            records += 1
        assert records > 0
        assert page.insert(b"x" * 16) is None
        assert page.free_space() < 16 + 4  # no room for record + slot entry

    def test_update_in_place(self):
        page = self.make()
        slot = page.insert(b"aaaa")
        assert page.update(slot, b"bbbb")
        assert page.get(slot) == b"bbbb"

    def test_update_growth_bounded_by_free_space(self):
        page = self.make(page_bytes=96)
        slot = page.insert(b"a" * 8)
        while page.insert(b"b" * 8) is not None:
            pass
        assert page.update(slot, b"c" * 64) is False
        assert page.get(slot) == b"a" * 8

    def test_delete_and_tombstone_reuse(self):
        page = self.make()
        slot = page.insert(b"gone")
        page.delete(slot)
        assert page.get(slot) is None
        reused = page.insert(b"new")
        assert reused == slot  # tombstone reuse

    def test_double_delete_raises(self):
        page = self.make()
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(KeyError):
            page.delete(slot)

    def test_restore_after_delete(self):
        page = self.make()
        slot = page.insert(b"original")
        page.delete(slot)
        page.restore(slot, b"original")
        assert page.get(slot) == b"original"

    def test_restore_occupied_slot_raises(self):
        page = self.make()
        slot = page.insert(b"x")
        with pytest.raises(KeyError):
            page.restore(slot, b"y")

    def test_live_records_and_free_space_accounting(self):
        page = self.make()
        free0 = page.free_space()
        page.insert(b"12345678")
        assert page.live_records == 1
        assert page.free_space() < free0

    def test_serialise_roundtrip_with_tombstones(self):
        page = self.make()
        keep = page.insert(b"keep")
        dead = page.insert(b"dead")
        last = page.insert(b"last")
        page.delete(dead)
        page.lsn = 42
        clone = SlottedPage.from_bytes(page.to_bytes())
        assert clone.page_id == page.page_id
        assert clone.lsn == 42
        assert clone.get(keep) == b"keep"
        assert clone.get(dead) is None
        assert clone.get(last) == b"last"

    def test_serialised_size_is_exactly_page_bytes(self):
        page = self.make(page_bytes=1024)
        page.insert(b"x" * 100)
        assert len(page.to_bytes()) == 1024

    def test_decode_dispatches_slotted(self):
        page = self.make()
        page.insert(b"data")
        decoded = decode_page(page.to_bytes())
        assert isinstance(decoded, SlottedPage)

    def test_decode_bad_magic(self):
        with pytest.raises(PageFormatError):
            decode_page(b"\x00" * 64)


class TestBTreeNodePage:
    def test_leaf_roundtrip(self):
        node = BTreeNodePage(3, 512, is_leaf=True)
        node.keys = [1, 5, 9]
        node.values = [10, 50, 90]
        node.next_leaf = 77
        clone = BTreeNodePage.from_bytes(node.to_bytes())
        assert clone.is_leaf
        assert clone.keys == [1, 5, 9]
        assert clone.values == [10, 50, 90]
        assert clone.next_leaf == 77

    def test_inner_roundtrip(self):
        node = BTreeNodePage(4, 512, is_leaf=False)
        node.keys = [100, 200]
        node.children = [1, 2, 3]
        clone = BTreeNodePage.from_bytes(node.to_bytes())
        assert not clone.is_leaf
        assert clone.keys == [100, 200]
        assert clone.children == [1, 2, 3]

    def test_capacity_positive_and_bounded(self):
        node = BTreeNodePage(0, 512, is_leaf=True)
        assert 3 <= node.capacity < 512 // 16

    def test_decode_dispatches_btree(self):
        node = BTreeNodePage(1, 256, is_leaf=True)
        decoded = decode_page(node.to_bytes())
        assert isinstance(decoded, BTreeNodePage)


@settings(max_examples=50)
@given(st.lists(st.binary(min_size=0, max_size=40), max_size=20))
def test_slotted_page_roundtrip_property(records):
    page = SlottedPage(1, 2048)
    slots = []
    for record in records:
        slot = page.insert(record)
        if slot is not None:
            slots.append((slot, record))
    clone = SlottedPage.from_bytes(page.to_bytes())
    for slot, record in slots:
        assert clone.get(slot) == record


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
                max_size=25, unique_by=lambda kv: kv[0]))
def test_btree_node_roundtrip_property(pairs):
    node = BTreeNodePage(9, 2048, is_leaf=True)
    pairs = sorted(pairs)[: node.capacity]
    node.keys = [k for k, __ in pairs]
    node.values = [v for __, v in pairs]
    clone = BTreeNodePage.from_bytes(node.to_bytes())
    assert clone.keys == node.keys
    assert clone.values == node.values


_RECORDS = st.one_of(st.binary(min_size=4, max_size=4), st.binary(max_size=24))
_SLOTS = st.integers(-1, 12)
_PAGE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), _SLOTS),
        st.tuples(st.just("update"), _SLOTS, _RECORDS),
        st.tuples(st.just("insert"), _RECORDS),
        st.tuples(st.just("delete"), _SLOTS),
        st.tuples(st.just("ensure_slot"), _SLOTS, st.one_of(st.none(), _RECORDS)),
        st.tuples(st.just("restore"), _SLOTS, _RECORDS),
        st.tuples(st.just("iter_records")),
        st.tuples(st.just("live_records")),
        st.tuples(st.just("free_space")),
    ),
    max_size=12,
)


def _apply(page, op):
    """One operation's outcome: its value, or the exception type raised."""
    name, *args = op
    try:
        if name == "iter_records":
            return list(page.iter_records())
        if name == "live_records":
            return page.live_records
        return getattr(page, name)(*args)
    except (IndexError, KeyError, ValueError) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), _RECORDS), max_size=10),
       st.integers(0, 2**32), _PAGE_OPS)
def test_lazy_decode_matches_eager_decode(initial, lsn, ops):
    """A page read from storage decodes lazily; it must answer every
    operation exactly as the same page decoded up front, and serialise
    to the same bytes after each one."""
    source = SlottedPage(5, 256)
    for record in initial:
        slot = source.insert(record if record is not None else b"dead")
        if record is None and slot is not None:
            source.delete(slot)
    source.lsn = lsn
    raw = source.to_bytes()
    lazy = SlottedPage.from_bytes(raw)
    eager = SlottedPage.from_bytes(raw)
    list(eager.iter_records())  # materialise the record list
    assert lazy.to_bytes() == eager.to_bytes() == raw
    for op in ops:
        assert _apply(lazy, op) == _apply(eager, op), op
        assert lazy.to_bytes() == eager.to_bytes(), op
    assert lazy.free_space() == eager.free_space()
    assert list(lazy.iter_records()) == list(eager.iter_records())
