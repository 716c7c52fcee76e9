"""Unit + property tests for the NAND array state machine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    BadBlockError,
    BlockWornOut,
    Copyback,
    CopybackPlaneError,
    EraseBlock,
    FaultPlan,
    FaultSpec,
    FlashArray,
    Geometry,
    Identify,
    OverwriteError,
    PowerCutError,
    ProgramPage,
    ProgramSequenceError,
    ReadOob,
    ReadPage,
    ReadUnwrittenError,
    SLC_TIMING,
    UncorrectableError,
)

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=4,
    pages_per_block=4,
    page_bytes=512,
)


def make_array(**kwargs):
    return FlashArray(GEO, SLC_TIMING, **kwargs)


class TestProgramRead:
    def test_program_then_read_roundtrip(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"hello", oob={"lpn": 9}))
        result = array.apply(ReadPage(ppn=0))
        assert result.data == b"hello"
        assert result.oob == {"lpn": 9}

    def test_read_unwritten_raises(self):
        array = make_array()
        with pytest.raises(ReadUnwrittenError):
            array.apply(ReadPage(ppn=0))

    def test_reprogram_raises(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"a"))
        with pytest.raises(OverwriteError):
            array.apply(ProgramPage(ppn=0, data=b"b"))

    def test_descending_program_raises(self):
        array = make_array()
        array.apply(ProgramPage(ppn=2, data=b"x"))  # skipping ahead is legal
        with pytest.raises(ProgramSequenceError):
            array.apply(ProgramPage(ppn=0, data=b"y"))  # going back is not

    def test_skipped_pages_stay_unwritten(self):
        array = make_array()
        array.apply(ProgramPage(ppn=2, data=b"x"))
        assert array.is_programmed(2)
        assert not array.is_programmed(0)
        with pytest.raises(ReadUnwrittenError):
            array.apply(ReadPage(ppn=1))

    def test_sequential_program_fills_block(self):
        array = make_array()
        for page in range(GEO.pages_per_block):
            array.apply(ProgramPage(ppn=page, data=page))
        assert array.next_free_page(0) == GEO.pages_per_block

    def test_store_data_false_drops_payloads(self):
        array = make_array(store_data=False)
        array.apply(ProgramPage(ppn=0, data=b"payload", oob="meta"))
        result = array.apply(ReadPage(ppn=0))
        assert result.data is None
        assert result.oob == "meta"  # OOB is kept: mappings live there

    def test_counters_track_commands(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"x"))
        array.apply(ReadPage(ppn=0))
        array.apply(EraseBlock(pbn=0))
        assert array.counters.programs == 1
        assert array.counters.reads == 1
        assert array.counters.erases == 1

    def test_latency_uses_timing_spec(self):
        array = make_array()
        result = array.apply(ProgramPage(ppn=0, data=b"x"))
        expected = SLC_TIMING.program_latency_us(GEO.page_bytes)
        assert result.latency_us == pytest.approx(expected)

    def test_per_die_counters(self):
        array = make_array()
        other_die_block = GEO.blocks_of_die(1)[0]
        array.apply(ProgramPage(ppn=GEO.ppn_of(other_die_block, 0), data=1))
        assert array.counters.per_die_ops[1] == 1
        assert array.counters.per_die_ops[0] == 0


class TestErase:
    def test_erase_resets_block(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"x"))
        array.apply(EraseBlock(pbn=0))
        assert array.next_free_page(0) == 0
        with pytest.raises(ReadUnwrittenError):
            array.apply(ReadPage(ppn=0))
        # and it is programmable again from page 0
        array.apply(ProgramPage(ppn=0, data=b"y"))

    def test_erase_count_increments(self):
        array = make_array()
        array.apply(EraseBlock(pbn=3))
        array.apply(EraseBlock(pbn=3))
        assert array.erase_count(3) == 2

    def test_wear_out_marks_bad_and_raises(self):
        array = make_array(max_erase_cycles=2)
        array.apply(EraseBlock(pbn=0))
        array.apply(EraseBlock(pbn=0))
        with pytest.raises(BlockWornOut):
            array.apply(EraseBlock(pbn=0))
        assert array.is_bad(0)
        with pytest.raises(BadBlockError):
            array.apply(ProgramPage(ppn=0, data=b"x"))

    def test_wear_summary(self):
        array = make_array()
        array.apply(EraseBlock(pbn=0))
        array.apply(EraseBlock(pbn=0))
        array.apply(EraseBlock(pbn=1))
        summary = array.wear_summary()
        assert summary["max"] == 2
        assert summary["total"] == 3


class TestCopyback:
    def test_copyback_within_plane_moves_data(self):
        array = make_array()
        plane_blocks = GEO.blocks_of_plane(0, 0)
        src = GEO.ppn_of(plane_blocks[0], 0)
        dst = GEO.ppn_of(plane_blocks[1], 0)
        array.apply(ProgramPage(ppn=src, data=b"moved", oob={"lpn": 5}))
        array.apply(Copyback(src_ppn=src, dst_ppn=dst))
        result = array.apply(ReadPage(ppn=dst))
        assert result.data == b"moved"
        assert result.oob == {"lpn": 5}  # OOB preserved by default
        assert array.counters.copybacks == 1

    def test_copyback_oob_override(self):
        array = make_array()
        blocks = GEO.blocks_of_plane(1, 1)
        src = GEO.ppn_of(blocks[0], 0)
        dst = GEO.ppn_of(blocks[1], 0)
        array.apply(ProgramPage(ppn=src, data=b"d", oob="old"))
        array.apply(Copyback(src_ppn=src, dst_ppn=dst, oob="new"))
        assert array.apply(ReadPage(ppn=dst)).oob == "new"

    def test_copyback_across_planes_rejected(self):
        array = make_array()
        src = GEO.ppn_of(GEO.blocks_of_plane(0, 0)[0], 0)
        dst = GEO.ppn_of(GEO.blocks_of_plane(0, 1)[0], 0)
        array.apply(ProgramPage(ppn=src, data=b"d"))
        with pytest.raises(CopybackPlaneError):
            array.apply(Copyback(src_ppn=src, dst_ppn=dst))

    def test_copyback_respects_program_order(self):
        array = make_array()
        blocks = GEO.blocks_of_plane(0, 0)
        src = GEO.ppn_of(blocks[0], 0)
        array.apply(ProgramPage(ppn=src, data=b"d"))
        array.apply(ProgramPage(ppn=GEO.ppn_of(blocks[1], 2), data=b"later"))
        with pytest.raises(ProgramSequenceError):
            # destination offset 1 < the destination block's high-water mark
            array.apply(Copyback(src_ppn=src, dst_ppn=GEO.ppn_of(blocks[1], 1)))

    def test_copyback_latency_has_no_bus_component(self):
        array = make_array()
        blocks = GEO.blocks_of_plane(0, 0)
        src = GEO.ppn_of(blocks[0], 0)
        dst = GEO.ppn_of(blocks[1], 0)
        array.apply(ProgramPage(ppn=src, data=b"d"))
        result = array.apply(Copyback(src_ppn=src, dst_ppn=dst))
        assert result.latency_us == pytest.approx(SLC_TIMING.copyback_latency_us())
        assert result.latency_us < (
            SLC_TIMING.read_latency_us(GEO.page_bytes)
            + SLC_TIMING.program_latency_us(GEO.page_bytes)
        )


class TestBadBlocksAndErrors:
    def test_factory_bad_blocks_reject_program(self):
        array = make_array(initial_bad_block_rate=0.5,
                           rng=random.Random(42))
        bad = array.factory_bad_blocks()
        assert bad, "seed should produce some bad blocks at 50%"
        pbn = bad[0]
        with pytest.raises(BadBlockError):
            array.apply(ProgramPage(ppn=GEO.ppn_of(pbn, 0), data=b"x"))
        with pytest.raises(BadBlockError):
            array.apply(EraseBlock(pbn=pbn))

    def test_mark_bad(self):
        array = make_array()
        array.mark_bad(2)
        assert array.is_bad(2)

    def test_read_error_injection(self):
        array = make_array(fault_plan=FaultPlan(
            [FaultSpec(kind="transient_read", rate=1.0)]))
        array.apply(ProgramPage(ppn=0, data=b"x"))
        with pytest.raises(UncorrectableError):
            array.apply(ReadPage(ppn=0))

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            make_array(initial_bad_block_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="transient_read", rate=-0.1)


class TestOutOfRangeAddresses:
    """Addresses outside the device raise ValueError and change nothing —
    ppn=-1 must not reach the last page through negative indexing."""

    ENDS = pytest.mark.parametrize("ppn", [-1, GEO.total_pages], ids=["below", "above"])

    def assert_untouched(self, array):
        assert array.counters.snapshot() == make_array().counters.snapshot()
        assert not any(array.is_programmed(ppn) for ppn in range(GEO.total_pages))
        assert array.peek_oob(GEO.total_pages - 1) is None

    @ENDS
    def test_program(self, ppn):
        array = make_array()
        with pytest.raises(ValueError):
            array.apply(ProgramPage(ppn=ppn, data=b"x", oob="meta"))
        self.assert_untouched(array)

    @ENDS
    def test_program_cut_by_power_loss_leaves_no_wreckage(self, ppn):
        array = make_array(fault_plan=FaultPlan.power_cut_at(1))
        with pytest.raises(PowerCutError):
            array.apply(ProgramPage(ppn=ppn, data=b"x", oob="meta"))
        self.assert_untouched(array)

    @ENDS
    def test_copyback_destination(self, ppn):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"d"))
        with pytest.raises(ValueError):
            array.apply(Copyback(src_ppn=0, dst_ppn=ppn))
        assert array.counters.copybacks == 0
        assert array.peek_oob(GEO.total_pages - 1) is None

    @ENDS
    def test_copyback_source(self, ppn):
        array = make_array()
        with pytest.raises(ValueError):
            array.apply(Copyback(src_ppn=ppn, dst_ppn=0))
        self.assert_untouched(array)

    @pytest.mark.parametrize("pbn", [-1, GEO.total_blocks], ids=["below", "above"])
    def test_erase(self, pbn):
        array = make_array()
        with pytest.raises(ValueError):
            array.apply(EraseBlock(pbn=pbn))
        self.assert_untouched(array)


class TestDieOfCommand:
    def test_matches_geometry(self):
        array = make_array()
        last_ppn = GEO.total_pages - 1
        last_pbn = GEO.total_blocks - 1
        assert array.die_of_command(ReadPage(ppn=last_ppn)) == GEO.die_of_ppn(last_ppn)
        assert array.die_of_command(ReadOob(ppn=last_ppn)) == GEO.die_of_ppn(last_ppn)
        assert array.die_of_command(ProgramPage(ppn=last_ppn)) == GEO.die_of_ppn(last_ppn)
        assert array.die_of_command(EraseBlock(pbn=last_pbn)) == GEO.die_of_block(last_pbn)
        assert array.die_of_command(Copyback(src_ppn=last_ppn, dst_ppn=0)) == (
            GEO.die_of_ppn(last_ppn)
        )
        assert array.die_of_command(Identify()) is None

    def test_out_of_range_raises(self):
        array = make_array()
        with pytest.raises(ValueError):
            array.die_of_command(ProgramPage(ppn=-1))
        with pytest.raises(ValueError):
            array.die_of_command(EraseBlock(pbn=GEO.total_blocks))


class TestOobAndIdentify:
    def test_read_oob_returns_metadata_only(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"payload", oob={"lpn": 77}))
        result = array.apply(ReadOob(ppn=0))
        assert result.oob == {"lpn": 77}
        assert result.data is None
        assert array.counters.oob_reads == 1

    def test_oob_read_cheaper_than_page_read(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"x"))
        oob = array.apply(ReadOob(ppn=0))
        full = array.apply(ReadPage(ppn=0))
        assert oob.latency_us < full.latency_us

    def test_identify_returns_geometry(self):
        array = make_array()
        result = array.apply(Identify())
        assert result.data["total_dies"] == GEO.total_dies
        assert result.data["page_bytes"] == GEO.page_bytes


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_legal_sequences_keep_invariants(data):
    """Property: any legal program/erase interleaving keeps per-block
    next_page consistent and data readable exactly for programmed pages."""
    array = make_array()
    shadow = {}  # ppn -> data for pages we believe are live
    next_page = [0] * GEO.total_blocks
    steps = data.draw(st.integers(5, 60))
    for step in range(steps):
        action = data.draw(st.sampled_from(["program", "erase", "read"]))
        pbn = data.draw(st.integers(0, GEO.total_blocks - 1))
        if action == "program":
            offset = next_page[pbn]
            if offset >= GEO.pages_per_block:
                continue
            ppn = GEO.ppn_of(pbn, offset)
            array.apply(ProgramPage(ppn=ppn, data=step))
            shadow[ppn] = step
            next_page[pbn] = offset + 1
        elif action == "erase":
            array.apply(EraseBlock(pbn=pbn))
            base = pbn * GEO.pages_per_block
            for ppn in range(base, base + GEO.pages_per_block):
                shadow.pop(ppn, None)
            next_page[pbn] = 0
        else:
            if not shadow:
                continue
            ppn = data.draw(st.sampled_from(sorted(shadow)))
            assert array.apply(ReadPage(ppn=ppn)).data == shadow[ppn]
    for pbn in range(GEO.total_blocks):
        assert array.next_free_page(pbn) == next_page[pbn]
