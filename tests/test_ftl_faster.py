"""Tests for the FASTer hybrid log-block FTL."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import (
    DieOutageError,
    FaultPlan,
    FaultSpec,
    FlashArray,
    FlashError,
    Geometry,
    Pause,
    SLC_TIMING,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.ftl import FASTer, PageMapFTL

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


def make_faster(fault_plan=None):
    array = FlashArray(GEO, SLC_TIMING, fault_plan=fault_plan)
    executor = SyncExecutor(SyncFlashDevice(array))
    return FASTer(GEO, op_ratio=0.25), executor, array


class TestBasicIO:
    def test_roundtrip(self):
        ftl, executor, __ = make_faster()
        executor.run(ftl.write(11, data=b"eleven"))
        assert executor.run(ftl.read(11)) == b"eleven"

    def test_unwritten_returns_none(self):
        ftl, executor, __ = make_faster()
        assert executor.run(ftl.read(0)) is None

    def test_fresh_sequential_fill_goes_in_place(self):
        ftl, executor, __ = make_faster()
        for lpn in range(GEO.pages_per_block):
            executor.run(ftl.write(lpn, data=lpn))
        # All writes appended into the data block: no merges, no log traffic.
        assert ftl.stats.merges_full == 0
        assert ftl.log_occupancy()["live_log_entries"] == 0

    def test_random_update_goes_to_log(self):
        ftl, executor, __ = make_faster()
        for lpn in range(GEO.pages_per_block):
            executor.run(ftl.write(lpn, data=("v0", lpn)))
        executor.run(ftl.write(3, data="v1"))
        assert ftl.log_occupancy()["live_log_entries"] == 1
        assert executor.run(ftl.read(3)) == "v1"


class TestMerges:
    def test_log_pressure_triggers_full_merges(self):
        ftl, executor, __ = make_faster()
        rng = random.Random(0)
        span = ftl.logical_pages // 2
        for lpn in range(span):
            executor.run(ftl.write(lpn, data=lpn))
        for __ in range(span * 4):
            executor.run(ftl.write(rng.randrange(span), data=b"u"))
        # Reclaims first migrate pages to the log tail (second chance);
        # pages caught again force full merges of their blocks.
        assert ftl.stats.second_chances > 0
        assert ftl.stats.merges_full > 0
        assert ftl.stats.gc_relocations > 0
        assert ftl.stats.gc_erases > 0


def _finish(operation, array, command):
    """Serve ``operation``'s pending ``command`` on ``array``, then the
    rest of its commands, in order; returns the operation's value."""
    try:
        while True:
            try:
                result = array.apply(command)
            except FlashError as exc:
                command = operation.throw(exc)
            else:
                command = operation.send(result)
    except StopIteration as stop:
        return stop.value


class TestOutageInterleavings:
    """On the DES rig a command queued behind a program on its die is
    served right after a die outage rejects that program, and finds the
    page unwritten if the window has closed by then.  These tests drive
    the operations by hand in that order."""

    def test_read_queued_behind_a_rejected_program(self):
        ftl, executor, array = make_faster()
        executor.run(ftl.write(5, data=b"old"))
        writer = ftl.write(5, data=b"new")
        program = writer.send(None)
        reader = ftl.read(5)
        read = reader.send(None)
        assert read.ppn == program.ppn
        pause = writer.throw(DieOutageError(0))
        assert isinstance(pause, Pause)
        # The read meets the unwritten page and is served the parked version.
        assert _finish(reader, array, read) == b"new"
        assert not array.is_programmed(program.ppn)
        _finish(writer, array, pause)
        assert executor.run(ftl.read(5)) == b"new"

    def test_merge_relocation_queued_behind_a_rejected_program(self):
        ftl, executor, array = make_faster()
        for lpn in range(4):
            executor.run(ftl.write(lpn, data=(lpn, 0)))
        writer = ftl.write(0, data=(0, 1))  # below the fill: a log append
        program = writer.send(None)
        merge = ftl._full_merge(0)
        relocation = merge.send(None)
        assert program.ppn in (getattr(relocation, "src_ppn", None),
                               getattr(relocation, "ppn", None))
        pause = writer.throw(DieOutageError(0))
        # The merge drops the page that moved and completes.
        _finish(merge, array, relocation)
        _finish(writer, array, pause)
        for lpn in range(4):
            assert executor.run(ftl.read(lpn)) == (lpn, 1 if lpn == 0 else 0)


class TestFig3Shape:
    def test_faster_relocates_more_than_pagemap_on_oltp_like_trace(self):
        """Pre-check of Figure 3's direction: FASTer's merge traffic exceeds
        page-level GC traffic on a skewed update stream."""
        rng = random.Random(123)
        span = 300
        trace = [rng.randrange(span) if rng.random() < 0.8
                 else rng.randrange(span // 5)
                 for __ in range(4000)]

        def run(ftl):
            array = FlashArray(GEO, SLC_TIMING)
            executor = SyncExecutor(SyncFlashDevice(array))
            for lpn in range(span):
                executor.run(ftl.write(lpn, data=lpn))
            for lpn in trace:
                executor.run(ftl.write(lpn, data=b"u"))
            return ftl.stats, array.counters

        faster_stats, faster_counters = run(FASTer(GEO, op_ratio=0.25))
        pm_stats, pm_counters = run(PageMapFTL(GEO, op_ratio=0.25))
        assert faster_stats.gc_relocations > pm_stats.gc_relocations
        assert faster_stats.gc_erases > pm_stats.gc_erases


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), die=st.integers(0, GEO.total_dies - 1),
       start=st.integers(0, 4_000), length=st.integers(1, 60))
def test_faster_never_loses_data(seed, die, start, length):
    """Read-your-writes through one die outage window: a write the die
    rejects (host program, merge or second-chance migration) is waited
    out, never failed or left mapped to an unprogrammed page."""
    plan = FaultPlan([FaultSpec(kind="die_outage", die=die,
                                window=(start, start + length))], seed=0)
    ftl, executor, __ = make_faster(plan)
    rng = random.Random(seed)
    span = int(ftl.logical_pages * 0.6)
    oracle = {}
    for step in range(span * 5):
        lpn = rng.randrange(span)
        executor.run(ftl.write(lpn, data=(lpn, step)))
        oracle[lpn] = (lpn, step)
    for lpn, expected in oracle.items():
        assert executor.run(ftl.read(lpn)) == expected
