"""Tests for the page-mapping FTL and the shared page-mapped space."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash import FlashArray, Geometry, SLC_TIMING, SyncExecutor, SyncFlashDevice
from repro.ftl import PageMapFTL
from repro.ftl.base import FTLStats, MappingState, UNMAPPED
from repro.ftl.pagespace import PageMappedSpace

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


def make_ftl(**kwargs):
    array = FlashArray(GEO, SLC_TIMING)
    device = SyncFlashDevice(array)
    executor = SyncExecutor(device)
    defaults = dict(op_ratio=0.25)
    defaults.update(kwargs)
    ftl = PageMapFTL(GEO, **defaults)
    return ftl, executor, array


def make_space(**kwargs):
    """PageMapFTL's engine with the GC and wear-leveling knobs NoFTL
    configures (the on-device FTL fixes greedy GC, one stream, no wear
    leveling): a single stream over every plane, 25 % over-provisioned."""
    array = FlashArray(GEO, SLC_TIMING)
    executor = SyncExecutor(SyncFlashDevice(array))
    logical = int(GEO.total_pages * 0.75)
    stats = FTLStats()
    planes = [(die, plane) for die in range(GEO.total_dies)
              for plane in range(GEO.planes_per_die)]
    space = PageMappedSpace(GEO, MappingState(GEO, logical), planes, stats,
                            separate_streams=False, **kwargs)
    return space, stats, executor, array, logical


class TestBasicIO:
    def test_write_then_read_roundtrip(self):
        ftl, executor, __ = make_ftl()
        executor.run(ftl.write(5, data=b"five"))
        assert executor.run(ftl.read(5)) == b"five"

    def test_read_unwritten_returns_none(self):
        ftl, executor, __ = make_ftl()
        assert executor.run(ftl.read(0)) is None

    def test_overwrite_returns_newest(self):
        ftl, executor, __ = make_ftl()
        for version in range(5):
            executor.run(ftl.write(7, data=("v", version)))
        assert executor.run(ftl.read(7)) == ("v", 4)

    def test_lpn_bounds_enforced(self):
        ftl, executor, __ = make_ftl()
        with pytest.raises(ValueError):
            executor.run(ftl.write(ftl.logical_pages, data=b"x"))
        with pytest.raises(ValueError):
            executor.run(ftl.read(-1))

    def test_logical_space_respects_overprovisioning(self):
        ftl, __, __ = make_ftl(op_ratio=0.25)
        assert ftl.logical_pages == int(GEO.total_pages * 0.75)

    def test_writes_stripe_across_dies(self):
        ftl, executor, array = make_ftl()
        for lpn in range(8):
            executor.run(ftl.write(lpn, data=lpn))
        busy_dies = sum(1 for ops in array.counters.per_die_ops if ops > 0)
        assert busy_dies == GEO.total_dies

    def test_stats_count_host_ops(self):
        ftl, executor, __ = make_ftl()
        executor.run(ftl.write(1, data=b"a"))
        executor.run(ftl.read(1))
        assert ftl.stats.host_writes == 1
        assert ftl.stats.host_reads == 1


class TestGarbageCollection:
    def test_sustained_overwrites_trigger_gc_and_survive(self):
        ftl, executor, array = make_ftl(op_ratio=0.25)
        rng = random.Random(7)
        working_set = ftl.logical_pages // 2
        for __ in range(ftl.logical_pages * 6):
            lpn = rng.randrange(working_set)
            executor.run(ftl.write(lpn, data=("d", lpn)))
        assert ftl.stats.gc_erases > 0
        assert ftl.stats.gc_relocations >= 0
        # data integrity after heavy GC
        for lpn in range(working_set):
            value = executor.run(ftl.read(lpn))
            if value is not None:
                assert value == ("d", lpn)

    def test_gc_uses_copyback_within_plane(self):
        ftl, executor, array = make_ftl(op_ratio=0.25)
        rng = random.Random(3)
        for __ in range(ftl.logical_pages * 6):
            executor.run(ftl.write(rng.randrange(ftl.logical_pages // 2),
                                   data=b"x"))
        # GC stays inside a plane, so every relocation is a copyback.
        assert ftl.stats.gc_relocations > 0
        assert ftl.stats.gc_copybacks == ftl.stats.gc_relocations
        assert array.counters.copybacks == ftl.stats.gc_copybacks

    def test_write_amplification_reported(self):
        ftl, executor, __ = make_ftl(op_ratio=0.25)
        rng = random.Random(1)
        for __ in range(ftl.logical_pages * 5):
            executor.run(ftl.write(rng.randrange(ftl.logical_pages // 3),
                                   data=b"x"))
        assert ftl.stats.write_amplification >= 1.0

    def test_trim_makes_gc_cheaper(self):
        """A trimmed page is not relocated: DBMS deallocation knowledge
        (which NoFTL exploits) reduces GC copy traffic."""
        results = {}
        for use_trim in (False, True):
            ftl, executor, __ = make_ftl(op_ratio=0.25)
            rng = random.Random(11)
            span = int(ftl.logical_pages * 0.8)
            # fill once so blocks hold a mix of hot and cold pages
            for lpn in range(span):
                executor.run(ftl.write(lpn, data=-1))
            for round_no in range(10):
                for __ in range(span):
                    executor.run(ftl.write(rng.randrange(span), data=round_no))
                if use_trim:
                    # the DBMS drops a quarter of the pages every round
                    for lpn in range(0, span, 4):
                        executor.run(ftl.trim(lpn))
            results[use_trim] = ftl.stats.gc_relocations
        assert results[False] > 0
        assert results[True] < results[False]

    def test_gc_policies_both_work(self):
        for policy in ("greedy", "cost_benefit"):
            space, stats, executor, __, logical = make_space(gc_policy=policy)
            rng = random.Random(5)
            for __ in range(logical * 4):
                executor.run(space.write(rng.randrange(logical // 2),
                                         data=b"y"))
            assert stats.gc_erases > 0

    def test_bad_gc_policy_rejected(self):
        with pytest.raises(ValueError):
            make_space(gc_policy="nonsense")

    def test_gc_low_water_validation(self):
        with pytest.raises(ValueError):
            make_space(gc_low_water=1)


class TestWearLeveling:
    def test_wear_delta_bounded_with_wl(self):
        space, stats, executor, __, logical = make_space(wear_level_delta=8)
        rng = random.Random(2)
        # Static cold data pins its blocks (fully valid -> never a GC
        # victim) at low erase counts while a tiny hot set churns the
        # rest; only wear leveling can refresh the cold blocks.  (The
        # bucket-list victim policy rotates hot victims FIFO, so an
        # all-hot workload alone no longer develops any skew.)
        for lpn in range(logical // 2, logical):
            executor.run(space.write(lpn, data=b"c"))
        hot = list(range(8))
        for __ in range(6000):
            executor.run(space.write(rng.choice(hot), data=b"h"))
        assert stats.wl_moves > 0

    def test_wear_spreads_more_evenly_with_wl(self):
        def run(delta):
            space, __, executor, array, __ = make_space(wear_level_delta=delta)
            rng = random.Random(2)
            for __ in range(6000):
                executor.run(space.write(rng.randrange(8), data=b"h"))
            wear = array.wear_summary()
            return wear["max"] - wear["min"]

        assert run(delta=8) <= run(delta=None) or run(delta=8) < 60


class TestMappingState:
    def test_bind_and_lookup(self):
        mapping = MappingState(GEO, 16)
        mapping.bind(3, 100)
        assert mapping.lookup(3) == 100
        assert mapping.p2l[100] == 3

    def test_rebind_invalidates_old(self):
        mapping = MappingState(GEO, 16)
        mapping.bind(3, 100)
        mapping.bind(3, 200)
        assert mapping.p2l[100] == UNMAPPED
        pbn_new = GEO.block_of_ppn(200)
        assert mapping.valid_in_block[pbn_new] == 1

    def test_unbind_clears(self):
        mapping = MappingState(GEO, 16)
        mapping.bind(3, 100)
        mapping.unbind(3)
        assert mapping.lookup(3) == UNMAPPED
        assert mapping.total_valid() == 0

    def test_double_invalidation_rejected(self):
        mapping = MappingState(GEO, 16)
        mapping.bind(3, 100)
        mapping.invalidate_ppn(100)
        with pytest.raises(ValueError):
            mapping.invalidate_ppn(100)

    def test_valid_lpns_of_block(self):
        mapping = MappingState(GEO, 16)
        mapping.bind(1, GEO.ppn_of(2, 0))
        mapping.bind(2, GEO.ppn_of(2, 3))
        assert mapping.valid_lpns_of_block(2) == [(0, 1), (3, 2)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    working_fraction=st.sampled_from([0.25, 0.5, 0.75]),
)
def test_pagemap_ftl_never_loses_committed_data(seed, working_fraction):
    """Property: under arbitrary skewed overwrite streams with GC, the FTL
    always returns the most recently written value for every page."""
    ftl, executor, __ = make_ftl(op_ratio=0.25)
    rng = random.Random(seed)
    span = max(1, int(ftl.logical_pages * working_fraction))
    oracle = {}
    for step in range(ftl.logical_pages * 4):
        lpn = rng.randrange(span)
        executor.run(ftl.write(lpn, data=(lpn, step)))
        oracle[lpn] = (lpn, step)
    for lpn, expected in oracle.items():
        assert executor.run(ftl.read(lpn)) == expected
