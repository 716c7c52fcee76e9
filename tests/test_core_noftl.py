"""Tests for the NoFTL storage manager (core contribution)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BadBlockManager,
    NoFTLConfig,
    NoFTLStorageManager,
    RegionManager,
    SyncNoFTLStorage,
)
from repro.flash import (
    FlashArray,
    Geometry,
    SLC_TIMING,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.ftl import FASTer

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


def make_noftl(config=None, array=None, **array_kwargs):
    array = array or FlashArray(GEO, SLC_TIMING, **array_kwargs)
    executor = SyncExecutor(SyncFlashDevice(array))
    manager = NoFTLStorageManager(
        GEO,
        config or NoFTLConfig(op_ratio=0.25),
        factory_bad_blocks=array.factory_bad_blocks(),
    )
    return SyncNoFTLStorage(manager, executor), manager, array


class TestBasicIO:
    def test_roundtrip(self):
        storage, __, __ = make_noftl()
        storage.write(10, data=b"ten")
        assert storage.read(10) == b"ten"

    def test_unwritten_returns_none(self):
        storage, __, __ = make_noftl()
        assert storage.read(0) is None

    def test_overwrite(self):
        storage, __, __ = make_noftl()
        storage.write(4, data="a")
        storage.write(4, data="b")
        assert storage.read(4) == "b"

    def test_bad_hint_rejected(self):
        storage, __, __ = make_noftl()
        with pytest.raises(ValueError):
            storage.write(0, data=b"x", hint="lukewarm")

    def test_lpn_bounds(self):
        storage, manager, __ = make_noftl()
        with pytest.raises(ValueError):
            storage.read(manager.logical_pages)


class TestRegions:
    def test_default_one_region_per_die(self):
        __, manager, __ = make_noftl()
        assert manager.num_regions == GEO.total_dies

    def test_region_striping_covers_all_regions(self):
        __, manager, __ = make_noftl()
        hit = {manager.region_of_lpn(lpn) for lpn in range(manager.num_regions)}
        assert hit == set(range(manager.num_regions))

    def test_writes_stay_in_their_region_dies(self):
        storage, manager, array = make_noftl()
        lpn = 3  # region 3 under die-wise striping
        region = manager.regions.regions[manager.region_of_lpn(lpn)]
        for __ in range(20):
            storage.write(lpn, data=b"x")
        busy = [die for die, ops in enumerate(array.counters.per_die_ops)
                if ops > 0]
        assert set(busy) <= set(region.dies)

    def test_custom_region_count(self):
        config = NoFTLConfig(op_ratio=0.25, num_regions=2)
        __, manager, __ = make_noftl(config)
        assert manager.num_regions == 2
        assert len(manager.regions.regions[0].dies) == GEO.total_dies // 2

    def test_uneven_region_count_rejected(self):
        with pytest.raises(ValueError):
            RegionManager(GEO, num_regions=3)  # 8 dies % 3 != 0

    def test_region_local_pages_use_every_plane(self):
        config = NoFTLConfig(op_ratio=0.25, num_regions=GEO.total_dies)
        storage, manager, array = make_noftl(config)
        region0_lpns = [lpn for lpn in range(manager.logical_pages)
                        if manager.region_of_lpn(lpn) == 0][:32]
        for lpn in region0_lpns:
            storage.write(lpn, data=b"x")
        region = manager.regions.regions[0]
        space = region.space
        # both planes of the region's die received allocations
        frees = [space.free_blocks(plane) for plane in space.plane_ids]
        assert all(free < GEO.blocks_per_plane for free in frees)


class TestGCIntegration:
    def test_sustained_updates_survive_gc(self):
        storage, manager, __ = make_noftl()
        rng = random.Random(0)
        span = manager.logical_pages // 2
        oracle = {}
        for step in range(manager.logical_pages * 5):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        assert manager.stats.gc_erases > 0
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected

    def test_trim_reduces_relocations(self):
        def run(honor_trims):
            config = NoFTLConfig(op_ratio=0.25, honor_trims=honor_trims)
            storage, manager, __ = make_noftl(config)
            rng = random.Random(17)
            span = int(manager.logical_pages * 0.8)
            for lpn in range(span):
                storage.write(lpn, data=-1)
            for round_no in range(8):
                for __ in range(span):
                    storage.write(rng.randrange(span), data=round_no)
                for lpn in range(0, span, 4):
                    storage.trim(lpn)
            return manager.stats.gc_relocations

        assert run(honor_trims=True) < run(honor_trims=False)

    def test_copybacks_used_for_gc(self):
        storage, manager, array = make_noftl()
        rng = random.Random(2)
        span = int(manager.logical_pages * 0.7)
        for __ in range(manager.logical_pages * 5):
            storage.write(rng.randrange(span), data=b"x")
        assert manager.stats.gc_relocations > 0
        assert manager.stats.gc_copybacks == manager.stats.gc_relocations

    def test_copyback_disabled_falls_back_to_read_program(self):
        config = NoFTLConfig(op_ratio=0.25, use_copyback=False)
        storage, manager, array = make_noftl(config)
        rng = random.Random(2)
        span = int(manager.logical_pages * 0.7)
        for __ in range(manager.logical_pages * 5):
            storage.write(rng.randrange(span), data=b"x")
        assert manager.stats.gc_relocations > 0
        assert array.counters.copybacks == 0
        assert manager.stats.gc_reads == manager.stats.gc_relocations


class TestBadBlocks:
    def test_factory_bad_blocks_avoided(self):
        array = FlashArray(GEO, SLC_TIMING, initial_bad_block_rate=0.1,
                           rng=random.Random(9))
        storage, manager, __ = make_noftl(array=array)
        bad = set(array.factory_bad_blocks())
        assert bad
        rng = random.Random(0)
        for __ in range(manager.logical_pages * 2):
            storage.write(rng.randrange(manager.logical_pages // 2), data=b"x")
        # nothing was ever programmed into a factory-bad block
        for pbn in bad:
            assert array.next_free_page(pbn) == 0

    def test_grown_bad_blocks_reported(self):
        from repro.flash import EraseBlock

        array = FlashArray(GEO, SLC_TIMING, max_erase_cycles=3)
        storage, manager, __ = make_noftl(array=array)
        # Pre-wear one free block of region 0 to the endurance limit,
        # behind NoFTL's back; its next erase (by GC) will grow it bad.
        space = manager.regions.regions[0].space
        doomed = space._planes[space.plane_ids[0]].pool.peek_free()[0]
        for __ in range(3):
            array.apply(EraseBlock(pbn=doomed))
        rng = random.Random(1)
        span = manager.logical_pages // 4
        for __ in range(manager.logical_pages * 4):
            storage.write(rng.randrange(span), data=b"x")
            if manager.stats.grown_bad_blocks:
                break
        assert manager.stats.grown_bad_blocks > 0
        assert manager.bad_blocks.is_bad(doomed)
        assert manager.bad_blocks.health()["grown_bad"] > 0

    def test_bbm_health_accounting(self):
        bbm = BadBlockManager(GEO, factory_bad=[1, 2])
        bbm.report_grown(5)
        health = bbm.health()
        assert health["factory_bad"] == 2
        assert health["grown_bad"] == 1
        assert bbm.is_bad(2) and bbm.is_bad(5) and not bbm.is_bad(0)


class TestRecovery:
    def test_mapping_rebuilt_from_oob(self):
        storage, manager, array = make_noftl()
        rng = random.Random(4)
        span = manager.logical_pages // 2
        oracle = {}
        for step in range(span * 4):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        # Simulate a host crash: build a fresh manager over the same flash.
        executor = SyncExecutor(SyncFlashDevice(array))
        reborn = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        fresh = SyncNoFTLStorage(reborn, executor)
        recovered = fresh.recover()
        assert recovered == len(oracle)
        for lpn, expected in oracle.items():
            assert fresh.read(lpn) == expected


class TestHeadlineDirection:
    def test_noftl_beats_faster_on_gc_traffic(self):
        """Direction check for Figure 3 / headline: same update stream,
        FASTer relocates and erases roughly 2x more."""
        rng = random.Random(77)
        span = 400
        # 80/20-ish skew, like OLTP row updates
        trace = [rng.randrange(span // 5) if rng.random() < 0.5
                 else rng.randrange(span) for __ in range(6000)]

        storage, manager, __ = make_noftl()
        for lpn in range(span):
            storage.write(lpn, data=lpn)
        for lpn in trace:
            storage.write(lpn, data=b"u")

        array2 = FlashArray(GEO, SLC_TIMING)
        executor2 = SyncExecutor(SyncFlashDevice(array2))
        faster = FASTer(GEO, op_ratio=0.25)
        for lpn in range(span):
            executor2.run(faster.write(lpn, data=lpn))
        for lpn in trace:
            executor2.run(faster.write(lpn, data=b"u"))

        assert faster.stats.gc_relocations > manager.stats.gc_relocations * 1.3
        assert faster.stats.gc_erases > manager.stats.gc_erases * 1.2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000),
       regions=st.sampled_from([1, 2, 4]))
def test_noftl_durability_property(seed, regions):
    config = NoFTLConfig(op_ratio=0.25, num_regions=regions)
    storage, manager, __ = make_noftl(config)
    rng = random.Random(seed)
    span = int(manager.logical_pages * 0.6)
    oracle = {}
    for step in range(span * 4):
        lpn = rng.randrange(span)
        if rng.random() < 0.05 and lpn in oracle:
            storage.trim(lpn)
            del oracle[lpn]
        else:
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
    for lpn, expected in oracle.items():
        assert storage.read(lpn) == expected
