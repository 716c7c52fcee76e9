"""Tests for the block-device front-end and the NoFTL storage paths."""

import pytest

from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.device import BlockDevice, SyncBlockDevice
from repro.device.blockdev import INTERFACE_OVERHEAD_US
from repro.flash import (
    FlashArray,
    Geometry,
    SLC_TIMING,
    SimExecutor,
    SimFlashDevice,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.ftl import PageMapFTL
from repro.sim import Simulator
from repro.telemetry import EventTrace

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


def make_blockdev(ncq_depth=32, controller_slots=1, trace=None):
    sim = Simulator()
    array = FlashArray(GEO, SLC_TIMING)
    executor = SimExecutor(SimFlashDevice(sim, array))
    ftl = PageMapFTL(GEO, op_ratio=0.25, trace=trace)
    return sim, BlockDevice(sim, ftl, executor, ncq_depth=ncq_depth,
                            controller_slots=controller_slots)


class TestBlockDeviceDES:
    def test_write_read_roundtrip(self):
        sim, device = make_blockdev()

        def proc():
            yield from device.write(3, data=b"three")
            value = yield from device.read(3)
            return value

        assert sim.run_process(proc()) == b"three"
        assert device.read_latency.count == 1
        assert device.write_latency.count == 1

    def test_ncq_depth_limits_concurrency(self):
        sim, device = make_blockdev(ncq_depth=2)

        def seed():
            for lpn in range(8):
                yield from device.write(lpn, data=lpn)

        sim.run_process(seed())

        def reader(lpn):
            yield from device.read(lpn)

        for lpn in range(8):
            sim.process(reader(lpn))
        sim.run()
        # more requests than NCQ slots -> some queued at the interface
        assert device.ncq.total_waits > 0

    def test_writes_serialize_on_controller(self):
        sim, device = make_blockdev()

        def writer(lpn):
            yield from device.write(lpn, data=lpn)

        for lpn in range(4):
            sim.process(writer(lpn))
        sim.run()
        assert device.controller.total_waits >= 3

    def test_reads_bypass_controller_for_pagemap(self):
        sim, device = make_blockdev()

        def seed():
            for lpn in range(4):
                yield from device.write(lpn, data=lpn)

        sim.run_process(seed())
        waits_after_writes = device.controller.total_waits

        def reader(lpn):
            yield from device.read(lpn)

        for lpn in range(4):
            sim.process(reader(lpn))
        sim.run()
        assert device.controller.total_waits == waits_after_writes

    def test_invalid_ncq_rejected(self):
        with pytest.raises(ValueError):
            make_blockdev(ncq_depth=0)

    def test_trim_travels_the_full_host_path(self):
        """DATASET MANAGEMENT is symmetric with read/write: it pays the
        interface overhead and emits a ``host.op`` trace event carrying
        its latency — it is not a free mapping mutation."""
        sim, device = make_blockdev(trace=EventTrace())

        def proc():
            yield from device.write(5, data=b"five")
            yield from device.trim(5)

        sim.run_process(proc())
        elapsed = {e.fields["op"]: e.fields["elapsed_us"]
                   for e in device.trace.events if e.kind == "host.op"}
        assert sorted(elapsed) == ["trim", "write"]
        assert elapsed["trim"] >= INTERFACE_OVERHEAD_US

    def test_concurrent_trims_serialize_on_controller(self):
        sim, device = make_blockdev(trace=EventTrace())

        def seed():
            for lpn in range(4):
                yield from device.write(lpn, data=lpn)

        sim.run_process(seed())
        waits_before = device.controller.total_waits

        def trimmer(lpn):
            yield from device.trim(lpn)

        for lpn in range(4):
            sim.process(trimmer(lpn))
        sim.run()
        # trims mutate mapping state, so like writes they contend for
        # the controller slot instead of bypassing it as reads do
        assert device.controller.total_waits >= waits_before + 3
        assert [e.fields["op"] for e in device.trace.events
                if e.kind == "host.op"].count("trim") == 4


class TestSyncBlockDevice:
    def test_roundtrip_and_trim(self):
        array = FlashArray(GEO, SLC_TIMING)
        executor = SyncExecutor(SyncFlashDevice(array))
        device = SyncBlockDevice(PageMapFTL(GEO, op_ratio=0.25), executor)
        device.write(7, data="seven")
        assert device.read(7) == "seven"
        device.trim(7)
        assert device.logical_pages == device.ftl.logical_pages


class TestNoFTLStorageDES:
    def test_roundtrip_with_region_locks(self):
        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        storage = NoFTLStorage(sim, manager, executor)

        def proc():
            yield from storage.write(5, data=b"five")
            value = yield from storage.read(5)
            return value

        assert sim.run_process(proc()) == b"five"

    def test_concurrent_writers_same_region_contend(self):
        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        storage = NoFTLStorage(sim, manager, executor)
        region0_lpn = 0
        same_region_lpn = manager.num_regions  # also region 0

        def writer(lpn):
            yield from storage.write(lpn, data=lpn)

        sim.process(writer(region0_lpn))
        sim.process(writer(same_region_lpn))
        sim.run()
        assert storage.region_lock_contention()["total_waits"] == 1

    def test_concurrent_writers_different_regions_do_not_contend(self):
        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        storage = NoFTLStorage(sim, manager, executor)

        def writer(lpn):
            yield from storage.write(lpn, data=lpn)

        for region in range(manager.num_regions):
            sim.process(writer(region))
        sim.run()
        assert storage.region_lock_contention()["total_waits"] == 0

    def test_storage_is_its_own_page_interface(self):
        """The DBMS mounts NoFTLStorage directly: region topology, the
        maintenance signal and a barrier that schedules nothing."""
        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        storage = NoFTLStorage(sim, manager, executor)
        assert storage.num_regions == manager.num_regions == GEO.total_dies
        assert [storage.region_of_page(lpn) for lpn in range(4)] == [
            manager.region_of_lpn(lpn) for lpn in range(4)]
        assert storage.maintenance_active is False
        assert list(storage.flush_barrier()) == []  # yields no event
