"""Tests for the Pause pseudo-command and the NoFTL recovery path."""

import random


from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager, SyncNoFTLStorage
from repro.flash import (
    FlashArray,
    Geometry,
    Pause,
    SLC_TIMING,
    SimExecutor,
    SimFlashDevice,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.sim import Simulator

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=8,
    page_bytes=512,
)


class TestPause:
    def test_sync_pause_costs_time_only(self):
        array = FlashArray(GEO, SLC_TIMING)
        device = SyncFlashDevice(array)
        before = array.counters.snapshot()
        result = device.execute(Pause(duration_us=123.0))
        assert result.latency_us == 123.0
        after = array.counters.snapshot()
        assert after["programs"] == before["programs"]
        assert after["reads"] == before["reads"]

    def test_des_pause_advances_clock_without_touching_dies(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))

        def proc():
            yield from device.execute(Pause(duration_us=50.0))
            return sim.now

        assert sim.run_process(proc()) == 50.0
        assert all(busy == 0 for busy in device.die_utilization())

    def test_pause_in_operation_generator(self):
        array = FlashArray(GEO, SLC_TIMING)
        executor = SyncExecutor(SyncFlashDevice(array))

        def op():
            yield Pause(duration_us=10.0)
            return "done"

        assert executor.run(op()) == "done"


class TestRecoveryScenarios:
    def _build(self, array=None):
        array = array or FlashArray(GEO, SLC_TIMING)
        executor = SyncExecutor(SyncFlashDevice(array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        return SyncNoFTLStorage(manager, executor), array

    def test_recovery_after_heavy_gc_and_trims(self):
        storage, array = self._build()
        rng = random.Random(3)
        span = storage.logical_pages // 2
        oracle = {}
        for step in range(span * 6):
            lpn = rng.randrange(span)
            if rng.random() < 0.1 and lpn in oracle:
                storage.trim(lpn)
                del oracle[lpn]
            else:
                storage.write(lpn, data=(lpn, step))
                oracle[lpn] = (lpn, step)
        assert storage.manager.stats.gc_erases > 0

        reborn, __ = self._build(array)
        recovered = reborn.recover()
        # Trimmed pages may resurface after a crash (their mapping was
        # host-only state) — that's expected; data pages must be exact.
        assert recovered >= len(oracle)
        for lpn, expected in oracle.items():
            assert reborn.read(lpn) == expected

    def test_recovery_of_empty_flash(self):
        storage, __ = self._build()
        assert storage.recover() == 0

    def test_recovery_counts_oob_scans(self):
        storage, array = self._build()
        for lpn in range(10):
            storage.write(lpn, data=lpn)
        reborn, __ = self._build(array)
        before = array.counters.oob_reads
        reborn.recover()
        assert array.counters.oob_reads > before


class TestNoFTLDESRecoveryParity:
    def test_des_and_sync_paths_agree_on_state(self):
        """The same write sequence through the DES front-end and the sync
        front-end leaves identical mappings (mode-independence of the
        storage manager)."""
        seq = [(lpn, ("v", lpn, k)) for k in range(3)
               for lpn in range(0, 30, 3)]

        sync_storage, __ = TestRecoveryScenarios()._build()
        for lpn, value in seq:
            sync_storage.write(lpn, data=value)

        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        des_storage = NoFTLStorage(sim, manager,
                                   SimExecutor(SimFlashDevice(sim, array)))

        def proc():
            for lpn, value in seq:
                yield from des_storage.write(lpn, data=value)

        sim.run_process(proc())
        for lpn in range(0, 30, 3):
            sync_value = sync_storage.read(lpn)

            def read_des(lpn=lpn):
                value = yield from des_storage.read(lpn)
                return value

            assert sim.run_process(read_des()) == sync_value
