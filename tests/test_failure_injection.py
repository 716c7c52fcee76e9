"""Failure-injection tests: the stack under misbehaving NAND, plus the
TPC-C consistency audit under a full concurrent run."""

import random

import pytest

from repro.core import (
    DegradedModeError,
    NoFTLConfig,
    NoFTLStorageManager,
    SyncNoFTLStorage,
)
from repro.core.badblock import BadBlockManager
from repro.db import Database, RAMStorageAdapter
from repro.flash import (
    FaultPlan,
    FaultSpec,
    FlashArray,
    Geometry,
    ProgramPage,
    SLC_TIMING,
    SyncExecutor,
    SyncFlashDevice,
    UncorrectableError,
)
from repro.ftl import FASTer, PageMapFTL
from repro.ftl.base import READ_RETRY_LIMIT, relocate_page
from repro.sim import Simulator
from repro.workloads import TPCC, run_workload

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


class TestFactoryBadBlocks:
    @pytest.mark.parametrize("rate", [0.05, 0.2])
    def test_noftl_full_lifecycle_with_bad_blocks(self, rate):
        array = FlashArray(GEO, SLC_TIMING, initial_bad_block_rate=rate,
                           rng=random.Random(7))
        executor = SyncExecutor(SyncFlashDevice(array))
        manager = NoFTLStorageManager(
            GEO, NoFTLConfig(op_ratio=0.3),
            factory_bad_blocks=array.factory_bad_blocks(),
        )
        storage = SyncNoFTLStorage(manager, executor)
        rng = random.Random(1)
        span = manager.logical_pages // 3
        oracle = {}
        for step in range(span * 5):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected
        for pbn in array.factory_bad_blocks():
            assert array.next_free_page(pbn) == 0  # untouched

    def test_ftls_respect_bad_blocks(self):
        array = FlashArray(GEO, SLC_TIMING, initial_bad_block_rate=0.15,
                           rng=random.Random(5))
        executor = SyncExecutor(SyncFlashDevice(array))
        for ftl in (
            PageMapFTL(GEO, op_ratio=0.3,
                       bad_blocks=array.factory_bad_blocks()),
        ):
            rng = random.Random(2)
            for step in range(300):
                executor.run(ftl.write(rng.randrange(ftl.logical_pages // 3),
                                       data=step))
        for pbn in array.factory_bad_blocks():
            assert array.next_free_page(pbn) == 0


class TestWearOutStorm:
    def test_noftl_survives_gradual_block_death(self):
        """Blocks die as they pass the endurance limit; NoFTL keeps
        serving reads/writes from the shrinking good population."""
        array = FlashArray(GEO, SLC_TIMING, max_erase_cycles=5)
        executor = SyncExecutor(SyncFlashDevice(array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.5))
        storage = SyncNoFTLStorage(manager, executor)
        rng = random.Random(3)
        span = manager.logical_pages // 4
        oracle = {}
        for step in range(span * 120):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
            if manager.stats.grown_bad_blocks >= 4:
                break
        assert manager.stats.grown_bad_blocks >= 1
        assert manager.bad_blocks.health()["grown_bad"] >= 1
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected


class TestUncorrectableReads:
    def test_ecc_failure_propagates_cleanly(self):
        array = FlashArray(GEO, SLC_TIMING, fault_plan=FaultPlan(
            [FaultSpec(kind="transient_read", rate=1.0)]))
        executor = SyncExecutor(SyncFlashDevice(array))
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        storage = SyncNoFTLStorage(manager, executor)
        storage.write(3, data=b"doomed")
        with pytest.raises(UncorrectableError):
            storage.read(3)
        # the manager's state is still sane: other operations continue
        storage.write(4, data=b"fine")

    def test_ftl_op_generator_can_handle_ecc_error(self):
        """The executor throws flash errors into the operation, so an FTL
        (or host) retry policy can live inside the generator."""
        # One firing: the first read fails, the retry reads cleanly
        # ("ECC recovered on retry").
        array = FlashArray(GEO, SLC_TIMING, fault_plan=FaultPlan(
            [FaultSpec(kind="transient_read", ppn=0, count=1)]))
        executor = SyncExecutor(SyncFlashDevice(array))

        from repro.flash import ProgramPage, ReadPage

        def op_with_retry():
            yield ProgramPage(ppn=0, data=b"v")
            try:
                yield ReadPage(ppn=0)
            except UncorrectableError:
                result = yield ReadPage(ppn=0)
                return ("recovered", result.data)
            return ("clean", None)

        assert executor.run(op_with_retry()) == ("recovered", b"v")


class TestFASTerUnderBadBlocks:
    def test_faster_with_factory_bad_blocks(self):
        array = FlashArray(GEO, SLC_TIMING, initial_bad_block_rate=0.1,
                           rng=random.Random(11))
        executor = SyncExecutor(SyncFlashDevice(array))
        ftl = FASTer(GEO, op_ratio=0.3, bad_blocks=array.factory_bad_blocks())
        rng = random.Random(4)
        span = ftl.logical_pages // 3
        oracle = {}
        for step in range(span * 4):
            lpn = rng.randrange(span)
            executor.run(ftl.write(lpn, data=(lpn, step)))
            oracle[lpn] = (lpn, step)
        for lpn, expected in oracle.items():
            assert executor.run(ftl.read(lpn)) == expected


def _sync_noftl(plan=None, op_ratio=0.3, seed=1, **config_kwargs):
    array = FlashArray(GEO, SLC_TIMING, rng=random.Random(seed),
                       fault_plan=plan)
    executor = SyncExecutor(SyncFlashDevice(array))
    manager = NoFTLStorageManager(
        GEO, NoFTLConfig(op_ratio=op_ratio, **config_kwargs),
        factory_bad_blocks=array.factory_bad_blocks(),
    )
    return array, manager, SyncNoFTLStorage(manager, executor)


class TestFaultPlanDeterminism:
    def _drive(self):
        plan = FaultPlan(seed=42)
        plan.add(FaultSpec(kind="transient_read", rate=0.3))
        plan.add(FaultSpec(kind="program_fail", rate=0.05, count=3))
        array, manager, storage = _sync_noftl(plan=plan)
        rng = random.Random(9)
        span = manager.logical_pages // 3
        for step in range(span * 4):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            if step % 3 == 0:
                try:
                    storage.read(rng.randrange(span))
                except UncorrectableError:
                    pass  # a read that lost all its retry rolls
        return array.fault_injector

    def test_same_seed_same_command_stream_same_faults(self):
        first, second = self._drive(), self._drive()
        assert first.events, "the adversary never fired"
        assert first.events == second.events
        assert first.injected_counts() == second.injected_counts()

    def test_rate_zero_never_fires(self):
        plan = FaultPlan([FaultSpec(kind="transient_read", rate=0.0)],
                         seed=1)
        array, manager, storage = _sync_noftl(plan=plan)
        for lpn in range(8):
            storage.write(lpn, data=lpn)
            assert storage.read(lpn) == lpn
        assert array.fault_injector.events == []


class TestTransientReadRecovery:
    def test_retry_recovers_then_scrubs(self):
        # Deterministic spec with a firing budget of 2: the first two read
        # attempts fail, the third succeeds — the classic "ECC recovered
        # on retry" event that must trigger a scrub relocation.
        plan = FaultPlan([FaultSpec(kind="transient_read", count=2)],
                         seed=0)
        array, manager, storage = _sync_noftl(plan=plan)
        storage.write(5, data=b"fragile")
        before = manager.mapping.lookup(5)
        assert storage.read(5) == b"fragile"
        assert manager.stats.read_retries == 2
        assert manager.stats.scrubs == 1
        # The scrub moved the page off the suspect block.
        assert manager.mapping.lookup(5) != before
        assert storage.read(5) == b"fragile"  # budget spent: clean read

    def test_persistent_fault_exhausts_retries(self):
        plan = FaultPlan([FaultSpec(kind="persistent_read")], seed=0)
        array, manager, storage = _sync_noftl(plan=plan)
        storage.write(3, data=b"doomed")
        with pytest.raises(UncorrectableError):
            storage.read(3)
        assert manager.stats.read_retries >= READ_RETRY_LIMIT


class TestRelocationRetryTally:
    def test_fallback_read_retry_reaches_the_registry(self):
        # The copyback's read leg and the first fallback READ PAGE hit the
        # ECC fault, the second read succeeds: one retry, which the
        # registry series and stats.read_retries must both count.
        array, manager, storage = _sync_noftl()
        storage.write(0, data=b"moving")
        src = manager.mapping.lookup(0)
        dst = src + 1  # the next, still erased, page of the same block
        array.fault_injector.add_spec(
            FaultSpec(kind="transient_read", ppn=src, count=2))
        executor = SyncExecutor(SyncFlashDevice(array))
        moved = executor.run(relocate_page(GEO, src, dst, manager.stats))
        assert moved
        assert manager.stats.read_retries == 1
        assert manager.telemetry.value("noftl.read_retries") == 1
        assert manager.stats.gc_copybacks == 0
        assert manager.stats.gc_programs == 1
        assert manager.stats.gc_relocations == 1
        assert manager.telemetry.value("ftl.relocations") == 1
        assert array.peek_oob(dst) == array.peek_oob(src)


class TestProgramFailureRemap:
    def test_failed_program_remaps_and_retires_block(self):
        plan = FaultPlan([FaultSpec(kind="program_fail", count=1)], seed=0)
        array, manager, storage = _sync_noftl(plan=plan)
        storage.write(0, data=b"precious")
        assert manager.stats.program_remaps == 1
        assert manager.stats.grown_bad_blocks >= 1
        assert manager.health()["grown_bad"] >= 1
        # The write was acknowledged => it must read back despite the
        # failed first program attempt.
        assert storage.read(0) == b"precious"
        assert array.fault_injector.injected_counts()["program_fail"] == 1


class TestEraseFailure:
    def test_failed_erase_grows_bad_block(self):
        plan = FaultPlan([FaultSpec(kind="erase_fail", count=1)], seed=0)
        array, manager, storage = _sync_noftl(plan=plan)
        rng = random.Random(2)
        span = manager.logical_pages // 3
        oracle = {}
        for step in range(span * 6):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        assert array.fault_injector.injected_counts().get("erase_fail") == 1
        assert manager.stats.grown_bad_blocks >= 1
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected


class TestDieOutage:
    def test_outage_window_is_survived(self):
        plan = FaultPlan(
            [FaultSpec(kind="die_outage", die=0, window=(20, 80))], seed=0
        )
        array, manager, storage = _sync_noftl(plan=plan)
        rng = random.Random(6)
        span = manager.logical_pages // 2
        oracle = {}
        for step in range(span * 3):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        assert array.fault_injector.injected_counts().get("die_outage", 0) > 0
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected

    @staticmethod
    def _overwrite(storage, manager):
        rng = random.Random(6)
        span = int(manager.logical_pages * 0.9)
        oracle = {}
        for step in range(span * 5):
            lpn = rng.randrange(span)
            storage.write(lpn, data=(lpn, step))
            oracle[lpn] = (lpn, step)
        return oracle

    def _first_gc_program_on_die0(self):
        """Op count of the first GC-origin PAGE PROGRAM on die 0 in a
        fault-free no-copyback run of :meth:`_overwrite`."""
        array, manager, storage = _sync_noftl(use_copyback=False)
        apply = array.apply
        hits = []

        def spy(command):
            result = apply(command)
            if (not hits and isinstance(command, ProgramPage) and result.die == 0
                    and command.ctx is not None and command.ctx.origin == "gc"):
                hits.append(array.fault_injector.ops)
            return result

        array.apply = spy
        self._overwrite(storage, manager)
        assert hits, "the run never relocated a page on die 0"
        return hits[0]

    @pytest.mark.parametrize("use_copyback", [False, True], ids=["read-program", "copyback"])
    def test_outage_on_a_gc_relocation_is_waited_out(self, use_copyback):
        # The no-copyback GC arm (ablation E10) relocates by READ PAGE +
        # PAGE PROGRAM; a die outage on that program must be waited out
        # like any other, not escape the host write that ran the GC.
        op = self._first_gc_program_on_die0()
        plan = FaultPlan([FaultSpec(kind="die_outage", die=0, window=(op, op + 1))], seed=0)
        array, manager, storage = _sync_noftl(plan=plan, use_copyback=use_copyback)
        oracle = self._overwrite(storage, manager)
        assert array.fault_injector.injected_counts() == {"die_outage": 1}
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected


class TestGCRelocationSkip:
    def test_unreadable_victim_page_is_skipped_not_fatal(self):
        array, manager, storage = _sync_noftl()
        storage.write(0, data=b"landmine")
        victim_ppn = manager.mapping.lookup(0)
        victim_pbn = GEO.block_of_ppn(victim_ppn)
        rng = random.Random(8)
        span = manager.logical_pages // 3
        for step in range(span):  # fill out the landmine's block
            storage.write(1 + rng.randrange(span - 1), data=step)
        # Grown media defect on exactly that page: every read fails.  Mark
        # the block suspect so the GC refresh priority queues it next.
        array.fault_injector.add_spec(
            FaultSpec(kind="persistent_read", ppn=victim_ppn)
        )
        manager._space_of(0).suspect_blocks.add(victim_pbn)
        for step in range(span * 30):
            storage.write(1 + rng.randrange(span - 1), data=step)
            if manager.stats.relocation_skips > 0:
                break
        # GC met the unreadable page, recorded it and kept going.
        assert manager.stats.relocation_skips >= 1
        assert manager.stats.grown_bad_blocks >= 1  # victim quarantined
        with pytest.raises(UncorrectableError):
            storage.read(0)  # the media error reaches the host, once asked
        storage.write(0, data=b"replaced")  # and the lpn is still usable
        assert storage.read(0) == b"replaced"


class TestChecksumDetection:
    def test_silent_corruption_caught_by_page_crc(self):
        from repro.flash import ProgramPage, ReadPage

        array = FlashArray(GEO, SLC_TIMING)
        executor = SyncExecutor(SyncFlashDevice(array))

        def program():
            yield ProgramPage(ppn=0, data=b"payload")

        def read():
            result = yield ReadPage(ppn=0)
            return result.data

        executor.run(program())
        assert executor.run(read()) == b"payload"
        array.corrupt_page(0)
        with pytest.raises(UncorrectableError):
            executor.run(read())


class TestDegradedMode:
    def test_watermark_arithmetic(self):
        mgr = BadBlockManager(GEO, [], spare_blocks=4, watermark=0.5)
        mgr.report_grown(10)
        assert not mgr.degraded
        mgr.check_writable()  # no raise below the watermark
        mgr.report_grown(11)
        assert mgr.degraded
        with pytest.raises(DegradedModeError):
            mgr.check_writable()
        health = mgr.health()
        assert health["degraded"] and health["grown_bad"] == 2

    def test_factory_bad_blocks_do_not_count(self):
        # Factory bads were known at provisioning; only in-service growth
        # erodes the spare budget.
        mgr = BadBlockManager(GEO, [1, 2, 3], spare_blocks=4, watermark=0.5)
        assert not mgr.degraded
        mgr.check_writable()

    def test_noftl_goes_read_only_when_spares_run_out(self):
        plan = FaultPlan([FaultSpec(kind="program_fail", count=1)], seed=0)
        array, manager, storage = _sync_noftl(plan=plan, spare_watermark=0.05)
        storage.write(0, data=b"ok")  # remaps, grows one bad block
        assert manager.bad_blocks.degraded
        with pytest.raises(DegradedModeError):
            storage.write(1, data=b"refused")
        assert storage.read(0) == b"ok"  # reads keep working


class TestFASTerUnderTransientFaults:
    def test_faster_retries_through_read_noise(self):
        plan = FaultPlan([FaultSpec(kind="transient_read", rate=0.05)], seed=3)
        array = FlashArray(GEO, SLC_TIMING, rng=random.Random(13),
                           fault_plan=plan)
        executor = SyncExecutor(SyncFlashDevice(array))
        ftl = FASTer(GEO, op_ratio=0.3, bad_blocks=array.factory_bad_blocks())
        rng = random.Random(4)
        span = ftl.logical_pages // 3
        oracle = {}
        for step in range(span * 4):
            lpn = rng.randrange(span)
            executor.run(ftl.write(lpn, data=(lpn, step)))
            oracle[lpn] = (lpn, step)
        for lpn, expected in oracle.items():
            assert executor.run(ftl.read(lpn)) == expected
        assert ftl.stats.read_retries > 0


class TestChaosFullStack:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.bench.robust import run_chaos

        return run_chaos(workload_name="tpcb", duration_us=200_000.0,
                         seed=7)

    def test_chaos_run_loses_no_committed_data(self, report):
        assert report.ok, (report.pages_lost, report.pages_corrupted)
        assert report.injected.get("program_fail", 0) >= 10
        assert report.injected.get("die_outage", 0) >= 1
        assert report.injected.get("transient_read", 0) >= 1
        assert report.read_retries > 0
        assert report.scrubs > 0
        assert report.program_remaps > 0
        assert not report.degraded

    def test_pinned_numbers(self, report):
        """The chaos, crash and siege scenarios share one rig and one
        pipeline; these numbers pin it to the flash-command stream the
        chaos rig drove before it was shared."""
        assert (report.commits, report.pages_checked) == (2_807, 119)
        assert report.injected == {
            "program_fail": 12, "transient_read": 5, "latency_spike": 29,
            "erase_fail": 1, "die_outage": 117,
        }


class TestTPCCConsistency:
    def test_full_concurrent_run_stays_consistent(self):
        sim = Simulator()
        storage = RAMStorageAdapter(sim, logical_pages=60_000,
                                    latency_us=40.0)
        db = Database(sim, storage, page_bytes=2048, buffer_capacity=400,
                      cpu_us_per_op=2.0)
        db.start_writers(4, policy="global")
        workload = TPCC(warehouses=2, customers_per_district=30, items=80)
        stats = run_workload(sim, db, workload, duration_us=1_500_000,
                             num_terminals=12, rng=random.Random(9))
        assert stats.commits > 100
        assert sim.run_process(workload.verify_consistency(db))
