"""Power-cut crash consistency: wreckage model, cold-start mount path,
and regression tests for the recovery bugs the crash sweep flushed out.

Layer by layer:

* the injector's power cut fires at a deterministic command boundary and
  leaves realistic wreckage (torn page, half-erased block);
* the OOB scan rejects corrupt pages (``_read_oob`` must checksum — the
  bug was that it didn't), breaks exact ``(lpn, seq)`` ties toward the
  lowest ppn, and rebuilds bad-block state from scan evidence instead of
  trusting pre-crash host RAM;
* the WAL counts one group commit per joining flush call, not one per
  flush it happens to wait out;
* the whole pipeline: ``cold_start`` from nothing but the array and the
  durable WAL prefix, then a miniature crash sweep.
"""

import pytest

from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.db import Database, WALog, cold_start
from repro.flash import (
    EraseBlock,
    FaultPlan,
    FlashArray,
    Geometry,
    PowerCutError,
    ProgramPage,
    ReadOob,
    ReadPage,
    SLC_TIMING,
    SimExecutor,
    SimFlashDevice,
    UncorrectableError,
)
from repro.sim import Simulator

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=16,
    page_bytes=1024,
)


def make_array(plan=None) -> FlashArray:
    return FlashArray(GEO, SLC_TIMING, store_data=True, fault_plan=plan)


def make_mounted(array):
    """Fresh sim + manager + storage over ``array``; runs mount()."""
    sim = Simulator()
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25),
                                  factory_bad_blocks=array.factory_bad_blocks())
    storage = NoFTLStorage(sim, manager, executor)
    report = sim.run_process(storage.mount())
    return sim, manager, storage, report


class TestPowerCutWreckage:
    def test_cut_fires_at_exact_op_and_stays_dead(self):
        array = make_array(FaultPlan.power_cut_at(3))
        array.apply(ProgramPage(ppn=0, data=b"a", oob={"lpn": 0, "seq": 1}))
        array.apply(ProgramPage(ppn=1, data=b"b", oob={"lpn": 1, "seq": 2}))
        with pytest.raises(PowerCutError):
            array.apply(ProgramPage(ppn=2, data=b"c",
                                    oob={"lpn": 2, "seq": 3}))
        assert array.powered_off
        assert array.power_cut_op == 3
        # Until power is restored every command fails.
        with pytest.raises(PowerCutError):
            array.apply(ReadPage(ppn=0))
        array.power_cycle()
        assert not array.powered_off
        assert array.apply(ReadPage(ppn=0)).data == b"a"

    def test_in_flight_program_leaves_torn_page(self):
        array = make_array(FaultPlan.power_cut_at(2))
        array.apply(ProgramPage(ppn=0, data=b"ok", oob={"lpn": 0, "seq": 1}))
        with pytest.raises(PowerCutError):
            array.apply(ProgramPage(ppn=1, data=b"torn",
                                    oob={"lpn": 1, "seq": 2}))
        array.power_cycle()
        assert array.apply(ReadPage(ppn=0)).data == b"ok"
        # The torn page is programmed but fails ECC — on data AND OOB.
        with pytest.raises(UncorrectableError):
            array.apply(ReadPage(ppn=1))
        with pytest.raises(UncorrectableError):
            array.apply(ReadOob(ppn=1))

    def test_in_flight_erase_leaves_half_erased_block(self):
        array = make_array(FaultPlan.power_cut_at(3))
        array.apply(ProgramPage(ppn=0, data=b"x", oob={"lpn": 0, "seq": 1}))
        array.apply(ProgramPage(ppn=1, data=b"y", oob={"lpn": 1, "seq": 2}))
        with pytest.raises(PowerCutError):
            array.apply(EraseBlock(pbn=0))
        array.power_cycle()
        # Every previously programmed page of the block reads as garbage.
        for ppn in (0, 1):
            with pytest.raises(UncorrectableError):
                array.apply(ReadPage(ppn=ppn))

    def test_same_plan_leaves_identical_wreckage(self):
        def run():
            array = make_array(FaultPlan.power_cut_at(4, seed=3))
            for ppn in range(3):
                array.apply(ProgramPage(ppn=ppn, data=b"d%d" % ppn,
                                        oob={"lpn": ppn, "seq": ppn + 1}))
            with pytest.raises(PowerCutError):
                array.apply(ProgramPage(ppn=3, data=b"d3",
                                        oob={"lpn": 3, "seq": 4}))
            array.power_cycle()
            state = []
            for ppn in range(4):
                try:
                    state.append(array.apply(ReadPage(ppn=ppn)).data)
                except UncorrectableError:
                    state.append("torn")
            return state

        assert run() == run()


class TestOobChecksumRegression:
    """``_read_oob`` skipped checksum verification, so a cold scan would
    happily rebuild a mapping from a corrupt page's spare area."""

    def test_corrupt_page_oob_read_raises(self):
        array = make_array()
        array.apply(ProgramPage(ppn=0, data=b"v", oob={"lpn": 5, "seq": 1}))
        array.corrupt_page(0)
        with pytest.raises(UncorrectableError):
            array.apply(ReadOob(ppn=0))

    def test_mount_rejects_corrupt_copy_and_falls_back(self):
        array = make_array()
        # Two generations of lpn 5; the newer one got corrupted.
        array.apply(ProgramPage(ppn=0, data=b"old", oob={"lpn": 5, "seq": 1}))
        array.apply(ProgramPage(ppn=1, data=b"new", oob={"lpn": 5, "seq": 2}))
        array.corrupt_page(1)
        __, manager, storage, report = make_mounted(array)
        assert report.torn_pages == 1
        # Before the fix the scan read the corrupt OOB and mapped lpn 5
        # at the torn ppn 1; now the intact older copy wins.
        assert manager.mapping.l2p[5] == 0


class TestSeqTieBreakRegression:
    """Exact ``(lpn, seq)`` duplicates (copyback preserves the source
    OOB) were resolved by scan order; now the lowest ppn always wins."""

    def test_duplicate_seq_resolves_to_lowest_ppn(self):
        array = make_array()
        hi = GEO.ppn_of(1, 0)  # first page of block 1
        array.apply(ProgramPage(ppn=hi, data=b"copy",
                                oob={"lpn": 7, "seq": 4}))
        array.apply(ProgramPage(ppn=0, data=b"copy",
                                oob={"lpn": 7, "seq": 4}))
        __, manager, __storage, report = make_mounted(array)
        assert report.duplicate_ties == 1
        assert manager.mapping.l2p[7] == 0


class TestBadBlockRebuildRegression:
    """Suspect/quarantine sets are host-RAM state; after a crash they
    must be rebuilt from scan evidence, not trusted."""

    def test_mount_quarantines_torn_block(self):
        array = make_array(FaultPlan.power_cut_at(2))
        array.apply(ProgramPage(ppn=0, data=b"a", oob={"lpn": 0, "seq": 1}))
        with pytest.raises(PowerCutError):
            array.apply(ProgramPage(ppn=1, data=b"b",
                                    oob={"lpn": 1, "seq": 2}))
        array.power_cycle()
        __, manager, __storage, report = make_mounted(array)
        # Block 0 held the torn page: it is quarantined, reported grown
        # bad, and the rebuilt allocation never hands it out again.
        assert 0 in report.quarantined_blocks
        assert manager.bad_blocks.is_bad(0)
        assert manager.verify_integrity() == []

    def test_rebuild_allocation_clears_stale_host_state(self):
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        space = manager.regions.regions[0].space
        space.suspect_blocks.add(1)
        space.quarantined_blocks.add(2)
        space.rebuild_allocation(programmed_blocks=set())
        assert space.suspect_blocks == set()
        assert space.quarantined_blocks == set()

    def test_rebuild_allocation_seeds_quarantine_from_evidence(self):
        manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
        space = manager.regions.regions[0].space
        # Pick a block owned by this space via its planes.
        plane = next(iter(space._planes.values()))
        die, plane_index = plane.plane_id
        pbn = space.geometry.blocks_of_plane(die, plane_index)[0]
        space.rebuild_allocation(programmed_blocks={pbn},
                                 bad_blocks={pbn}, quarantined={pbn})
        assert space.quarantined_blocks == {pbn}
        # A quarantined (bad) block is neither free nor occupied.
        assert pbn not in plane.occupied
        assert pbn not in set(plane.pool.peek_free())


class TestGroupCommitAccounting:
    """``flush_to`` counted a group commit every time the caller waited
    out an in-flight flush; a commit that rides two successive flushes
    is still one group commit."""

    def test_joiner_waiting_out_two_flushes_counts_once(self):
        sim = Simulator()
        wal = WALog(sim, flush_latency_us=100.0)

        def starter():
            wal.append("update", 1)
            yield from wal.flush_to(wal.appended_lsn)

        def chaser():
            # Joins flush #1; when it lands, lsn 2 is still unflushed,
            # so it immediately starts (or joins) flush #2.
            yield sim.timeout(10)
            wal.append("update", 2)
            yield from wal.flush_to(wal.appended_lsn)

        def rider():
            # Joins flush #1 AND waits out flush #2 — one group commit.
            yield sim.timeout(20)
            yield from wal.flush_to(2)

        sim.process(starter())
        sim.process(chaser())
        sim.process(rider())
        sim.run()
        assert wal.flushed_lsn == 2
        assert wal.total_flushes == 2
        # chaser joined one flight, rider joined (up to) two flights but
        # each caller counts at most once.  Before the fix this was 3.
        assert wal.total_group_commits == 2


class TestColdStartPipeline:
    def test_cold_start_recovers_committed_rows_after_cut(self):
        # The whole run issues only a handful of flash commands (the
        # rows are tiny, each checkpoint flushes about one page), so
        # cut at op 5: mid-checkpoint, after several durable commits.
        plan = FaultPlan.power_cut_at(5)
        array = make_array(plan)
        sim = Simulator()
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(
            GEO, NoFTLConfig(op_ratio=0.25),
            factory_bad_blocks=array.factory_bad_blocks())
        storage = NoFTLStorage(sim, manager, executor)
        db = Database(sim, storage,
                      page_bytes=GEO.page_bytes, buffer_capacity=24,
                      cpu_us_per_op=1.0, wal_keep_records=True)
        heap = db.create_heap("t")

        def work():
            rids = []
            for batch in range(6):
                txn = db.begin()
                for index in range(20):
                    rid = yield from heap.insert(
                        txn, b"row-%d-%02d" % (batch, index))
                    rids.append(rid)
                yield from db.commit(txn)
                yield from db.checkpoint()  # drives flash traffic
            return rids

        with pytest.raises(PowerCutError):
            sim.run_process(work())
        assert array.powered_off
        durable_lsn = db.wal.flushed_lsn
        records = list(db.wal.records)
        committed = {r.txn_id for r in records
                     if r.kind == "commit" and r.lsn <= durable_lsn}
        expected = {}
        for r in records:
            if r.lsn <= durable_lsn and r.kind == "insert" \
                    and r.txn_id in committed:
                expected[(r.payload[1], r.payload[2])] = r.payload[3]
        assert expected, "the cut should land after at least one commit"

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        boot = cold_start(array, GEO, records, durable_lsn, rebuild,
                          config=NoFTLConfig(op_ratio=0.25),
                          buffer_capacity=24)
        assert boot.manager.verify_integrity() == []

        from repro.db import RID

        def verify():
            txn = boot.db.begin()
            values = {}
            for (page_id, slot) in expected:
                values[(page_id, slot)] = yield from boot.db.heaps["t"].read(
                    txn, RID(page_id, slot))
            yield from boot.db.commit(txn)
            return values

        values = boot.sim.run_process(verify())
        assert values == expected

    def test_cold_start_allocator_floor_ignores_precrash_ram(self):
        """The recovered allocator floor must come from the scan and the
        durable log, never the dead process's ``_next_page_id``."""
        array = make_array()
        sim = Simulator()
        executor = SimExecutor(SimFlashDevice(sim, array))
        manager = NoFTLStorageManager(
            GEO, NoFTLConfig(op_ratio=0.25),
            factory_bad_blocks=array.factory_bad_blocks())
        storage = NoFTLStorage(sim, manager, executor)
        db = Database(sim, storage,
                      page_bytes=GEO.page_bytes, buffer_capacity=24,
                      wal_keep_records=True)
        heap = db.create_heap("t")

        def work():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"one")
            yield from db.commit(txn)
            yield from db.checkpoint()
            return rid

        rid = sim.run_process(work())
        # Simulate pre-crash RAM churn recovery must not see.
        db._next_page_id += 1000

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        boot = cold_start(array, GEO, list(db.wal.records),
                          db.wal.flushed_lsn, rebuild,
                          config=NoFTLConfig(op_ratio=0.25))
        assert boot.db._next_page_id < 1000
        assert boot.db._next_page_id > rid.page_id


class TestCrashSweepSmoke:
    def test_miniature_tpcb_sweep_survives(self):
        from repro.bench.crash import run_crash_sweep

        report = run_crash_sweep("tpcb", cuts=2, duration_us=60_000.0,
                                 resume_us=20_000.0)
        assert len(report.cuts) == 2
        assert report.ok, [c.snapshot() for c in report.cuts if not c.ok]
        for cut in report.cuts:
            assert cut.fired
            assert cut.acked_commits > 0
            assert cut.resumed_commits > 0


class TestDegradedModeCut:
    """A power cut landing while ``noftl.degraded`` is latched (spare
    capacity exhausted, writes refused) must not poison recovery: the
    cold-start mount rebuilds bad-block state from scan evidence and the
    device comes back readable and integral."""

    def test_cut_while_degraded_still_mounts_clean(self):
        from repro.core.badblock import DegradedModeError
        from repro.flash import FaultSpec

        # The mount scan alone burns hundreds of flash commands, so a
        # fixed ``at_op`` cut would fire before the test body runs.
        # Arm the cut by hand once the device is degraded instead: the
        # predicate stays quiet until ``armed`` flips, then pulls the
        # plug a few commands into the degraded-mode read drain.
        trigger = {"armed": False, "countdown": 5}

        def cut_when_armed(_ops, _command):
            if not trigger["armed"]:
                return False
            trigger["countdown"] -= 1
            return trigger["countdown"] <= 0

        plan = FaultPlan([FaultSpec(kind="power_cut",
                                    predicate=cut_when_armed)])
        array = make_array(plan)
        sim, manager, storage, __ = make_mounted(array)

        def seed():
            for lpn in range(8):
                yield from storage.write(lpn, data=("v", lpn))

        sim.run_process(seed())

        # Exhaust the spare-capacity watermark: grown-bad reports are
        # host-RAM state, so pick high blocks that hold no data.
        spare = manager.bad_blocks.spare_blocks
        victim = GEO.total_blocks - 1
        while not manager.bad_blocks.degraded:
            manager.bad_blocks.report_grown(victim)
            victim -= 1
        assert victim >= GEO.total_blocks - spare - 2
        with pytest.raises(DegradedModeError):
            sim.run_process(storage.write(9, data="refused"))

        # Reads keep working in degraded mode — until the plug is
        # pulled at the scripted command boundary.
        trigger["armed"] = True
        with pytest.raises(PowerCutError):
            def drain():
                while True:
                    for lpn in range(8):
                        yield from storage.read(lpn)
            sim.run_process(drain())
        assert array.powered_off

        array.power_cycle()
        sim2, manager2, storage2, __report = make_mounted(array)
        assert manager2.verify_integrity() == []
        # Pre-cut degraded state was RAM-only: the remount starts from
        # scan evidence and serves both reads and writes again.
        assert not manager2.bad_blocks.degraded
        for lpn in range(8):
            assert sim2.run_process(storage2.read(lpn)) == ("v", lpn)
        sim2.run_process(storage2.write(9, data="post-recovery"))
        assert sim2.run_process(storage2.read(9)) == "post-recovery"
