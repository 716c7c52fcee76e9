"""Fault-path parity pin: the exact flash command stream under faults.

Hot callers yield a command's first attempt themselves and hand a flash
error to the shared recovery code (``failed=`` on the retry generators,
or the read + program fallback of a copyback).  A handoff that drops,
adds or reorders a single command changes what the array sees, so these
tests record every command the array is asked to execute — type,
address, origin and whether it raised — and pin the stream's digest.

The digests were recorded against the generator-per-attempt form of the
retry paths; any change to a recovery path must reproduce them or
re-record them on purpose.  ``faster_mixed`` was re-recorded when FASTer
lost its SW log and began waiting out die outages on its host and
migration programs (landing each at a fresh log slot); the earlier
FASTer, run without its SW log at the same log fraction and with only
that wait added, reproduces it.
"""

import hashlib
import random

import pytest

from repro.flash import (
    Copyback,
    EraseBlock,
    FaultPlan,
    FaultSpec,
    FlashArray,
    FlashError,
    Pause,
    SLC_TIMING,
    SyncExecutor,
    SyncFlashDevice,
    UncorrectableError,
)
from repro.ftl import FASTer

from tests.test_failure_injection import GEO, _sync_noftl

#: sha256 of the recorded command stream, per scenario.
DIGESTS = {
    "noftl_mixed": "a2f38210ccac152a334280e4a4fe176f278c5d5a6158b9196c073b0e6d0351f8",
    "faster_mixed": "4857ac056df2949c3edff58920cd1e5bd89708b51ed7ef32db21619156fa1aa7",
    "gc_copyback_program_fail": "d0166496fc531381f65e98bd4ab58d86bed3c88f5a05682a4d651ac79d35b4cf",
    "gc_copyback_outage": "0bbaf9b12ccd24e4d02a4a289b6a4209d6eb89aa5d1d935ba128dd2a35219ddd",
}


def _address(command):
    if isinstance(command, Copyback):
        return (command.src_ppn, command.dst_ppn)
    if isinstance(command, EraseBlock):
        return (command.pbn,)
    if isinstance(command, Pause):
        return (command.duration_us,)
    return (command.ppn,)


def _record(array):
    """Log (type, address, origin, outcome) of every command ``array``
    executes from now on; returns the live log."""
    log = []
    apply = array.apply

    def recording_apply(command):
        ctx = command.ctx
        entry = [type(command).__name__, _address(command),
                 ctx.origin if ctx is not None else "host", "ok"]
        log.append(entry)
        try:
            return apply(command)
        except FlashError as exc:
            entry[3] = type(exc).__name__
            raise

    array.apply = recording_apply
    return log


def _digest(log) -> str:
    return hashlib.sha256(repr([tuple(entry) for entry in log]).encode()).hexdigest()


def _write_read_mix(write, read, span, steps, seed, verify=True):
    """Seeded overwrites of ``span`` pages with a read after every third
    write (checked against the last acknowledged value when ``verify``).
    Returns those values and the number of writes that failed with a
    flash error."""
    rng = random.Random(seed)
    oracle = {}
    failed_writes = 0
    for step in range(steps):
        lpn = rng.randrange(span)
        try:
            write(lpn, (lpn, step))
        except FlashError:
            failed_writes += 1
            oracle.pop(lpn, None)  # the page's content is now unknown
        else:
            oracle[lpn] = (lpn, step)
        if step % 3 == 0:
            probe = rng.randrange(span)
            try:
                value = read(probe)
            except UncorrectableError:
                continue  # lost every retry roll; the page stays mapped
            if verify and probe in oracle:
                assert value == oracle[probe]
    return oracle, failed_writes


def _mixed_plan():
    """One seeded plan with every recoverable fault kind."""
    return FaultPlan([
        FaultSpec(kind="transient_read", rate=0.04),
        FaultSpec(kind="program_fail", rate=0.01, count=4),
        FaultSpec(kind="die_outage", die=0, window=(900, 960)),
        FaultSpec(kind="die_outage", die=1, window=(2500, 2530)),
        FaultSpec(kind="erase_fail", rate=0.05, count=2),
    ], seed=17)


def _faults(log, command, origins, errors=("UncorrectableError", "DieOutageError")):
    return [entry for entry in log
            if entry[0] == command and entry[2] in origins and entry[3] in errors]


class TestMixedPlanStreams:
    def test_noftl(self):
        array, manager, storage = _sync_noftl(plan=_mixed_plan())
        log = _record(array)
        span = manager.logical_pages * 3 // 4
        oracle, failed_writes = _write_read_mix(
            lambda lpn, data: storage.write(lpn, data=data),
            storage.read, span, span * 8, seed=5)
        assert failed_writes == 0  # NoFTL recovers every write
        fired = array.fault_injector.injected_counts()
        assert {"transient_read", "program_fail", "die_outage", "erase_fail"} <= set(fired)
        # Every inline first attempt met a fault at least once.
        assert _faults(log, "ReadPage", ("host",))
        assert _faults(log, "ProgramPage", ("host",), ("ProgramError", "DieOutageError"))
        assert _faults(log, "Copyback", ("gc",))
        assert _digest(log) == DIGESTS["noftl_mixed"]

    def test_faster(self):
        array = FlashArray(GEO, SLC_TIMING, rng=random.Random(13), fault_plan=_mixed_plan())
        executor = SyncExecutor(SyncFlashDevice(array))
        ftl = FASTer(GEO, op_ratio=0.3, bad_blocks=array.factory_bad_blocks())
        log = _record(array)
        span = ftl.logical_pages // 2
        # FASTer remaps no failed program: the write (or the merge it ran)
        # fails and may lose pages, so values go unchecked; the stream
        # still pins what the retry paths did.
        _write_read_mix(
            lambda lpn, data: executor.run(ftl.write(lpn, data=data)),
            lambda lpn: executor.run(ftl.read(lpn)), span, span * 6, seed=4,
            verify=False)
        fired = array.fault_injector.injected_counts()
        assert {"transient_read", "die_outage"} <= set(fired)
        assert _faults(log, "ReadPage", ("host",))
        assert _faults(log, "Copyback", ("merge",))
        assert ftl.stats.merges_full > 0
        # A host program a die outage rejects is waited out, so no write
        # fails on an outage: the next host command other than a Pause or
        # a further rejected program lands the page, at a fresh slot.
        outages = _faults(log, "ProgramPage", ("host",), ("DieOutageError",))
        assert outages
        for entry in outages:
            landed = next(
                item for item in log[_index_of(log, entry) + 1:]
                if item[2] == "host" and item[0] != "Pause"
                and not (item[0] == "ProgramPage" and item[3] == "DieOutageError"))
            assert landed[0] == "ProgramPage" and landed[3] == "ok"
            assert landed[1] != entry[1]
        assert _digest(log) == DIGESTS["faster_mixed"]


def _index_of(log, entry) -> int:
    """Position of ``entry`` itself (not an equal one) in ``log``."""
    return next(index for index, item in enumerate(log) if item is entry)


def _first_gc_copyback():
    """Op index (the injector's count) and die of the first GC COPYBACK
    of the seeded NoFTL fill below, found by a fault-free spy pass."""
    array, manager, storage = _sync_noftl(gc_low_water=GC_LOW_WATER)
    ops = []
    apply = array.apply

    def spy(command):
        result = apply(command)
        if isinstance(command, Copyback) and not ops:
            ops.append((array.fault_injector.ops, result.die))
        return result

    array.apply = spy
    _fill(storage, manager)
    assert ops, "the fill never reached GC"
    return ops[0]


#: One spare block beyond the minimum, so a GC frontier lost to a program
#: failure can be replaced on this small geometry.
GC_LOW_WATER = 3


def _fill(storage, manager):
    rng = random.Random(6)
    span = int(manager.logical_pages * 0.75)
    oracle = {}
    for step in range(span * 3):
        lpn = rng.randrange(span)
        storage.write(lpn, data=(lpn, step))
        oracle[lpn] = (lpn, step)
    return oracle


class TestGCCopybackHandoffs:
    @pytest.fixture(scope="class")
    def first_copyback(self):
        return _first_gc_copyback()

    def test_destination_program_fail_quarantines_and_redoes_the_copy(self, first_copyback):
        op, die = first_copyback
        plan = FaultPlan([FaultSpec(kind="program_fail", window=(op, op + 1))], seed=0)
        array, manager, storage = _sync_noftl(plan=plan, gc_low_water=GC_LOW_WATER)
        log = _record(array)
        oracle = _fill(storage, manager)
        failed = [entry for entry in log if entry[3] == "ProgramError"]
        assert len(failed) == 1 and failed[0][0] == "Copyback" and failed[0][2] == "gc"
        src, dst = failed[0][1]
        # The same source page is copied again, to a fresh destination in
        # another block, by the very next command.
        redo = log[log.index(failed[0]) + 1]
        assert redo[0] == "Copyback" and redo[1][0] == src
        assert GEO.block_of_ppn(redo[1][1]) != GEO.block_of_ppn(dst)
        assert manager.stats.program_remaps == 1
        assert manager.stats.grown_bad_blocks == 1
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected
        assert _digest(log) == DIGESTS["gc_copyback_program_fail"]

    def test_die_outage_falls_back_to_read_and_program(self, first_copyback):
        op, die = first_copyback
        plan = FaultPlan([FaultSpec(kind="die_outage", die=die, window=(op, op + 1))], seed=0)
        array, manager, storage = _sync_noftl(plan=plan, gc_low_water=GC_LOW_WATER)
        log = _record(array)
        oracle = _fill(storage, manager)
        failed = [entry for entry in log if entry[3] != "ok"]
        assert len(failed) == 1 and failed[0][:3] == ["Copyback", failed[0][1], "gc"]
        assert failed[0][3] == "DieOutageError"
        src, dst = failed[0][1]
        # The handoff: READ PAGE of the source, PAGE PROGRAM of the same
        # destination, both charged to GC.
        index = log.index(failed[0])
        assert log[index + 1] == ["ReadPage", (src,), "gc", "ok"]
        assert log[index + 2] == ["ProgramPage", (dst,), "gc", "ok"]
        assert manager.stats.gc_reads == manager.stats.gc_programs == 1
        for lpn, expected in oracle.items():
            assert storage.read(lpn) == expected
        assert _digest(log) == DIGESTS["gc_copyback_outage"]
