"""Tests for the device front-ends and executors (sync + DES)."""

import pytest

from repro.flash import (
    Copyback,
    EraseBlock,
    FlashArray,
    Geometry,
    Identify,
    ProgramPage,
    ReadPage,
    ReadUnwrittenError,
    SimExecutor,
    SimFlashDevice,
    SLC_TIMING,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.sim import Simulator

GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=4,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=4,
    page_bytes=1024,
)


def _die_busy_us(device):
    return device.telemetry.series("flash.busy_us", "die")


class TestSyncDevice:
    def test_execute_and_busy_accounting(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        device.execute(ProgramPage(ppn=0, data=b"a"))
        device.execute(ReadPage(ppn=0))
        assert device.serial_us > 0
        assert _die_busy_us(device)[0] == pytest.approx(device.serial_us)
        assert device.elapsed_us == _die_busy_us(device)[0]

    def test_elapsed_is_max_over_dies(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        device.execute(ProgramPage(ppn=0, data=b"a"))
        ppn_die1 = GEO.ppn_of(GEO.blocks_of_die(1)[0], 0)
        device.execute(ProgramPage(ppn=ppn_die1, data=b"b"))
        device.execute(ProgramPage(ppn=1, data=b"c"))
        busy = _die_busy_us(device)
        assert device.elapsed_us == pytest.approx(busy[0])
        assert busy[0] > busy[1] > 0
        assert device.serial_us == pytest.approx(sum(busy.values()))


class TestSyncExecutor:
    def test_runs_operation_and_returns_value(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        executor = SyncExecutor(device)

        def op():
            yield ProgramPage(ppn=0, data=b"v1")
            result = yield ReadPage(ppn=0)
            return result.data

        assert executor.run(op()) == b"v1"

    def test_flash_error_thrown_into_operation(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        executor = SyncExecutor(device)

        def op():
            try:
                yield ReadPage(ppn=0)
            except ReadUnwrittenError:
                yield ProgramPage(ppn=0, data=b"recovered")
                result = yield ReadPage(ppn=0)
                return result.data
            return None

        assert executor.run(op()) == b"recovered"

    def test_unhandled_flash_error_propagates(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        executor = SyncExecutor(device)

        def op():
            yield ReadPage(ppn=0)

        with pytest.raises(ReadUnwrittenError):
            executor.run(op())

    def test_non_command_yield_rejected(self):
        device = SyncFlashDevice(FlashArray(GEO, SLC_TIMING))
        executor = SyncExecutor(device)

        def op():
            yield "not-a-command"

        with pytest.raises(TypeError):
            executor.run(op())


class TestSimDevice:
    def test_single_command_takes_model_latency(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))

        def proc():
            result = yield from device.execute(ProgramPage(ppn=0, data=b"x"))
            return result

        sim.run_process(proc())
        expected = SLC_TIMING.program_latency_us(GEO.page_bytes)
        assert sim.now == pytest.approx(expected)

    def test_same_die_commands_serialize(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))
        finish = []

        def writer(ppn):
            yield from device.execute(ProgramPage(ppn=ppn, data=b"x"))
            finish.append(sim.now)

        sim.process(writer(0))
        sim.process(writer(1))  # same block -> same die
        sim.run()
        one_op = SLC_TIMING.program_latency_us(GEO.page_bytes)
        assert finish[0] == pytest.approx(one_op)
        assert finish[1] == pytest.approx(2 * one_op)

    def test_different_dies_overlap(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))
        finish = []

        def writer(die):
            ppn = GEO.ppn_of(GEO.blocks_of_die(die)[0], 0)
            yield from device.execute(ProgramPage(ppn=ppn, data=b"x"))
            finish.append(sim.now)

        for die in range(4):
            sim.process(writer(die))
        sim.run()
        one_op = SLC_TIMING.program_latency_us(GEO.page_bytes)
        # Programs to 4 dies share a single channel; only the bus transfer
        # serializes, the tPROG phases overlap.
        transfer = SLC_TIMING.cmd_overhead_us + SLC_TIMING.transfer_us(GEO.page_bytes)
        expected_last = 4 * transfer + SLC_TIMING.program_us
        assert finish[-1] == pytest.approx(expected_last)
        assert finish[-1] < 4 * one_op  # clearly better than serial

    def test_erases_on_different_dies_fully_overlap(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))

        def eraser(die):
            yield from device.execute(EraseBlock(pbn=GEO.blocks_of_die(die)[0]))

        for die in range(4):
            sim.process(eraser(die))
        sim.run()
        assert sim.now == pytest.approx(SLC_TIMING.erase_latency_us())

    def test_die_utilization_reporting(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))

        def writer():
            yield from device.execute(ProgramPage(ppn=0, data=b"x"))

        sim.process(writer())
        sim.run()
        utilization = device.die_utilization()
        assert utilization[0] == pytest.approx(1.0)
        assert utilization[1] == 0.0

    def test_identify_in_des(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))

        def proc():
            result = yield from device.execute(Identify())
            return result.data["total_dies"]

        assert sim.run_process(proc()) == 4


class TestSimExecutor:
    def test_operation_runs_in_des(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))
        executor = SimExecutor(device)

        def op():
            yield ProgramPage(ppn=0, data=b"z")
            result = yield ReadPage(ppn=0)
            return result.data

        def proc():
            value = yield from executor.run(op())
            return value

        assert sim.run_process(proc()) == b"z"
        assert sim.now > 0

    def test_error_handling_inside_des_operation(self):
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(GEO, SLC_TIMING))
        executor = SimExecutor(device)

        def op():
            try:
                yield ReadPage(ppn=0)
            except ReadUnwrittenError:
                return "handled"
            return "unexpected"

        def proc():
            value = yield from executor.run(op())
            return value

        assert sim.run_process(proc()) == "handled"

    def test_copyback_occupies_die_once(self):
        sim = Simulator()
        array = FlashArray(GEO, SLC_TIMING)
        device = SimFlashDevice(sim, array)
        executor = SimExecutor(device)
        blocks = GEO.blocks_of_plane(0, 0)

        def op():
            yield ProgramPage(ppn=GEO.ppn_of(blocks[0], 0), data=b"m")
            yield Copyback(src_ppn=GEO.ppn_of(blocks[0], 0),
                           dst_ppn=GEO.ppn_of(blocks[1], 0))

        def proc():
            yield from executor.run(op())

        sim.run_process(proc())
        assert array.counters.copybacks == 1
        expected = (SLC_TIMING.program_latency_us(GEO.page_bytes)
                    + SLC_TIMING.copyback_latency_us())
        assert sim.now == pytest.approx(expected)
