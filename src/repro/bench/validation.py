"""Experiment E7 — flash model validation (Demo Scenario 1).

The paper validates its real-time emulator against the OpenSSD board by
configuring it with the board's parameters and comparing benchmark
results.  The analogous check here: configure the DES flash device with
the OpenSSD-Jasmine timing spec, drive it with micro- and macro-level
jobs, and compare against the analytic reference model (the timing spec
itself plus ideal pipelining bounds):

1. per-command latency (read / program / erase / copyback) must match
   the spec to within a fraction of a percent;
2. a single-die sequential job must take exactly the serial sum;
3. an all-die parallel job must land between the perfect-pipelining
   lower bound and the serial upper bound, close to the former.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..flash import (
    Copyback,
    EraseBlock,
    FlashArray,
    Geometry,
    OPENSSD_JASMINE,
    ProgramPage,
    ReadPage,
    SimFlashDevice,
)
from ..sim import Simulator
from ..telemetry import MetricsRegistry

__all__ = ["ValidationRow", "ValidationReport", "validate_emulator"]

OPENSSD_GEOMETRY = Geometry(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=32,
    pages_per_block=32,
    page_bytes=4096,
)
#: Erases queued per die in the pipelining scenario.
PIPELINE_OPS_PER_DIE = 16


@dataclass
class ValidationRow:
    check: str
    expected_us: float
    measured_us: float

    @property
    def error_fraction(self) -> float:
        if self.expected_us == 0:
            return 0.0
        return abs(self.measured_us - self.expected_us) / self.expected_us


@dataclass
class ValidationReport:
    rows: List[ValidationRow] = field(default_factory=list)
    #: One registry shared by every scenario's flash array — the combined
    #: command counts back the CI smoke-bench artifact.
    telemetry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def max_error(self) -> float:
        return max(row.error_fraction for row in self.rows)

    def row(self, check: str) -> ValidationRow:
        for candidate in self.rows:
            if candidate.check == check:
                return candidate
        raise KeyError(check)


def validate_emulator() -> ValidationReport:
    """Run the validation scenarios on :data:`OPENSSD_GEOMETRY` with the
    OpenSSD-Jasmine timing and report expected vs measured."""
    timing, geometry = OPENSSD_JASMINE, OPENSSD_GEOMETRY
    report = ValidationReport()
    registry = report.telemetry
    page_bytes = geometry.page_bytes

    # 1. Per-command latencies on an idle device.
    per_command = {
        "read": (timing.read_latency_us(page_bytes),
                 lambda device: device.execute(ReadPage(ppn=0))),
        "program": (timing.program_latency_us(page_bytes),
                    lambda device: device.execute(
                        ProgramPage(ppn=0, data=b"v"))),
        "erase": (timing.erase_latency_us(),
                  lambda device: device.execute(EraseBlock(pbn=1))),
        "copyback": (timing.copyback_latency_us(), None),  # special below
    }

    for name in ("program", "read", "erase"):
        expected, runner = per_command[name]
        sim = Simulator()
        device = SimFlashDevice(sim, FlashArray(geometry, timing, telemetry=registry))

        def proc():
            if name != "program":
                yield from device.execute(ProgramPage(ppn=0, data=b"seed"))
            start = sim.now
            yield from runner(device)
            return sim.now - start

        measured = sim.run_process(proc())
        report.rows.append(ValidationRow(f"cmd:{name}", expected, measured))

    # copyback needs two blocks of one plane
    sim = Simulator()
    device = SimFlashDevice(sim, FlashArray(geometry, timing, telemetry=registry))
    blocks = geometry.blocks_of_plane(0, 0)

    def copyback_proc():
        yield from device.execute(
            ProgramPage(ppn=geometry.ppn_of(blocks[0], 0), data=b"m"))
        start = sim.now
        yield from device.execute(
            Copyback(src_ppn=geometry.ppn_of(blocks[0], 0),
                     dst_ppn=geometry.ppn_of(blocks[1], 0)))
        return sim.now - start

    report.rows.append(ValidationRow(
        "cmd:copyback", timing.copyback_latency_us(),
        sim.run_process(copyback_proc())))

    # 2. Serial sequence on one die == exact serial sum.
    sim = Simulator()
    device = SimFlashDevice(sim, FlashArray(geometry, timing, telemetry=registry))
    count = 8

    def serial_proc():
        start = sim.now
        for page in range(count):
            yield from device.execute(ProgramPage(ppn=page, data=page))
        return sim.now - start

    expected_serial = count * timing.program_latency_us(page_bytes)
    report.rows.append(ValidationRow(
        "serial:one-die", expected_serial, sim.run_process(serial_proc())))

    # 3. Parallel erase across all dies: channel-free, perfect overlap.
    sim = Simulator()
    device = SimFlashDevice(sim, FlashArray(geometry, timing, telemetry=registry))

    def eraser(die):
        for step in range(PIPELINE_OPS_PER_DIE):
            yield from device.execute(
                EraseBlock(pbn=geometry.blocks_of_die(die)[step]))

    for die in range(geometry.total_dies):
        sim.process(eraser(die))
    sim.run()
    expected_parallel = PIPELINE_OPS_PER_DIE * timing.erase_latency_us()
    report.rows.append(ValidationRow(
        "parallel:erase-all-dies", expected_parallel, sim.now))

    return report
