"""NAND timing models.

Latencies in microseconds, in line with published datasheet figures for the
NAND generations of the paper's era (2013-2015).  The values matter only in
ratio: what the evaluation measures is *relative* throughput and latency
between storage architectures driven by identical timing parameters.

``OPENSSD_JASMINE`` approximates the Samsung K9 MLC parts on the OpenSSD
Jasmine board that the paper ported NoFTL to; the emulator-validation bench
(E7) configures the DES flash model with these values and compares it to an
analytic reference, mirroring the paper's Demo Scenario 1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TimingSpec",
    "SLC_TIMING",
    "MLC_TIMING",
    "TLC_TIMING",
    "OPENSSD_JASMINE",
    "TIMING_PRESETS",
]


@dataclass(frozen=True)
class TimingSpec:
    """Latency parameters of one NAND type plus its interface bus.

    ``bus_mb_per_s`` models the per-channel ONFI-style data bus; transfer
    time scales with the payload.  Copyback skips the bus entirely (the
    page moves through the on-die register), which is why the paper counts
    it separately from reads+programs.
    """

    name: str
    read_us: float      # tR: cell array -> page register
    program_us: float   # tPROG: page register -> cell array
    erase_us: float     # tBERS: whole-block erase
    bus_mb_per_s: float  # channel transfer rate
    #: Command/address cycles, chip enable, etc.: the same on every part.
    cmd_overhead_us = 1.0

    def __post_init__(self):
        for field_name in ("read_us", "program_us", "erase_us", "bus_mb_per_s"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    def transfer_us(self, nbytes: int) -> float:
        """Bus time to move ``nbytes`` over the channel."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return nbytes / self.bus_mb_per_s  # MB/s == bytes/us

    def read_latency_us(self, nbytes: int) -> float:
        """Full page read: array sense plus bus transfer to the host."""
        return self.cmd_overhead_us + self.read_us + self.transfer_us(nbytes)

    def program_latency_us(self, nbytes: int) -> float:
        """Full page program: bus transfer from host plus cell programming."""
        return self.cmd_overhead_us + self.transfer_us(nbytes) + self.program_us

    def erase_latency_us(self) -> float:
        return self.cmd_overhead_us + self.erase_us

    def copyback_latency_us(self) -> float:
        """On-die page move: read into register + program, no bus transfer."""
        return self.cmd_overhead_us + self.read_us + self.program_us


# Datasheet-class presets.  bus at 100 MB/s ~ asynchronous/ONFI-1 era parts,
# matching the paper's commodity-SSD framing.
SLC_TIMING = TimingSpec("SLC", read_us=25.0, program_us=200.0, erase_us=1500.0, bus_mb_per_s=100.0)
MLC_TIMING = TimingSpec("MLC", read_us=50.0, program_us=600.0, erase_us=3000.0, bus_mb_per_s=100.0)
TLC_TIMING = TimingSpec("TLC", read_us=75.0, program_us=900.0, erase_us=4500.0, bus_mb_per_s=100.0)
OPENSSD_JASMINE = TimingSpec("OpenSSD-Jasmine", read_us=60.0, program_us=800.0,
                             erase_us=3500.0, bus_mb_per_s=133.0)

TIMING_PRESETS = {spec.name: spec for spec in (SLC_TIMING, MLC_TIMING, TLC_TIMING, OPENSSD_JASMINE)}
