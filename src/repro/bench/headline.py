"""Experiment E4 — the headline: live TPC throughput, NoFTL vs the
black-box FTL devices.

The paper's core claim: *"live TPC-C, -B and -H tests under Shore-MT
indicate a NoFTL performance improvement of 1.5x to 2.4x"* over the
conventional architectures (Figure 1.a/b with DFTL or FASTer behind the
block interface), specifically *"2.4x and 2.25x improvement in
transactional throughput (TPS) for TPC-C and -B"* versus FASTer.

Setup: identical flash geometry/timing and DBMS configuration; the only
variable is the storage architecture:

* ``noftl``  — native flash, host-side page mapping, trims and hints,
  per-region write concurrency, no NCQ cap (Figure 1.c);
* ``faster`` / ``dftl`` — the same flash behind a SATA-style block
  device: 32-deep NCQ, a single-controller mutex serializing FTL
  metadata work, no deallocation information.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .reporting import ratio
from .rigs import SHAPES, build_closed_loop

__all__ = ["HeadlinePoint", "HeadlineResult", "headline_throughput"]

ARCHITECTURES = ("noftl", "faster", "dftl")

#: The seed of every run.
SEED = 37


@dataclass
class HeadlinePoint:
    workload: str
    architecture: str
    tps: float
    commits: int
    p99_latency_us: float
    gc_relocations: int
    erases: int


@dataclass
class HeadlineResult:
    points: List[HeadlinePoint] = field(default_factory=list)

    def tps(self, workload: str, architecture: str) -> float:
        for point in self.points:
            if (point.workload, point.architecture) == (workload,
                                                        architecture):
                return point.tps
        raise KeyError((workload, architecture))

    def speedup(self, workload: str, over: str) -> float:
        return ratio(self.tps(workload, "noftl"), self.tps(workload, over))


def headline_throughput(
    workloads: Sequence[str] = ("tpcc", "tpcb"),
    architectures: Sequence[str] = ARCHITECTURES,
    duration_us: float = 2_000_000,
) -> HeadlineResult:
    """Run each workload on each storage architecture; report TPS.

    Every architecture runs the :data:`~repro.bench.rigs.SHAPES`
    ``"headline"`` rig, where DFTL's mapping cache scales with the
    device as real controllers' do: ~3% of the page population (a 1 GiB
    mapping table does not fit in device SRAM — Section 3.1)."""
    result = HeadlineResult()
    shape = SHAPES["headline"]
    for workload_name in workloads:
        footprint = shape.kit_footprint(workload_name)
        for architecture in architectures:
            loop = build_closed_loop(shape, workload_name, architecture,
                                     SEED, footprint=footprint)
            rig = loop.rig
            stats = loop.drive(duration_us, SEED, preloaded=False)
            maintenance = rig.manager if architecture == "noftl" \
                else rig.ftl
            result.points.append(HeadlinePoint(
                workload=workload_name,
                architecture=architecture,
                tps=stats.tps,
                commits=stats.commits,
                p99_latency_us=stats.latency.pct(99)
                if stats.latency.samples else 0.0,
                gc_relocations=maintenance.stats.gc_relocations,
                erases=rig.array.counters.erases,
            ))
    return result
