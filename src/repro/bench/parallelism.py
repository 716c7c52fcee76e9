"""Experiment E8 — interface concurrency: SATA NCQ vs native flash.

Section 3.2: *"SATA2 allows for at most 32 concurrent I/O commands;
whereas a commodity Flash SSD with 8 to 10 chips is able to execute up
to 160 concurrent I/Os (8-16 commands/chip)"*.

The job: random page reads (translated identically by both paths, and
lock-free on both, so the *interface* is the only difference) at
increasing submitter counts against

* the block device (NCQ capacity 32 — extra submitters queue at the
  host interface), and
* the native flash device (no interface cap; concurrency is bounded
  only by dies and channels).

The device has more parallel units than NCQ slots (64 dies over 8
channels, the "8-16 commands/chip x 8-10 chips" arithmetic of the
paper), and the job stays inside free capacity so garbage collection
never confounds the interface comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..flash import Geometry, TLC_TIMING
from ..workloads import SyntheticSpec, run_synthetic
from .rigs import build_blockdev_rig, build_noftl_rig

__all__ = ["ParallelismPoint", "ParallelismResult", "interface_parallelism"]

#: 64 dies over 8 channels: device parallelism well beyond SATA2's 32.
PARALLELISM_GEOMETRY = Geometry(
    channels=8,
    chips_per_channel=2,
    dies_per_chip=4,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=32,
    page_bytes=2048,
)
#: SATA2's command-queue depth, the block interface's cap.
NCQ_DEPTH = 32
SEED = 3


@dataclass
class ParallelismPoint:
    interface: str
    queue_depth: int
    iops: float
    mean_latency_us: float


@dataclass
class ParallelismResult:
    dies: int
    points: List[ParallelismPoint] = field(default_factory=list)

    def iops_series(self, interface: str) -> List[float]:
        return [point.iops for point in self.points
                if point.interface == interface]

    def iops_at(self, interface: str, queue_depth: int) -> float:
        for point in self.points:
            if (point.interface, point.queue_depth) == (interface,
                                                        queue_depth):
                return point.iops
        raise KeyError((interface, queue_depth))


def interface_parallelism(
    queue_depths: Sequence[int] = (1, 8, 32, 64, 128),
    ops_per_depth: int = 3000,
) -> ParallelismResult:
    """Read IOPS vs submitter count for the two interfaces, on
    :data:`PARALLELISM_GEOMETRY` with TLC timing."""
    geometry = PARALLELISM_GEOMETRY
    result = ParallelismResult(dies=geometry.total_dies)
    # Touch a modest span so the prefill never triggers GC on either path.
    span_fraction = 0.25
    for queue_depth in queue_depths:
        # Legacy interface: FTL behind an NCQ-limited block device.
        rig = build_blockdev_rig("pagemap", geometry=geometry,
                                 timing=TLC_TIMING,
                                 ncq_depth=NCQ_DEPTH, seed=SEED)
        span = int(rig.ftl.logical_pages * span_fraction)
        outcome = run_synthetic(
            rig.sim, rig.device,
            SyntheticSpec(pattern="random", read_fraction=1.0,
                          ops=ops_per_depth, queue_depth=queue_depth,
                          span=span, seed=SEED),
        )
        result.points.append(ParallelismPoint(
            "block-ncq32", queue_depth, outcome.iops,
            outcome.read_latency.mean))

        # Native interface through NoFTL: per-region concurrency, no cap.
        noftl = build_noftl_rig(geometry=geometry, timing=TLC_TIMING,
                                seed=SEED)
        span = int(noftl.storage.logical_pages * span_fraction)
        outcome = run_synthetic(
            noftl.sim, noftl.storage,
            SyntheticSpec(pattern="random", read_fraction=1.0,
                          ops=ops_per_depth, queue_depth=queue_depth,
                          span=span, seed=SEED),
        )
        result.points.append(ParallelismPoint(
            "native-flash", queue_depth, outcome.iops,
            outcome.read_latency.mean))
    return result
