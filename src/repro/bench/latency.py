"""Experiment E6 — write-latency predictability.

Section 3 motivates NoFTL with the black-box SSD's latency profile:
*"the average 4KB random write latency on a SLC SSD is 0.450 ms, while
frequent FTL-specific outliers under heavy load can reach 80 ms"*.

The job is FIO-like (Demo Scenario 1): sustained 4 KiB random writes
over a mostly-full device.  On the block device, host writes that land
behind a FASTer log-wrap (a burst of full merges + erases behind the
single controller) observe multi-millisecond outliers; under NoFTL the
host amortizes small greedy GC steps and the tail stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core import NoFTLConfig
from ..flash import SLC_TIMING, Geometry
from ..workloads import SyntheticSpec, run_synthetic
from .rigs import build_blockdev_rig, build_noftl_rig

__all__ = ["LatencyProfile", "latency_outliers"]

#: A small SLC device so the synthetic job reaches GC steady state fast.
LATENCY_GEOMETRY = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=24,
    pages_per_block=32,
    page_bytes=4096,
)
#: Share of the logical space the random writes touch (deep in GC), and
#: the seed of both runs.
SPAN_FRACTION = 0.85
SEED = 5


@dataclass
class LatencyProfile:
    architecture: str
    mean_us: float
    p50_us: float
    p99_us: float
    p999_us: float
    max_us: float
    outliers_over_10x_mean: int
    samples: int

    @property
    def max_over_mean(self) -> float:
        return self.max_us / self.mean_us if self.mean_us else 0.0


def latency_outliers(
    ops: int = 6000,
    queue_depth: int = 4,
) -> Dict[str, LatencyProfile]:
    """Random-write latency distributions: FASTer block device vs NoFTL."""
    profiles: Dict[str, LatencyProfile] = {}

    # Black-box SSD with FASTer.
    rig = build_blockdev_rig("faster", geometry=LATENCY_GEOMETRY,
                             timing=SLC_TIMING, seed=SEED)
    span = int(rig.ftl.logical_pages * SPAN_FRACTION)
    result = run_synthetic(
        rig.sim, rig.device,
        SyntheticSpec(pattern="random", ops=ops, queue_depth=queue_depth,
                      span=span, seed=SEED),
    )
    profiles["faster"] = _profile("faster", result)

    # NoFTL on native flash.
    noftl = build_noftl_rig(geometry=LATENCY_GEOMETRY, timing=SLC_TIMING,
                            config=NoFTLConfig(op_ratio=0.12), seed=SEED)
    span = int(noftl.storage.logical_pages * SPAN_FRACTION)
    result = run_synthetic(
        noftl.sim, noftl.storage,
        SyntheticSpec(pattern="random", ops=ops, queue_depth=queue_depth,
                      span=span, seed=SEED),
    )
    profiles["noftl"] = _profile("noftl", result)
    return profiles


def _profile(architecture: str, result) -> LatencyProfile:
    recorder = result.write_latency
    return LatencyProfile(
        architecture=architecture,
        mean_us=recorder.mean,
        p50_us=recorder.pct(50),
        p99_us=recorder.pct(99),
        p999_us=recorder.pct(99.9),
        max_us=recorder.maximum,
        outliers_over_10x_mean=recorder.outliers_over(10 * recorder.mean),
        samples=recorder.count,
    )
