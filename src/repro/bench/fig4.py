"""Experiment E2/E3 — Figure 4: transaction throughput with global vs
flash-aware (die-wise) assignment of db-writers.

Setup mirrors the figure's caption: a fixed-capacity drive re-sliced
over 1..32 NAND dies, 16 read processes, and as many db-writers as dies.
The only variable is the assignment policy:

* *global*: every db-writer draws from one shared dirty-page queue, so
  several writers routinely target the same die and queue behind each
  other (and behind the region's allocation lock);
* *die-wise*: each db-writer owns one region (= die); no two writers
  ever compete for a chip.

Paper's result: die-wise ≥ global everywhere, the gap growing with the
die count, up to 1.5x (TPC-C) / 1.43x (TPC-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from .reporting import ratio
from .rigs import SHAPES, build_closed_loop

__all__ = ["Fig4Point", "Fig4Result", "fig4_dbwriters"]

#: The seed of every run.
SEED = 23


@dataclass
class Fig4Point:
    dies: int
    policy: str
    tps: float
    dirty_eviction_stalls: int
    region_lock_waits: int


@dataclass
class Fig4Result:
    workload: str
    dies_list: List[int]
    points: List[Fig4Point] = field(default_factory=list)

    def tps_series(self, policy: str) -> List[float]:
        return [point.tps for point in self.points if point.policy == policy]

    def speedup_at(self, dies: int) -> float:
        by_policy: Dict[str, float] = {
            point.policy: point.tps
            for point in self.points if point.dies == dies
        }
        return ratio(by_policy["region"], by_policy["global"])


def fig4_dbwriters(
    workload_name: str = "tpcc",
    dies_list: Sequence[int] = (1, 2, 4, 8, 16, 32),
    duration_us: float = 2_000_000,
) -> Fig4Result:
    """Sweep die counts × assignment policies; writers = dies.

    The drive is re-sized to hold the workload's footprint at ~85%
    utilization for every die count (the paper keeps a fixed 10 GB drive
    while varying dies), so flash GC stays active.  The buffer pool is
    warm (footprint-sized) and a dirty-page throttle couples transaction
    admission to db-writer cleaning throughput — Shore-MT's checkpoint /
    log-recycling back-pressure — which is exactly the channel through
    which writer-to-chip contention reaches TPS in the paper
    (:data:`~repro.bench.rigs.SHAPES` ``"fig4"``, re-sliced per point).
    """
    footprint = SHAPES["fig4"].kit_footprint(workload_name)
    result = Fig4Result(workload_name, list(dies_list))
    for dies in dies_list:
        shape = replace(SHAPES["fig4"], dies=dies, writers=dies)
        for policy in ("global", "region"):
            loop = build_closed_loop(shape, workload_name, "noftl", SEED,
                                     policy=policy, footprint=footprint)
            stats = loop.drive(duration_us, SEED, preloaded=False)
            result.points.append(Fig4Point(
                dies=dies,
                policy=policy,
                tps=stats.tps,
                dirty_eviction_stalls=loop.db.buffer.dirty_eviction_stalls,
                region_lock_waits=loop.rig.storage.region_lock_contention()[
                    "total_waits"],
            ))
    return result
