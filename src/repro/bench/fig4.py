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

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core import NoFTLConfig
from ..workloads import TPCB, TPCC, run_workload
from .reporting import ratio
from .rigs import (
    attach_database,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = ["Fig4Point", "Fig4Result", "fig4_dbwriters"]

#: The figure's 16 read processes, and the seed of every run.
NUM_READERS = 16
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


def _make_workload(name: str):
    # Scaled-down renditions of the figure's captions (sf=50 TPC-C,
    # sf=500 TPC-B): enough branches/warehouses that row locks never cap
    # throughput before the storage does.
    if name == "tpcc":
        return TPCC(warehouses=8, customers_per_district=30, items=100)
    if name == "tpcb":
        return TPCB(sf=16, accounts_per_branch=400)
    raise ValueError(f"unknown workload {name!r}")


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
    which writer-to-chip contention reaches TPS in the paper.
    """
    footprint = measure_workload_footprint(_make_workload(workload_name))
    # headroom for tables that grow during the run (orders, history)
    headroom = footprint // 2
    result = Fig4Result(workload_name, list(dies_list))
    for dies in dies_list:
        for policy in ("global", "region"):
            rig = build_noftl_rig(
                geometry=sized_geometry(footprint, dies,
                                        utilization=0.85,
                                        headroom_pages=headroom,
                                        pages_per_block=16),
                config=NoFTLConfig(num_regions=dies, op_ratio=0.12),
                seed=SEED,
            )
            db = attach_database(rig,
                                 buffer_capacity=footprint + headroom,
                                 cpu_us_per_op=1.0,
                                 wal_flush_latency_us=60.0,
                                 foreground_flush=False,
                                 dirty_throttle_fraction=0.10)
            db.start_writers(dies, policy=policy)
            workload = _make_workload(workload_name)
            stats = run_workload(
                rig.sim, db, workload,
                duration_us=duration_us,
                num_terminals=NUM_READERS,
                rng=random.Random(SEED),
            )
            result.points.append(Fig4Point(
                dies=dies,
                policy=policy,
                tps=stats.tps,
                dirty_eviction_stalls=db.buffer.dirty_eviction_stalls,
                region_lock_waits=rig.storage.region_lock_contention()[
                    "total_waits"],
            ))
    return result
