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

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from ..core import NoFTLConfig
from ..workloads import TPCB, TPCC, TPCE, TPCH, run_workload
from .reporting import ratio
from .rigs import (
    attach_database,
    build_blockdev_rig,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = ["HeadlinePoint", "HeadlineResult", "headline_throughput"]

ARCHITECTURES = ("noftl", "faster", "dftl")

#: The testbed every architecture shares: terminals, db-writers, dies
#: and device utilization; and the seed of every run.
NUM_TERMINALS = 16
NUM_WRITERS = 8
DIES = 8
UTILIZATION = 0.88
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


def _make_workload(name: str):
    if name == "tpcc":
        return TPCC(warehouses=4, customers_per_district=30, items=100)
    if name == "tpcb":
        return TPCB(sf=8, accounts_per_branch=400)
    if name == "tpce":
        return TPCE(customers=400, securities=60)
    if name == "tpch":
        return TPCH(customers=60, orders=300)
    raise ValueError(f"unknown workload {name!r}")


def headline_throughput(
    workloads: Sequence[str] = ("tpcc", "tpcb"),
    architectures: Sequence[str] = ARCHITECTURES,
    duration_us: float = 2_000_000,
) -> HeadlineResult:
    """Run each workload on each storage architecture; report TPS."""
    result = HeadlineResult()
    for workload_name in workloads:
        footprint = measure_workload_footprint(_make_workload(workload_name))
        geometry = sized_geometry(footprint, DIES, utilization=UTILIZATION,
                                  headroom_pages=footprint // 2)
        buffer_capacity = max(64, footprint // 8)
        for architecture in architectures:
            if architecture == "noftl":
                rig = build_noftl_rig(
                    geometry=geometry,
                    config=NoFTLConfig(num_regions=DIES, op_ratio=0.12),
                    seed=SEED,
                )
                stats_source = rig.manager.stats
            else:
                # DFTL scales its CMT with the device as real controllers
                # do: ~3% of the page population (a 1 GiB mapping table
                # does not fit in device SRAM — Section 3.1).
                rig = build_blockdev_rig(
                    architecture, geometry=geometry, seed=SEED,
                    cmt_entries=max(128, geometry.total_pages // 32))
                stats_source = rig.ftl.stats
            db = attach_database(rig, buffer_capacity=buffer_capacity,
                                 foreground_flush=False)
            db.start_writers(
                NUM_WRITERS,
                policy="region" if architecture == "noftl" else "global",
            )
            stats = run_workload(
                rig.sim, db, _make_workload(workload_name),
                duration_us=duration_us,
                num_terminals=NUM_TERMINALS,
                rng=random.Random(SEED),
            )
            result.points.append(HeadlinePoint(
                workload=workload_name,
                architecture=architecture,
                tps=stats.tps,
                commits=stats.commits,
                p99_latency_us=stats.latency.pct(99)
                if stats.latency.samples else 0.0,
                gc_relocations=stats_source.gc_relocations,
                erases=rig.array.counters.erases,
            ))
    return result
