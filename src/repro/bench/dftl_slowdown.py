"""Experiment E5 — DFTL's demand-paged mapping vs pure page mapping.

Section 3.1: *"Our earlier results indicate a performance slowdown of
DFTL over pure page-level mapping (where the whole mapping table is
cached) of up to 3.7x under TPC-C and -B benchmarks."*

Both FTLs sit behind identical block devices; the only difference is
whether the page-granularity mapping table is fully resident (PageMap —
feasible only with host-class RAM, which is NoFTL's 3.1 argument) or
demand-paged through a small CMT with translation pages on flash (DFTL —
what a real controller must do).  The slowdown grows as the working set
outruns the CMT, so the sweep varies CMT capacity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from ..workloads import TPCB, TPCC, run_workload
from .reporting import ratio
from .rigs import (
    attach_database,
    build_blockdev_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = ["DFTLPoint", "DFTLResult", "dftl_slowdown"]

#: The testbed every FTL shares: terminals, dies, and the seed of every run.
NUM_TERMINALS = 16
DIES = 8
SEED = 41


@dataclass
class DFTLPoint:
    workload: str
    ftl: str
    cmt_entries: int
    tps: float
    cmt_hit_ratio: float
    map_reads: int
    map_programs: int


@dataclass
class DFTLResult:
    points: List[DFTLPoint] = field(default_factory=list)

    def slowdown(self, workload: str, cmt_entries: int) -> float:
        base = dftl = None
        for point in self.points:
            if point.workload != workload:
                continue
            if point.ftl == "pagemap":
                base = point.tps
            elif point.cmt_entries == cmt_entries:
                dftl = point.tps
        if base is None or dftl is None:
            raise KeyError((workload, cmt_entries))
        return ratio(base, dftl)

    def worst_slowdown(self, workload: str) -> float:
        candidates = [point.cmt_entries for point in self.points
                      if point.workload == workload and point.ftl == "dftl"]
        return max(self.slowdown(workload, entries)
                   for entries in candidates)


def _make_workload(name: str):
    if name == "tpcc":
        return TPCC(warehouses=4, customers_per_district=30, items=100)
    if name == "tpcb":
        return TPCB(sf=8, accounts_per_branch=400)
    raise ValueError(f"unknown workload {name!r}")


def dftl_slowdown(
    workloads: Sequence[str] = ("tpcb",),
    cmt_sizes: Sequence[int] = (64, 256, 1024),
    duration_us: float = 1_500_000,
) -> DFTLResult:
    """TPS of pure page mapping vs DFTL at several CMT capacities."""
    result = DFTLResult()
    for workload_name in workloads:
        footprint = measure_workload_footprint(_make_workload(workload_name))
        geometry = sized_geometry(footprint, DIES, utilization=0.85,
                                  headroom_pages=footprint // 2)
        buffer_capacity = max(64, footprint // 10)

        configs = [("pagemap", 0)] + [("dftl", size) for size in cmt_sizes]
        for ftl_name, cmt_entries in configs:
            rig = build_blockdev_rig(ftl_name, geometry=geometry, seed=SEED,
                                     cmt_entries=cmt_entries)
            db = attach_database(rig, buffer_capacity=buffer_capacity)
            db.start_writers(4, policy="global")
            stats = run_workload(
                rig.sim, db, _make_workload(workload_name),
                duration_us=duration_us,
                num_terminals=NUM_TERMINALS,
                rng=random.Random(SEED),
            )
            result.points.append(DFTLPoint(
                workload=workload_name,
                ftl=ftl_name,
                cmt_entries=cmt_entries,
                tps=stats.tps,
                cmt_hit_ratio=getattr(rig.ftl, "cmt_hit_ratio", 1.0),
                map_reads=rig.ftl.stats.map_reads,
                map_programs=rig.ftl.stats.map_programs,
            ))
    return result
