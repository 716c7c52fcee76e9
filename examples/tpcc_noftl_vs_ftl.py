#!/usr/bin/env python3
"""Head-to-head: TPC-C on NoFTL vs the same flash behind black-box FTLs.

A compact version of the paper's headline demonstration (Section 4,
Demo Scenario 2): the audience picks a TPC benchmark, the testbed runs
it against

  * Figure 1.c — NoFTL on native flash (die-wise regions, trims, hints),
  * Figure 1.a/b — the identical NAND behind a SATA-style block device
    with the FASTer or DFTL on-device FTL,

and compares transactions per second plus the maintenance I/O behind
them.

Run:  python examples/tpcc_noftl_vs_ftl.py [duration_seconds]
"""

import random
import sys

from repro.bench import (
    attach_database,
    build_blockdev_rig,
    build_noftl_rig,
    measure_workload_footprint,
    render_table,
    sized_geometry,
)
from repro.core import NoFTLConfig
from repro.workloads import TPCC, run_workload


def run_architecture(architecture: str, duration_us: float):
    workload = TPCC(warehouses=4, customers_per_district=30, items=100)
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(footprint, dies=8, utilization=0.88,
                              headroom_pages=footprint // 2)
    if architecture == "noftl":
        rig = build_noftl_rig(geometry=geometry,
                              config=NoFTLConfig(num_regions=8,
                                                 op_ratio=0.12))
        stats = rig.manager.stats
    else:
        # DFTL scales its CMT with the device (~3% of pages), as on real
        # controllers — see repro.bench.headline
        rig = build_blockdev_rig(
            architecture, geometry=geometry,
            cmt_entries=max(128, geometry.total_pages // 32))
        stats = rig.ftl.stats
    db = attach_database(rig, buffer_capacity=max(64, footprint // 8),
                         foreground_flush=False)
    db.start_writers(8, policy="region" if architecture == "noftl"
                     else "global")
    outcome = run_workload(rig.sim, db, workload, duration_us=duration_us,
                           num_terminals=16, rng=random.Random(11))
    return {
        "architecture": architecture,
        "tps": round(outcome.tps, 1),
        "commits": outcome.commits,
        "p99_ms": round(outcome.latency.pct(99) / 1000.0, 2)
        if outcome.latency.samples else 0.0,
        "gc_relocations": stats.gc_relocations,
        "erases": rig.array.counters.erases,
        "write_amp": round(stats.write_amplification, 2),
    }


def main():
    duration_us = float(sys.argv[1]) * 1e6 if len(sys.argv) > 1 else 1.5e6
    results = []
    for architecture in ("noftl", "faster", "dftl"):
        print(f"running TPC-C on {architecture} ...")
        results.append(run_architecture(architecture, duration_us))

    print(render_table(
        "TPC-C: NoFTL vs black-box flash (identical NAND underneath)",
        ["architecture", "TPS", "commits", "p99 (ms)",
         "GC relocations", "erases", "write amp."],
        [[r["architecture"], r["tps"], r["commits"], r["p99_ms"],
          r["gc_relocations"], r["erases"], r["write_amp"]]
         for r in results],
    ))
    noftl = results[0]["tps"]
    for r in results[1:]:
        if r["tps"]:
            print(f"NoFTL vs {r['architecture']}: {noftl / r['tps']:.2f}x "
                  "(paper: 1.5x - 2.4x)")


if __name__ == "__main__":
    main()
