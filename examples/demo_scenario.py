#!/usr/bin/env python3
"""Interactive demonstration testbed — the paper's Demo Scenario 2.

*"During the demonstration the audience can select any of the TPC
benchmarks (-H, -B, -C or -E) and a demonstration platform ...
Furthermore, the audience can configure the Flash layout as well as the
number of DBMS flushers to experience the influence of the different
strategies.  Test results comprise Shore-MT's output, intermediate and
average transactional throughput, as well as detailed statistics of I/O
operations and GC overhead."*

Usage examples:

    python examples/demo_scenario.py --workload tpcc --arch noftl
    python examples/demo_scenario.py --workload tpcb --arch faster \\
        --dies 16 --writers 16 --duration 2.0
    python examples/demo_scenario.py --workload tpce --arch noftl \\
        --policy global --writers 4
"""

import argparse
from dataclasses import replace

from repro.bench import KITS, SHAPES, build_closed_loop, render_table

#: The headline experiment's kits (E4), one per TPC benchmark.
WORKLOADS = sorted(name for family, name in KITS if family == "headline")


def parse_args():
    parser = argparse.ArgumentParser(
        description="NoFTL demonstration testbed (EDBT'15 Demo Scenario 2)")
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="tpcc", help="TPC benchmark to run")
    parser.add_argument("--arch", choices=("noftl", "faster", "dftl"),
                        default="noftl",
                        help="storage architecture (Figure 1.c vs 1.a/b)")
    parser.add_argument("--dies", type=int, default=8,
                        help="NAND dies in the flash layout")
    parser.add_argument("--writers", type=int, default=None,
                        help="background db-writers (default: one per die)")
    parser.add_argument("--policy", choices=("region", "global"),
                        default=None,
                        help="db-writer assignment (default: flash-aware "
                             "on NoFTL, global on block devices)")
    parser.add_argument("--terminals", type=int, default=16,
                        help="concurrent transaction terminals")
    parser.add_argument("--duration", type=float, default=1.5,
                        help="simulated seconds to run")
    parser.add_argument("--utilization", type=float, default=0.85,
                        help="flash space utilization of the footprint")
    parser.add_argument("--seed", type=int, default=11)
    return parser.parse_args()


def main():
    args = parse_args()
    writers = args.writers if args.writers is not None else args.dies
    policy = args.policy or ("region" if args.arch == "noftl" else "global")
    if args.arch != "noftl" and policy == "region":
        parser_hint = ("region policy needs the NoFTL region topology; "
                       "block devices expose a single opaque region")
        raise SystemExit(f"error: {parser_hint}")

    # The headline rig with the audience's flash layout and load; DFTL
    # keeps a fixed 1024-entry mapping cache here.
    shape = replace(SHAPES["headline"], dies=args.dies,
                    utilization=args.utilization, writers=writers,
                    terminals=args.terminals, cmt_entries=1024)
    loop = build_closed_loop(shape, args.workload, args.arch, args.seed,
                             policy=policy)
    rig, db = loop.rig, loop.db
    geometry = rig.geometry
    print(f"flash layout: {geometry.total_dies} dies x "
          f"{geometry.planes_per_die} planes, "
          f"{geometry.total_pages} pages "
          f"({geometry.capacity_bytes // (1 << 20)} MiB), "
          f"workload footprint {loop.footprint} pages")
    maintenance = (rig.manager if args.arch == "noftl" else rig.ftl).stats

    print(f"running {args.workload.upper()} on {args.arch} "
          f"({writers} db-writers, {policy} assignment, "
          f"{args.terminals} terminals, {args.duration:.1f} s simulated) ...")
    stats = loop.drive(args.duration * 1e6, args.seed, preloaded=False)

    print(render_table(
        "Transactional throughput",
        ["metric", "value"],
        [
            ["TPS", round(stats.tps, 1)],
            ["commits", stats.commits],
            ["aborts (by spec)", stats.aborts],
            ["retries (lock timeouts)", stats.retries],
            ["p50 latency (ms)",
             round(stats.latency.pct(50) / 1000, 2)
             if stats.latency.samples else "-"],
            ["p99 latency (ms)",
             round(stats.latency.pct(99) / 1000, 2)
             if stats.latency.samples else "-"],
        ],
    ))
    print(render_table(
        "Transaction mix",
        ["transaction", "commits"],
        sorted(stats.per_type.items()),
    ))
    counters = rig.array.counters
    print(render_table(
        "I/O operations and GC overhead",
        ["counter", "value"],
        [
            ["flash reads", counters.reads],
            ["flash programs", counters.programs],
            ["flash erases", counters.erases],
            ["copybacks", counters.copybacks],
            ["host page writes", maintenance.host_writes],
            ["GC relocations", maintenance.gc_relocations],
            ["write amplification",
             round(maintenance.write_amplification, 3)],
            ["buffer hit ratio",
             round(db.buffer.snapshot()["hit_ratio"], 3)],
        ],
    ))
    if args.arch == "noftl":
        contention = rig.storage.region_lock_contention()
        print(f"region-lock waits: {contention['total_waits']} "
              f"({contention['total_wait_time_us'] / 1000:.1f} ms waited)"
              f" — try --policy global to see the paper's Figure 4 effect")


if __name__ == "__main__":
    main()
