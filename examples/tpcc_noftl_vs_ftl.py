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

import sys

from repro.bench import SHAPES, build_closed_loop, render_table


def run_architecture(architecture: str, duration_us: float):
    # The headline experiment's rig (repro.bench.headline): DFTL scales
    # its CMT with the device (~3% of pages), as on real controllers.
    loop = build_closed_loop(SHAPES["headline"], "tpcc", architecture,
                             seed=0)
    rig = loop.rig
    stats = (rig.manager if architecture == "noftl" else rig.ftl).stats
    outcome = loop.drive(duration_us, seed=11, preloaded=False)
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
