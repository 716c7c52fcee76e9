"""Bench E1 — Figure 3: absolute and relative I/O overhead of garbage
collection under FASTer and NoFTL (TPC-C, TPC-B, TPC-E traces).

Paper's table:

    IO type    TPC-C sf30        TPC-B sf350       TPC-E 1K customers
    COPYBACK   16,465,930 1.98x  17,295,713 2.15x  1,805,540 1.97x
    ERASE         129,317 1.73x     135,839 1.82x     14,231 1.68x

Shape to reproduce: FASTer performs roughly *twice* the page
relocations and clearly more erases than NoFTL on identical traces.
Absolute counts differ (short traces, scaled kits).
"""

from repro.bench.fig3 import fig3_gc_overhead
from repro.bench.reporting import emit, export_metrics, render_table

PAPER_RELATIVE = {
    ("tpcc", "COPYBACK"): 1.98,
    ("tpcb", "COPYBACK"): 2.15,
    ("tpce", "COPYBACK"): 1.97,
    ("tpcc", "ERASE"): 1.73,
    ("tpcb", "ERASE"): 1.82,
    ("tpce", "ERASE"): 1.68,
}

_RESULT = {}


def _run(scale):
    if "result" not in _RESULT:
        _RESULT["result"] = fig3_gc_overhead(
            duration_us=8_000_000 * scale
        )
    return _RESULT["result"]


def test_fig3_gc_overhead(benchmark, scale):
    result = benchmark.pedantic(lambda: _run(scale), rounds=1, iterations=1)

    rows = []
    for row in result.rows:
        rows.append([
            row.workload.upper(),
            row.io_type,
            row.faster_absolute,
            row.noftl_absolute,
            f"{row.relative:.2f}x",
            f"{PAPER_RELATIVE[(row.workload, row.io_type)]:.2f}x",
        ])
    emit(render_table(
        "Figure 3 — GC overhead under FASTer vs NoFTL (trace replay)",
        ["workload", "IO type", "FASTer abs", "NoFTL abs",
         "relative", "paper rel."],
        rows,
    ))

    for workload in ("tpcc", "tpcb", "tpce"):
        copyback = result.row(workload, "COPYBACK")
        erase = result.row(workload, "ERASE")
        # Direction: FASTer strictly worse on both axes.
        assert copyback.relative > 1.2, (
            f"{workload}: FASTer should relocate clearly more "
            f"(got {copyback.relative:.2f}x)"
        )
        assert erase.relative > 1.1, (
            f"{workload}: FASTer should erase clearly more "
            f"(got {erase.relative:.2f}x)"
        )
        # Magnitude: the paper's ~2x copyback factor within a loose band.
        assert 1.2 < copyback.relative < 8.0
        # The health ledger on each replay array: NoFTL programs fewer
        # flash pages per logical write, and the ledger's erase total is
        # the registry's ERASE count exactly (one accounting source, two
        # independent paths to it).
        targets = result.reports[workload]
        wa = {arch: target["health"]["wa"]["write_amplification"]
              for arch, target in targets.items()}
        assert wa["NoFTL"] < wa["FASTer"], f"{workload}: ledger WA {wa}"
        for arch, target in targets.items():
            assert target["health"]["wa"]["erases"]["total"] \
                == target["erases"], f"{workload}/{arch}: ledger erases"

    # Per-target replay reports (with per-die command breakdowns sourced
    # from the flash telemetry registries) as a CI artifact.
    export_metrics("fig3_gc_overhead", result.reports)
