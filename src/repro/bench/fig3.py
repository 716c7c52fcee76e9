"""Experiment E1 — Figure 3: GC overhead of FASTer vs NoFTL.

Methodology exactly as the paper states under the table: *"Off-line
trace-driven testing.  Traces were recorded on in-memory database
running the benchmarks"* — we run each TPC kit against a RAM volume
behind a trace recorder, then replay the identical page-I/O stream into

* a black-box SSD with the FASTer FTL (legacy path: no trims), and
* the NoFTL storage manager (page-level host mapping + trim + hints),

and report absolute and relative COPYBACK (page relocations) and ERASE
counts.  Paper's numbers: copybacks 1.97x-2.15x, erases 1.68x-1.82x in
FASTer's disfavour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..telemetry import HealthMonitor
from ..workloads import replay_trace
from .reporting import ratio
from .rigs import (
    REPLAY_DIES,
    REPLAY_OP_RATIO,
    REPLAY_UTILIZATION,
    build_sync_blockdev,
    build_sync_noftl,
    geometry_for_footprint,
    record_trace,
)
from .sweep import SweepTask, run_sweep

__all__ = ["Fig3Row", "Fig3Result", "fig3_gc_overhead",
           "WORKLOAD_LABELS", "main"]

WORKLOAD_LABELS = {
    "tpcc": "TPC-C",
    "tpcb": "TPC-B",
    "tpce": "TPC-E",
}


@dataclass
class Fig3Row:
    workload: str
    io_type: str          # 'COPYBACK' | 'ERASE'
    faster_absolute: int
    noftl_absolute: int

    @property
    def relative(self) -> float:
        return ratio(self.faster_absolute, self.noftl_absolute)


@dataclass
class Fig3Result:
    rows: List[Fig3Row]
    traces: Dict[str, dict]
    reports: Dict[str, dict]

    def row(self, workload: str, io_type: str) -> Fig3Row:
        for candidate in self.rows:
            if candidate.workload == workload and candidate.io_type == io_type:
                return candidate
        raise KeyError((workload, io_type))


def _fig3_task(name: str, duration_us: float, scale: float,
               seed: int) -> dict:
    """Record + replay one workload (sweep task body).

    Fully self-contained — every rig here builds its own fresh registry
    — and returns plain picklable data, so the per-workload comparisons
    can fan out over a process pool with results identical to the
    sequential loop.
    """
    from ..core import NoFTLConfig

    trace = record_trace(name, duration_us=duration_us, scale=scale,
                         seed=seed)

    # Size the replay device to the trace footprint so both targets
    # run at the same realistic space utilization (steady-state GC).
    geometry = geometry_for_footprint(
        trace.max_page() + 1,
        utilization=REPLAY_UTILIZATION,
        op_ratio=REPLAY_OP_RATIO,
        dies=REPLAY_DIES,
    )

    faster_dev, faster_array = build_sync_blockdev(
        "faster", geometry=geometry, seed=seed)
    faster_health = HealthMonitor()
    faster_health.attach_array(faster_array)
    faster_report = replay_trace(trace, faster_dev)

    noftl_dev, noftl_array = build_sync_noftl(
        geometry=geometry, seed=seed,
        config=NoFTLConfig(op_ratio=REPLAY_OP_RATIO),
    )
    noftl_health = HealthMonitor()
    noftl_health.attach_array(noftl_array)
    noftl_report = replay_trace(trace, noftl_dev)

    # The health ledger is the single accounting source for WA and
    # wear in the exported report; the Fig3Row axes below stay on the
    # registry counters the benchmark gate has always used, and
    # ``bench.health --check`` asserts both sources agree.
    return {
        "workload": name,
        "trace_counts": trace.counts(),
        "report": {
            "FASTer": {
                **faster_report.as_dict(),
                "health": faster_health.report(),
            },
            "NoFTL": {
                **noftl_report.as_dict(),
                "health": noftl_health.report(),
            },
        },
        # Both axes come from each rig's shared telemetry registry: the
        # COPYBACK row counts page relocations (``ftl.relocations`` —
        # what the paper's hardware issues as copyback commands; here
        # cross-plane moves fall back to read+program but are the same
        # GC traffic), the ERASE row counts ``flash.commands{op=erase}``.
        "copyback": (faster_report.relocations, noftl_report.relocations),
        "erase": (faster_report.erases, noftl_report.erases),
    }


def fig3_gc_overhead(workloads=("tpcc", "tpcb", "tpce"),
                     duration_us: float = 10_000_000,
                     scale: float = 1.0, seed: int = 11,
                     workers: int = 1) -> Fig3Result:
    """Record one trace per workload, replay against FASTer and NoFTL.

    ``workers > 1`` runs the per-workload record+replay comparisons
    across a process pool; results assemble in workload order, identical
    to the sequential run.
    """
    tasks = [
        SweepTask(
            label=f"fig3:{name}",
            fn="repro.bench.fig3:_fig3_task",
            kwargs={"name": name, "duration_us": duration_us,
                    "scale": scale, "seed": seed},
        )
        for name in workloads
    ]
    rows: List[Fig3Row] = []
    traces: Dict[str, dict] = {}
    reports: Dict[str, dict] = {}

    def on_result(index, task, data):
        name = data["workload"]
        traces[name] = data["trace_counts"]
        reports[name] = data["report"]
        rows.append(Fig3Row(name, "COPYBACK", *data["copyback"]))
        rows.append(Fig3Row(name, "ERASE", *data["erase"]))

    run_sweep(tasks, workers=workers, on_result=on_result)
    return Fig3Result(rows, traces, reports)


def main(argv=None) -> int:
    import argparse

    from .reporting import emit, export_metrics, render_table

    parser = argparse.ArgumentParser(
        description="Figure 3: GC overhead of FASTer vs NoFTL "
                    "(trace-driven replay)"
    )
    parser.add_argument("--workload", action="append",
                        choices=tuple(WORKLOAD_LABELS), default=None,
                        help="workload(s) to replay (default: all three)")
    parser.add_argument("--duration-us", type=float, default=10_000_000)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for the per-workload "
                             "replays (1 = in-process; results are "
                             "identical either way)")
    parser.add_argument("--export", action="store_true",
                        help="write the result to $REPRO_METRICS_DIR")
    args = parser.parse_args(argv)

    workloads = tuple(args.workload) if args.workload \
        else tuple(WORKLOAD_LABELS)
    result = fig3_gc_overhead(workloads, duration_us=args.duration_us,
                              scale=args.scale, seed=args.seed,
                              workers=args.workers)
    emit(render_table(
        "Fig. 3 — GC overhead, FASTer vs NoFTL",
        ["workload", "I/O type", "FASTer", "NoFTL", "factor"],
        [[WORKLOAD_LABELS[row.workload], row.io_type,
          row.faster_absolute, row.noftl_absolute, row.relative]
         for row in result.rows],
    ))
    if args.export:
        path = export_metrics("fig3", {
            "rows": [{
                "workload": row.workload,
                "io_type": row.io_type,
                "faster": row.faster_absolute,
                "noftl": row.noftl_absolute,
                "relative": row.relative,
            } for row in result.rows],
            "traces": result.traces,
            "reports": result.reports,
        })
        print(f"fig3 snapshot: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
