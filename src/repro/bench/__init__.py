"""Benchmark harness: one module per table/figure/claim of the paper.

| Module            | Paper artifact                                     |
|-------------------|----------------------------------------------------|
| ``fig3``          | Figure 3 — GC overhead, FASTer vs NoFTL            |
| ``fig4``          | Figure 4a/4b — db-writer assignment vs die count   |
| ``headline``      | §1/§5 — NoFTL 1.5-2.4x TPS over FTL devices        |
| ``dftl_slowdown`` | §3.1 — DFTL up to 3.7x slower than page mapping    |
| ``latency``       | §3 — 0.45 ms mean / 80 ms outlier write latency    |
| ``validation``    | Demo 1 — emulator validated against OpenSSD        |
| ``parallelism``   | §3.2 — 32 NCQ slots vs ~160 native flash commands  |
| ``lifetime``      | §5 — half the erases => ~2x flash lifetime (reads  |
|                   | Figure 3's replay: ``rigs.replay_pair``)           |
| ``ablation``      | DESIGN.md E10 — NoFTL design-choice ablation       |
| ``robust``        | Fault model — chaos, power-cut and siege scenarios |
| ``observe``       | Observability — tail blame, device health, streams |

Modules with a command line (``fig3``, ``robust``, ``observe``) are not
imported here: ``python -m`` would otherwise find them already imported
and warn.
"""

from .ablation import AblationResult, AblationRow, ablate_noftl
from .dftl_slowdown import DFTLPoint, DFTLResult, dftl_slowdown
from .fig4 import Fig4Point, Fig4Result, fig4_dbwriters
from .headline import HeadlinePoint, HeadlineResult, headline_throughput
from .latency import LatencyProfile, latency_outliers
from .lifetime import LifetimeReport, lifetime_factor, wear_spread
from .parallelism import (
    ParallelismPoint,
    ParallelismResult,
    interface_parallelism,
)
from .reporting import emit, ratio, render_series, render_table
from .rigs import (
    DEMO_GEOMETRY,
    KITS,
    SHAPES,
    attach_database,
    build_blockdev_rig,
    build_closed_loop,
    build_noftl_rig,
    build_sync_blockdev,
    build_sync_noftl,
    geometry_for_footprint,
    geometry_with_dies,
    make_ftl,
    measure_workload_footprint,
    record_trace,
    replay_geometry,
    replay_pair,
    sized_geometry,
)
from .validation import ValidationReport, ValidationRow, validate_emulator

__all__ = [
    "AblationResult", "AblationRow", "ablate_noftl",
    "DFTLPoint", "DFTLResult", "dftl_slowdown",
    "Fig4Point", "Fig4Result", "fig4_dbwriters",
    "HeadlinePoint", "HeadlineResult", "headline_throughput",
    "LatencyProfile", "latency_outliers",
    "LifetimeReport", "lifetime_factor", "wear_spread",
    "ParallelismPoint", "ParallelismResult", "interface_parallelism",
    "emit", "ratio", "render_series", "render_table",
    "DEMO_GEOMETRY", "KITS", "SHAPES", "attach_database",
    "build_blockdev_rig", "build_closed_loop", "build_noftl_rig",
    "build_sync_blockdev", "build_sync_noftl",
    "geometry_for_footprint", "geometry_with_dies", "make_ftl",
    "measure_workload_footprint", "record_trace", "replay_geometry",
    "replay_pair", "sized_geometry",
    "ValidationReport", "ValidationRow", "validate_emulator",
]
