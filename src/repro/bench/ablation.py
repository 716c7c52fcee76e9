"""Experiment E10 — ablation of NoFTL's design choices.

DESIGN.md calls out four decisions the paper motivates qualitatively;
this bench quantifies each on one recorded OLTP trace by toggling it off:

* **trim integration** (DBMS free-space manager -> flash) — information
  a black-box FTL never gets;
* **hot/cold stream separation** — GC relocations segregated from fresh
  host writes;
* **copyback** — on-die relocation without bus transfer;
* **GC victim policy** — greedy vs age-weighted cost-benefit.

Each variant replays the identical trace; the table reports relocations,
erases, write amplification and (serialized) device busy time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core import NoFTLConfig
from ..workloads import replay_trace
from .rigs import (
    REPLAY_OP_RATIO,
    build_sync_noftl,
    record_trace,
    replay_geometry,
)

__all__ = ["AblationRow", "AblationResult", "ablate_noftl"]

SEED = 11


@dataclass
class AblationRow:
    variant: str
    relocations: int
    copybacks: int
    erases: int
    write_amplification: float
    busy_us: float


@dataclass
class AblationResult:
    workload: str
    rows: List[AblationRow] = field(default_factory=list)

    def row(self, variant: str) -> AblationRow:
        for candidate in self.rows:
            if candidate.variant == variant:
                return candidate
        raise KeyError(variant)


VARIANTS = {
    "baseline": {},
    "no-trim": {"honor_trims": False},
    "no-streams": {"separate_streams": False},
    "no-copyback": {"use_copyback": False},
    "cost-benefit-gc": {"gc_policy": "cost_benefit"},
}


def ablate_noftl(workload_name: str = "tpcc",
                 duration_us: float = 6_000_000) -> AblationResult:
    """Replay one trace against every NoFTL variant."""
    trace = record_trace(workload_name, duration_us=duration_us, seed=SEED)
    geometry = replay_geometry(trace)
    result = AblationResult(workload_name)
    for variant, overrides in VARIANTS.items():
        config = NoFTLConfig(op_ratio=REPLAY_OP_RATIO, **overrides)
        storage, array = build_sync_noftl(geometry=geometry, config=config,
                                          seed=SEED)
        report = replay_trace(trace, storage)
        result.rows.append(AblationRow(
            variant=variant,
            relocations=report.relocations,
            copybacks=report.copybacks,
            erases=report.erases,
            write_amplification=report.write_amplification,
            busy_us=array.counters.busy_us,
        ))
    return result
