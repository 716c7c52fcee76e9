"""Experiment E9 — flash lifetime.

Conclusions section: *"the low erase count under NoFTL effectively
doubles the lifetime of the Flash storage"*.

NAND endurance is a per-block program/erase budget, so for a fixed
amount of *useful work* (host page writes), lifetime scales inversely
with erases consumed.  This bench reads the lifetime factor off the
Figure 3 replay (:func:`~repro.bench.rigs.replay_pair`, identical trace
on both targets): at the same trace and seed it *is* Figure 3's ERASE
ratio.  It additionally checks NoFTL's wear leveling: the erase-count
spread across blocks stays bounded, so the budget is actually
consumable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..core import NoFTLConfig
from ..flash import SLC_TIMING, Geometry
from .reporting import ratio
from .rigs import build_sync_noftl, replay_pair

__all__ = ["LifetimeReport", "lifetime_factor", "wear_spread"]

LIFETIME_SEED = 11


@dataclass
class LifetimeReport:
    workload: str
    host_writes: int
    faster_erases: int
    noftl_erases: int
    faster_erases_per_kwrite: float
    noftl_erases_per_kwrite: float

    @property
    def lifetime_factor(self) -> float:
        """How much longer the same flash lasts under NoFTL."""
        return ratio(self.faster_erases, self.noftl_erases)


def lifetime_factor(workload_name: str = "tpcb",
                    duration_us: float = 10_000_000) -> LifetimeReport:
    """Erase budget consumed per unit of work, FASTer vs NoFTL."""
    report = replay_pair(workload_name, duration_us, scale=1.0,
                         seed=LIFETIME_SEED)["report"]
    writes = report["FASTer"]["host_writes"]
    faster_erases = report["FASTer"]["erases"]
    noftl_erases = report["NoFTL"]["erases"]
    return LifetimeReport(
        workload=workload_name,
        host_writes=writes,
        faster_erases=faster_erases,
        noftl_erases=noftl_erases,
        faster_erases_per_kwrite=1000.0 * faster_erases / max(1, writes),
        noftl_erases_per_kwrite=1000.0 * noftl_erases / max(1, writes),
    )


WEAR_GEOMETRY = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=24,
    pages_per_block=16,
    page_bytes=2048,
)
#: 90 % of the wear workload's writes land on this share of its span.
HOT_FRACTION = 0.1
WEAR_SEED = 9


def wear_spread(wear_level_delta: Optional[int], writes: int = 60_000) -> Dict:
    """Erase-count distribution under a pathologically hot workload,
    with and without NoFTL's static wear leveling."""
    storage, array = build_sync_noftl(
        geometry=WEAR_GEOMETRY,
        timing=SLC_TIMING,
        config=NoFTLConfig(op_ratio=0.2, wear_level_delta=wear_level_delta,
                           wear_level_check_every=16),
        seed=WEAR_SEED,
    )
    rng = random.Random(WEAR_SEED)
    span = int(storage.logical_pages * 0.7)
    hot = max(4, int(span * HOT_FRACTION))
    for lpn in range(span):
        storage.write(lpn, data=None)
    for __ in range(writes):
        if rng.random() < 0.9:
            storage.write(rng.randrange(hot), data=None)
        else:
            storage.write(rng.randrange(span), data=None)
    summary = array.wear_summary()
    summary["spread"] = summary["max"] - summary["min"]
    summary["wl_moves"] = storage.manager.stats.wl_moves
    return summary
