"""NoFTL configuration.

One dataclass gathers every knob Section 3 exposes to the DBA/audience in
the demonstration (Flash layout, number of regions, GC policy, copyback
usage, wear-leveling thresholds) plus the ablation switches of bench E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["NoFTLConfig"]


@dataclass(frozen=True)
class NoFTLConfig:
    """Tuning parameters of the DBMS-integrated flash management.

    Attributes
    ----------
    num_regions
        Physical regions the flash is divided into (db-writers are bound
        region-wise, Section 3.2).  ``None`` means one region per die —
        the paper's die-wise striping.
    op_ratio
        Over-provisioned fraction of physical capacity.
    gc_policy
        ``"greedy"`` or ``"cost_benefit"`` victim selection.
    gc_low_water
        Free blocks per plane below which GC kicks in.
    separate_streams
        Keep GC relocations in their own (cold) active blocks.
    write_streams
        Object-aware write placement: one named allocation point per
        host data class (WAL / heap-hot / heap-cold / btree / map / temp
        / recovery), resolved from the ``OpContext.data_class`` stamp
        riding on each write, with class-segregated GC and mount-time
        frontier re-derivation (DESIGN.md §14).  It selects only which
        stream names the manager passes down; off, every write takes the
        legacy hot/cold streams (class code 0).  Off by default: the open
        class frontiers exhaust the block pool on small planes (§14).
        Requires ``separate_streams``.
    use_copyback
        Relocate within a plane via COPYBACK (no bus transfer) instead of
        read+program.
    wear_level_delta
        Static wear-leveling trigger (erase-count spread); None disables.
    wear_level_check_every
        Host writes per plane between spread checks.
    honor_trims
        Apply DBMS deallocation hints (free-space-manager integration);
        turning this off reproduces black-box behaviour for ablation.
    spare_watermark
        Fraction of the over-provisioned (spare) blocks that may go bad
        before the device enters read-only degraded mode.

    The read-recovery budgets are constants of the FTL layer, not knobs:
    :data:`repro.ftl.base.READ_RETRY_LIMIT` and
    :data:`repro.ftl.base.OUTAGE_RETRY_LIMIT`.
    """

    num_regions: Optional[int] = None
    op_ratio: float = 0.1
    gc_policy: str = "greedy"
    gc_low_water: int = 2
    separate_streams: bool = True
    write_streams: bool = False
    use_copyback: bool = True
    wear_level_delta: Optional[int] = 20
    wear_level_check_every: int = 64
    honor_trims: bool = True
    spare_watermark: float = 0.75

    def __post_init__(self):
        if self.num_regions is not None and self.num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        if not 0.0 < self.op_ratio < 0.9:
            raise ValueError("op_ratio must be in (0, 0.9)")
        if not 0.0 < self.spare_watermark <= 1.0:
            raise ValueError("spare_watermark must be in (0, 1]")
        if self.write_streams and not self.separate_streams:
            raise ValueError("write_streams requires separate_streams")
