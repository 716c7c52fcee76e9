"""Pure page-level mapping FTL.

The idealised on-device FTL: the *entire* page-granularity mapping table
is cached (which is exactly what commodity controllers cannot afford —
Section 3.1 of the paper: "the amount of on-device memory is insufficient
to hold a complete mapping table at page-level granularity").  It serves
two purposes here:

* the reference point for DFTL's slowdown (paper: DFTL is up to 3.7x
  slower than pure page-level mapping under TPC-C/-B);
* the mechanical core that NoFTL moves into the host, where the memory
  objection disappears.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..flash.geometry import Geometry
from ..telemetry import EventTrace, MetricsRegistry
from .base import BaseFTL, MappingState
from .pagespace import PageMappedSpace

__all__ = ["PageMapFTL"]


class PageMapFTL(BaseFTL):
    """Device-level page-mapping FTL over all planes of the device: greedy
    GC, one write stream (a black box cannot tell hot data from cold) and
    no static wear leveling."""

    def __init__(
        self,
        geometry: Geometry,
        op_ratio: float = 0.1,
        bad_blocks: Iterable[int] = (),
        rng: Optional[random.Random] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        super().__init__(geometry, op_ratio, telemetry=telemetry, trace=trace)
        self.mapping = MappingState(geometry, self.logical_pages)
        planes = [
            (die, plane)
            for die in range(geometry.total_dies)
            for plane in range(geometry.planes_per_die)
        ]
        self.space = PageMappedSpace(
            geometry,
            self.mapping,
            planes,
            self.stats,
            separate_streams=False,
            bad_blocks=bad_blocks,
            rng=rng,
            telemetry=self.telemetry,
            trace=self.trace,
        )

    def read(self, lpn: int):
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        data = yield from self.space.read(lpn)
        return data

    def write(self, lpn: int, data=None):
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        yield from self.space.write(lpn, data)

    def trim(self, lpn: int):
        self._check_lpn(lpn)
        self.stats.host_trims += 1
        self.space.trim(lpn)
        return
        yield  # pragma: no cover - generator form

    def is_fast_read(self, lpn: int) -> bool:
        """Reads never touch FTL metadata: always lock-free."""
        return True

    @property
    def maintenance_active(self) -> bool:
        return self.space.maintenance_active

    def health_snapshot(self) -> dict:
        out = super().health_snapshot()
        out["occupancy"] = self.space.occupancy()
        out["wear_shadow"] = self.space.wear_shadow()
        return out
