"""Physical regions: the unit of NoFTL's flash-aware parallelism.

Section 3.2: *"Instead of having multiple db-writers, where each is
responsible for a subset of dirty pages from the whole address space, we
have assigned each db-writer to a certain physical region (i.e., set of
NAND chips)."*

A :class:`Region` is a group of whole dies with its own allocation pools,
active blocks and garbage collector (one
:class:`~repro.ftl.pagespace.PageMappedSpace` per region, all sharing one
host-resident mapping table).  Logical pages are striped across regions,
so ``region_of_lpn`` is a pure function the buffer manager can use to
partition dirty pages among db-writers.
"""

from __future__ import annotations

from typing import List, Optional

from ..flash.geometry import Geometry

__all__ = ["Region", "RegionManager"]


class Region:
    """A contiguous group of dies owned by one GC/allocation domain."""

    def __init__(self, region_id: int, dies: List[int], geometry: Geometry):
        self.region_id = region_id
        self.geometry = geometry
        self.dies = list(dies)
        self.planes = [
            (die, plane)
            for die in self.dies
            for plane in range(geometry.planes_per_die)
        ]
        self.space = None  # attached by the storage manager

    def blocks(self):
        """Iterator over every physical block number this region owns
        (die-major numbering keeps each die's blocks contiguous)."""
        blocks_per_die = (
            self.geometry.planes_per_die * self.geometry.blocks_per_plane
        )
        for die in self.dies:
            yield from range(die * blocks_per_die, (die + 1) * blocks_per_die)

    def __repr__(self) -> str:
        return f"Region({self.region_id}, dies={self.dies})"


class RegionManager:
    """Splits the device's dies into ``num_regions`` equal groups and
    routes logical pages to regions by striping."""

    def __init__(self, geometry: Geometry, num_regions: Optional[int] = None):
        total_dies = geometry.total_dies
        if num_regions is None:
            num_regions = total_dies  # the paper's die-wise striping
        if not 1 <= num_regions <= total_dies:
            raise ValueError(
                f"num_regions must be in 1..{total_dies}, got {num_regions}"
            )
        if total_dies % num_regions != 0:
            raise ValueError(
                f"{num_regions} regions do not evenly divide {total_dies} dies"
            )
        self.geometry = geometry
        self.num_regions = num_regions
        dies_per_region = total_dies // num_regions
        self.regions: List[Region] = [
            Region(
                index,
                list(range(index * dies_per_region,
                           (index + 1) * dies_per_region)),
                geometry,
            )
            for index in range(num_regions)
        ]

    def region_of_lpn(self, lpn: int) -> int:
        """Stripe logical pages round-robin across regions (die-wise
        striping when regions are single dies)."""
        return lpn % self.num_regions
