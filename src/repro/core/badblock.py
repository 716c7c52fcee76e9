"""NoFTL's bad-block manager.

Factory-bad blocks are discovered once (on real NAND: by scanning the
vendor bad-block markers in the OOB area) and excluded from every
allocation pool; grown bad blocks are reported by the spaces as erases
fail (:class:`~repro.flash.errors.BlockWornOut`), as program failures
retire blocks, and as GC quarantines unreadable victims.  The manager
keeps the authoritative list and answers capacity questions — when too
much spare capacity is gone the device enters *degraded mode* (reads
keep working, writes are refused with :class:`DegradedModeError`), and
`health` surfaces it to the administrator.
"""

from __future__ import annotations

from typing import Iterable, Set

from ..flash.geometry import Geometry

__all__ = ["BadBlockManager", "DegradedModeError"]


class DegradedModeError(RuntimeError):
    """Raised on writes once spare capacity fell below the watermark.

    Reads are still served — the device is read-only degraded, not dead.
    """

    def __init__(self, bad_blocks: int, spare_blocks: int, watermark: float):
        super().__init__(
            f"device degraded: {bad_blocks} bad blocks consumed "
            f">= {watermark:.0%} of {spare_blocks} spare blocks; "
            "read-only mode"
        )
        self.bad_blocks = bad_blocks
        self.spare_blocks = spare_blocks
        self.watermark = watermark


class BadBlockManager:
    """Tracks factory and grown bad blocks for one device.

    ``spare_blocks`` is the capacity head-room backing bad-block
    replacement (over-provisioned blocks); once total bad blocks reach
    ``watermark * spare_blocks`` the manager declares the device
    degraded.  ``spare_blocks=None`` disables the check (legacy
    behaviour).
    """

    def __init__(self, geometry: Geometry, factory_bad: Iterable[int] = (),
                 spare_blocks: int | None = None, watermark: float = 0.75):
        self.geometry = geometry
        self.factory_bad: Set[int] = set(factory_bad)
        for pbn in self.factory_bad:
            geometry._check_block(pbn)
        self.grown_bad: Set[int] = set()
        if not 0.0 < watermark <= 1.0:
            raise ValueError("watermark must be in (0, 1]")
        if spare_blocks is not None and spare_blocks < 0:
            raise ValueError("spare_blocks must be >= 0")
        self.spare_blocks = spare_blocks
        self.watermark = watermark

    @property
    def all_bad(self) -> Set[int]:
        return self.factory_bad | self.grown_bad

    def is_bad(self, pbn: int) -> bool:
        return pbn in self.factory_bad or pbn in self.grown_bad

    def report_grown(self, pbn: int) -> None:
        """Record a block that failed in service."""
        self.geometry._check_block(pbn)
        self.grown_bad.add(pbn)

    @property
    def degraded(self) -> bool:
        """True once *grown* bad blocks consumed the spare-capacity
        watermark.  Factory-bad blocks were known at provisioning time and
        already excluded from the pools, so they do not count against the
        in-service replacement budget."""
        if self.spare_blocks is None:
            return False
        return len(self.grown_bad) >= self.watermark * self.spare_blocks

    def check_writable(self) -> None:
        """Raise :class:`DegradedModeError` when writes must be refused."""
        if self.degraded:
            raise DegradedModeError(
                len(self.grown_bad), self.spare_blocks, self.watermark
            )

    def health(self) -> dict:
        total = self.geometry.total_blocks
        bad = len(self.all_bad)
        return {
            "total_blocks": total,
            "factory_bad": len(self.factory_bad),
            "grown_bad": len(self.grown_bad),
            "bad_fraction": bad / total if total else 0.0,
            "spare_blocks": self.spare_blocks,
            "spare_watermark": self.watermark,
            "degraded": self.degraded,
        }
