"""Physical NAND geometry and address arithmetic.

The paper's native flash interface exposes *physical* addresses to the host
(``READ(PhysicalBlockNum)`` etc., Figure 1.c) and an identify command that
reports "channels, LUNs, Flash type" (Section 3).  :class:`Geometry` is the
value object returned by that identify command; all address mapping between
flat physical page numbers (PPN), flat physical block numbers (PBN) and the
(channel, chip, die, plane, block, page) tuple lives here.

Flat numbering is die-major: consecutive blocks first walk the planes of a
die, then the blocks within each plane, so integer division recovers each
coordinate cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Geometry", "FlashAddress"]


@dataclass(frozen=True)
class FlashAddress:
    """Decomposed physical address of a page (or a block when page == 0)."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def __str__(self) -> str:
        return (
            f"ch{self.channel}/chip{self.chip}/die{self.die}"
            f"/pl{self.plane}/blk{self.block}/pg{self.page}"
        )


@dataclass(frozen=True)
class Geometry:
    """Shape of a NAND flash subsystem.

    ``die_index`` below always means the *global* die number in
    ``range(total_dies)``; the paper's die-wise striping and the region
    manager both work in terms of global dies.
    """

    channels: int = 2
    chips_per_channel: int = 2
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 128
    pages_per_block: int = 64
    page_bytes: int = 4096
    oob_bytes: int = 128

    def __post_init__(self):
        for field_name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            value = getattr(self, field_name)
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        if self.oob_bytes < 0:
            raise ValueError("oob_bytes must be >= 0")
        # Derived sizes are computed once: every address helper below runs
        # per flash command, so each is one range compare plus integer
        # division on these constants.  Plain instance attributes, not
        # dataclass fields, so ==, hash, repr, replace() and asdict() see
        # only the eight dimensions above (replace() re-runs this hook).
        dies = self.channels * self.chips_per_channel * self.dies_per_chip
        blocks_per_die = self.planes_per_die * self.blocks_per_plane
        total_blocks = dies * blocks_per_die
        cache = object.__setattr__
        cache(self, "_total_dies", dies)
        cache(self, "_dies_per_channel", self.chips_per_channel * self.dies_per_chip)
        cache(self, "_blocks_per_die", blocks_per_die)
        cache(self, "_pages_per_die", blocks_per_die * self.pages_per_block)
        cache(self, "_pages_per_plane", self.blocks_per_plane * self.pages_per_block)
        cache(self, "_total_blocks", total_blocks)
        cache(self, "_total_pages", total_blocks * self.pages_per_block)

    # -- derived sizes -------------------------------------------------------

    @property
    def total_dies(self) -> int:
        return self._total_dies

    @property
    def blocks_per_die(self) -> int:
        return self._blocks_per_die

    @property
    def pages_per_plane(self) -> int:
        return self._pages_per_plane

    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    @property
    def total_pages(self) -> int:
        return self._total_pages

    @property
    def capacity_bytes(self) -> int:
        return self._total_pages * self.page_bytes

    # -- flat <-> structured addressing ---------------------------------------

    def ppn_of(self, pbn: int, page: int) -> int:
        """Flat physical page number from flat block number + page offset."""
        if not 0 <= page < self.pages_per_block:
            raise ValueError(f"page offset {page} out of range")
        return pbn * self.pages_per_block + page

    def block_of_ppn(self, ppn: int) -> int:
        return ppn // self.pages_per_block

    def page_offset_of_ppn(self, ppn: int) -> int:
        return ppn % self.pages_per_block

    def die_of_block(self, pbn: int) -> int:
        """Global die index that owns flat block ``pbn``."""
        if not 0 <= pbn < self._total_blocks:
            raise _out_of_range("pbn", pbn, self._total_blocks)
        return pbn // self._blocks_per_die

    def plane_of_block(self, pbn: int) -> int:
        """Plane index (within its die) of flat block ``pbn``."""
        if not 0 <= pbn < self._total_blocks:
            raise _out_of_range("pbn", pbn, self._total_blocks)
        return (pbn % self._blocks_per_die) // self.blocks_per_plane

    def die_of_ppn(self, ppn: int) -> int:
        if not 0 <= ppn < self._total_pages:
            raise _out_of_range("ppn", ppn, self._total_pages)
        return ppn // self._pages_per_die

    def plane_of_ppn(self, ppn: int) -> int:
        if not 0 <= ppn < self._total_pages:
            raise _out_of_range("ppn", ppn, self._total_pages)
        return (ppn % self._pages_per_die) // self._pages_per_plane

    def channel_of_die(self, die_index: int) -> int:
        if not 0 <= die_index < self._total_dies:
            raise _out_of_range("die", die_index, self._total_dies)
        return die_index // self._dies_per_channel

    def decompose(self, ppn: int) -> FlashAddress:
        """Split a flat PPN into its full physical coordinates."""
        if not 0 <= ppn < self._total_pages:
            raise _out_of_range("ppn", ppn, self._total_pages)
        page = ppn % self.pages_per_block
        pbn = ppn // self.pages_per_block
        die_index = pbn // self._blocks_per_die
        within_die = pbn % self._blocks_per_die
        plane = within_die // self.blocks_per_plane
        block = within_die % self.blocks_per_plane
        channel = die_index // self._dies_per_channel
        within_channel = die_index % self._dies_per_channel
        chip = within_channel // self.dies_per_chip
        die = within_channel % self.dies_per_chip
        return FlashAddress(channel, chip, die, plane, block, page)

    def compose(self, address: FlashAddress) -> int:
        """Inverse of :meth:`decompose`."""
        die_index = (
            address.channel * self._dies_per_channel
            + address.chip * self.dies_per_chip
            + address.die
        )
        pbn = (
            die_index * self._blocks_per_die
            + address.plane * self.blocks_per_plane
            + address.block
        )
        return self.ppn_of(pbn, address.page)

    def blocks_of_die(self, die_index: int) -> range:
        """Flat block numbers belonging to a global die (contiguous)."""
        self._check_die(die_index)
        start = die_index * self._blocks_per_die
        return range(start, start + self._blocks_per_die)

    def blocks_of_plane(self, die_index: int, plane: int) -> range:
        """Flat block numbers of one plane of one die (contiguous)."""
        self._check_die(die_index)
        if not 0 <= plane < self.planes_per_die:
            raise ValueError(f"plane {plane} out of range")
        start = die_index * self._blocks_per_die + plane * self.blocks_per_plane
        return range(start, start + self.blocks_per_plane)

    def same_plane(self, ppn_a: int, ppn_b: int) -> bool:
        """True when two pages live in the same plane of the same die
        (the precondition for a COPYBACK transfer).

        Die-major numbering makes every plane one contiguous ppn range of
        ``pages_per_plane`` pages, so one division per page decides it."""
        total = self._total_pages
        if not (0 <= ppn_a < total and 0 <= ppn_b < total):
            self._check_ppn(ppn_a)
            self._check_ppn(ppn_b)
        per_plane = self._pages_per_plane
        return ppn_a // per_plane == ppn_b // per_plane

    def describe(self) -> dict:
        """Identify-command payload: the device self-description."""
        return {
            "channels": self.channels,
            "chips_per_channel": self.chips_per_channel,
            "dies_per_chip": self.dies_per_chip,
            "planes_per_die": self.planes_per_die,
            "blocks_per_plane": self.blocks_per_plane,
            "pages_per_block": self.pages_per_block,
            "page_bytes": self.page_bytes,
            "oob_bytes": self.oob_bytes,
            "total_dies": self.total_dies,
            "total_blocks": self.total_blocks,
            "total_pages": self.total_pages,
            "capacity_bytes": self.capacity_bytes,
        }

    # -- internal --------------------------------------------------------------

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self._total_pages:
            raise _out_of_range("ppn", ppn, self._total_pages)

    def _check_block(self, pbn: int) -> None:
        if not 0 <= pbn < self._total_blocks:
            raise _out_of_range("pbn", pbn, self._total_blocks)

    def _check_die(self, die_index: int) -> None:
        if not 0 <= die_index < self._total_dies:
            raise _out_of_range("die", die_index, self._total_dies)


def _out_of_range(name: str, value: int, limit: int) -> ValueError:
    return ValueError(f"{name} {value} out of range (0..{limit - 1})")
