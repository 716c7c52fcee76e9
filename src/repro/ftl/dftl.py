"""DFTL: page-level FTL with demand-based selective caching of mappings
(Gupta, Kim, Urgaonkar — ASPLOS 2009).

The full page-granularity mapping does not fit in device RAM, so it lives
in *translation pages* on flash.  A small Cached Mapping Table (CMT, LRU)
holds the hot entries; the Global Translation Directory (GTD) — small
enough for controller SRAM — locates each translation page.

Costs modelled faithfully:

* CMT miss -> one translation-page read;
* dirty CMT eviction -> translation-page read-modify-write (with the
  standard batching optimisation: one write-back flushes every dirty
  entry of that translation page);
* GC relocation of a data page whose entry is not cached -> immediate
  translation-page read-modify-write (batched per translation page);
* GC relocation of a translation page -> GTD update only (free).

These are exactly the overheads that make DFTL up to 3.7x slower than
pure page-level mapping under TPC-C/-B (paper Section 3.1), reproduced in
bench E5.

Implementation note: translation pages are mapped into an extended
logical space (``tp_lpn = logical_pages + tvpn``) so allocation and GC
are shared with :class:`~repro.ftl.pagespace.PageMappedSpace`; the
``l2p`` entries above ``logical_pages`` *are* the GTD.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

from ..flash.commands import tag_commands
from ..flash.geometry import Geometry
from ..telemetry import CounterView, EventTrace, MetricsRegistry, OpContext
from .base import UNMAPPED, BaseFTL, MappingState, read_page_with_retry
from .pagespace import PageMappedSpace

__all__ = ["DFTL"]


class DFTL(BaseFTL):
    """Demand-based page-mapping FTL.

    Parameters
    ----------
    cmt_entries
        Capacity of the Cached Mapping Table in mapping entries.  The
        headline experiments size this well below the workload's working
        set, as on a real controller.
    entries_per_translation_page
        Mapping slots per translation page (page_bytes / 8 on real
        hardware; configurable down for small test devices).
    """

    def __init__(
        self,
        geometry: Geometry,
        op_ratio: float = 0.1,
        cmt_entries: int = 4096,
        entries_per_translation_page: Optional[int] = None,
        bad_blocks: Iterable[int] = (),
        rng: Optional[random.Random] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        super().__init__(geometry, op_ratio, telemetry=telemetry, trace=trace)
        if cmt_entries < 1:
            raise ValueError("cmt_entries must be >= 1")
        self.cmt_entries = cmt_entries
        if entries_per_translation_page is None:
            entries_per_translation_page = max(1, geometry.page_bytes // 8)
        self.entries_per_tp = entries_per_translation_page
        self.num_tvpns = -(-self.logical_pages // self.entries_per_tp)

        extended = self.logical_pages + self.num_tvpns
        self.mapping = MappingState(geometry, extended)
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
            bad_blocks=bad_blocks,
            rng=rng,
            telemetry=self.telemetry,
            trace=self.trace,
        )
        self.space.rebind_hook = self._gc_rebind
        # CMT: lpn -> dirty flag, in LRU order (oldest first).
        self._cmt: "OrderedDict[int, bool]" = OrderedDict()
        self._tm_cmt_hits = self.telemetry.counter(
            "ftl.map_cache", layer="ftl", ftl="DFTL", event="hit")
        self._tm_cmt_misses = self.telemetry.counter(
            "ftl.map_cache", layer="ftl", ftl="DFTL", event="miss")
        CounterView.start_all(self)
        # Translation pages whose on-flash copy is stale because GC moved
        # data pages; drained by the outermost rebind so the
        # GC -> TP-write -> GC cascade stays iterative, never recursive.
        self._pending_tvpns: set = set()
        self._rebind_active = False

    # -- address helpers -------------------------------------------------------

    def _tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_tp

    def _tp_lpn(self, tvpn: int) -> int:
        return self.logical_pages + tvpn

    def _tp_exists(self, tvpn: int) -> bool:
        return self.mapping.lookup(self._tp_lpn(tvpn)) != UNMAPPED

    # -- host interface ----------------------------------------------------------

    def read(self, lpn: int):
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        yield from self._ensure_cached(lpn)
        ppn = self.mapping.lookup(lpn)
        if ppn == UNMAPPED:
            return None
        result, __ = yield from read_page_with_retry(ppn, stats=self.stats)
        return result.data

    def write(self, lpn: int, data=None):
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        yield from self._ensure_cached(lpn)
        yield from self.space.write(lpn, data)
        self._cmt[lpn] = True  # dirty
        self._cmt.move_to_end(lpn)

    def trim(self, lpn: int):
        """TRIM still needs the mapping present to persist the
        deallocation — a real cost black-box FTLs pay that NoFTL does not."""
        self._check_lpn(lpn)
        self.stats.host_trims += 1
        yield from self._ensure_cached(lpn)
        if self.mapping.lookup(lpn) != UNMAPPED:
            self.mapping.unbind(lpn)
            self._cmt[lpn] = True
            self._cmt.move_to_end(lpn)

    def is_fast_read(self, lpn: int) -> bool:
        """A read is metadata-free only when its mapping is cached."""
        return lpn in self._cmt

    # -- CMT machinery ----------------------------------------------------------

    def _ensure_cached(self, lpn: int):
        """Generator: make ``lpn``'s mapping resident in the CMT."""
        if lpn in self._cmt:
            self._tm_cmt_hits.inc()
            self._cmt.move_to_end(lpn)
            return
        self._tm_cmt_misses.inc()
        while len(self._cmt) >= self.cmt_entries:
            victim_lpn, dirty = self._cmt.popitem(last=False)
            if dirty:
                yield from self._writeback_tvpn(self._tvpn_of(victim_lpn))
        tvpn = self._tvpn_of(lpn)
        if self._tp_exists(tvpn):
            self.stats.map_reads += 1
            yield from read_page_with_retry(
                self.mapping.lookup(self._tp_lpn(tvpn)), stats=self.stats
            )
        self._cmt[lpn] = False  # clean

    def _writeback_tvpn(self, tvpn: int):
        """Generator: persist one translation page (read-modify-write),
        cleaning every dirty CMT entry it covers (batching optimisation)."""
        if self._tp_exists(tvpn):
            self.stats.map_reads += 1
            yield from read_page_with_retry(
                self.mapping.lookup(self._tp_lpn(tvpn)), stats=self.stats
            )
        self.stats.map_programs += 1
        # The translation-page program runs under the adopting host
        # request but is device overhead, not host data: stamp it with
        # the ``map`` data class so the WA ledger counts it as physical-
        # only (the executor adopts this chain under the request ctx, so
        # blame charging is unchanged).
        yield from tag_commands(
            self.space.write(self._tp_lpn(tvpn), data=("TP", tvpn)),
            OpContext("host", data_class="map"),
        )
        low = tvpn * self.entries_per_tp
        high = low + self.entries_per_tp
        for cached_lpn in list(self._cmt):
            if low <= cached_lpn < high and self._cmt[cached_lpn]:
                self._cmt[cached_lpn] = False

    # -- GC integration ------------------------------------------------------------

    def _gc_rebind(self, moved: List[Tuple[int, int]]):
        """Generator hook: GC moved data pages; persist their new homes.

        Cached entries are merely marked dirty (their write-back is
        deferred and batched); uncached entries force a translation-page
        read-modify-write right now, grouped per translation page.
        """
        for lpn, __ in moved:
            if lpn >= self.logical_pages:
                continue  # translation page: GTD updated in place, free
            if lpn in self._cmt:
                self._cmt[lpn] = True
            else:
                self._pending_tvpns.add(self._tvpn_of(lpn))
        if self._rebind_active:
            # Nested GC (triggered by a TP write below): record only; the
            # outermost rebind drains the set.  Keeps GC iterative.
            return
        self._rebind_active = True
        try:
            while self._pending_tvpns:
                tvpn = self._pending_tvpns.pop()
                yield from self._writeback_tvpn(tvpn)
        finally:
            self._rebind_active = False

    # -- introspection ---------------------------------------------------------------

    cmt_hits = CounterView("_tm_cmt_hits.value")
    cmt_misses = CounterView("_tm_cmt_misses.value")

    @property
    def maintenance_active(self) -> bool:
        return self.space.maintenance_active

    @property
    def cmt_hit_ratio(self) -> float:
        total = self.cmt_hits + self.cmt_misses
        return self.cmt_hits / total if total else 0.0

    def health_snapshot(self) -> dict:
        out = super().health_snapshot()
        out["cmt"] = {
            "entries": len(self._cmt),
            "capacity": self.cmt_entries,
            "hits": self.cmt_hits,
            "misses": self.cmt_misses,
            "hit_ratio": round(self.cmt_hit_ratio, 4),
        }
        out["occupancy"] = self.space.occupancy()
        return out
