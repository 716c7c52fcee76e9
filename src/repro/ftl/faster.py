"""FASTer without a SW log: a hybrid log-block FTL with a second-chance
isolation area (Lim, Lee, Moon — SNAPI 2010), descendant of FAST.

Layout:

* **data area** — block-level mapped (``lbn -> pbn``); pages sit at their
  in-block offset, so fresh data can append in place;
* **RW log area** — page-mapped log blocks written append-only,
  round-robin over :data:`LOG_STRIPES` tails; reclaimed FIFO.

FASTer's contribution over FAST is the *second chance*: when the oldest
log block is reclaimed, still-valid pages that have not yet had a second
chance are migrated to the log tail instead of forcing full merges —
hot pages usually die before their second eviction.  Pages caught a
second time force the expensive **full merge** of their logical block:
gather the newest version of every page of the block (from data area +
log) into a freshly allocated block.

The published design also keeps a *SW log block* for sequential
rewrites of one logical block, retired by a switch merge (a complete
sequence) or a partial merge (an interrupted one).  This model has
none: every rewrite goes to the RW log, and every merge is a full merge.
It is a fair stand-in for the paper's device because database traffic
is scattered page updates.  On the E1 traces a SW log completes no
sequence, so it never takes its cheap switch merge; it only adds
partial merges, which made FASTer relocate more (TPC-B at 8 s: the
copyback ratio over NoFTL rose from ×1.72 to ×2.48).  Without it the
black-box arm is the cheaper one, and NoFTL's measured margin is a
lower bound.

The merges are the copyback/erase traffic that the paper's Figure 3
counts: roughly 2x the copybacks and 1.7-1.8x the erases of NoFTL under
TPC traces.
"""

from __future__ import annotations

from array import array as _array
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set

from ..flash.commands import (
    EraseBlock,
    Pause,
    ProgramPage,
    stamp_context,
    tag_commands,
)
from ..flash.errors import (
    BlockWornOut,
    DieOutageError,
    ReadUnwrittenError,
    UncorrectableError,
)
from ..flash.geometry import Geometry
from ..telemetry import EventTrace, MetricsRegistry, OpContext
from .base import (
    OUTAGE_RETRY_LIMIT,
    UNMAPPED,
    BaseFTL,
    outage_backoff_us,
    read_page_with_retry,
    relocate_page,
    retry_after_outage,
)

__all__ = ["FASTer"]

#: Fraction of physical blocks dedicated to the RW log area.
LOG_FRACTION = 0.07
#: Bank-striped log tails, as on the OpenSSD firmware: appends
#: round-robin over several active log blocks so log writes exploit die
#: parallelism (a single tail would serialize at one die).
LOG_STRIPES = 4
#: A reclaim migrates at most this fraction of a log block's pages;
#: beyond it, remaining valid pages are merged (bounds the isolation
#: area's growth, as in the original paper).
MIGRATION_CAP_FRACTION = 0.75


class FASTer(BaseFTL):
    """Hybrid mapping FTL with FASTer's isolation/second-chance policy
    and no SW log (see the module docstring)."""

    def __init__(
        self,
        geometry: Geometry,
        op_ratio: float = 0.1,
        bad_blocks: Iterable[int] = (),
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        super().__init__(geometry, op_ratio, telemetry=telemetry, trace=trace)
        pages_per_block = geometry.pages_per_block
        self.logical_blocks = self.logical_pages // pages_per_block
        self.logical_pages = self.logical_blocks * pages_per_block

        bad = set(bad_blocks)
        good_blocks = [pbn for pbn in range(geometry.total_blocks) if pbn not in bad]
        self._free: Deque[int] = deque(good_blocks)
        self.log_blocks_max = max(2 + LOG_STRIPES, int(len(good_blocks) * LOG_FRACTION))

        # data area — flat per-lbn arrays plus one written bitmap over the
        # logical page space (same flat typed-array representation as the
        # page-mapped engine).
        self.block_map = _array("q", [UNMAPPED]) * self.logical_blocks
        self._data_fill = _array("l", [0]) * self.logical_blocks
        self._data_written = bytearray(self.logical_pages)

        # RW log area
        self._log_order: Deque[int] = deque()    # full log blocks, FIFO
        # stripe -> [pbn, next_offset] or None
        self._active_logs: List[Optional[list]] = [None] * LOG_STRIPES
        self._stripe_rr = 0
        # lpn -> newest log ppn (UNMAPPED when absent) + live-entry count.
        self._log_map = _array("q", [UNMAPPED]) * self.logical_pages
        self._log_live = 0
        self._log_block_entries: Dict[int, List] = {}  # pbn -> [(off, lpn)]
        self._second_chanced = bytearray(self.logical_pages)
        self._second_chanced_live = 0

        self._reclaiming = False
        # Logical blocks currently being merged: concurrent host writes to
        # them are diverted to the log so the merge cannot lose them.
        self._merging: Set[int] = set()
        # lpn -> [payload] of a host write or migration whose program a
        # die outage rejected: the controller's write buffer holds it
        # (and serves reads of it) until it lands at a fresh log slot.
        self._parked: Dict[int, list] = {}

        # Telemetry: the merge counter plus spans over log reclaims and
        # full merges — the operations behind FASTer's Figure 3 overhead.
        self._tm_merges_full = self.telemetry.counter(
            "ftl.merges", layer="ftl", ftl="FASTer", kind="full")
        self._tm_second_chances = self.telemetry.counter(
            "ftl.second_chances", layer="ftl", ftl="FASTer")
        self._tm_reclaim_us = self.telemetry.histogram(
            "ftl.log.reclaim_us", layer="ftl", ftl="FASTer")
        self._tm_merge_us = self.telemetry.histogram("ftl.merge.full_us", layer="ftl", ftl="FASTer")
        self._tm_relocations = self.telemetry.counter("ftl.relocations", layer="ftl")
        self.stats.bind(
            gc_relocations=self._tm_relocations,
            merges_full=self._tm_merges_full,
            second_chances=self._tm_second_chances,
        )

    # -- host interface ---------------------------------------------------------

    def read(self, lpn: int):
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        while True:
            if self._parked and lpn in self._parked:
                return self._parked[lpn][0]
            ppn = self._newest_ppn(lpn)
            if ppn is None:
                return None
            try:
                result, __ = yield from read_page_with_retry(ppn, stats=self.stats)
                return result.data
            except ReadUnwrittenError:
                # Queued behind this lpn's program, which a die outage
                # then rejected: look the lpn up again.
                if self._newest_ppn(lpn) == ppn:
                    raise

    def write(self, lpn: int, data=None):
        self._check_lpn(lpn)
        self.stats.host_writes += 1
        if self._parked:
            self._parked.pop(lpn, None)  # superseded by this version
        lbn, offset = divmod(lpn, self.geometry.pages_per_block)
        if self._can_write_in_place(lbn, offset):
            yield from self._write_in_place(lbn, offset, data)
            return
        yield from self._log_append(lpn, data)

    def is_fast_read(self, lpn: int) -> bool:
        return True  # reads never mutate FASTer metadata

    @property
    def maintenance_active(self) -> bool:
        """True while a log reclaim or full merge is in flight — host
        commands queueing behind the controller then are blocked by GC."""
        return self._reclaiming or bool(self._merging)

    # -- data-area path -----------------------------------------------------------

    def _can_write_in_place(self, lbn: int, offset: int) -> bool:
        """True when the page can append at its home offset (fresh block
        or ascending first-writes).  Blocks under merge are excluded —
        concurrent writes must go to the log or the merge would lose
        them."""
        if lbn in self._merging:
            return False
        if self.block_map[lbn] == UNMAPPED:
            return True
        return offset >= self._data_fill[lbn]

    def _write_in_place(self, lbn: int, offset: int, data):
        if self.block_map[lbn] == UNMAPPED:
            self.block_map[lbn] = self._take_block()
            self._data_fill[lbn] = 0
        pbn = self.block_map[lbn]
        lpn = lbn * self.geometry.pages_per_block + offset
        # Claim the slot and retire any older log version *before*
        # yielding: concurrent writers and merges must see the raised
        # fill / written set immediately, and a *newer* log version bound
        # by a concurrent writer after this point must survive (it would
        # be wrongly deleted if we invalidated after the program).  The
        # die's FIFO guarantees our program lands before any read that
        # the new state routes here.  A program a die outage rejects
        # leaves its slot a hole and moves to the log (:meth:`_park`).
        self._data_fill[lbn] = max(self._data_fill[lbn], offset + 1)
        self._data_written[lpn] = 1
        self._invalidate_log_entry(lpn)
        try:
            yield ProgramPage(self.geometry.ppn_of(pbn, offset), data, {"lpn": lpn})
        except DieOutageError as failed:
            self._data_written[lpn] = 0
            # A newer version logged or parked meanwhile supersedes this one.
            if self._log_map[lpn] == UNMAPPED and lpn not in self._parked:
                yield from self._park(lpn, data, failed)

    # -- RW log path --------------------------------------------------------------------

    def _log_append(self, lpn: int, data):
        """Append one host page version at the log tail.

        The slot allocation, mapping update and program issue form one
        atomic (yield-free) section, so concurrent appenders can never
        program a log block out of ascending order, and issue order
        equals mapping order.  A program a die outage rejects goes to
        :meth:`_park`.
        """
        ppn = yield from self._log_slot()
        pbn = self.geometry.block_of_ppn(ppn)
        offset = self.geometry.page_offset_of_ppn(ppn)
        self._invalidate_log_entry(lpn)
        self._log_map[lpn] = ppn
        self._log_live += 1
        self._log_block_entries[pbn].append((offset, lpn))
        try:
            yield ProgramPage(ppn, data, {"lpn": lpn})
        except DieOutageError as failed:
            if self._log_map[lpn] == ppn:  # else a newer version is bound
                self._invalidate_log_entry(lpn)
                yield from self._park(lpn, data, failed)

    def _park(self, lpn: int, data, failed: DieOutageError, migration: bool = False):
        """Land a version of ``lpn`` whose program a die outage rejected.

        The rejected slot stays a hole, never retried: on the DES rig
        commands queued behind it on the die may already have programmed
        a later page of its block, or read it.  The payload waits in the
        write buffer (:meth:`read` serves it) through an escalating Pause,
        up to :data:`OUTAGE_RETRY_LIMIT` rounds, then takes a fresh log
        slot with the same yield-free allocate, bind and issue as
        :meth:`_log_append`.  A newer host write of the lpn drops it.
        ``migration`` marks a second-chance migration, which keeps its
        second-chance mark and allocates as the reclaimer.
        """
        token = [data]
        waits = 0
        while True:
            self._parked[lpn] = token
            waits += 1
            if waits > OUTAGE_RETRY_LIMIT:
                del self._parked[lpn]
                raise failed
            yield Pause(outage_backoff_us(waits))
            ppn = yield from self._log_slot(for_migration=migration)
            if self._parked.get(lpn) is not token:
                return  # superseded while waiting
            del self._parked[lpn]
            self._log_map[lpn] = ppn
            self._log_live += 1
            self._log_block_entries[self.geometry.block_of_ppn(ppn)].append(
                (self.geometry.page_offset_of_ppn(ppn), lpn))
            if migration:
                self._second_chanced[lpn] = 1
                self._second_chanced_live += 1
            try:
                yield ProgramPage(ppn, data, {"lpn": lpn})
                return
            except DieOutageError as exc:
                if self._log_map[lpn] != ppn:
                    return
                self._invalidate_log_entry(lpn)
                failed = exc

    def _log_slot(self, for_migration: bool = False):
        """Generator: next free log page (round-robin over the stripes).

        A stripe's new block is allocated *before* reclaiming (briefly
        exceeding the log budget) because second-chance migrations
        performed during the reclaim themselves append to the log.
        Reclaim is guarded against re-entry; if the budget is badly
        over-run while a reclaim is already in flight (heavy concurrent
        writers), host appenders back off with :class:`Pause` commands
        until the reclaimer frees space — the firmware's backpressure.
        The reclaimer's own migration appends (``for_migration``) are
        exempt, or they would deadlock against their own reclaim.
        """
        pages_per_block = self.geometry.pages_per_block
        stripe = self._stripe_rr % LOG_STRIPES
        self._stripe_rr += 1
        while True:
            active = self._active_logs[stripe]
            if active is not None and active[1] < pages_per_block:
                break
            if active is not None:
                self._log_order.append(active[0])
                self._active_logs[stripe] = None
            over_budget = len(self._log_order) + LOG_STRIPES > self.log_blocks_max
            if over_budget and self._reclaiming and not for_migration:
                hard_over = len(self._log_order) > self.log_blocks_max + 2 * LOG_STRIPES
                if hard_over:
                    # Waiting for the in-flight reclaim to free log space:
                    # GC backpressure, blamed as such.
                    yield stamp_context(Pause(duration_us=200.0), OpContext("gc"))
                    continue
            pbn = self._take_block()
            self._log_block_entries[pbn] = []
            self._active_logs[stripe] = [pbn, 0]
            if over_budget and not self._reclaiming:
                self._reclaiming = True
                try:
                    while len(self._log_order) + LOG_STRIPES > self.log_blocks_max:
                        yield from self._reclaim_oldest_log_block()
                finally:
                    self._reclaiming = False
        active = self._active_logs[stripe]
        ppn = self.geometry.ppn_of(active[0], active[1])
        active[1] += 1
        return ppn

    def _reclaim_oldest_log_block(self):
        victim = self._log_order.popleft()
        ctx = OpContext("gc")
        with self.trace.span("log.reclaim", histogram=self._tm_reclaim_us,
                             ctx=ctx, victim=victim) as span:
            yield from tag_commands(self._reclaim_log_block(victim, ctx=ctx, span=span), ctx)

    def _reclaim_log_block(self, victim: int, ctx=None, span=None):
        entries = self._log_block_entries.pop(victim, [])
        valid = [
            (offset, lpn)
            for offset, lpn in entries
            if self._log_map[lpn] == self.geometry.ppn_of(victim, offset)
        ]
        migrate: List = []
        merge_lpns: List[int] = []
        # Under heavy pressure the isolation area must not grow further:
        # degrade to plain FAST (merge everything) until the log drains.
        pressure = len(self._log_order) > self.log_blocks_max + LOG_STRIPES
        if not pressure:
            cap = int(MIGRATION_CAP_FRACTION * self.geometry.pages_per_block)
            for offset, lpn in valid:
                if not self._second_chanced[lpn] and len(migrate) < cap:
                    migrate.append((offset, lpn))
                else:
                    merge_lpns.append(lpn)
        else:
            merge_lpns = [lpn for __, lpn in valid]

        # Full merges first: they consume log entries in *other* blocks too.
        for lbn in sorted({lpn // self.geometry.pages_per_block for lpn in merge_lpns}):
            yield from self._full_merge(lbn, parent_ctx=ctx, parent_span=span)

        for offset, lpn in migrate:
            src = self.geometry.ppn_of(victim, offset)
            if self._log_map[lpn] != src:
                continue  # consumed by a merge above
            self._tm_second_chances.inc()
            # Read the payload first (a yield), then allocate + bind +
            # program atomically so concurrent appenders keep the log
            # block's program order ascending.
            self._tm_relocations.inc()
            self.stats.gc_reads += 1
            try:
                result, __ = yield from read_page_with_retry(src, stats=self.stats)
            except UncorrectableError:
                # Unreadable after retries: drop the entry (its block must
                # still be reclaimable) and record the loss.
                self._tm_relocation_skips.inc()
                if self._log_map[lpn] == src:
                    self._consume_log_entry(lpn)
                continue
            if self._log_map[lpn] != src:
                continue  # a fresher host version landed mid-read
            dst = yield from self._log_slot(for_migration=True)
            dst_pbn = self.geometry.block_of_ppn(dst)
            dst_offset = self.geometry.page_offset_of_ppn(dst)
            self._invalidate_log_entry(lpn)
            self._log_map[lpn] = dst
            self._log_live += 1
            self._log_block_entries[dst_pbn].append((dst_offset, lpn))
            self._second_chanced[lpn] = 1
            self._second_chanced_live += 1
            self.stats.gc_programs += 1
            try:
                yield ProgramPage(dst, result.data, {"lpn": lpn})
            except DieOutageError as failed:
                if self._log_map[lpn] == dst:
                    self._invalidate_log_entry(lpn)
                    yield from self._park(lpn, result.data, failed, migration=True)

        # The victim may still hold valid pages whose logical block is
        # being merged by a concurrent operation (we skipped those merges
        # above).  Erasing now would destroy data that merge still reads:
        # defer the victim instead and let the in-flight merge finish.
        remaining = [
            (offset, lpn)
            for offset, lpn in entries
            if self._log_map[lpn] == self.geometry.ppn_of(victim, offset)
        ]
        if remaining:
            self._log_block_entries[victim] = entries
            self._log_order.appendleft(victim)
            yield Pause(duration_us=50.0)  # let the other merge progress
            return
        yield from self._erase_block(victim)

    def _full_merge(self, lbn: int, parent_ctx=None, parent_span=None):
        """Gather the newest version of every page of ``lbn`` into a fresh
        block — the expensive operation FASTer tries to avoid."""
        self._tm_merges_full.inc()
        if lbn in self._merging:
            return  # a concurrent reclaim is already merging this block
        self._merging.add(lbn)
        ctx = (parent_ctx.child("merge") if parent_ctx is not None else OpContext("merge"))
        try:
            with self.trace.span("merge.full", histogram=self._tm_merge_us,
                                 parent=parent_span, ctx=ctx, lbn=lbn):
                yield from tag_commands(self._full_merge_locked(lbn), ctx)
        finally:
            self._merging.discard(lbn)

    def _full_merge_locked(self, lbn: int):
        pages_per_block = self.geometry.pages_per_block
        base = lbn * pages_per_block
        old_pbn = self.block_map[lbn]
        if old_pbn == UNMAPPED:
            old_pbn = None
        prefer_plane = None
        if old_pbn is not None:
            prefer_plane = (self.geometry.die_of_block(old_pbn),
                            self.geometry.plane_of_block(old_pbn))
        new_pbn = self._take_block(prefer_plane)
        written: Set[int] = set()
        # Old written bits are read during the loop and only overwritten by
        # the splice after it.
        consumed = []
        for offset in range(pages_per_block):
            lpn = base + offset
            src = self._log_map[lpn]
            from_log = src != UNMAPPED
            if not from_log:
                if old_pbn is None or not self._data_written[lpn]:
                    continue
                src = self.geometry.ppn_of(old_pbn, offset)
            dst = self.geometry.ppn_of(new_pbn, offset)
            try:
                ok = yield from relocate_page(self.geometry, src, dst, self.stats,
                                              oob={"lpn": lpn})
            except ReadUnwrittenError:
                if self._newest_ppn(lpn) == src:
                    raise
                continue  # its program was rejected and has moved on
            if from_log:
                # Consume unreadable entries too, or the reclaim that
                # triggered this merge can never retire its victim.
                consumed.append((lpn, src))
            if not ok:
                continue  # page lost to media; recorded, not merged
            written.add(offset)
        # Install the new block *first*, then retire the consumed log
        # entries — removing an entry while block_map still points at the
        # old block would expose stale data to concurrent readers.  Each
        # retire re-checks that no newer host version replaced the entry.
        self.block_map[lbn] = new_pbn
        new_bits = bytearray(pages_per_block)
        for offset in written:
            new_bits[offset] = 1
        self._data_written[base:base + pages_per_block] = new_bits
        self._data_fill[lbn] = (max(written) + 1) if written else 0
        for lpn, src in consumed:
            if self._log_map[lpn] == src:
                self._consume_log_entry(lpn)
        if old_pbn is not None:
            yield from self._erase_block(old_pbn)

    # -- shared helpers ---------------------------------------------------------------

    def _newest_ppn(self, lpn: int) -> Optional[int]:
        ppn = self._log_map[lpn]
        if ppn != UNMAPPED:
            return ppn
        lbn, offset = divmod(lpn, self.geometry.pages_per_block)
        pbn = self.block_map[lbn]
        if pbn != UNMAPPED and self._data_written[lpn]:
            return self.geometry.ppn_of(pbn, offset)
        return None

    def _invalidate_log_entry(self, lpn: int) -> None:
        if self._log_map[lpn] != UNMAPPED:
            self._log_map[lpn] = UNMAPPED
            self._log_live -= 1
        if self._second_chanced[lpn]:
            self._second_chanced[lpn] = 0
            self._second_chanced_live -= 1

    def _consume_log_entry(self, lpn: int) -> None:
        self._invalidate_log_entry(lpn)

    def _take_block(self, prefer_plane=None) -> int:
        if not self._free:
            raise RuntimeError("FASTer out of free blocks")
        if prefer_plane is not None:
            for index, pbn in enumerate(self._free):
                plane = (self.geometry.die_of_block(pbn), self.geometry.plane_of_block(pbn))
                if plane == prefer_plane:
                    del self._free[index]
                    return pbn
        return self._free.popleft()

    def _erase_block(self, pbn: int):
        command = EraseBlock(pbn=pbn)
        try:
            try:
                yield command
            except DieOutageError as failed:
                yield from retry_after_outage(command, failed)
        except BlockWornOut:
            self.stats.grown_bad_blocks += 1
            return
        self.stats.gc_erases += 1
        self._free.append(pbn)

    # -- introspection -------------------------------------------------------------------

    def log_occupancy(self) -> dict:
        active = sum(1 for entry in self._active_logs if entry is not None)
        return {
            "log_blocks": len(self._log_order) + active,
            "log_blocks_max": self.log_blocks_max,
            "live_log_entries": self._log_live,
            "second_chanced": self._second_chanced_live,
        }

    def health_snapshot(self) -> dict:
        out = super().health_snapshot()
        out["log"] = self.log_occupancy()
        return out
