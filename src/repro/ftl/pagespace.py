"""Page-mapped flash space: out-of-place allocation plus garbage collection
over a set of planes.

This is the engine behind both the pure page-level FTL
(:class:`repro.ftl.pagemap.PageMapFTL` — the paper's on-device baseline)
and the NoFTL storage manager (:mod:`repro.core`), which instantiates one
space per physical *region* and drives it with DBMS knowledge (trim hints,
hot/cold streams).

Concurrency note (DES mode): writers into one space are expected to be
serialized by the caller (the NoFTL region lock or the block device's
controller mutex — the paper's "single ASIC controller").  Reads are pure
lookups and may run concurrently.  GC nevertheless double-checks mappings
before rebinding relocated pages, so a read-mostly race cannot lose data.
"""

from __future__ import annotations

import random
from array import array as _array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..flash.commands import (
    Copyback,
    EraseBlock,
    Pause,
    ProgramPage,
    ReadPage,
    stamp_context,
    tag_commands,
)
from ..flash.errors import (
    BlockWornOut,
    DieOutageError,
    FlashError,
    PowerCutError,
    ProgramError,
    UncorrectableError,
)
from ..flash.geometry import Geometry
from ..telemetry import EventTrace, MetricsRegistry, OpContext, trace_or_quiet
from .base import (
    OUTAGE_RETRY_LIMIT,
    UNMAPPED,
    BlockPool,
    FTLStats,
    MappingState,
    VictimBuckets,
    outage_backoff_us,
    read_page_with_retry,
    relocate_page,
    relocate_via_host,
    retry_after_outage,
)
from .streams import CODE_CLASSES, STREAM_CODES, gc_stream_of_code

__all__ = ["PageMappedSpace", "PlaneId"]

#: (global die index, plane index within die)
PlaneId = Tuple[int, int]

_HOT = "hot"
_COLD = "cold"

#: Program failures one write survives (each remaps it to a fresh block)
#: before the error reaches the caller.
MAX_PROGRAM_REMAPS = 8
#: Failed destinations a quarantined block's evacuation tolerates before
#: it leaves the remaining pages pinned in place.
MAX_EVACUATION_FAILURES = 4


class _Plane:
    """Allocation state of one plane.

    ``occupied`` (the GC candidate set) is mirrored into ``buckets``, an
    invalid-count bucket structure giving O(1) greedy victim selection;
    membership changes go through :meth:`occupy`/:meth:`release` so the
    two stay in lockstep and the mapping's per-block watch slot points at
    the right bucket list.
    """

    def __init__(self, plane_id: PlaneId, blocks: Sequence[int],
                 bad_blocks: Iterable[int], mapping: MappingState,
                 pages_per_block: int):
        self.plane_id = plane_id
        bad = set(bad_blocks)
        self.pool = BlockPool(pbn for pbn in blocks if pbn not in bad)
        self.occupied: set = set()
        self.collecting: set = set()
        self.buckets = VictimBuckets(pages_per_block)
        self._mapping = mapping
        # stream -> [pbn, next_offset]; None until first allocation
        self.active: Dict[str, Optional[list]] = {_HOT: None, _COLD: None}
        # Host writes since the last wear-level spread check.
        self.writes_since_wl_check = 0

    def occupy(self, pbn: int) -> None:
        """A filled block leaves its active point: index it for GC."""
        self.occupied.add(pbn)
        self.buckets.add(pbn, self._mapping.valid_in_block[pbn])
        self._mapping.block_watch[pbn] = self.buckets

    def release(self, pbn: int) -> None:
        """Drop a block from GC candidacy (erase, quarantine, rebuild)."""
        self.occupied.discard(pbn)
        self.buckets.discard(pbn)
        if self._mapping.block_watch[pbn] is self.buckets:
            self._mapping.block_watch[pbn] = None


class PageMappedSpace:
    """Out-of-place page allocation with greedy / cost-benefit GC.

    Parameters
    ----------
    geometry, mapping
        Device shape and the (shared) mapping tables.
    planes
        The planes this space allocates from.  Logical pages are striped
        across them, so consecutive LPNs land on different dies.
    stats
        Counter sink (shared with the owning FTL / storage manager).
    gc_policy
        ``"greedy"`` (min valid pages) or ``"cost_benefit"``
        (valid ratio weighted by block age, Rosenblum-style).
    gc_low_water
        GC runs while a plane's free-block pool is below this level.
    separate_streams
        When True, writes keep their named allocation point per plane
        and GC relocations go to a dedicated GC frontier instead of
        mixing with host writes (hot/cold stream separation — ablation
        E10).  Each stream of the taxonomy (:mod:`repro.ftl.streams`) is
        one point: a data-class stream stamps its class code in OOB and
        the per-lpn class table, and GC relocates the page into *its own
        class's* GC frontier, so blocks stay single-class through
        relocation.  The legacy ``hot`` / ``cold`` streams are class 0
        and relocate into ``cold``.  When False, every write and
        relocation shares the ``hot`` point.
    wear_level_delta
        Static wear-leveling trigger: when the erase-count spread inside a
        plane exceeds this, the coldest occupied block is refreshed.
        ``None`` disables.
    wear_level_check_every
        Host writes per plane between spread checks (with
        ``wear_level_delta`` set).
    metric_prefix
        Namespace for the recovery telemetry counters (``read_retries``,
        ``scrubs``, ``program_remaps``, ``gc.relocation_skips``): ``"ftl"``
        for on-device FTLs, ``"noftl"`` for manager-owned region spaces.
    """

    def __init__(
        self,
        geometry: Geometry,
        mapping: MappingState,
        planes: Sequence[PlaneId],
        stats: FTLStats,
        gc_policy: str = "greedy",
        gc_low_water: int = 2,
        separate_streams: bool = True,
        use_copyback: bool = True,
        wear_level_delta: Optional[int] = None,
        wear_level_check_every: int = 64,
        bad_blocks: Iterable[int] = (),
        placement_divisor: int = 1,
        rng: Optional[random.Random] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
        metric_prefix: str = "ftl",
    ):
        if gc_policy not in ("greedy", "cost_benefit"):
            raise ValueError(f"unknown gc_policy: {gc_policy!r}")
        if gc_low_water < 2:
            raise ValueError("gc_low_water must be >= 2 (GC needs a spare block)")
        if not planes:
            raise ValueError("a space needs at least one plane")
        self.geometry = geometry
        self.mapping = mapping
        self.stats = stats
        self.gc_policy = gc_policy
        self.gc_low_water = gc_low_water
        self.separate_streams = separate_streams
        # class code -> GC relocation stream; untracked pages (code 0)
        # keep the legacy target.
        self._gc_streams = (_COLD if separate_streams else _HOT,) + tuple(
            gc_stream_of_code(code) for code in range(1, max(CODE_CLASSES) + 1)
        )
        #: Plain stream-placement counters (never registered as metrics,
        #: so legacy golden digests are untouched): victim blocks whose
        #: valid pages spanned more than one tracked class, and per-stream
        #: frontiers adopted back from a mount scan.
        self.stream_stats: Dict[str, int] = {
            "victims": 0,
            "mixed_class_victims": 0,
            "frontiers_adopted": 0,
        }
        self.use_copyback = use_copyback
        self.wear_level_delta = wear_level_delta
        self.wear_level_check_every = wear_level_check_every
        if placement_divisor < 1:
            raise ValueError("placement_divisor must be >= 1")
        self.placement_divisor = placement_divisor
        self._rng = rng or random.Random(0)
        bad = set(bad_blocks)
        self._planes: Dict[PlaneId, _Plane] = {}
        for plane_id in planes:
            die, plane = plane_id
            blocks = geometry.blocks_of_plane(die, plane)
            self._planes[plane_id] = _Plane(
                plane_id, blocks, bad, mapping, geometry.pages_per_block
            )
        self.plane_ids: List[PlaneId] = list(planes)
        #: Optional generator hook called after each collected block with the
        #: list of (lpn, dst_ppn) pages it moved.  DFTL uses it to charge
        #: translation-page maintenance for GC-relocated data pages.
        self.rebind_hook = None
        #: Optional plain callback invoked with the pbn of a block that wore
        #: out during erase (NoFTL wires this to its bad-block manager).
        self.on_grown_bad = None
        # Erase-count shadow (the host cannot see array internals; NoFTL
        # tracks wear itself, which is exactly what the paper proposes).
        # Flat, like every other per-block table since the typed-array
        # refactor; only this space's blocks ever increment.
        self.erase_counts = _array("l", [0]) * geometry.total_blocks
        self.metric_prefix = metric_prefix
        #: Blocks that produced a retried-but-recovered read; GC victim
        #: selection prioritises them so suspect media is refreshed soon.
        self.suspect_blocks: set = set()
        #: Blocks quarantined after a program failure or an unreadable GC
        #: page — never erased, never reused.
        self.quarantined_blocks: set = set()

        # Telemetry: GC victim quality, collection/wear-level spans, and
        # back-off waits behind an in-flight collection.
        self.telemetry = telemetry or MetricsRegistry()
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        self._tm_gc_runs = self.telemetry.counter("ftl.gc.collections", layer="ftl")
        self._tm_gc_waits = self.telemetry.counter("ftl.gc.backoff_waits", layer="ftl")
        self._tm_victim_valid = self.telemetry.histogram("ftl.gc.victim_valid", layer="ftl")
        self._tm_gc_us = self.telemetry.histogram("ftl.gc.collect_us", layer="ftl")
        self._tm_wl_us = self.telemetry.histogram("ftl.wl.migrate_us", layer="ftl")
        self._tm_relocations = self.telemetry.counter("ftl.relocations", layer="ftl")
        prefix = metric_prefix
        read_retries = self.telemetry.counter(f"{prefix}.read_retries", layer=prefix)
        self._tm_scrubs = self.telemetry.counter(f"{prefix}.scrubs", layer=prefix)
        self._tm_program_remaps = self.telemetry.counter(f"{prefix}.program_remaps", layer=prefix)
        self._tm_relocation_skips = self.telemetry.counter(
            f"{prefix}.gc.relocation_skips", layer=prefix
        )
        # The registry counters are the tallies; the shared stats read them.
        stats.bind(
            gc_relocations=self._tm_relocations,
            read_retries=read_retries,
            scrubs=self._tm_scrubs,
            program_remaps=self._tm_program_remaps,
            relocation_skips=self._tm_relocation_skips,
        )

    # -- placement -----------------------------------------------------------------

    def plane_of_lpn(self, lpn: int) -> PlaneId:
        """Deterministic striping of logical pages across this space's
        planes (die-wise striping when the planes span dies in order).

        ``placement_divisor`` compensates for an outer striping level: a
        region manager that routes ``lpn % n_regions`` to this space passes
        ``n_regions`` so region-local pages still spread over all planes.
        """
        return self.plane_ids[(lpn // self.placement_divisor) % len(self.plane_ids)]

    def free_blocks(self, plane_id: PlaneId) -> int:
        return len(self._planes[plane_id].pool)

    def total_free_blocks(self) -> int:
        return sum(len(plane.pool) for plane in self._planes.values())

    @property
    def maintenance_active(self) -> bool:
        """True while any plane has a collection (GC / wear-level refresh)
        in flight — used by the layers above to classify lock waits as
        queueing-behind-GC."""
        return any(plane.collecting for plane in self._planes.values())

    # -- host operations -------------------------------------------------------------

    def read(self, lpn: int):
        """Generator: read the current version of ``lpn`` (None if never
        written).

        ECC failures are retried with backoff (bounded by
        :data:`~repro.ftl.base.READ_RETRY_LIMIT`); a read that recovers
        only after retries scrubs the page to fresh media and marks its
        block suspect, so GC refreshes it soon.  A persistent media defect
        exhausts the budget and the :class:`UncorrectableError`
        propagates to the host.
        """
        ppn = self.mapping.l2p[lpn]
        if ppn == UNMAPPED:
            return None
        try:
            result = yield ReadPage(ppn)
        except (UncorrectableError, DieOutageError) as exc:
            result, retried = yield from read_page_with_retry(ppn, stats=self.stats, failed=exc)
            if retried:
                yield from self._scrub_page(lpn, ppn, result.data)
        return result.data

    def write(self, lpn: int, data=None, stream: str = _HOT):
        """Generator: write ``lpn`` out-of-place, GC-ing first if needed.

        A PAGE PROGRAM failure consumes the target page; the write is
        remapped to a freshly allocated page and the failed block is
        retired (grown bad, valid pages scrubbed out).  Die outages are
        waited out — the rejected command consumed nothing.
        """
        plane_id = self.plane_of_lpn(lpn)
        plane = self._planes[plane_id]
        # ensure_space runs GC below the low-water mark and counts this
        # write towards the next wear-level spread check.  Enter it only
        # when one of the two is due; otherwise just count the write.
        if len(plane.pool) < self.gc_low_water or (
            self.wear_level_delta is not None
            and plane.writes_since_wl_check + 1 >= self.wear_level_check_every
        ):
            yield from self.ensure_space(plane_id)
        elif self.wear_level_delta is not None:
            plane.writes_since_wl_check += 1
        stream = stream if self.separate_streams else _HOT
        ppn = self._allocate(plane_id, stream)
        # OOB carries the logical page number and a monotonically increasing
        # sequence number, so a cold scan can rebuild the mapping (recovery).
        oob = {"lpn": lpn, "seq": self.mapping.clock + 1}
        # The class rides in OOB (mount re-derives per-stream frontiers
        # from it) and in the per-lpn table (GC routes relocations by it).
        code = STREAM_CODES.get(stream, 0)
        if code:
            oob["cls"] = code
        self.mapping.lpn_class[lpn] = code
        try:
            yield ProgramPage(ppn, data, oob)
        except (DieOutageError, ProgramError) as exc:
            ppn = yield from self._program_with_remap(plane_id, stream, ppn, data, oob, exc)
        self.mapping.bind(lpn, ppn)
        return ppn

    def _program_with_remap(
        self,
        plane_id: PlaneId,
        stream: str,
        ppn: int,
        data,
        oob,
        failed: FlashError,
    ):
        """Generator: recover a PAGE PROGRAM of ``ppn`` that raised
        ``failed``.  A :class:`DieOutageError` is waited out and the same
        ppn retried; a :class:`ProgramError` remaps the write to a fresh
        block.  Returns the ppn that actually holds the data."""
        remaps = 0
        waits = 0
        while True:
            if isinstance(failed, DieOutageError):
                # Rejected before the slot was consumed: retry same ppn.
                waits += 1
                if waits > OUTAGE_RETRY_LIMIT:
                    raise failed
                yield Pause(outage_backoff_us(waits))
            else:  # ProgramError
                remaps += 1
                self._tm_program_remaps.inc()
                if remaps > MAX_PROGRAM_REMAPS:
                    raise failed
                bad_pbn = self.geometry.block_of_ppn(ppn)
                self._quarantine_block(plane_id, bad_pbn)
                yield from tag_commands(
                    self._evacuate_block(plane_id, stream, bad_pbn),
                    OpContext("evacuation"),
                )
                ppn = self._allocate(plane_id, stream)
            try:
                yield ProgramPage(ppn, data, oob)
                return ppn
            except (DieOutageError, ProgramError) as exc:
                failed = exc

    def _route_maintenance(self, lpn: int, fallback: str):
        """(stream, oob) for relocating ``lpn`` during maintenance work
        (evacuation, scrub).  A class-tagged page goes to its own class's
        GC frontier and keeps its tag in OOB; an untracked page takes
        ``fallback``."""
        oob = {"lpn": lpn, "seq": self.mapping.clock + 1}
        code = self.mapping.lpn_class[lpn]
        if not code:
            return fallback, oob
        oob["cls"] = code
        return self._gc_streams[code], oob

    def _quarantine_block(self, plane_id: PlaneId, pbn: int) -> None:
        """Retire a block in place after a failure (no flash I/O).

        Pulled from allocation — active write points abandoned, pool and
        occupied membership dropped — and reported grown-bad exactly once.
        Quarantined blocks are never erased: their programmed pages stay
        readable until the mapping moves or drops them.
        """
        plane = self._planes[plane_id]
        for name, active in plane.active.items():
            if active is not None and active[0] == pbn:
                plane.active[name] = None
        plane.release(pbn)
        plane.pool.remove(pbn)
        self.suspect_blocks.discard(pbn)
        if pbn not in self.quarantined_blocks:
            self.quarantined_blocks.add(pbn)
            self.stats.grown_bad_blocks += 1
            if self.on_grown_bad is not None:
                self.on_grown_bad(pbn)

    def _evacuate_block(self, plane_id: PlaneId, stream: str, pbn: int):
        """Generator: best-effort scrub of a quarantined block's valid
        pages onto trustworthy media.  Pages that cannot move (pool dry,
        repeated program failures) stay in place — they remain readable,
        just pinned to suspect media."""
        failures = 0
        for offset, lpn in self.mapping.valid_lpns_of_block(pbn):
            src = self.geometry.ppn_of(pbn, offset)
            if self.mapping.lookup(lpn) != src:
                continue
            dst_stream, oob = self._route_maintenance(lpn, stream)
            while True:
                try:
                    dst = self._allocate(plane_id, dst_stream)
                except RuntimeError:
                    return  # no free slots; leave remaining pages pinned
                try:
                    moved = yield from relocate_page(self.geometry, src, dst, self.stats, oob=oob)
                except ProgramError:
                    # The evacuation destination failed too; quarantine it
                    # and try another block, boundedly.
                    failures += 1
                    self._tm_program_remaps.inc()
                    self._quarantine_block(plane_id, self.geometry.block_of_ppn(dst))
                    if failures > MAX_EVACUATION_FAILURES:
                        return
                    continue
                if moved and self.mapping.lookup(lpn) == src:
                    self.mapping.bind(lpn, dst)
                break

    def _scrub_page(self, lpn: int, src_ppn: int, data):
        """Generator: best-effort relocation of a page whose read needed
        retries.  The source block is marked suspect either way; GC will
        refresh it soon."""
        pbn = self.geometry.block_of_ppn(src_ppn)
        if pbn not in self.quarantined_blocks:
            self.suspect_blocks.add(pbn)
        plane_id = self.plane_of_lpn(lpn)
        stream, oob = self._route_maintenance(lpn, self._gc_streams[0])
        try:
            dst = self._allocate(plane_id, stream)
        except RuntimeError:
            return  # no free slot right now; the suspect mark stands
        try:
            yield stamp_context(ProgramPage(ppn=dst, data=data, oob=oob), OpContext("scrub"))
        except PowerCutError:
            raise  # the whole device is gone, not just this scrub
        except FlashError:
            return  # scrub is advisory; the original page still reads
        # Reads are lock-free: only rebind if the mapping is unchanged.
        if self.mapping.lookup(lpn) == src_ppn:
            self.mapping.bind(lpn, dst)
            self._tm_scrubs.inc()

    def trim(self, lpn: int) -> None:
        """Host-side only — deallocating a page costs no flash I/O."""
        self.mapping.unbind(lpn)

    # -- allocation -------------------------------------------------------------------

    def _allocate(self, plane_id: PlaneId, stream: str) -> int:
        plane = self._planes[plane_id]
        # Stream keys grow on demand: the legacy hot/cold points are
        # pre-seeded, class streams appear the first time traffic of that
        # class reaches this plane.
        pages_per_block = self.geometry.pages_per_block
        active = plane.active.get(stream)
        if active is None or active[1] >= pages_per_block:
            if active is not None:
                plane.occupy(active[0])
            pbn = plane.pool.take()
            active = [pbn, 0]
            plane.active[stream] = active
        offset = active[1]
        active[1] = offset + 1
        return active[0] * pages_per_block + offset

    # -- garbage collection -------------------------------------------------------------

    def ensure_space(self, plane_id: PlaneId):
        """Generator: run GC until the plane has breathing room.

        One collection per plane at a time: concurrent operations that
        find a collection in flight back off with
        :class:`~repro.flash.commands.Pause` instead of starting a second
        victim — several parallel collections would drain the free pool
        faster than erases replenish it.
        """
        plane = self._planes[plane_id]
        attempts = 0
        while len(plane.pool) < self.gc_low_water:
            if plane.collecting:
                self._tm_gc_waits.inc()
                # This wait exists only because GC holds the plane: blame
                # it on GC by tagging the pause with a maintenance origin.
                yield stamp_context(Pause(duration_us=100.0), OpContext("gc"))
                attempts += 1
                if attempts > 64 * plane.pool.initial_size:
                    raise RuntimeError(f"plane {plane_id}: GC starvation while waiting")
                continue
            victim = self._select_victim(plane)
            if victim is None:
                if len(plane.pool) == 0:
                    raise RuntimeError(
                        f"plane {plane_id}: no free blocks and no GC victim "
                        "(over-provisioning too small?)"
                    )
                break
            yield from self._collect(plane, victim)
            attempts += 1
            if attempts > 64 * plane.pool.initial_size:
                raise RuntimeError(f"plane {plane_id}: GC not converging")
        if self.wear_level_delta is not None:
            yield from self._maybe_wear_level(plane)

    def _select_victim(self, plane: _Plane) -> Optional[int]:
        pages_per_block = self.geometry.pages_per_block
        # Refresh suspect media first, whatever the policy says: among
        # this plane's suspect occupied blocks, take the fewest-valid one
        # (ties toward the lowest pbn — a pure function of device state).
        if self.suspect_blocks:
            best = None
            best_valid = None
            for pbn in sorted(self.suspect_blocks):
                if pbn not in plane.occupied or pbn in plane.collecting:
                    continue
                valid = self.mapping.valid_in_block[pbn]
                if valid >= pages_per_block:
                    continue
                if best_valid is None or valid < best_valid:
                    best, best_valid = pbn, valid
            if best is not None:
                return best
        if self.gc_policy == "greedy":
            # O(1) pick from the invalid-count bucket lists: lowest valid
            # count wins, FIFO within a bucket.
            return plane.buckets.min_victim(skip=plane.collecting)
        # Cost-benefit weighs every block's age: linear scan (kept for the
        # Rosenblum-policy ablation; greedy is the paper's default).
        best = None
        best_score = None
        for pbn in plane.occupied:
            if pbn in plane.collecting:
                continue
            valid = self.mapping.valid_in_block[pbn]
            if valid >= pages_per_block:
                continue  # nothing to gain
            utilisation = valid / pages_per_block
            age = self.mapping.clock - self.mapping.block_write_time[pbn]
            # benefit/cost: free space gained per copy work, times age
            score = -((1.0 - utilisation) / (2.0 * utilisation + 1e-9)) * (age + 1)
            if best_score is None or score < best_score:
                best, best_score = pbn, score
        return best

    def _collect(self, plane: _Plane, victim: int, origin: str = "gc", parent=None):
        """Generator: relocate the victim's valid pages, erase it.

        Every flash command issued here — relocations, erases, and any
        translation-page maintenance done by the ``rebind_hook`` — carries
        a fresh maintenance context (``origin``), so the executor charges
        its time to the GC bucket of whichever host request ended up
        running it inline.  The per-page copybacks are stamped as they
        are built; the rarer generators (read/program fallback, erase,
        hook) run under :func:`tag_commands`.
        """
        plane.collecting.add(victim)
        moved = []
        valid_count = self.mapping.valid_in_block[victim]
        self._tm_gc_runs.inc()
        self._tm_victim_valid.observe(valid_count)
        ctx = OpContext(origin)
        with self.trace.span("gc.collect", histogram=self._tm_gc_us,
                             parent=parent, ctx=ctx,
                             plane=plane.plane_id, victim=victim,
                             valid=valid_count) as span:
            yield from self._collect_body(plane, victim, moved, ctx)
            span.note(moved=len(moved))
        if self.rebind_hook is not None and moved:
            yield from tag_commands(self.rebind_hook(moved), ctx)

    def _collect_body(self, plane: _Plane, victim: int, moved: list, ctx: OpContext):
        skipped = 0
        stats = self.stats
        relocations = self._tm_relocations
        mapping = self.mapping
        l2p = mapping.l2p
        lpn_class = mapping.lpn_class
        gc_streams = self._gc_streams
        base = victim * self.geometry.pages_per_block
        classes_seen = set()
        self.stream_stats["victims"] += 1
        try:
            for offset, lpn in mapping.valid_lpns_of_block(victim):
                src = base + offset
                if l2p[lpn] != src:
                    continue  # overwritten since selection
                # Segregation invariant: a relocated page lands in its
                # *own class's* GC frontier, never a foreground write
                # point — generational separation survives GC.
                code = lpn_class[lpn]
                if code:
                    classes_seen.add(code)
                gc_stream = gc_streams[code]
                dst_failures = 0
                while True:
                    dst = self._allocate(plane.plane_id, gc_stream)
                    # OOB travels with the page (copyback preserves it),
                    # keeping the recovery sequence number of the original
                    # write.
                    try:
                        if self.use_copyback:
                            # The victim and every GC frontier lie in this
                            # plane, so COPYBACK always applies; a flash
                            # error falls back to a read + program.
                            try:
                                yield stamp_context(Copyback(src, dst), ctx)
                            except (UncorrectableError, DieOutageError):
                                ok = yield from tag_commands(
                                    relocate_via_host(src, dst, stats), ctx
                                )
                            else:
                                ok = True
                                relocations.value += 1
                                stats.gc_copybacks += 1
                        else:
                            ok = yield from tag_commands(relocate_via_host(src, dst, stats), ctx)
                    except ProgramError:
                        # The relocation destination failed to program; the
                        # slot is consumed and its block is untrustworthy.
                        # Quarantine it and redo the copy elsewhere.
                        dst_failures += 1
                        self._tm_program_remaps.inc()
                        self._quarantine_block(plane.plane_id, self.geometry.block_of_ppn(dst))
                        if dst_failures > 4:
                            raise
                        continue
                    break
                if not ok:
                    # Unreadable even after retries: record and keep the
                    # mapping pointing at the victim (the host sees the
                    # media error on its next read).  NAND allows skipping
                    # the allocated dst page, so the hole is legal.
                    skipped += 1
                    continue
                if l2p[lpn] == src:
                    mapping.bind(lpn, dst)
                    moved.append((lpn, dst))
                # else: host overwrote mid-copy; the copy is stillborn and
                # stays invalid in the new block.
            if skipped:
                # An erase would destroy the unreadable-but-mapped pages'
                # last trace; quarantine the victim instead and report it
                # grown bad so spare accounting sees the capacity loss.
                plane.release(victim)
                self.suspect_blocks.discard(victim)
                self.quarantined_blocks.add(victim)
                self.stats.grown_bad_blocks += 1
                if self.on_grown_bad is not None:
                    self.on_grown_bad(victim)
            else:
                yield from tag_commands(self._erase_into_pool(plane, victim), ctx)
            if len(classes_seen) > 1:
                # Heap/wal (or any cross-class) co-location: the thing
                # write streams exist to eliminate in steady state.
                self.stream_stats["mixed_class_victims"] += 1
        finally:
            plane.collecting.discard(victim)

    def _erase_into_pool(self, plane: _Plane, pbn: int):
        plane.release(pbn)
        command = EraseBlock(pbn=pbn)
        try:
            try:
                yield command
            except DieOutageError as failed:
                # Nothing was erased; wait out the window and retry.
                yield from retry_after_outage(command, failed)
        except BlockWornOut:
            # Wear-out or injected erase failure: the array marked the
            # block bad; retire it from this space.
            self.suspect_blocks.discard(pbn)
            self.quarantined_blocks.add(pbn)
            self.stats.grown_bad_blocks += 1
            if self.on_grown_bad is not None:
                self.on_grown_bad(pbn)
            return
        self.suspect_blocks.discard(pbn)
        self.stats.gc_erases += 1
        self.erase_counts[pbn] += 1
        plane.pool.give(pbn)

    # -- wear leveling -----------------------------------------------------------------

    def _maybe_wear_level(self, plane: _Plane):
        """Static wear leveling: refresh the coldest occupied block when the
        in-plane erase spread exceeds the threshold, so its low-wear block
        re-enters the pool and absorbs future hot writes."""
        plane.writes_since_wl_check += 1
        if plane.writes_since_wl_check < self.wear_level_check_every:
            return
        plane.writes_since_wl_check = 0
        if not plane.occupied or len(plane.pool) < self.gc_low_water:
            return
        erase_counts = self.erase_counts
        counts = [erase_counts[pbn] for pbn in plane.occupied]
        pool_counts = [erase_counts[pbn] for pbn in plane.pool.peek_free()]
        spread = max(counts + pool_counts) - min(counts)
        if spread <= self.wear_level_delta:
            return
        coldest = min(plane.occupied, key=erase_counts.__getitem__)
        self.stats.wl_moves += 1
        with self.trace.span("wl.migrate", histogram=self._tm_wl_us,
                             plane=plane.plane_id, block=coldest,
                             spread=spread) as span:
            yield from self._collect(plane, coldest, origin="wear-level", parent=span)

    def rebuild_allocation(self, programmed_blocks, bad_blocks=None,
                           quarantined=(), frontiers=None) -> None:
        """Crash recovery: reset allocation state from a scan result.

        ``programmed_blocks`` is the set of flat block numbers observed to
        contain at least one programmed page.  Those blocks become
        *occupied* (GC reclaims them as their pages die); everything else
        returns to the free pools.  Active write points restart fresh —
        partially filled blocks simply retire early, as on real FTL
        power-up scans — **except** blocks named in ``frontiers``.

        ``frontiers`` maps ``pbn -> (stream, next_offset)`` for partially
        filled single-class blocks the mount scan identified as resumable
        write points.  Each becomes the
        plane's active block for that stream again instead of retiring
        into ``occupied``: without this, the first post-mount writes of
        *every* class would land in freshly taken blocks while the
        half-full class blocks retire — and, worse, a space rebuilt
        without stream knowledge would funnel all classes back through
        one fresh frontier, silently undoing the class separation the
        crash interrupted.

        ``bad_blocks``, when given, is the full authoritative bad set
        (factory + grown) rebuilt by the mount scan: those blocks enter
        neither pool nor occupied.  When omitted (legacy in-place
        recovery) the pre-crash pool membership stands in for it.
        ``quarantined`` re-seeds :attr:`quarantined_blocks` from scan
        evidence; the pre-crash ``suspect_blocks``/``quarantined_blocks``
        sets are host-RAM-only state and are always cleared — trusting
        them after a crash is exactly the bug this parameter fixes
        (a pre-crash quarantine silently forgotten, or worse, stale
        entries shadowing healthy blocks).
        """
        from .base import BlockPool

        programmed = set(programmed_blocks)
        my_blocks: set = set()
        watch = self.mapping.block_watch
        for plane in self._planes.values():
            die, plane_index = plane.plane_id
            blocks = self.geometry.blocks_of_plane(die, plane_index)
            my_blocks.update(blocks)
            if bad_blocks is None:
                known = set(plane.pool.peek_free()) | plane.occupied
                for active in plane.active.values():
                    if active is not None:
                        known.add(active[0])
                usable = [pbn for pbn in blocks if pbn in known]
            else:
                usable = [pbn for pbn in blocks if pbn not in bad_blocks]
            # Re-seed the GC victim index from the freshly swapped-in
            # mapping tables: block order (ascending pbn) fixes the FIFO
            # tie-break deterministically from device state alone.
            plane.occupied = set()
            plane.buckets.clear()
            for pbn in blocks:
                if watch[pbn] is plane.buckets:
                    watch[pbn] = None
            adopted = {}
            if frontiers:
                for pbn in usable:
                    entry = frontiers.get(pbn)
                    if entry is not None and entry[0] not in adopted:
                        adopted[entry[0]] = (pbn, entry[1])
            adopted_blocks = {pbn for pbn, __ in adopted.values()}
            plane.pool = BlockPool(pbn for pbn in usable if pbn not in programmed)
            for pbn in usable:
                if pbn in programmed and pbn not in adopted_blocks:
                    plane.occupy(pbn)
            plane.active = {key: None for key in plane.active}
            for stream, (pbn, next_offset) in adopted.items():
                plane.active[stream] = [pbn, next_offset]
            self.stream_stats["frontiers_adopted"] += len(adopted)
            plane.collecting = set()
        self.suspect_blocks.clear()
        self.quarantined_blocks = {pbn for pbn in quarantined if pbn in my_blocks}

    # -- introspection -----------------------------------------------------------------

    def occupancy(self) -> dict:
        return {
            "planes": len(self._planes),
            "free_blocks": self.total_free_blocks(),
            "occupied_blocks": sum(
                len(plane.occupied) for plane in self._planes.values()
            ),
            "valid_pages": self.mapping.total_valid(),
            "suspect_blocks": len(self.suspect_blocks),
            "quarantined_blocks": len(self.quarantined_blocks),
        }

    def wear_shadow(self) -> dict:
        """Host-side erase-count shadow (what the wear-leveler steers by).

        The array's flat ``erase_counts`` are the device truth; this is
        the host's view over the same flat layout (entries stay zero for
        blocks this space never erased).  The health report carries both
        so drift between them is visible.
        """
        counts = sorted(count for count in self.erase_counts if count)
        if not counts:
            return {"blocks_seen": 0, "min": 0, "max": 0, "mean": 0.0}
        return {
            "blocks_seen": len(counts),
            "min": counts[0],
            "max": counts[-1],
            "mean": round(sum(counts) / len(counts), 4),
        }
