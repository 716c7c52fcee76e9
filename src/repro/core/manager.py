"""The NoFTL storage manager — the paper's primary contribution.

Figure 2 of the paper: address translation, out-of-place updates, GC,
wear leveling and bad-block management move *out of the device* and into
the DBMS storage manager, which talks to native flash directly.  The
wins, each visible in this class:

* the **complete page-level mapping table lives in host RAM**
  (:class:`~repro.ftl.base.MappingState` over the whole logical space) —
  no DFTL-style translation I/O, ever (Section 3.1);
* **GC knows what the DBMS knows**: the free-space manager calls
  :meth:`trim` the moment a page is deallocated, and callers can tag
  writes with a temperature hint that routes them to separate hot/cold
  streams, shrinking relocation traffic (Figure 3);
* the flash is split into **physical regions** (die groups) with
  independent allocation and GC, so db-writers bound region-wise never
  contend for chips (Section 3.2, Figure 4);
* wear leveling and bad-block management use host-side bookkeeping.

All flash-touching methods are command generators; run them through a
:class:`~repro.flash.executor.SyncExecutor` or, inside the DES, a
:class:`~repro.flash.executor.SimExecutor` (see
:class:`repro.core.storage.NoFTLStorage`).
"""

from __future__ import annotations

import random
from array import array as _array
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from ..flash.commands import ReadOob
from ..flash.errors import ReadUnwrittenError, UncorrectableError
from ..flash.geometry import Geometry
from ..ftl.base import UNMAPPED, FTLStats, MappingState
from ..ftl.pagespace import PageMappedSpace
from ..ftl.streams import CODE_CLASSES, FOREGROUND_STREAMS, stream_for
from ..telemetry import EventTrace, MetricsRegistry, OpContext, data_class_of, trace_or_quiet
from .badblock import BadBlockManager
from .config import NoFTLConfig
from .regions import RegionManager

__all__ = ["MountReport", "NoFTLStorageManager"]


@dataclass
class MountReport:
    """What a cold-start OOB scan found and rebuilt.

    Everything here is derived from the flash itself — the whole point of
    the mount path is that no pre-crash host RAM survives to consult.
    """

    pages_scanned: int = 0          # every ppn probed with an OOB read
    mappings: int = 0               # logical pages adopted into l2p
    torn_pages: int = 0             # OOB reads failing ECC/CRC (rejected)
    duplicate_ties: int = 0         # equal (lpn, seq) pairs resolved
    programmed_blocks: int = 0      # blocks holding >= 1 programmed page
    quarantined_blocks: tuple = ()  # blocks retired on unreadable evidence
    max_seq: int = 0                # highest write sequence adopted
    max_lpn: int = -1               # highest mapped logical page
    mapped_lpns: frozenset = field(default_factory=frozenset)
    #: Per-stream write points re-derived from OOB class evidence, as
    #: (pbn, stream, next_offset) triples (empty without class tags).
    stream_frontiers: tuple = ()

    def snapshot(self) -> dict:
        out = {
            "pages_scanned": self.pages_scanned,
            "mappings": self.mappings,
            "torn_pages": self.torn_pages,
            "duplicate_ties": self.duplicate_ties,
            "programmed_blocks": self.programmed_blocks,
            "quarantined_blocks": sorted(self.quarantined_blocks),
            "max_seq": self.max_seq,
            "max_lpn": self.max_lpn,
        }
        # Only surfaced when class-tagged frontiers exist: keeps legacy
        # snapshot shapes (and the digests hashed over them) bit-identical.
        if self.stream_frontiers:
            out["stream_frontiers"] = [
                list(entry) for entry in self.stream_frontiers
            ]
        return out


class NoFTLStorageManager:
    """Host-side flash management for one native flash device."""

    def __init__(
        self,
        geometry: Geometry,
        config: Optional[NoFTLConfig] = None,
        factory_bad_blocks: Iterable[int] = (),
        rng: Optional[random.Random] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        self.geometry = geometry
        self.config = config or NoFTLConfig()
        self.stats = FTLStats()
        self.telemetry = telemetry or MetricsRegistry()
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        self.telemetry.register_collector("noftl.stats", self.stats.snapshot)
        self.telemetry.register_collector("noftl.occupancy", self.occupancy)
        self.logical_pages = int(
            geometry.total_pages * (1.0 - self.config.op_ratio)
        )
        self.mapping = MappingState(geometry, self.logical_pages)
        # Spare capacity backing bad-block replacement is exactly the
        # over-provisioned block count; once the watermark's worth of it
        # is bad, the device goes read-only degraded.
        spare_blocks = max(
            1, int(geometry.total_blocks * self.config.op_ratio)
        )
        self.bad_blocks = BadBlockManager(
            geometry, factory_bad_blocks,
            spare_blocks=spare_blocks,
            watermark=self.config.spare_watermark,
        )
        self.regions = RegionManager(geometry, self.config.num_regions)
        self._rng = rng or random.Random(0)
        self._tm_degraded = self.telemetry.gauge(
            "noftl.degraded", layer="noftl"
        )
        self._tm_degraded.set(0)
        for region in self.regions.regions:
            space = PageMappedSpace(
                geometry,
                self.mapping,
                region.planes,
                self.stats,
                gc_policy=self.config.gc_policy,
                gc_low_water=self.config.gc_low_water,
                separate_streams=self.config.separate_streams,
                use_copyback=self.config.use_copyback,
                wear_level_delta=self.config.wear_level_delta,
                wear_level_check_every=self.config.wear_level_check_every,
                bad_blocks=self.bad_blocks.all_bad,
                placement_divisor=self.regions.num_regions,
                rng=self._rng,
                telemetry=self.telemetry,
                trace=self.trace,
                metric_prefix="noftl",
            )
            space.on_grown_bad = self._on_grown_bad
            region.space = space
        #: Optional plain callback invoked with every trimmed lpn.  The
        #: health monitor wires the WA ledger's ``forget`` here — trims
        #: never touch the flash, so the array hook cannot see them.
        self.on_trim = None

    def _on_grown_bad(self, pbn: int) -> None:
        """Spaces report retired blocks here; the degraded gauge tracks
        the spare-capacity watermark as capacity erodes."""
        self.bad_blocks.report_grown(pbn)
        self._tm_degraded.set(1 if self.bad_blocks.degraded else 0)

    @property
    def num_regions(self) -> int:
        return self.regions.num_regions

    @property
    def maintenance_active(self) -> bool:
        """True while *any* region's space is running GC / wear leveling.

        A cheap sampled signal (no events, no locking) for front-end
        admission control: when it holds, new background traffic should
        yield to foreground reads rather than pile onto busy dies.
        """
        return any(
            region.space.maintenance_active
            for region in self.regions.regions
        )

    def region_of_lpn(self, lpn: int) -> int:
        """Pure placement function — this is what lets the buffer manager
        partition dirty pages among region-bound db-writers."""
        return self.regions.region_of_lpn(lpn)

    def _space_of(self, lpn: int) -> PageMappedSpace:
        return self.regions.regions[self.regions.region_of_lpn(lpn)].space

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"lpn {lpn} outside logical space 0..{self.logical_pages - 1}"
            )

    # -- host interface (flash-command generators) ------------------------------

    def read(self, lpn: int):
        """Generator: newest version of ``lpn`` (None if never written)."""
        self._check_lpn(lpn)
        self.stats.host_reads += 1
        data = yield from self._space_of(lpn).read(lpn)
        return data

    def write(self, lpn: int, data=None, hint: str = "hot",
              ctx: Optional[OpContext] = None):
        """Out-of-place write with an optional temperature hint: returns
        the owning space's write generator (a flash-command operation).

        The checks below run when the operation is built, not when it is
        first resumed — every caller builds and runs it in one step.

        ``hint`` may be ``"hot"`` (default, OLTP pages) or ``"cold"``
        (bulk loads, archival data) — DBMS knowledge the paper's
        integration strategy (ii) feeds into placement.

        With ``write_streams`` enabled, ``ctx`` carries more than blame:
        its resolved :func:`~repro.telemetry.data_class_of` picks the
        write's allocation stream (WAL / heap-hot / heap-cold / btree /
        map / temp / recovery), with the temperature hint splitting heap
        traffic and standing in entirely for unclassified writes.
        """
        self._check_lpn(lpn)
        if hint not in ("hot", "cold"):
            raise ValueError(f"unknown temperature hint: {hint!r}")
        # Degraded mode: spare capacity is below the safety floor — refuse
        # new writes (reads and trims keep working) so the administrator
        # can evacuate the device instead of wedging it completely.
        self.bad_blocks.check_writable()
        self.stats.host_writes += 1
        if self.config.write_streams:
            stream = stream_for(data_class_of(ctx), hint)
        else:
            stream = hint
        return self._space_of(lpn).write(lpn, data, stream=stream)

    def trim(self, lpn: int):
        """Generator (no flash I/O): the DBMS free-space manager reports a
        deallocated page; the mapping is dropped immediately so GC never
        relocates dead data."""
        self._check_lpn(lpn)
        self.stats.host_trims += 1
        if self.config.honor_trims:
            self._space_of(lpn).trim(lpn)
        # Whether or not the mapping honors it, the host has declared the
        # data dead — observers drop their lpn bindings either way.
        if self.on_trim is not None:
            self.on_trim(lpn)
        return
        yield  # pragma: no cover - generator form

    def is_fast_read(self, lpn: int) -> bool:
        """All reads are host-RAM lookups plus one flash read."""
        return True

    # -- recovery ----------------------------------------------------------------

    def recover(self):
        """Generator: rebuild the mapping table from OOB metadata.

        Compatibility wrapper over :meth:`mount`; returns the number of
        mappings recovered.
        """
        report = yield from self.mount()
        return report.mappings

    def mount(self):
        """Generator: full cold-start pipeline from nothing but the array.

        A cold start after a crash scans every page's spare area (cheap
        OOB reads) and rebuilds *all* host-RAM state from what it finds —
        this is the NoFTL answer to "where does the mapping live if the
        host crashes": the flash itself carries it.  Per page:

        * the OOB read is checksum-verified by the array, so a torn page
          (power cut mid-program, half-erased block, silent corruption)
          raises :class:`UncorrectableError` and is *rejected* — the
          mapping falls back to the newest intact copy and the WAL redo
          above reapplies whatever the torn page held;
        * the newest ``(lpn, seq)`` wins; exact ties — routine after an
          interrupted GC, because copyback preserves the source OOB —
          are broken deterministically toward the lowest ppn (both copies
          passed ECC, so their payloads are identical);
        * blocks with unreadable pages are quarantine evidence: they are
          reported grown-bad and kept out of the rebuilt pools, instead
          of trusting pre-crash ``suspect``/``quarantined`` host state
          that no longer exists.

        Allocation state (pools, occupied, active points) is rebuilt from
        the same scan, and the returned :class:`MountReport` carries what
        the db layer needs to restart its page allocator without peeking
        at pre-crash RAM.
        """
        tm = self.telemetry
        fresh = MappingState(self.geometry, self.logical_pages)
        report = MountReport()
        # Flat winner tables over the logical space (seq/ppn of the newest
        # intact copy seen so far) plus the first-seen order for reporting.
        newest_seq = _array("q", [0]) * self.logical_pages
        newest_ppn = _array("q", [UNMAPPED]) * self.logical_pages
        seen = bytearray(self.logical_pages)
        mapped: List[int] = []
        programmed_blocks: set = set()
        torn_blocks: set = set()
        # Write-stream evidence, gathered in the same single pass: which
        # offsets of each block are programmed (bitmask), the block's
        # class uniformity (0 unseen, >0 a single class code, -1 mixed or
        # untagged), its newest sequence number, and each page's class
        # for the lpn_class rebuild below.
        pages_per_block = self.geometry.pages_per_block
        total_blocks = self.geometry.total_blocks
        block_mask = _array("q", [0]) * total_blocks
        block_cls = _array("l", [0]) * total_blocks
        block_seq = _array("q", [0]) * total_blocks
        cls_of_ppn = bytearray(self.geometry.total_pages)
        for ppn in range(self.geometry.total_pages):
            report.pages_scanned += 1
            try:
                result = yield ReadOob(ppn=ppn)
            except ReadUnwrittenError:
                continue
            except UncorrectableError:
                # Unreadable spare area: the page's mapping (if any) is
                # unrecoverable, but the block clearly holds programs —
                # and is evidence of torn/failing media.
                report.torn_pages += 1
                pbn = self.geometry.block_of_ppn(ppn)
                programmed_blocks.add(pbn)
                torn_blocks.add(pbn)
                continue
            pbn = self.geometry.block_of_ppn(ppn)
            programmed_blocks.add(pbn)
            oob = result.oob
            if isinstance(oob, dict):
                code = oob.get("cls", 0)
                if code not in CODE_CLASSES:
                    code = 0
                block_mask[pbn] |= 1 << (ppn - pbn * pages_per_block)
                if code:
                    cls_of_ppn[ppn] = code
                    if block_cls[pbn] == 0:
                        block_cls[pbn] = code
                    elif block_cls[pbn] != code:
                        block_cls[pbn] = -1
                else:
                    # An untagged page poisons the block for frontier
                    # adoption: we cannot prove single-class occupancy.
                    block_cls[pbn] = -1
                seq_evidence = oob.get("seq", 0)
                if isinstance(seq_evidence, int) and \
                        seq_evidence > block_seq[pbn]:
                    block_seq[pbn] = seq_evidence
            if not isinstance(oob, dict) or "lpn" not in oob:
                continue
            lpn = oob["lpn"]
            seq = oob.get("seq", 0)
            if lpn >= self.logical_pages:
                continue
            if not seen[lpn] or seq > newest_seq[lpn]:
                if not seen[lpn]:
                    seen[lpn] = 1
                    mapped.append(lpn)
                newest_seq[lpn] = seq
                newest_ppn[lpn] = ppn
            elif seq == newest_seq[lpn]:
                # Copyback-preserved duplicate: both copies are intact
                # and identical; prefer the lowest ppn so the choice is a
                # pure function of device state, not of scan order.
                report.duplicate_ties += 1
                if ppn < newest_ppn[lpn]:
                    newest_ppn[lpn] = ppn
        for lpn in mapped:
            seq, ppn = newest_seq[lpn], newest_ppn[lpn]
            fresh.bind(lpn, ppn)
            # The class of a logical page is the class stamped on its
            # winning physical copy — stale copies lost the seq race and
            # with it any say over future placement.
            fresh.lpn_class[lpn] = cls_of_ppn[ppn]
            pbn = self.geometry.block_of_ppn(ppn)
            if seq > fresh.block_write_time[pbn]:
                fresh.block_write_time[pbn] = seq
        # Swap in the recovered tables and rebuild every region's
        # allocation state from the same scan (programmed blocks are
        # occupied; erased blocks return to the free pools; evidence
        # blocks and the authoritative bad set stay out of both).
        self.mapping.l2p[:] = fresh.l2p
        self.mapping.p2l[:] = fresh.p2l
        self.mapping.valid_in_block[:] = fresh.valid_in_block
        self.mapping.block_write_time[:] = fresh.block_write_time
        self.mapping.lpn_class[:] = fresh.lpn_class
        self.mapping.clock = max(
            (newest_seq[lpn] for lpn in mapped), default=0
        )
        for pbn in sorted(torn_blocks):
            if not self.bad_blocks.is_bad(pbn):
                self.bad_blocks.report_grown(pbn)
                self.stats.grown_bad_blocks += 1
        self._tm_degraded.set(1 if self.bad_blocks.degraded else 0)
        all_bad = self.bad_blocks.all_bad
        # Re-derive per-stream write points.  A block is adoptable as
        # a frontier iff it is intact (not torn/bad), holds a single
        # class, and its programmed pages form a contiguous prefix
        # from offset 0 that has not filled the block — exactly the
        # shape an interrupted append-point leaves behind.  Per
        # (plane, stream) the newest such block wins (ties toward the
        # lowest pbn, mirroring the mapping tie-break).
        best: dict = {}
        for pbn in programmed_blocks:
            if pbn in torn_blocks or pbn in all_bad:
                continue
            code = block_cls[pbn]
            if code <= 0:
                continue
            mask = block_mask[pbn]
            count = bin(mask).count("1")
            if count >= pages_per_block or mask != (1 << count) - 1:
                continue
            key = (
                self.geometry.die_of_block(pbn),
                self.geometry.plane_of_block(pbn),
                FOREGROUND_STREAMS[code],
            )
            rank = (block_seq[pbn], -pbn)
            incumbent = best.get(key)
            if incumbent is None or rank > incumbent[0]:
                best[key] = (rank, pbn, count)
        frontiers = {
            pbn: (key[2], count)
            for key, (__, pbn, count) in best.items()
        }
        report.stream_frontiers = tuple(sorted(
            (pbn, stream, offset)
            for pbn, (stream, offset) in frontiers.items()
        ))
        for region in self.regions.regions:
            region.space.rebuild_allocation(
                programmed_blocks, bad_blocks=all_bad,
                quarantined=torn_blocks, frontiers=frontiers,
            )
        report.mappings = len(mapped)
        report.programmed_blocks = len(programmed_blocks)
        report.quarantined_blocks = tuple(sorted(torn_blocks))
        report.max_seq = self.mapping.clock
        report.max_lpn = max(mapped, default=-1)
        report.mapped_lpns = frozenset(mapped)
        tm.counter("noftl.mount.pages_scanned", layer="noftl").inc(
            report.pages_scanned)
        tm.counter("noftl.mount.mappings", layer="noftl").inc(report.mappings)
        tm.counter("noftl.mount.torn_pages", layer="noftl").inc(
            report.torn_pages)
        tm.counter("noftl.mount.duplicate_ties", layer="noftl").inc(
            report.duplicate_ties)
        tm.counter("noftl.mount.quarantined_blocks", layer="noftl").inc(
            len(torn_blocks))
        return report

    def verify_integrity(self) -> List[str]:
        """Cross-check mapping and allocation state; returns violations.

        Used by the crash harness as its structural oracle after a mount:
        l2p/p2l must agree both ways, per-block valid counts must match,
        free-pool blocks must hold no valid pages, and no bad/quarantined
        block may be available for allocation.
        """
        problems: List[str] = []
        mapping = self.mapping
        valid_count = [0] * self.geometry.total_blocks
        for lpn in range(self.logical_pages):
            ppn = mapping.l2p[lpn]
            if ppn == UNMAPPED:
                continue
            if mapping.p2l[ppn] != lpn:
                problems.append(
                    f"l2p/p2l disagree: lpn={lpn} -> ppn={ppn} -> "
                    f"{mapping.p2l[ppn]}"
                )
            valid_count[self.geometry.block_of_ppn(ppn)] += 1
        for ppn in range(self.geometry.total_pages):
            lpn = mapping.p2l[ppn]
            if lpn != UNMAPPED and mapping.l2p[lpn] != ppn:
                problems.append(
                    f"p2l/l2p disagree: ppn={ppn} -> lpn={lpn} -> "
                    f"{mapping.l2p[lpn]}"
                )
        for pbn in range(self.geometry.total_blocks):
            if valid_count[pbn] != mapping.valid_in_block[pbn]:
                problems.append(
                    f"valid_in_block[{pbn}]={mapping.valid_in_block[pbn]} "
                    f"but {valid_count[pbn]} mapped pages"
                )
        bad = self.bad_blocks.all_bad
        for region in self.regions.regions:
            space = region.space
            for plane in space._planes.values():
                free = set(plane.pool.peek_free())
                actives = {active[0] for active in plane.active.values()
                           if active is not None}
                for pbn in free:
                    if valid_count[pbn]:
                        problems.append(
                            f"free-pool block {pbn} holds "
                            f"{valid_count[pbn]} valid pages"
                        )
                for pbn in free | plane.occupied | actives:
                    if pbn in bad:
                        problems.append(f"bad block {pbn} is allocatable")
                    if pbn in space.quarantined_blocks:
                        problems.append(
                            f"quarantined block {pbn} is allocatable"
                        )
                overlap = free & plane.occupied
                if overlap:
                    problems.append(
                        f"pool/occupied overlap: {sorted(overlap)}"
                    )
                # GC victim buckets must mirror the occupied set exactly,
                # and each member's bucketed valid count must agree with
                # the mapping — otherwise O(1) victim selection could pick
                # a stale victim (or miss the true maximum-invalid block).
                members = set(plane.buckets)
                if members != plane.occupied:
                    problems.append(
                        f"victim buckets/occupied disagree: "
                        f"extra={sorted(members - plane.occupied)} "
                        f"missing={sorted(plane.occupied - members)}"
                    )
                for pbn in plane.occupied:
                    bucketed = plane.buckets.valid_of(pbn)
                    if bucketed != valid_count[pbn]:
                        problems.append(
                            f"bucket valid[{pbn}]={bucketed} but "
                            f"{valid_count[pbn]} mapped pages"
                        )
                    if mapping.block_watch[pbn] is not plane.buckets:
                        problems.append(
                            f"occupied block {pbn} has no bucket watcher"
                        )
        # A stale watcher slot on a non-occupied block would let future
        # bind/invalidate events mutate a plane's buckets behind its back.
        for region in self.regions.regions:
            space = region.space
            occupied_all = set()
            for plane in space._planes.values():
                occupied_all |= plane.occupied
            for pbn in region.blocks():
                if mapping.block_watch[pbn] is not None \
                        and pbn not in occupied_all:
                    problems.append(
                        f"stale bucket watcher on block {pbn}"
                    )
        return problems

    # -- introspection --------------------------------------------------------------

    def health(self) -> dict:
        """Device health as the administrator sees it: bad-block budget,
        spare capacity and the degraded (read-only) flag."""
        return self.bad_blocks.health()

    def occupancy(self) -> dict:
        per_region = [region.space.occupancy()
                      for region in self.regions.regions]
        return {
            "regions": len(per_region),
            "free_blocks": sum(r["free_blocks"] for r in per_region),
            "valid_pages": self.mapping.total_valid(),
            "per_region": per_region,
        }

    def snapshot(self) -> dict:
        data = self.stats.snapshot()
        data["bad_blocks"] = self.bad_blocks.health()
        data["occupancy"] = self.occupancy()
        return data

    def health_snapshot(self) -> dict:
        """Per-device health view in the same shape the FTLs export
        (``BaseFTL.health_snapshot``), so the health report can cross-
        validate the WA ledger against either side of the NoFTL/FTL
        comparison without special cases.  Carries the host-side wear
        shadow per region; device truth lives in ``array.erase_counts``
        and the two are reported side by side to surface drift."""
        return {
            "ftl": "NoFTL",
            "stats": self.stats.snapshot(),
            "bad_blocks": self.bad_blocks.health(),
            "regions": [
                {
                    "occupancy": region.space.occupancy(),
                    "wear_shadow": region.space.wear_shadow(),
                }
                for region in self.regions.regions
            ],
        }
