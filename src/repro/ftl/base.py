"""Common FTL machinery: the host-visible interface, I/O accounting,
mapping state and free-block pools.

All FTLs in this package (and the NoFTL storage manager built on the same
parts) express flash access as command-yielding generators — see
:mod:`repro.flash.executor`.
"""

from __future__ import annotations

from array import array as _array
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional

from ..flash.commands import Copyback, Pause, ProgramPage, ReadPage
from ..flash.errors import DieOutageError, FlashError, UncorrectableError
from ..flash.geometry import Geometry
from ..telemetry import Counter, CounterView, EventTrace, MetricsRegistry, trace_or_quiet

__all__ = [
    "FTLStats",
    "BaseFTL",
    "MappingState",
    "BlockPool",
    "VictimBuckets",
    "relocate_page",
    "relocate_via_host",
    "read_page_with_retry",
    "retry_after_outage",
    "outage_backoff_us",
    "READ_RETRY_LIMIT",
    "OUTAGE_RETRY_LIMIT",
    "RETRY_BACKOFF_US",
    "UNMAPPED",
]

UNMAPPED = -1

#: Extra READ PAGE attempts after an ECC failure before the error reaches
#: the caller (transient read disturb clears on retry; a media defect
#: exhausts the budget).
READ_RETRY_LIMIT = 4
#: Pause-retry rounds a command waits out while its die sits in an outage
#: window before the outage error propagates.
OUTAGE_RETRY_LIMIT = 150
#: Base Pause of the retry backoff: linear in the ECC attempt, doubling
#: per outage round (capped at 2 ms).
RETRY_BACKOFF_US = 50.0


@dataclass
class FTLStats:
    """Counts every class of I/O an FTL causes.

    ``gc_relocations`` is the number of valid pages moved by garbage
    collection / merges, regardless of mechanism; ``gc_copybacks`` is the
    subset done by COPYBACK (no bus transfer).  Together with ``erases``
    these are exactly the two rows of the paper's Figure 3 table.

    The fields that have a registry series are not counted here: each
    is a :class:`~repro.telemetry.CounterView` of the counter its owner
    attached with :meth:`bind` (until then, a private one).
    """

    host_reads: int = 0
    host_writes: int = 0
    host_trims: int = 0
    gc_copybacks: int = 0
    gc_reads: int = 0
    gc_programs: int = 0
    gc_erases: int = 0
    map_reads: int = 0       # DFTL: translation-page reads
    map_programs: int = 0    # DFTL: translation-page programs
    wl_moves: int = 0
    grown_bad_blocks: int = 0

    gc_relocations = CounterView("_tm_gc_relocations.value")
    # FASTer full merges, and isolation-area (second-chance) migrations.
    merges_full = CounterView("_tm_merges_full.value")
    second_chances = CounterView("_tm_second_chances.value")
    # Reads that needed another attempt (ECC), pages relocated after a
    # retried read, writes remapped after a ProgramError, and GC/merge
    # pages skipped as unreadable.
    read_retries = CounterView("_tm_read_retries.value")
    scrubs = CounterView("_tm_scrubs.value")
    program_remaps = CounterView("_tm_program_remaps.value")
    relocation_skips = CounterView("_tm_relocation_skips.value")

    def __post_init__(self):
        for name, view in vars(FTLStats).items():
            if isinstance(view, CounterView):
                setattr(self, f"_tm_{name}", Counter(name, ()))
                view.start(self)

    def bind(self, **counters: Counter) -> None:
        """Make each named field read its registry counter from now on.
        Binding a field to the counter it already reads changes nothing,
        so spaces sharing one stats object may each bind their handles."""
        for name, counter in counters.items():
            if getattr(self, f"_tm_{name}") is not counter:
                setattr(self, f"_tm_{name}", counter)
                vars(FTLStats)[name].start(self)

    @property
    def write_amplification(self) -> float:
        """(host + maintenance page programs) / host page programs."""
        if self.host_writes == 0:
            return 0.0
        moved = self.gc_relocations + self.map_programs
        return (self.host_writes + moved) / self.host_writes

    def snapshot(self) -> dict:
        data = {
            name: getattr(self, name)
            for name in (
                "host_reads", "host_writes", "host_trims",
                "gc_relocations", "gc_copybacks", "gc_reads", "gc_programs",
                "gc_erases", "map_reads", "map_programs",
                "merges_full", "second_chances", "wl_moves", "grown_bad_blocks",
                "read_retries", "scrubs", "program_remaps",
                "relocation_skips",
            )
        }
        data["write_amplification"] = self.write_amplification
        return data


class BaseFTL:
    """Host-visible FTL interface: read / write / trim over logical pages.

    Subclasses implement the three operations as flash-command generators.
    ``logical_pages`` is the exported logical address space — total flash
    minus over-provisioning.
    """

    def __init__(self, geometry: Geometry, op_ratio: float = 0.1,
                 telemetry: Optional[MetricsRegistry] = None,
                 trace: Optional[EventTrace] = None):
        if not 0.0 < op_ratio < 0.9:
            raise ValueError(f"op_ratio must be in (0, 0.9), got {op_ratio}")
        self.geometry = geometry
        self.op_ratio = op_ratio
        self.logical_pages = int(geometry.total_pages * (1.0 - op_ratio))
        self.stats = FTLStats()
        # Telemetry: shared registry/trace when the rig provides them,
        # otherwise a private registry (always live) and a disabled trace
        # (tracing is opt-in).  The collector exposes the classic FTLStats
        # counters in snapshots.
        self.telemetry = telemetry or MetricsRegistry()
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        self.telemetry.register_collector(f"ftl.{type(self).__name__}", self.stats.snapshot)
        # Shared recovery counters: every FTL's read path retries through
        # these, so chaos dashboards see one family per layer.
        read_retries = self.telemetry.counter("ftl.read_retries", layer="ftl")
        self._tm_relocation_skips = self.telemetry.counter("ftl.gc.relocation_skips", layer="ftl")
        self.stats.bind(read_retries=read_retries, relocation_skips=self._tm_relocation_skips)

    @property
    def name(self) -> str:
        return type(self).__name__

    @property
    def maintenance_active(self) -> bool:
        """True while this FTL is running maintenance (GC, merges, wear
        leveling) that host commands could queue behind.  The block device
        uses this to classify controller/queue waits as GC-blamed in the
        latency attribution; FTLs with real maintenance override it."""
        return False

    def health_snapshot(self) -> dict:
        """Per-FTL contribution to the device health report
        (``python -m repro.bench.observe health``): the classic stats
        counters — the spot-check the WA ledger's numbers are
        cross-validated against.  Subclasses extend with their own state (log occupancy,
        map-cache hit ratio, ...)."""
        return {"ftl": self.name, "stats": self.stats.snapshot()}

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(f"lpn {lpn} outside logical space 0..{self.logical_pages - 1}")

    def read(self, lpn: int):  # pragma: no cover - interface
        raise NotImplementedError

    def write(self, lpn: int, data=None):  # pragma: no cover - interface
        raise NotImplementedError

    def trim(self, lpn: int):
        """Deallocation hint; base implementation ignores it (black-box
        SSDs of the paper's era commonly did).  Yields nothing."""
        self._check_lpn(lpn)
        self.stats.host_trims += 1
        return
        yield  # pragma: no cover - makes this a generator


class MappingState:
    """Page-level mapping tables plus validity bookkeeping.

    One instance is shared by all allocation domains (planes / regions) of
    a page-mapped space:

    * ``l2p``: logical -> physical page (UNMAPPED when never written);
    * ``p2l``: physical -> logical (UNMAPPED when the page is invalid);
    * ``valid_in_block``: number of valid pages per physical block;
    * ``block_write_time``: logical timestamp of each block's last program
      (for cost-benefit GC);
    * ``lpn_class``: per-lpn data-class code table (codes are
      :data:`repro.ftl.streams.CLASS_CODES`; 0 means untracked, the
      legacy hot/cold case).
    """

    def __init__(self, geometry: Geometry, logical_pages: int):
        self.geometry = geometry
        self.logical_pages = logical_pages
        self.l2p = _array("q", [UNMAPPED]) * logical_pages
        self.p2l = _array("q", [UNMAPPED]) * geometry.total_pages
        self.valid_in_block = _array("l", [0]) * geometry.total_blocks
        self.block_write_time = _array("q", [0]) * geometry.total_blocks
        self.clock = 0
        self.lpn_class = bytearray(logical_pages)
        self._pages_per_block = geometry.pages_per_block
        #: Per-block watcher slot: a :class:`VictimBuckets` instance (or
        #: None) notified whenever the block's valid count changes, so GC
        #: victim structures track validity at O(1) per bind/invalidate.
        #: Blocks of different allocation domains (planes, regions) are
        #: disjoint, so one flat slot array serves every space sharing
        #: this mapping.
        self.block_watch: List[Optional["VictimBuckets"]] = [None] * geometry.total_blocks

    def lookup(self, lpn: int) -> int:
        return self.l2p[lpn]

    def bind(self, lpn: int, ppn: int) -> None:
        """Point ``lpn`` at ``ppn``, invalidating any previous location."""
        old = self.l2p[lpn]
        if old != UNMAPPED:
            self.invalidate_ppn(old)
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        pbn = ppn // self._pages_per_block
        valid = self.valid_in_block[pbn] + 1
        self.valid_in_block[pbn] = valid
        self.clock += 1
        self.block_write_time[pbn] = self.clock
        watcher = self.block_watch[pbn]
        if watcher is not None:
            watcher.on_valid_changed(pbn, valid)

    def unbind(self, lpn: int) -> None:
        """Drop the mapping entirely (trim)."""
        old = self.l2p[lpn]
        if old != UNMAPPED:
            self.invalidate_ppn(old)
            self.l2p[lpn] = UNMAPPED
        self.lpn_class[lpn] = 0

    def invalidate_ppn(self, ppn: int) -> None:
        if self.p2l[ppn] == UNMAPPED:
            raise ValueError(f"double invalidation of ppn {ppn}")
        self.p2l[ppn] = UNMAPPED
        pbn = ppn // self._pages_per_block
        valid = self.valid_in_block[pbn] - 1
        if valid < 0:
            raise ValueError(f"valid count underflow on block {pbn}")
        self.valid_in_block[pbn] = valid
        watcher = self.block_watch[pbn]
        if watcher is not None:
            watcher.on_valid_changed(pbn, valid)

    def valid_lpns_of_block(self, pbn: int) -> List[tuple]:
        """(page_offset, lpn) pairs still valid inside ``pbn``."""
        base = pbn * self._pages_per_block
        top = base + self._pages_per_block
        return [(offset, lpn) for offset, lpn in enumerate(self.p2l[base:top]) if lpn != UNMAPPED]

    def total_valid(self) -> int:
        return sum(self.valid_in_block)


class BlockPool:
    """Free-block pool of one allocation domain (typically one plane).

    FIFO reuse spreads erases across blocks, which is itself a mild form
    of dynamic wear leveling.
    """

    def __init__(self, blocks: Iterable[int]):
        self._free: Deque[int] = deque(blocks)
        self._initial = len(self._free)

    def __len__(self) -> int:
        return len(self._free)

    @property
    def initial_size(self) -> int:
        return self._initial

    def take(self) -> int:
        if not self._free:
            raise RuntimeError("block pool exhausted (GC failed to keep up)")
        return self._free.popleft()

    def give(self, pbn: int) -> None:
        self._free.append(pbn)

    def remove(self, pbn: int) -> bool:
        """Drop a specific block from the pool (grown bad block)."""
        try:
            self._free.remove(pbn)
            return True
        except ValueError:
            return False

    def peek_free(self) -> List[int]:
        return list(self._free)


class VictimBuckets:
    """O(1) greedy GC victim selection via invalid-count bucket lists
    (after Dayan & Bonnet, "GC Techniques for Flash-Resident Page-Mapping
    FTLs").

    Member blocks — the *occupied* (fully written, no longer active)
    blocks of one allocation domain — live in one bucket per valid-page
    count, each bucket an insertion-ordered dict (FIFO tie-break).  A
    lazy minimum pointer makes the greedy pick amortized O(1): host
    writes land on active blocks, which are not members, so a member's
    valid count normally only *decreases*; the pointer therefore only
    needs to walk upward when its bucket drains, and is pulled back down
    on the rare insert/update below it.

    The structure registers itself in
    :attr:`MappingState.block_watch` for each member, so mapping-table
    binds/invalidations keep the buckets current at one list probe plus
    one dict move per event.
    """

    __slots__ = ("_buckets", "_bucket_of", "_min")

    def __init__(self, pages_per_block: int):
        # Index == valid count; the last bucket (== pages_per_block)
        # holds fully valid blocks, which greedy never selects.
        self._buckets: List[dict] = [{} for _ in range(pages_per_block + 1)]
        self._bucket_of: Dict[int, int] = {}
        self._min = pages_per_block + 1

    def __contains__(self, pbn: int) -> bool:
        return pbn in self._bucket_of

    def __len__(self) -> int:
        return len(self._bucket_of)

    def __iter__(self):
        return iter(self._bucket_of)

    def add(self, pbn: int, valid: int) -> None:
        """Admit ``pbn`` with its current valid count (idempotent: an
        existing member is moved to the ``valid`` bucket)."""
        old = self._bucket_of.get(pbn)
        if old is not None:
            if old == valid:
                return
            del self._buckets[old][pbn]
        self._bucket_of[pbn] = valid
        self._buckets[valid][pbn] = None
        if valid < self._min:
            self._min = valid

    def discard(self, pbn: int) -> None:
        """Drop ``pbn`` from the structure (no-op for non-members)."""
        old = self._bucket_of.pop(pbn, None)
        if old is not None:
            del self._buckets[old][pbn]

    def on_valid_changed(self, pbn: int, valid: int) -> None:
        """Mapping-state hook: move a member to its new bucket."""
        old = self._bucket_of.get(pbn)
        if old is None or old == valid:
            return
        del self._buckets[old][pbn]
        self._buckets[valid][pbn] = None
        self._bucket_of[pbn] = valid
        if valid < self._min:
            self._min = valid

    def valid_of(self, pbn: int) -> Optional[int]:
        return self._bucket_of.get(pbn)

    def min_victim(self, skip=()) -> Optional[int]:
        """Oldest member of the lowest non-empty bucket, excluding fully
        valid blocks (nothing to gain) and any block in ``skip``.

        Amortized O(1): the lazy minimum pointer resumes where it last
        stopped and never revisits drained buckets until an insert below
        it pulls it back down.
        """
        buckets = self._buckets
        full = len(buckets) - 1
        index = self._min
        while index < full and not buckets[index]:
            index += 1
        self._min = index
        if index >= full:
            return None
        if not skip:
            return next(iter(buckets[index]))
        while index < full:
            for pbn in buckets[index]:
                if pbn not in skip:
                    return pbn
            index += 1
        return None

    def clear(self) -> None:
        for bucket in self._buckets:
            bucket.clear()
        self._bucket_of.clear()
        self._min = len(self._buckets)


def read_page_with_retry(ppn: int, *, stats: FTLStats, failed: Optional[FlashError] = None):
    """READ PAGE with bounded retry; returns ``(result, ecc_retries)``.

    A flash-command generator.  Two failure classes are handled:

    * :class:`UncorrectableError` (ECC) — re-read after a linear backoff
      Pause, up to :data:`READ_RETRY_LIMIT` extra attempts, then re-raise.
      Transient read disturb clears on retry; a persistent media defect
      exhausts the budget and propagates to the caller.
    * :class:`DieOutageError` — the die rejected the command with no state
      change; wait out the window with an escalating Pause (op-count
      windows advance on Pause commands too), up to
      :data:`OUTAGE_RETRY_LIMIT` rounds.

    Hot callers yield the first READ PAGE themselves and hand over only
    when it raises: ``failed`` is that error (one of the two classes
    above), and the retry starts from it exactly as if this generator
    had issued the attempt.

    ``stats.read_retries`` counts every extra ECC attempt.
    """
    ecc = 0
    waits = 0
    while True:
        if failed is None:
            try:
                result = yield ReadPage(ppn)
                return result, ecc
            except (UncorrectableError, DieOutageError) as exc:
                failed = exc
        if isinstance(failed, UncorrectableError):
            ecc += 1
            stats._tm_read_retries.inc()
            if ecc > READ_RETRY_LIMIT:
                raise failed
            yield Pause(RETRY_BACKOFF_US * ecc)
        else:  # DieOutageError
            waits += 1
            if waits > OUTAGE_RETRY_LIMIT:
                raise failed
            yield Pause(outage_backoff_us(waits))
        failed = None


def retry_after_outage(command, failed: DieOutageError):
    """Re-issue a flash command whose attempt a die outage rejected.

    A flash-command generator for callers that yield the first attempt
    themselves and hand over only when it raises ``failed``.  The die
    rejected the command before changing any state, so the same command
    is retried after an escalating Pause, up to
    :data:`OUTAGE_RETRY_LIMIT` rounds; then the outage propagates.  Any
    other error of a retry propagates at once.
    """
    waits = 0
    while True:
        waits += 1
        if waits > OUTAGE_RETRY_LIMIT:
            raise failed
        yield Pause(outage_backoff_us(waits))
        try:
            yield command
            return
        except DieOutageError as exc:
            failed = exc


def outage_backoff_us(waits: int) -> float:
    """Pause before retry round ``waits`` of a command rejected by a die
    outage: :data:`RETRY_BACKOFF_US` doubling per round, capped at 2 ms."""
    return min(RETRY_BACKOFF_US * (2 ** min(waits, 5)), 2000.0)


def relocate_page(geometry: Geometry, src_ppn: int, dst_ppn: int, stats: FTLStats, oob=None):
    """Move one valid page, preferring COPYBACK when planes match.

    A flash-command generator; returns ``True`` when the page moved and
    ``False`` when the source proved unreadable even after retries — the
    caller must then skip-and-record (``stats.relocation_skips`` is bumped
    here) rather than abort its GC/merge.  The array checks source faults
    before consuming the copyback destination slot, so the read-retry +
    program fallback can reuse the same ``dst_ppn``.

    Updates the relocation counters that Figure 3 reports.
    """
    if geometry.same_plane(src_ppn, dst_ppn):
        try:
            yield Copyback(src_ppn=src_ppn, dst_ppn=dst_ppn, oob=oob)
        except (UncorrectableError, DieOutageError):
            pass  # fall through to the read/program path with retries
        else:
            stats._tm_gc_relocations.inc()
            stats.gc_copybacks += 1
            return True
    return (yield from relocate_via_host(src_ppn, dst_ppn, stats, oob))


def relocate_via_host(src_ppn: int, dst_ppn: int, stats: FTLStats, oob=None):
    """Move one valid page through the host: READ PAGE (with retry), then
    PAGE PROGRAM of ``dst_ppn``, waiting die outages out.

    The fallback of :func:`relocate_page` and of GC's inline COPYBACK,
    and the whole move when a space runs without copyback.  Returns ``False`` (and counts a
    relocation skip) when the source is unreadable after retries; a
    :class:`ProgramError` of the destination propagates to the caller.
    """
    try:
        result, __ = yield from read_page_with_retry(src_ppn, stats=stats)
    except UncorrectableError:
        stats._tm_relocation_skips.inc()
        return False
    stats.gc_reads += 1
    command = ProgramPage(dst_ppn, result.data, oob if oob is not None else result.oob)
    try:
        yield command
    except DieOutageError as failed:
        yield from retry_after_outage(command, failed)
    stats._tm_gc_relocations.inc()
    stats.gc_programs += 1
    return True
