"""Buffer pool: page cache with pinning, LRU eviction and WAL discipline.

The mechanics that matter for the paper's experiments:

* a transaction that misses and finds only **dirty** eviction victims
  must write one back in the foreground — that stall is exactly what
  background db-writers exist to prevent, and what makes their
  throughput (and their flash-contention behaviour, Figure 4) visible in
  transactions per second;
* every page write-back observes the WAL rule: log flushed up to the
  page's last LSN before the page goes to storage;
* each first-dirtying of a page is announced to a listener — the hook
  the db-writer framework (global vs die-wise assignment) plugs into;
* flushes snapshot the page bytes *before* any waiting, so a concurrent
  mutator can never leak an unlogged change to storage.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Optional

from ..sim import Event, Simulator, WaitQueue
from ..telemetry import CounterView, EventTrace, MetricsRegistry, OpContext, trace_or_quiet
from .page import BTreeNodePage, decode_page
from .storage import StorageAdapter
from .wal import WALog

__all__ = ["Frame", "BufferPool"]

#: How long a transaction waits for the db-writers to clean a frame (and
#: a throttled mutator for the dirty ratio to drop) before it falls back
#: to an inline flush (or proceeds), so a stalled writer pool can never
#: wedge the system.
CLEAN_WAIT_TIMEOUT_US = 10_000.0
#: Accumulated reference heat at which a heat-hinted write-back is hot.
HEAT_THRESHOLD = 4


def _one_bucket(page_id: int) -> int:
    """Every page in one db-writer bucket: the pool before any writer
    pool partitions it, and the global policy's shared pool."""
    return 0


class Frame:
    """One resident page."""

    __slots__ = ("page_id", "page", "pin_count", "dirty", "dirty_seq",
                 "hint", "heat", "flush_event", "writer")

    def __init__(self, page_id: int, page, hint: str = "hot"):
        self.page_id = page_id
        self.page = page
        self.pin_count = 0
        self.dirty = False
        self.dirty_seq = 0
        self.hint = hint
        self.heat = 0
        self.flush_event: Optional[Event] = None
        #: The db-writer bucket the page counts against while dirty.
        self.writer = 0


class BufferPool:
    """Fixed-capacity page cache over a storage adapter."""

    def __init__(
        self,
        sim: Simulator,
        storage: StorageAdapter,
        wal: WALog,
        capacity: int,
        foreground_flush: bool = True,
        dirty_throttle_fraction: Optional[float] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
        heat_hints: bool = False,
    ):
        if capacity < 4:
            raise ValueError("buffer pool needs at least 4 frames")
        self.sim = sim
        self.storage = storage
        self.wal = wal
        self.capacity = capacity
        #: True: a transaction that evicts a dirty victim writes it back
        #: itself.  False (Shore-MT style, used by the Figure 4 bench):
        #: it waits for a background db-writer to produce a clean frame,
        #: falling back to an inline flush after ``CLEAN_WAIT_TIMEOUT_US``.
        self.foreground_flush = foreground_flush
        #: When set (e.g. 0.5), mutators calling :meth:`throttle` wait
        #: while more than this fraction of frames is dirty and background
        #: writers are active — the checkpoint/log-recycling back-pressure
        #: that couples transaction throughput to db-writer throughput
        #: (what the paper's Figure 4 measures).
        if dirty_throttle_fraction is not None \
                and not 0.05 <= dirty_throttle_fraction <= 1.0:
            raise ValueError("dirty_throttle_fraction must be in [0.05, 1]")
        self.dirty_throttle_fraction = dirty_throttle_fraction
        #: Opt-in reference-heat temperature: frames accumulate heat on
        #: hits and mutations, and every write-back re-derives its hot /
        #: cold hint from the accumulated heat (hot from ``HEAT_THRESHOLD``
        #: on; halved afterwards, an exponential decay).  This is what
        #: splits the heap class into ``heap-hot`` / ``heap-cold`` streams
        #: under write-streams mode.
        #: Off by default: the static per-frame hint keeps every legacy
        #: rig's storage traffic byte-identical.
        self.heat_hints = heat_hints
        self.frames: "OrderedDict[int, Frame]" = OrderedDict()
        # Resident dirty frames per db-writer bucket (one bucket until a
        # writer pool partitions the pool, see partition_writers),
        # maintained at each dirty/clean transition so throttle() and the
        # db-writers' idle scans are O(1) instead of O(frames).
        self.writer_dirty = [0]
        self._writer_of: Callable[[int], int] = _one_bucket
        self._loading: Dict[int, Event] = {}
        self._reserved = 0
        self._unpin_waiters: Deque[Event] = deque()
        # Evictions waiting for a clean frame and throttled mutators: one
        # queue, because their relative wake order is part of the schedule.
        self._clean_queue = WaitQueue(sim)
        self._dirty_listener: Optional[Callable[[int, Frame], None]] = None
        #: Set by DbWriterPool while background cleaners run; gates the
        #: wait-for-clean-frame eviction path.
        self.background_writers_active = False
        self.telemetry = telemetry or MetricsRegistry()
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        self._tm_hits = self.telemetry.counter(
            "db.buffer.lookups", layer="db", event="hit")
        self._tm_misses = self.telemetry.counter(
            "db.buffer.lookups", layer="db", event="miss")
        self._tm_evictions = self.telemetry.counter(
            "db.buffer.evictions", layer="db")
        self._tm_stalls = self.telemetry.counter(
            "db.buffer.dirty_eviction_stalls", layer="db")
        self._tm_flush_us = self.telemetry.histogram(
            "db.flush_us", layer="db")
        self.telemetry.register_collector("db.buffer", self.snapshot)
        CounterView.start_all(self)

    # -- configuration ------------------------------------------------------------

    def set_dirty_listener(self, listener: Callable[[int, Frame], None]) -> None:
        """``listener(page_id, frame)`` fires when a clean page turns dirty
        (db-writer framework hook)."""
        self._dirty_listener = listener

    def partition_writers(self, buckets: int = 1,
                          writer_of: Optional[Callable[[int], int]] = None) -> None:
        """Count dirty frames per db-writer bucket: ``writer_of(page_id)``
        names a page's bucket in ``range(buckets)`` (default: one bucket).
        Each page's bucket is fixed when it turns dirty; resident dirty
        frames are recounted here.  ``writer_dirty[b]`` then lets writer
        *b* skip an idle scan and stop a busy one at its own last dirty
        frame."""
        writer_of = writer_of or _one_bucket
        self._writer_of = writer_of
        self.writer_dirty = [0] * buckets
        for page_id, frame in self.frames.items():
            if frame.dirty:
                frame.writer = writer_of(page_id)
                self.writer_dirty[frame.writer] += 1

    # -- pin / unpin ----------------------------------------------------------------

    def pin(self, page_id: int) -> Optional[Frame]:
        """Pin a resident page and return its frame, or ``None`` on a
        miss.  Call sites read ``frame = buffer.pin(pid)
        or (yield from buffer.fetch(pid, hint))``: a hit schedules no
        event and costs no generator frame."""
        frame = self.frames.get(page_id)
        if frame is None:
            return None
        frame.pin_count += 1
        self.frames.move_to_end(page_id)
        self._tm_hits.value += 1
        if self.heat_hints:
            frame.heat += 1
        return frame

    def fetch(self, page_id: int, hint: str = "hot"):
        """Generator: pin the page, loading it from storage on a miss or
        joining a load already in flight."""
        while True:
            frame = self.pin(page_id)
            if frame is not None:
                return frame
            loading = self._loading.get(page_id)
            if loading is not None:
                yield loading
                continue
            # A miss: the context labels the eviction and storage read.
            ctx = OpContext("txn")
            done = self.sim.event()
            self._loading[page_id] = done
            try:
                self._tm_misses.inc()
                yield from self._make_room(ctx)
                self._reserved += 1
                try:
                    raw = yield from self.storage.read(page_id, ctx=ctx)
                finally:
                    self._reserved -= 1
                if raw is None:
                    raise KeyError(f"page {page_id} does not exist on storage")
                frame = Frame(page_id, decode_page(raw), hint)
                frame.pin_count = 1
                self.frames[page_id] = frame
            finally:
                del self._loading[page_id]
                done.succeed()
            return frame

    def new_page(self, page_id: int, page, hint: str = "hot"):
        """Generator: install a freshly allocated page (pinned, dirty)."""
        if page_id in self.frames or page_id in self._loading:
            raise ValueError(f"page {page_id} already resident")
        yield from self._make_room()
        frame = Frame(page_id, page, hint)
        frame.pin_count = 1
        self.frames[page_id] = frame
        self.mark_dirty(page_id)
        return frame

    def purge_page(self, page_id: int):
        """Generator: remove a page from the pool for good (deallocation).

        Waits out any in-flight load of the page (a stale reader racing
        the free-space manager) so no ghost frame can reappear after the
        page id is recycled.  The frame must be unpinned.
        """
        while page_id in self._loading:
            yield self._loading[page_id]
        frame = self.frames.get(page_id)
        if frame is not None:
            if frame.pin_count > 0:
                raise RuntimeError(f"purging pinned page {page_id}")
            if frame.flush_event is not None:
                yield frame.flush_event
            if frame.dirty:
                frame.dirty = False
                self.writer_dirty[frame.writer] -= 1
            self.frames.pop(page_id, None)

    def unpin(self, page_id: int) -> None:
        frame = self.frames.get(page_id)
        if frame is None or frame.pin_count <= 0:
            raise RuntimeError(f"unpin of page {page_id} that is not pinned")
        frame.pin_count -= 1
        if frame.pin_count == 0 and self._unpin_waiters:
            self._unpin_waiters.popleft().succeed()

    def mark_dirty(self, page_id: int) -> None:
        """Caller holds a pin and has just mutated (and WAL-logged) the page."""
        frame = self.frames[page_id]
        was_clean = not frame.dirty
        frame.dirty = True
        frame.dirty_seq += 1
        if self.heat_hints:
            frame.heat += 1
        if was_clean:
            writer = frame.writer = self._writer_of(page_id)
            self.writer_dirty[writer] += 1
            if self._dirty_listener is not None:
                self._dirty_listener(page_id, frame)

    def throttle(self):
        """``yield from`` target: back-pressure for mutators.

        No-op unless ``dirty_throttle_fraction`` is set, background
        writers are running and the dirty ratio is above the limit; then
        the caller waits for writers to clean frames (bounded by the
        clean-wait timeout so a dead writer pool cannot wedge commits).
        """
        if self.dirty_throttle_fraction is None \
                or not self.background_writers_active:
            return ()  # delegating to an empty tuple yields nothing
        return self._throttle_wait()

    def _throttle_wait(self):
        """Generator: the engaged-throttle path of :meth:`throttle`."""
        limit = self.dirty_throttle_fraction * self.capacity

        def recheck():
            return CLEAN_WAIT_TIMEOUT_US if self.dirty_count > limit else None

        while self.dirty_count > limit:
            if not (yield self._clean_queue.park(recheck,
                                                 CLEAN_WAIT_TIMEOUT_US)):
                return  # timed out: proceed rather than wedge

    # -- flushing ----------------------------------------------------------------------

    def flush_page(self, page_id: int, ctx: Optional[OpContext] = None):
        """Generator: write one page back (no-op when clean or absent)."""
        frame = self.frames.get(page_id)
        if frame is None:
            return False
        flushed = yield from self._flush_frame(frame, ctx)
        return flushed

    def flush_all(self):
        """Generator: checkpoint — write back every dirty resident page.

        Ends with the storage adapter's durability barrier: a checkpoint
        that leaves its write-backs in a volatile device cache has not
        checkpointed anything.  Plain adapters' barrier is a no-op that
        schedules no events, so legacy digests are unchanged.
        """
        ctx = OpContext("host")
        for page_id in list(self.frames):
            frame = self.frames.get(page_id)
            if frame is not None and frame.dirty:
                yield from self._flush_frame(frame, ctx)
        barrier = getattr(self.storage, "flush_barrier", None)
        if barrier is not None:
            yield from barrier(ctx=ctx)

    def _flush_frame(self, frame: Frame, ctx: Optional[OpContext] = None):
        if not frame.dirty:
            return False
        if ctx is None:
            ctx = OpContext("txn")
        if frame.flush_event is not None:
            yield frame.flush_event  # someone else is flushing: join them
            return False
        done = self.sim.event()
        frame.flush_event = done
        start = self.telemetry.now()
        try:
            # Snapshot *before* yielding: a concurrent mutator cannot leak
            # unlogged bytes into this write-back.
            raw = frame.page.to_bytes()
            lsn = frame.page.lsn
            seq = frame.dirty_seq
            wal_start = self.telemetry.now()
            yield from self.wal.flush_to(lsn)
            ctx.charge("wal_us", self.telemetry.now() - wal_start)
            # Classify the write-back for the WA ledger.  The flush ctx is
            # used strictly sequentially (``yield from`` returns only after
            # the write is accounted), so restamping per frame is safe even
            # when one ctx covers a whole checkpoint loop.
            ctx.data_class = (
                "btree" if isinstance(frame.page, BTreeNodePage) else "heap"
            )
            hint = frame.hint
            if self.heat_hints:
                # Temperature from reference heat, decayed per write-back
                # so a page that cools down migrates to the cold stream
                # within a couple of flush cycles.
                hint = "hot" if frame.heat >= HEAT_THRESHOLD else "cold"
                frame.heat >>= 1
            yield from self.storage.write(frame.page_id, raw, hint,
                                          ctx=ctx)
            if frame.dirty_seq == seq:
                frame.dirty = False
                self.writer_dirty[frame.writer] -= 1
                self._clean_queue.notify_all()
            elif self._dirty_listener is not None:
                # Re-dirtied mid-flush: make sure a writer comes back for
                # it (the original enqueue has been consumed).
                self._dirty_listener(frame.page_id, frame)
            self._tm_flush_us.observe(self.telemetry.now() - start)
        finally:
            frame.flush_event = None
            done.succeed()
        return True

    # -- eviction ------------------------------------------------------------------------

    def _make_room(self, ctx: Optional[OpContext] = None):
        while len(self.frames) + self._reserved >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                yield from self._wait_for_unpin()
                continue
            if victim.dirty:
                if self._waits_for_writers():
                    # Shore-MT style: wait for the db-writers to clean a
                    # frame; bounded by a timeout fallback.
                    picked = [victim]

                    def recheck():
                        # Would the loop re-pick and wait again?  Then do
                        # so in place, keeping the re-picked victim: the
                        # fallback flushes the latest wait's victim.
                        if len(self.frames) + self._reserved < self.capacity:
                            return None
                        frame = self._pick_victim()
                        if frame is None or not frame.dirty \
                                or not self._waits_for_writers():
                            return None
                        picked[0] = frame
                        return CLEAN_WAIT_TIMEOUT_US

                    if (yield self._clean_queue.park(recheck,
                                                     CLEAN_WAIT_TIMEOUT_US)):
                        continue  # a frame went clean: re-pick
                    victim = picked[0]
                # Foreground write-back: the stall db-writers should prevent.
                self._tm_stalls.inc()
                yield from self._flush_frame(victim, ctx)
                continue  # re-pick: state may have changed while flushing
            del self.frames[victim.page_id]
            self._tm_evictions.inc()

    def _waits_for_writers(self) -> bool:
        return not self.foreground_flush and self.background_writers_active

    def _pick_victim(self) -> Optional[Frame]:
        """Oldest unpinned frame (LRU order), dirty or clean."""
        for frame in self.frames.values():
            if frame.pin_count == 0 and frame.flush_event is None:
                return frame
        return None

    def _wait_for_unpin(self):
        event = self.sim.event()
        self._unpin_waiters.append(event)
        yield event

    # -- introspection ---------------------------------------------------------------------

    # Per-pool counts over the registry tallies (``flushes`` counts the
    # ``db.flush_us`` samples).
    hits = CounterView("_tm_hits.value")
    misses = CounterView("_tm_misses.value")
    evictions = CounterView("_tm_evictions.value")
    dirty_eviction_stalls = CounterView("_tm_stalls.value")
    flushes = CounterView("_tm_flush_us.count")

    @property
    def dirty_count(self) -> int:
        return sum(self.writer_dirty)

    def snapshot(self) -> dict:
        return {
            "capacity": self.capacity,
            "resident": len(self.frames),
            "dirty": self.dirty_count,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hits / (self.hits + self.misses)
            if (self.hits + self.misses) else 0.0,
            "evictions": self.evictions,
            "dirty_eviction_stalls": self.dirty_eviction_stalls,
            "flushes": self.flushes,
        }
