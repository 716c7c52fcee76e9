"""Hazard-safe device front end: admission control + write-back cache.

The paper's NoFTL path issues native flash commands with no admission
control at all, and the block-device path models NCQ depth but nothing
*schedules* it.  :class:`DeviceFrontend` is the missing host-side layer
(ROADMAP item 5, in the spirit of FTL-SIM's ``frontend_scheduler``): it
sits between the DBMS storage adapters and either device path and
provides three things the raw paths cannot:

**Hazard tracking.**  Per logical page, at most one backing write *or*
trim is in flight at a time, reads order behind it (RAW), a destage
orders behind both any prior in-flight write/trim (WAW) and any in-flight
backing reads of the page (WAR), and a trim waits out an in-flight
destage so a late-landing write can never resurrect deallocated data.
Time spent stalled on a hazard is charged to the ``queue_hazard_us``
blame bucket.

**A write-back cache with an explicit durability contract.**  Writes are
acknowledged on cache insert — *volatile* — as long as the dirty set
sits below a configurable watermark; repeated writes to one page
coalesce in place.  :meth:`flush_barrier` is the durability point: when
it returns, every write acknowledged before it was called is on media
(*durable*).  On a power cut **only un-barriered cache contents may
vanish** — the listener registered with the flash array drops the cache
the instant the cut fires, exactly like real DRAM behind a capacitor-less
controller.  The chaos oracle (:class:`repro.bench.chaos.ChecksumOracle`)
distinguishes acked-volatile from acked-durable versions to prove the
contract under fire (``python -m repro.bench.siege``).

**Priority admission with backpressure.**  A bounded slot pool admits
reads ahead of barrier destages ahead of trims ahead of background
destages; background destage concurrency is throttled to a trickle while
the attribution engine's live GC-blame signal (:class:`LiveBlame`) says
the media is busy with maintenance.  Every queue is bounded and every
host-facing wait carries a deadline — an op that cannot be admitted in
time is *shed* with :class:`DegradedModeError` instead of waiting
unboundedly, and the shed is counted, never silent.

The front end is strictly opt-in (``frontend_config=None`` everywhere):
legacy rigs bypass it and their golden digests are bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.badblock import DegradedModeError
from ..core.storage import emit_host_op
from ..flash.errors import PowerCutError
from ..sim import Simulator, WaitQueue
from ..telemetry import CounterView, LiveBlame, MetricsRegistry, OpContext

__all__ = [
    "FrontendConfig",
    "DeviceFrontend",
    "FrontendShedError",
]


class FrontendShedError(DegradedModeError):
    """An op the front end refused to admit in time (queue full or
    deadline passed).  Subclasses :class:`DegradedModeError` so every
    existing degraded-mode handler treats a shed exactly like a device
    refusal: surfaced to the caller, never silently dropped."""

    def __init__(self, cls: str, reason: str):
        # Bypass DegradedModeError.__init__ (its signature is about spare
        # blocks); RuntimeError carries the message.
        RuntimeError.__init__(
            self, f"front end shed a {cls} op ({reason})"
        )
        self.cls = cls
        self.reason = reason

#: Admission classes in strict priority order (index = priority).
ADMISSION_CLASSES = ("read", "barrier", "trim", "destage")
#: Interface cost of a cache-hit acknowledgement (the "SATA packet").
ACK_LATENCY_US = 0.5
#: Trailing window for the live GC-blame signal.
BLAME_WINDOW_US = 20_000.0


@dataclass(frozen=True)
class FrontendConfig:
    """Tunables for :class:`DeviceFrontend` (all times in microseconds)."""

    #: Backing operations admitted concurrently (reads/trims/destages).
    max_inflight: int = 8
    #: Background destages in flight when maintenance is quiet.
    destage_workers: int = 4
    #: Write-back cache capacity (dirty logical pages).
    cache_pages: int = 256
    #: Writes are acknowledged volatile only while the dirty set is below
    #: ``dirty_high_watermark * cache_pages``; above it they wait for
    #: destage headroom (backpressure) up to ``write_deadline_us``.
    dirty_high_watermark: float = 0.75
    #: Bound on each admission queue; arrivals beyond it shed at once.
    queue_limit: int = 64
    #: Deadlines after which a host op sheds with DegradedModeError.
    read_deadline_us: float = 20_000.0
    write_deadline_us: float = 50_000.0
    trim_deadline_us: float = 50_000.0
    #: Throttle background destage to one in flight while the trailing
    #: GC-blame share exceeds this (or the backend reports maintenance).
    gc_blame_threshold: float = 0.5

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 1 <= self.destage_workers:
            raise ValueError("destage_workers must be >= 1")
        if self.cache_pages < 1:
            raise ValueError("cache_pages must be >= 1")
        if not 0.0 < self.dirty_high_watermark <= 1.0:
            raise ValueError("dirty_high_watermark must be in (0, 1]")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")

    @property
    def dirty_limit(self) -> int:
        return max(1, int(self.cache_pages * self.dirty_high_watermark))


class _CacheEntry:
    """One dirty logical page absorbed by the write-back cache."""

    __slots__ = ("data", "hint", "seq", "destaging", "stuck", "waiters")

    def __init__(self, data, hint: str, seq: int):
        self.data = data
        self.hint = hint
        self.seq = seq
        self.destaging = False  # a backing write for this entry is in flight
        self.stuck = False      # last destage refused (device degraded)
        self.waiters = None     # events to fire when the destage settles


class _Waiter:
    """One admission-queue entry; ``alive=False`` marks a shed waiter."""

    __slots__ = ("event", "cls", "alive")

    def __init__(self, event, cls: str):
        self.event = event
        self.cls = cls
        self.alive = True


class DeviceFrontend:
    """Hazard-safe admission + write-back cache over a storage adapter.

    ``backing`` is anything shaped like
    :class:`repro.db.storage.StorageAdapter` (duck-typed to keep the
    device layer import-free of the DBMS).  Pass the rig's
    :class:`~repro.flash.array.FlashArray` as ``array`` so a scripted
    power cut wipes the volatile cache at the instant it fires.
    """

    def __init__(
        self,
        sim: Simulator,
        backing,
        config: Optional[FrontendConfig] = None,
        *,
        array=None,
        telemetry=None,
        trace=None,
    ):
        self.sim = sim
        self.backing = backing
        self.config = config or FrontendConfig()
        # Bare rigs (unit tests) have no registry: count into a private
        # one, so every instrument below is always live.
        self.telemetry = (
            telemetry or getattr(backing, "telemetry", None)
            or MetricsRegistry()
        )
        self.trace = trace
        self.array = array

        # -- adapter facade ----------------------------------------------
        self.logical_pages = backing.logical_pages
        self.num_regions = getattr(backing, "num_regions", 1)

        # -- write-back cache (holds only dirty pages) -------------------
        self._cache: Dict[int, _CacheEntry] = {}
        self._dirty_fifo: deque = deque()
        self._write_seq = 0
        #: Highest write seq destaged to media per lpn (barrier bookkeeping).
        self._last_destaged: Dict[int, int] = {}
        #: Writes held at the dirty watermark, woken by every drain.
        self._drain_queue = WaitQueue(sim)

        # -- hazard registry ---------------------------------------------
        #: lpn -> Event fired when the in-flight backing write/trim lands.
        self._mutators: Dict[int, object] = {}
        #: lpn -> count of in-flight backing reads (WAR fence for destage).
        self._readers: Dict[int, int] = {}
        self._reader_drain: Dict[int, object] = {}

        # -- admission ----------------------------------------------------
        self._slots_free = self.config.max_inflight
        self._queues: Dict[str, deque] = {
            cls: deque() for cls in ADMISSION_CLASSES
        }
        self._qdepth: Dict[str, int] = {cls: 0 for cls in ADMISSION_CLASSES}
        self._inflight_destage = 0
        self._blame = LiveBlame(BLAME_WINDOW_US)

        # -- power --------------------------------------------------------
        self._powered_off = False
        self._cut_op = 0
        if array is not None:
            listeners = getattr(array, "power_cut_listeners", None)
            if listeners is None:
                raise TypeError(
                    "array lacks power_cut_listeners; rebuild it first"
                )
            listeners.append(self._on_power_cut)

        # -- destage workers ----------------------------------------------
        self._parked_workers: List = []
        for wid in range(self.config.destage_workers):
            sim.process(self._destage_worker(wid))

        # -- telemetry ----------------------------------------------------
        tm = self.telemetry
        self._tm_acks = tm.counter("frontend.acks", layer="device")
        self._tm_coalesced = tm.counter("frontend.coalesced", layer="device")
        self._tm_cache_hits = tm.counter("frontend.cache_hits", layer="device")
        self._tm_destages = tm.counter("frontend.destages", layer="device")
        self._tm_barriers = tm.counter("frontend.barriers", layer="device")
        self._tm_hazard_stalls = tm.counter(
            "frontend.hazard_stalls", layer="device")
        self._tm_sheds = tm.counter_vec(
            "frontend.sheds", ("cls",), layer="device")
        self._tm_destage_degraded = tm.counter(
            "frontend.destage_degraded", layer="device")
        self._tm_volatile_lost = tm.counter(
            "frontend.volatile_lost", layer="device")
        self._tm_throttled = tm.counter(
            "frontend.destage_throttled", layer="device")
        self._tm_dirty = tm.gauge("frontend.dirty_pages", layer="device")
        self._tm_barrier_us = tm.histogram("frontend.barrier_us", layer="device")
        tm.register_collector("frontend.state", self._collect_state)
        # The per-object counts (ack_count, shed_counts, ...) read these.
        CounterView.start_all(self)
        self._shed_base = tm.series("frontend.sheds", "cls", layer="device")

        #: Opt-in :class:`repro.telemetry.health.LoadWindowEngine`; set by
        #: ``HealthMonitor.attach_frontend``.  Entirely passive — the
        #: engine schedules nothing, so attaching it never perturbs event
        #: order (digests of rigs without it are untouched by design).
        self.load_monitor = None

    # -- adapter facade --------------------------------------------------

    def region_of_page(self, page_id: int) -> int:
        fn = getattr(self.backing, "region_of_page", None)
        return fn(page_id) if fn is not None else 0

    @property
    def maintenance_active(self) -> bool:
        return bool(getattr(self.backing, "maintenance_active", False))

    @property
    def dirty_pages(self) -> int:
        return len(self._cache)

    def gc_share(self) -> float:
        return self._blame.gc_share(self.sim.now)

    def _collect_state(self) -> dict:
        return {
            "dirty_pages": len(self._cache),
            "slots_free": self._slots_free,
            "inflight_destage": self._inflight_destage,
            "queued": dict(self._qdepth),
            "gc_share": round(self.gc_share(), 4),
        }

    # -- admission scheduler ----------------------------------------------

    def _destage_limit(self) -> int:
        """Background destage concurrency allowed *right now*.

        Throttled to a trickle — never zero, so destage cannot starve —
        while the backend runs maintenance or the trailing GC-blame share
        is high.  Sampled at every grant; no events, no hysteresis.
        """
        if (
            self.maintenance_active
            or self._blame.gc_share(self.sim.now)
            >= self.config.gc_blame_threshold
        ):
            return 1
        return self.config.destage_workers

    def _pump(self) -> None:
        """Grant free slots to the highest-priority live waiters."""
        while self._slots_free > 0:
            waiter = None
            for cls in ADMISSION_CLASSES:
                queue = self._queues[cls]
                while queue and not queue[0].alive:
                    queue.popleft()
                if not queue:
                    continue
                if cls == "destage":
                    limit = self._destage_limit()
                    if self._inflight_destage >= limit:
                        if limit == 1:
                            self._tm_throttled.inc()
                        continue
                waiter = queue.popleft()
                break
            if waiter is None:
                return
            self._qdepth[waiter.cls] -= 1
            self._slots_free -= 1
            if waiter.cls == "destage":
                self._inflight_destage += 1
            waiter.event.succeed()

    def _acquire(self, cls: str, deadline_us: Optional[float], ctx):
        """Generator: wait for an admission slot of class ``cls``.

        Sheds with :class:`DegradedModeError` if the bounded queue is
        full on arrival or the deadline passes first.  On return the
        caller owns one slot and must :meth:`_release` it.
        """
        if self._qdepth[cls] >= self.config.queue_limit:
            self._shed(cls, "queue full")
        waiter = _Waiter(self.sim.event(), cls)
        self._queues[cls].append(waiter)
        self._qdepth[cls] += 1
        self._pump()
        start = self.sim.now
        if deadline_us is None:
            yield waiter.event
        else:
            deadline = self.sim.timeout(deadline_us)
            yield self.sim.any_of([waiter.event, deadline])
            if not waiter.event.triggered:
                # Deadline first.  Mark the waiter dead *before* anything
                # else runs so a later _pump cannot grant a shed op.
                waiter.alive = False
                self._qdepth[cls] -= 1
                self._shed(cls)
        wait = self.sim.now - start
        if wait > 0 and ctx is not None:
            behind_maintenance = self.maintenance_active
            ctx.charge(
                "queue_gc_us" if behind_maintenance else "queue_other_us",
                wait,
            )

    def _release(self, cls: str) -> None:
        self._slots_free += 1
        if cls == "destage":
            self._inflight_destage -= 1
        self._pump()

    def _shed(self, cls: str, reason: str = "deadline passed"):
        self._tm_sheds.labels(cls).inc()
        monitor = self.load_monitor
        if monitor is not None:
            monitor.note_shed(self.sim.now, cls)
        raise FrontendShedError(cls, reason)

    # -- hazard helpers ----------------------------------------------------

    def _wait_mutator(self, lpn: int, ctx):
        """Generator: wait until no backing write/trim is in flight for
        ``lpn``; charges the stall to ``queue_hazard_us``."""
        event = self._mutators.get(lpn)
        while event is not None:
            self._tm_hazard_stalls.inc()
            start = self.sim.now
            yield event
            if ctx is not None:
                ctx.charge("queue_hazard_us", self.sim.now - start)
            event = self._mutators.get(lpn)

    def _wait_readers(self, lpn: int, ctx):
        """Generator: WAR fence — wait for in-flight backing reads of
        ``lpn`` to drain before mutating it on media."""
        while self._readers.get(lpn, 0) > 0:
            drain = self._reader_drain.get(lpn)
            if drain is None:
                drain = self.sim.event()
                self._reader_drain[lpn] = drain
            self._tm_hazard_stalls.inc()
            start = self.sim.now
            yield drain
            if ctx is not None:
                ctx.charge("queue_hazard_us", self.sim.now - start)

    def _begin_mutation(self, lpn: int):
        done = self.sim.event()
        self._mutators[lpn] = done
        return done

    def _end_mutation(self, lpn: int, done) -> None:
        if self._mutators.get(lpn) is done:
            del self._mutators[lpn]
        if not done.triggered:
            done.succeed()

    # -- power -------------------------------------------------------------

    def _check_power(self) -> None:
        if self._powered_off:
            raise PowerCutError(self._cut_op)

    def _on_power_cut(self, command=None) -> None:
        """Array listener: the cut wipes all volatile state *now*.

        Only un-barriered cache contents vanish — everything destaged
        (and everything a completed :meth:`flush_barrier` covered) is on
        media already.  Waiters are woken so they observe the cut instead
        of blocking a post-mortem drain of the event queue.
        """
        if self._powered_off:
            return
        self._powered_off = True
        injector = getattr(self.array, "fault_injector", None)
        if injector is not None:
            self._cut_op = getattr(injector, "ops", 0)
        self._tm_volatile_lost.inc(len(self._cache))
        self._cache.clear()
        self._dirty_fifo.clear()
        self._tm_dirty.set(0)
        self._drain_queue.notify_all()
        for event in self._parked_workers:
            if not event.triggered:
                event.succeed()
        del self._parked_workers[:]

    def power_cycle(self) -> None:
        """Forget the power-cut latch after the array powers back up."""
        self._powered_off = False

    # -- host interface (all DES generators) -------------------------------

    def read(self, lpn: int, ctx: Optional[OpContext] = None):
        self._check_power()
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        trace = self.trace
        tracing = trace is not None and trace.enabled
        before = dict(ctx.costs) if tracing else None

        entry = self._cache.get(lpn)
        data = None
        if entry is not None:
            # The cache holds the newest acknowledged version: RAW
            # satisfied without touching the backing store at all.
            data = entry.data
            self._tm_cache_hits.inc()
            yield self.sim.timeout(ACK_LATENCY_US)
        else:
            yield from self._acquire(
                "read", self.config.read_deadline_us, ctx
            )
            try:
                # RAW fence: order behind any in-flight write/trim.  No
                # yield between the final check and reader registration,
                # so a mutator can never sneak in concurrently.
                yield from self._wait_mutator(lpn, ctx)
                entry = self._cache.get(lpn)
                if entry is not None:
                    # Re-dirtied while we waited: newest version is here.
                    data = entry.data
                    self._tm_cache_hits.inc()
                else:
                    self._readers[lpn] = self._readers.get(lpn, 0) + 1
                    cost0 = self._blame_snapshot(ctx)
                    t0 = self.sim.now
                    try:
                        data = yield from self.backing.read(lpn, ctx=ctx)
                    finally:
                        remaining = self._readers[lpn] - 1
                        if remaining:
                            self._readers[lpn] = remaining
                        else:
                            del self._readers[lpn]
                            drain = self._reader_drain.pop(lpn, None)
                            if drain is not None and not drain.triggered:
                                drain.succeed()
                    self._blame_note(ctx, cost0, self.sim.now - t0)
            finally:
                self._release("read")
        elapsed = self.sim.now - start
        monitor = self.load_monitor
        if monitor is not None:
            monitor.note_op(self.sim.now, "read", elapsed)
        if tracing:
            emit_host_op(trace, "read", ctx, before, elapsed)
        return data

    def write(self, lpn: int, data=None, hint: str = "hot",
              ctx: Optional[OpContext] = None):
        self._check_power()
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        trace = self.trace
        tracing = trace is not None and trace.enabled
        before = dict(ctx.costs) if tracing else None
        cfg = self.config
        deadline_at = start + cfg.write_deadline_us

        # Backpressure: volatile acks only below the dirty watermark.
        if len(self._cache) >= cfg.dirty_limit and lpn not in self._cache:
            yield from self._wait_drain(lpn, deadline_at, ctx)
        self._check_power()

        self._write_seq += 1
        entry = self._cache.get(lpn)
        if entry is None:
            self._cache[lpn] = _CacheEntry(data, hint, self._write_seq)
            self._dirty_fifo.append(lpn)
        else:
            entry.data = data
            entry.hint = hint
            entry.seq = self._write_seq
            if entry.stuck:
                # A degraded-refused entry left the dirty FIFO; the fresh
                # write re-arms it for background destage.
                entry.stuck = False
                if not entry.destaging:
                    self._dirty_fifo.append(lpn)
            self._tm_coalesced.inc()
        self._tm_acks.inc()
        self._tm_dirty.set(len(self._cache))
        self._wake_worker()
        yield self.sim.timeout(ACK_LATENCY_US)
        elapsed = self.sim.now - start
        monitor = self.load_monitor
        if monitor is not None:
            monitor.note_op(
                self.sim.now, "write", elapsed,
                queued=sum(self._qdepth.values()),
                dirty_ratio=len(self._cache) / cfg.cache_pages,
            )
        if tracing:
            emit_host_op(trace, "write", ctx, before, elapsed)

    def trim(self, lpn: int, ctx: Optional[OpContext] = None):
        self._check_power()
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        trace = self.trace
        tracing = trace is not None and trace.enabled
        before = dict(ctx.costs) if tracing else None

        # Versions acknowledged before this point are superseded by the
        # trim; later writes must survive it.  The cache entry is NOT
        # dropped yet — until the trim is admitted it may still shed, and
        # a concurrent read must keep seeing the newest acked version,
        # not whatever stale state the media holds.
        trim_seq = self._write_seq

        yield from self._acquire("trim", self.config.trim_deadline_us, ctx)
        try:
            # Fence: order behind any in-flight write/trim for this page
            # (a destage landing *after* the trim would resurrect
            # deallocated data).  _wait_mutator exits with no yield after
            # its final check, so registering ours right away is
            # race-free.
            yield from self._wait_mutator(lpn, ctx)
            entry = self._cache.get(lpn)
            if entry is not None and entry.seq <= trim_seq:
                # The trim supersedes the cached version — committed now.
                del self._cache[lpn]
                self._tm_dirty.set(len(self._cache))
                self._drain_queue.notify_all()
            done = self._begin_mutation(lpn)
            try:
                yield from self._wait_readers(lpn, ctx)
                cost0 = self._blame_snapshot(ctx)
                t0 = self.sim.now
                yield from self.backing.trim(lpn, ctx=ctx)
                self._blame_note(ctx, cost0, self.sim.now - t0)
            finally:
                self._end_mutation(lpn, done)
        finally:
            self._release("trim")
        self._last_destaged.pop(lpn, None)
        monitor = self.load_monitor
        if monitor is not None:
            monitor.note_op(self.sim.now, "trim", self.sim.now - start)
        if tracing:
            emit_host_op(trace, "trim", ctx, before, self.sim.now - start)

    def _wait_drain(self, lpn: int, deadline_at: float, ctx: OpContext):
        """Generator: hold a write while the dirty set sits at the
        watermark (and ``lpn`` is not cached), shedding once
        ``deadline_at`` passes.  Every wakeup charges its wait to
        ``cache_flush_us``."""
        sim = self.sim
        cache = self._cache
        limit = self.config.dirty_limit
        since = [0.0]  # when the current wait began

        def recheck():
            # The loop below, run in place: charge the wait, then re-park
            # with the deadline recomputed — unless the loop would leave.
            if self._powered_off or len(cache) < limit or lpn in cache:
                return None
            now = sim.now
            remaining = deadline_at - now
            if remaining <= 0:
                return None
            ctx.charge("cache_flush_us", now - since[0])
            since[0] = now
            return remaining

        while len(cache) >= limit and lpn not in cache:
            remaining = deadline_at - sim.now
            if remaining <= 0:
                self._shed("write", "dirty watermark held past deadline")
            since[0] = sim.now
            yield self._drain_queue.park(recheck, remaining)
            ctx.charge("cache_flush_us", sim.now - since[0])
            self._check_power()

    def flush_barrier(self, ctx: Optional[OpContext] = None):
        """Generator: the durability point.

        When this returns, every write acknowledged *before* the call is
        destaged to media.  Writes acknowledged during the barrier may or
        may not be covered.  Failures are honest: a degraded device or a
        power cut propagates — the barrier never returns success without
        the guarantee holding.
        """
        self._check_power()
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        # Snapshot the contract: these versions must be durable on return.
        pending = [
            (lpn, entry.seq) for lpn, entry in self._cache.items()
        ]
        for lpn, snap_seq in pending:
            while True:
                self._check_power()
                if self._last_destaged.get(lpn, -1) >= snap_seq:
                    break
                entry = self._cache.get(lpn)
                if entry is None:
                    # Destaged clean, or trimmed (the trim supersedes).
                    break
                if entry.destaging:
                    # A background destage owns the entry; wait for it to
                    # settle (its finally fires entry.waiters) and
                    # re-evaluate — it may have landed a new-enough seq.
                    if entry.waiters is None:
                        entry.waiters = []
                    settled = self.sim.event()
                    entry.waiters.append(settled)
                    yield settled
                    continue
                entry.stuck = False
                yield from self._destage_entry(
                    lpn, entry, "barrier", ctx.child("frontend")
                )
        elapsed = self.sim.now - start
        ctx.charge("cache_flush_us", elapsed)
        self._tm_barriers.inc()
        self._tm_barrier_us.observe(elapsed)
        monitor = self.load_monitor
        if monitor is not None:
            monitor.note_op(self.sim.now, "barrier", elapsed)

    # -- destage machinery -------------------------------------------------

    def _wake_worker(self) -> None:
        while self._parked_workers:
            event = self._parked_workers.pop()
            if not event.triggered:
                event.succeed()
                return

    def _pick_dirty(self) -> Optional[int]:
        fifo = self._dirty_fifo
        while fifo:
            lpn = fifo[0]
            entry = self._cache.get(lpn)
            if entry is None or entry.destaging or entry.stuck:
                fifo.popleft()
                continue
            fifo.popleft()
            return lpn
        return None

    def _destage_worker(self, wid: int):
        """Background process: drain the dirty FIFO through admission."""
        while True:
            if self._powered_off:
                return
            lpn = self._pick_dirty()
            if lpn is None:
                event = self.sim.event()
                self._parked_workers.append(event)
                yield event
                continue
            entry = self._cache[lpn]
            ctx = OpContext("frontend", writer_id=wid)
            try:
                yield from self._destage_entry(lpn, entry, "destage", ctx)
            except PowerCutError:
                return
            except DegradedModeError:
                # Device refuses writes (spare capacity exhausted).  The
                # entry stays dirty + stuck; a later flush_barrier retries
                # and propagates the failure to whoever needs durability.
                entry.stuck = True
                self._tm_destage_degraded.inc()

    def _destage_entry(self, lpn: int, entry: _CacheEntry, cls: str, ctx):
        """Generator: write one cache entry to the backing store.

        Hazard order: wait out any in-flight mutator (an admitted trim),
        take an admission slot, fence in-flight readers (WAR), write,
        then drop the entry iff it was not re-dirtied mid-flight.
        """
        entry.destaging = True
        try:
            yield from self._acquire(cls, None, ctx)
            try:
                # Re-fence after admission: wait out any in-flight
                # write/trim for this page (WAW), then check the entry is
                # still ours — a trim may have superseded it.
                yield from self._wait_mutator(lpn, ctx)
                if self._cache.get(lpn) is not entry:
                    return
                # Snapshot *now*: a coalescing write during the backing
                # call re-dirties the entry, detected via seq below.
                snap_seq = entry.seq
                data = entry.data
                hint = entry.hint
                done = self._begin_mutation(lpn)
                try:
                    yield from self._wait_readers(lpn, ctx)
                    cost0 = self._blame_snapshot(ctx)
                    t0 = self.sim.now
                    yield from self.backing.write(lpn, data, hint, ctx=ctx)
                    self._blame_note(ctx, cost0, self.sim.now - t0)
                finally:
                    self._end_mutation(lpn, done)
            finally:
                self._release(cls)
            if snap_seq > self._last_destaged.get(lpn, -1):
                self._last_destaged[lpn] = snap_seq
            self._tm_destages.inc()
            current = self._cache.get(lpn)
            if current is entry and entry.seq == snap_seq:
                del self._cache[lpn]
                self._tm_dirty.set(len(self._cache))
                self._drain_queue.notify_all()
            elif current is entry:
                # Re-dirtied mid-destage: back onto the FIFO it goes.
                self._dirty_fifo.append(lpn)
                self._wake_worker()
        finally:
            if self._cache.get(lpn) is entry:
                entry.destaging = False
            waiters, entry.waiters = entry.waiters, None
            if waiters:
                for event in waiters:
                    if not event.triggered:
                        event.succeed()

    # -- blame ------------------------------------------------------------

    @staticmethod
    def _blame_snapshot(ctx) -> float:
        costs = ctx.costs
        return costs.get("gc_us", 0.0) + costs.get("queue_gc_us", 0.0)

    def _blame_note(self, ctx, before: float, elapsed: float) -> None:
        if elapsed <= 0:
            return
        gc_blamed = (
            ctx.costs.get("gc_us", 0.0)
            + ctx.costs.get("queue_gc_us", 0.0)
            - before
        )
        self._blame.note(self.sim.now, elapsed, max(0.0, gc_blamed))

    # -- reporting ---------------------------------------------------------

    ack_count = CounterView("_tm_acks.value")
    coalesced_count = CounterView("_tm_coalesced.value")
    destage_count = CounterView("_tm_destages.value")
    barrier_count = CounterView("_tm_barriers.value")
    hazard_stalls = CounterView("_tm_hazard_stalls.value")
    degraded_destages = CounterView("_tm_destage_degraded.value")
    volatile_lost = CounterView("_tm_volatile_lost.value")

    @property
    def shed_counts(self) -> Dict[str, int]:
        """Sheds per admission class and ``write``, zeros included (the
        registry series appears only at a class's first shed)."""
        counts = dict.fromkeys(ADMISSION_CLASSES + ("write",), 0)
        series = self.telemetry.series("frontend.sheds", "cls", layer="device")
        for cls, value in series.items():
            counts[cls] = value - self._shed_base.get(cls, 0)
        return counts

    @property
    def sheds_total(self) -> int:
        return sum(self.shed_counts.values())

    def snapshot(self) -> dict:
        """Self-contained state/counter dump for bench reports."""
        return {
            "acks": self.ack_count,
            "coalesced": self.coalesced_count,
            "destages": self.destage_count,
            "barriers": self.barrier_count,
            "hazard_stalls": self.hazard_stalls,
            "sheds": self.shed_counts,
            "sheds_total": self.sheds_total,
            "degraded_destages": self.degraded_destages,
            "volatile_lost": self.volatile_lost,
            "dirty_pages": len(self._cache),
            "gc_share": round(self.gc_share(), 4),
        }

