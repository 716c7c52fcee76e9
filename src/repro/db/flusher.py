"""Background db-writers: global vs flash-aware (die-wise) assignment.

Section 3.2 of the paper, verbatim: *"Instead of having multiple
db-writers, where each is responsible for a subset of dirty pages from
the whole address space, we have assigned each db-writer to a certain
physical region (i.e., set of NAND chips) ... each db-writer receives a
distinct subset of dirty pages that belongs to a corresponding physical
address space, and does not compete for physical storage with db-writers
assigned to other regions."*

Writers clean from the cold (LRU) end of the buffer pool — the frames
eviction will want next — which is how Shore-MT-style page cleaners
behave: hot pages keep coalescing updates in the pool instead of being
rewritten to flash on every change.  Two assignment policies:

* ``"global"`` — each writer owns a contiguous slice of the *logical*
  address space ("a subset of dirty pages from the whole address
  space").  Because the storage manager stripes logical pages across
  dies, every writer's slice spans *every* die, so concurrent writers
  constantly meet on the same chips and region locks (Figure 4's lower
  curve);
* ``"region"`` — writer *i* only cleans pages whose *physical* region
  is assigned to it; writers never compete for flash chips.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.badblock import DegradedModeError
from ..sim import Interrupt, Simulator
from ..telemetry import EventTrace, MetricsRegistry, OpContext, trace_or_quiet

__all__ = ["DbWriterPool"]

_POLICIES = ("global", "region")

#: Pages one writer picks per cleaning round.
BATCH_SIZE = 4
#: How long an idle writer sleeps before it looks for dirty pages again.
IDLE_POLL_US = 500.0


class DbWriterPool:
    """A set of background page-cleaner processes over one buffer pool."""

    def __init__(
        self,
        sim: Simulator,
        buffer_pool,
        storage,
        num_writers: int,
        policy: str = "global",
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if num_writers < 1:
            raise ValueError("num_writers must be >= 1")
        self.sim = sim
        self.buffer_pool = buffer_pool
        self.storage = storage
        self.num_writers = num_writers
        self.policy = policy
        self.pages_flushed: List[int] = [0] * num_writers
        #: Pages a writer could not clean because the device refused the
        #: write (degraded / shed) — reported, not silently retried-forever.
        self.pages_refused: List[int] = [0] * num_writers
        self.telemetry = telemetry or getattr(
            buffer_pool, "telemetry", None) or MetricsRegistry()
        self.trace = trace_or_quiet(trace, self.telemetry.now)
        # Per-(writer, region) flush counters: the die-affinity picture —
        # under the region policy each writer's column collapses onto its
        # own regions; under the global policy every writer hits them all.
        self._tm_pages = self.telemetry.counter_vec(
            "db.flusher.pages", ("writer", "region"), layer="db")
        self._tm_round_us = self.telemetry.histogram(
            "db.flusher.round_us", layer="db", policy=policy)
        self.telemetry.register_collector("db.flusher", self.snapshot)
        # Each writer reads its own dirty count: under the region policy
        # writer i counts the pages of the regions it owns; under the
        # global policy all writers share one bucket of the whole pool.
        if policy == "global":
            buffer_pool.partition_writers()
        else:
            buffer_pool.partition_writers(num_writers, self.writer_of_page)
        self._stopping = False
        buffer_pool.background_writers_active = True
        self._processes = [
            sim.process(self._writer_loop(index))
            for index in range(num_writers)
        ]

    # -- assignment -----------------------------------------------------------------

    def writer_of_page(self, page_id: int) -> int:
        """Which writer owns a page under the region policy."""
        return self.storage.region_of_page(page_id) % self.num_writers

    # -- the writer process ------------------------------------------------------------

    def _candidates(self, index: int) -> List[int]:
        """Dirty, unpinned, unclaimed frames this writer owns, in LRU
        (eviction) order."""
        bucket = 0 if self.policy == "global" else index
        remaining = self.buffer_pool.writer_dirty[bucket]
        if not remaining:
            return []  # idle poll, nothing of ours dirty: skip the scan
        picked = []
        for page_id, frame in self.buffer_pool.frames.items():
            if frame.dirty and frame.writer == bucket:
                if frame.pin_count == 0 and frame.flush_event is None:
                    picked.append(page_id)
                    if len(picked) >= BATCH_SIZE:
                        break
                remaining -= 1
                if not remaining:
                    break  # every dirty frame of ours has been considered
        return picked

    def _flushed_counter(self, index: int, region: int):
        return self._tm_pages.labels(index, region)

    def _writer_loop(self, index: int):
        while not self._stopping:
            batch = self._candidates(index)
            if not batch:
                try:
                    yield self.sim.timeout(IDLE_POLL_US)
                except Interrupt:
                    return
                continue
            with self.trace.span("flusher.round", histogram=self._tm_round_us,
                                 writer=index, batch=len(batch)) as span:
                cleaned = 0
                for page_id in batch:
                    frame = self.buffer_pool.frames.get(page_id)
                    if (frame is None or not frame.dirty
                            or frame.flush_event is not None):
                        continue  # claimed by a peer since the scan: skip
                    ctx = OpContext("db-writer", writer_id=index)
                    try:
                        flushed = yield from self.buffer_pool.flush_page(
                            page_id, ctx=ctx
                        )
                    except DegradedModeError:
                        # Device refused the write (degraded spare
                        # capacity, or a front-end shed under overload).
                        # The page stays dirty in the pool; count it and
                        # keep cleaning — a dead writer would silently
                        # stall the whole pool.
                        self.pages_refused[index] += 1
                        continue
                    if flushed:
                        self.pages_flushed[index] += 1
                        region = self.storage.region_of_page(page_id)
                        self._flushed_counter(index, region).inc()
                        cleaned += 1
                span.note(cleaned=cleaned)

    def stop(self) -> None:
        """Terminate all writers.  Idle writers exit immediately; a writer
        mid-flush is interrupted at its current wait.

        That interrupt does not unwind cleanly: ``SimExecutor.run`` neither
        throws it into nor closes the flash operation it was driving, so
        that operation's ``finally`` blocks never run and any GC or merge
        flag it holds (``pagespace`` ``plane.collecting``, FASTer
        ``_merging`` / ``_reclaiming``) stays latched.  Stop writers only
        once the device will not be used again, or after they are idle;
        ROADMAP item 1 (operation lifetimes) is the fix."""
        self._stopping = True
        self.buffer_pool.background_writers_active = False
        for process in self._processes:
            if process.is_alive and process._waiting_on is not None:
                try:
                    process.interrupt("stop")
                except RuntimeError:
                    pass

    # -- introspection --------------------------------------------------------------------

    def backlog(self) -> int:
        """Dirty unpinned pages currently eligible for cleaning."""
        return sum(
            1 for frame in self.buffer_pool.frames.values()
            if frame.dirty and frame.pin_count == 0
        )

    def snapshot(self) -> dict:
        out = {
            "policy": self.policy,
            "num_writers": self.num_writers,
            "pages_flushed": list(self.pages_flushed),
            "backlog": self.backlog(),
        }
        # Only surfaced when it happened: keeps the snapshot shape — and
        # therefore legacy rigs' golden metrics digests — bit-identical.
        if any(self.pages_refused):
            out["pages_refused"] = list(self.pages_refused)
        return out
