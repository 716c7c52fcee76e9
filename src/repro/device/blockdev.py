"""The legacy block device: a black-box Flash SSD.

Figure 1.a/1.b of the paper: the DBMS sees only ``READ(lba)`` /
``WRITE(lba)``; an on-device FTL translates, garbage-collects and
wear-levels behind the interface.  Two bottlenecks of the real article are
modelled explicitly:

* **NCQ depth** — SATA2 admits at most 32 outstanding commands
  (Section 3.2 contrasts this with ~160 concurrent native flash
  commands);
* **controller concurrency** — FTL work runs on "a single ASIC
  controller" (Section 3) that can keep only a handful of NAND
  operations in flight (``controller_slots``, default 4 — typical of
  the era's firmware command interleaving).  Operations that mutate FTL
  state (all writes, and reads that miss the mapping cache) occupy a
  slot for their full duration, so a burst of merges/GC starves
  foreground writes.  Reads whose translation is a pure lookup bypass
  the controller entirely.

Each operation's host-observed latency (queueing included) rides on
its ``host.op`` trace event; reads and writes also keep every sample in
``read_latency`` / ``write_latency``, which the stack benchmark's
``tpcb_faster`` workload reads for its latency percentiles.  (E6 times
the synthetic driver's own recorders.)
"""

from __future__ import annotations

from typing import Optional

from ..core.storage import emit_host_op
from ..flash.executor import SimExecutor, SyncExecutor
from ..ftl.base import BaseFTL
from ..sim import LatencyRecorder, Resource, Simulator
from ..telemetry import OpContext

__all__ = ["BlockDevice", "SyncBlockDevice"]

#: Host-interface (SATA command + transfer set-up) time every operation
#: pays before the device starts on it.
INTERFACE_OVERHEAD_US = 20.0


class BlockDevice:
    """DES-mode black-box SSD: an FTL behind a queue-limited interface.

    All I/O entry points are DES generators::

        data = yield from device.read(lba)
        yield from device.write(lba, data)
    """

    def __init__(
        self,
        sim: Simulator,
        ftl: BaseFTL,
        executor: SimExecutor,
        ncq_depth: int = 32,
        controller_slots: int = 4,
    ):
        if ncq_depth < 1:
            raise ValueError("ncq_depth must be >= 1")
        if controller_slots < 1:
            raise ValueError("controller_slots must be >= 1")
        self.sim = sim
        self.ftl = ftl
        self.executor = executor
        self.ncq = Resource(sim, capacity=ncq_depth)
        self.controller = Resource(sim, capacity=controller_slots)
        self.read_latency = LatencyRecorder("blockdev-read")
        self.write_latency = LatencyRecorder("blockdev-write")
        self.trace = ftl.trace

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    def _acquire(self, resource: Resource, ctx: OpContext):
        """Acquire one queue slot, charging the wait to the context.

        Waits while the FTL is mid-GC/merge are maintenance-blamed: the
        controller slots are busy with relocations, which is exactly the
        black-box starvation the paper's latency experiment exposes.  The
        probe is sampled on arrival *and* after the wait so a merge that
        starts mid-wait still gets the blame.
        """
        behind = self.ftl.maintenance_active
        start = self.sim.now
        yield resource.request()
        wait = self.sim.now - start
        if wait > 0:
            behind = behind or self.ftl.maintenance_active
            ctx.charge("queue_gc_us" if behind else "queue_other_us", wait)

    def read(self, lba: int, ctx: Optional[OpContext] = None):
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        before = dict(ctx.costs)
        yield from self._acquire(self.ncq, ctx)
        try:
            yield self.sim.timeout(INTERFACE_OVERHEAD_US)
            if self._is_fast_read(lba):
                data = yield from self.executor.run(
                    self.ftl.read(lba), ctx=ctx
                )
            else:
                yield from self._acquire(self.controller, ctx)
                try:
                    data = yield from self.executor.run(
                        self.ftl.read(lba), ctx=ctx
                    )
                finally:
                    self.controller.release()
        finally:
            self.ncq.release()
        elapsed = self.sim.now - start
        self.read_latency.record(elapsed)
        emit_host_op(self.trace, "read", ctx, before, elapsed)
        return data

    def write(self, lba: int, data=None, ctx: Optional[OpContext] = None):
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        before = dict(ctx.costs)
        yield from self._acquire(self.ncq, ctx)
        try:
            yield self.sim.timeout(INTERFACE_OVERHEAD_US)
            yield from self._acquire(self.controller, ctx)
            try:
                yield from self.executor.run(
                    self.ftl.write(lba, data), ctx=ctx
                )
            finally:
                self.controller.release()
        finally:
            self.ncq.release()
        elapsed = self.sim.now - start
        self.write_latency.record(elapsed)
        emit_host_op(self.trace, "write", ctx, before, elapsed)

    def trim(self, lba: int, ctx: Optional[OpContext] = None):
        """DATASET MANAGEMENT travels the same host path as read/write:
        one NCQ slot, the SATA packet overhead, then a controller slot
        (trim always mutates FTL mapping state)."""
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        before = dict(ctx.costs)
        yield from self._acquire(self.ncq, ctx)
        try:
            yield self.sim.timeout(INTERFACE_OVERHEAD_US)
            yield from self._acquire(self.controller, ctx)
            try:
                yield from self.executor.run(self.ftl.trim(lba), ctx=ctx)
            finally:
                self.controller.release()
        finally:
            self.ncq.release()
        emit_host_op(self.trace, "trim", ctx, before, self.sim.now - start)

    def _is_fast_read(self, lba: int) -> bool:
        probe = getattr(self.ftl, "is_fast_read", None)
        return bool(probe(lba)) if probe is not None else False


class SyncBlockDevice:
    """Synchronous flavour for trace replay and tests (no queueing)."""

    def __init__(self, ftl: BaseFTL, executor: SyncExecutor):
        self.ftl = ftl
        self.executor = executor

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    def read(self, lba: int, ctx: Optional[OpContext] = None):
        return self.executor.run(self.ftl.read(lba), ctx=ctx)

    def write(self, lba: int, data=None,
              ctx: Optional[OpContext] = None) -> None:
        self.executor.run(self.ftl.write(lba, data), ctx=ctx)

    def trim(self, lba: int, ctx: Optional[OpContext] = None) -> None:
        self.executor.run(self.ftl.trim(lba), ctx=ctx)
