"""Execution front-ends for the NoFTL storage manager.

:class:`NoFTLStorage` is the DES-mode device the mini-DBMS mounts
directly (Figure 1.c): database page number == LPN, temperature hints and
deallocation (trim) flow straight into the storage manager, and the
region topology is exposed so the buffer manager can bind db-writers to
regions — the page interface of :class:`repro.db.storage.StorageAdapter`,
duck-typed so the core stays free of DBMS imports.  Reads are lock-free
(translation is a host-RAM lookup), writes serialize per *region* — many
host cores may manage different regions concurrently, unlike the
single-ASIC controller of a black-box SSD.  There is no NCQ cap: native
flash takes as many commands as dies can serve (Section 3.2).

:class:`SyncNoFTLStorage` is the synchronous flavour used for trace
replay (Figure 3) and tests.
"""

from __future__ import annotations

from typing import Optional

from ..flash.executor import SimExecutor, SyncExecutor
from ..sim import Resource, Simulator
from ..telemetry import COST_BUCKETS, OpContext
from .manager import NoFTLStorageManager

__all__ = ["NoFTLStorage", "SyncNoFTLStorage"]

#: Host-side command-issue time of every native-flash operation (no
#: block-interface protocol in the way, so a tenth of a SATA command's).
INTERFACE_OVERHEAD_US = 2.0


def emit_host_op(trace, op: str, ctx: OpContext, before: dict,
                 elapsed_us: float) -> None:
    """Emit one ``host.op`` trace event carrying this operation's latency
    and the *delta* of the context's cost buckets across the operation.

    The delta (snapshot-and-diff around the storage call) rather than the
    absolute costs keeps attribution correct when one context serves
    several operations (e.g. a db-writer flushing many pages).
    """
    if trace is None or not trace.enabled:
        return
    fields = ctx.fields()
    for bucket in COST_BUCKETS:
        delta = ctx.costs.get(bucket, 0.0) - before.get(bucket, 0.0)
        if delta:
            fields[bucket] = delta
    trace.emit("host.op", op=op, elapsed_us=elapsed_us, **fields)


class NoFTLStorage:
    """DES front-end: per-region write serialization, lock-free reads."""

    def __init__(
        self,
        sim: Simulator,
        manager: NoFTLStorageManager,
        executor: SimExecutor,
    ):
        self.sim = sim
        self.manager = manager
        self.executor = executor
        self.num_regions = manager.num_regions
        #: The placement function itself (``lpn % num_regions``), bound
        #: once: region-policy db-writers call it per dirty frame scanned.
        self.region_of_page = manager.regions.region_of_lpn
        self.region_locks = [
            Resource(sim, capacity=1) for __ in range(manager.num_regions)
        ]
        self.telemetry = manager.telemetry
        self.trace = manager.trace
        self.telemetry.set_clock(lambda: sim.now)
        #: Host read / write latencies: the registry's histograms
        #: themselves (per registry, so a cold start on the same registry
        #: keeps appending to them).
        self.read_latency = self.telemetry.histogram(
            "noftl.read_us", layer="core"
        )
        self.write_latency = self.telemetry.histogram(
            "noftl.write_us", layer="core"
        )
        self._tm_lock_waits = self.telemetry.counter(
            "noftl.region_lock_waits", layer="core"
        )
        self.telemetry.register_collector(
            "noftl.region_lock_contention", self.region_lock_contention
        )

    @property
    def logical_pages(self) -> int:
        return self.manager.logical_pages

    @property
    def maintenance_active(self) -> bool:
        return self.manager.maintenance_active

    def flush_barrier(self, ctx: Optional[OpContext] = None):
        """Generator: durability barrier.  Writes are acknowledged only
        after media program, so there is nothing to destage: no-op that
        schedules no events."""
        return
        yield  # pragma: no cover - generator form

    def read(self, lpn: int, ctx: Optional[OpContext] = None):
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        # The cost-bucket snapshot only feeds the host.op trace event;
        # skip the dict copy entirely when tracing is off.
        trace = self.trace
        tracing = trace is not None and trace.enabled
        before = dict(ctx.costs) if tracing else None
        yield self.sim.timeout(INTERFACE_OVERHEAD_US)
        data = yield from self.executor.run(self.manager.read(lpn), ctx=ctx)
        elapsed = self.sim.now - start
        self.read_latency.observe(elapsed)
        if tracing:
            emit_host_op(trace, "read", ctx, before, elapsed)
        return data

    def write(self, lpn: int, data=None, hint: str = "hot",
              ctx: Optional[OpContext] = None):
        if ctx is None:
            ctx = OpContext("host")
        start = self.sim.now
        trace = self.trace
        tracing = trace is not None and trace.enabled
        before = dict(ctx.costs) if tracing else None
        region = self.manager.region_of_lpn(lpn)
        lock = self.region_locks[region]
        # Classify the region-lock wait: if the region's space is running
        # GC/wear-leveling when we arrive, the wait is maintenance-blamed.
        behind_maintenance = (
            self.manager.regions.regions[region].space.maintenance_active
        )
        yield lock.request()
        wait = self.sim.now - start
        if wait > 0:
            self._tm_lock_waits.inc()
            ctx.charge(
                "queue_gc_us" if behind_maintenance else "queue_other_us",
                wait,
            )
        try:
            yield self.sim.timeout(INTERFACE_OVERHEAD_US)
            yield from self.executor.run(
                self.manager.write(lpn, data, hint, ctx=ctx), ctx=ctx
            )
        finally:
            lock.release()
        elapsed = self.sim.now - start
        self.write_latency.observe(elapsed)
        if tracing:
            emit_host_op(trace, "write", ctx, before, elapsed)

    def trim(self, lpn: int, ctx: Optional[OpContext] = None):
        lock = self.region_locks[self.manager.region_of_lpn(lpn)]
        yield lock.request()
        try:
            yield from self.executor.run(self.manager.trim(lpn), ctx=ctx)
        finally:
            lock.release()

    def mount(self):
        """Generator: cold-start OOB scan + state rebuild.

        Returns the :class:`~repro.core.manager.MountReport`.  Runs under
        every region lock so nothing allocates against half-built state
        (a freshly built rig has no other users anyway, but an in-place
        remount after a fault does).
        """
        ctx = OpContext("recovery")
        for lock in self.region_locks:
            yield lock.request()
        try:
            report = yield from self.executor.run(
                self.manager.mount(), ctx=ctx
            )
        finally:
            for lock in self.region_locks:
                lock.release()
        return report

    def recover(self):
        """Generator: compatibility wrapper — mount, return mapping count."""
        report = yield from self.mount()
        return report.mappings

    def region_lock_contention(self) -> dict:
        """Aggregate wait statistics — the paper's 'contention for physical
        resources among db-writers' made measurable."""
        return {
            "total_waits": sum(lock.total_waits for lock in self.region_locks),
            "total_wait_time_us": sum(
                lock.total_wait_time for lock in self.region_locks
            ),
        }


class SyncNoFTLStorage:
    """Synchronous flavour (trace replay, tests)."""

    def __init__(self, manager: NoFTLStorageManager, executor: SyncExecutor):
        self.manager = manager
        self.executor = executor

    @property
    def logical_pages(self) -> int:
        return self.manager.logical_pages

    def read(self, lpn: int, ctx: Optional[OpContext] = None):
        return self.executor.run(self.manager.read(lpn), ctx=ctx)

    def write(self, lpn: int, data=None, hint: str = "hot",
              ctx: Optional[OpContext] = None) -> None:
        self.executor.run(self.manager.write(lpn, data, hint, ctx=ctx),
                          ctx=ctx)

    def trim(self, lpn: int, ctx: Optional[OpContext] = None) -> None:
        self.executor.run(self.manager.trim(lpn), ctx=ctx)

    def mount(self):
        """Cold-start OOB scan + state rebuild; returns the MountReport."""
        return self.executor.run(
            self.manager.mount(), ctx=OpContext("recovery")
        )

    def recover(self) -> int:
        return self.executor.run(
            self.manager.recover(), ctx=OpContext("recovery")
        )
