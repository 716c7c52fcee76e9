"""The five workloads of the stack benchmark.

Every workload is built only from the public factories of
``repro.bench.rigs``, ``repro.workloads``, ``repro.device`` and
``repro.core``.  A workload object is one *repeat*: the constructor is
the set-up (rig build + load / prefill / input generation, timed by the
caller as ``setup_s``), :meth:`run` is the timed window, :meth:`outcome`
reports what the window did and :meth:`verify` checks its outputs.

``seed`` reseeds only the generated inputs (terminal streams, traces,
submitter op lists); the rigs themselves always build with
:data:`RIG_SEED`, so the program under test sees nothing of ``--seed``
but its inputs.  ``scale`` multiplies every horizon by one common
factor (1.0 is the size ``BENCHMARK.json``'s ``run_seconds`` was
calibrated for).
"""

from __future__ import annotations

import random

from repro.bench.rigs import (
    attach_database,
    build_blockdev_rig,
    build_noftl_rig,
    build_sync_noftl,
    geometry_for_footprint,
    geometry_with_dies,
    measure_workload_footprint,
    sized_geometry,
)
from repro.core import DegradedModeError, NoFTLConfig, SyncNoFTLStorage
from repro.db import StorageAdapter
from repro.device import FrontendConfig, SyncBlockDevice
from repro.flash import SyncExecutor, SyncFlashDevice
from repro.workloads import (
    IOTrace,
    TPCB,
    TPCC,
    VoluntaryRollback,
    replay_trace,
    run_workload,
)
from repro.workloads.trace import READ, TRIM, WRITE

RIG_SEED = 11
DIES = 8
TERMINALS = 16
WRITERS = 8
#: Resubmissions before an op is given up as failed (``run_workload``'s
#: own default for transactions).
MAX_RETRIES = 5

#: Share of accesses that go to the hot set, and the hot set's share of
#: the pages (the 80/20 skew of ``replay_gc_noftl`` / ``dev_mixed_*``).
HOT_ACCESS_SHARE = 0.8
HOT_PAGE_SHARE = 0.2


class Load:
    """One repeat of one workload.  Subclasses set the handles the
    per-layer probes read; a layer the workload bypasses stays ``None``."""

    name = ""
    registry = None
    sim = None        # DES kernel (None: synchronous replay)
    array = None
    manager = None    # NoFTL storage manager
    ftl = None        # on-device FTL of the block-device arm
    db = None
    frontend = None
    #: Planned operations when the window is count-bound, so a window
    #: that raises can charge every op it never ran as failed.
    planned_ops = 1

    def run(self) -> None:
        """The timed window."""
        raise NotImplementedError

    def sim_clock(self) -> float:
        """Simulated microseconds so far."""
        return self.sim.now

    def host_writes(self) -> int:
        """Cumulative page writes the host side issued to the device."""
        raise NotImplementedError

    def outcome(self) -> dict:
        """``ops`` completed, ``attempted``, ``failed``, and the window's
        simulated latency samples ``lat`` / ``read_lat`` / ``write_lat``."""
        raise NotImplementedError

    def verify(self) -> list:
        """``[(check name, passed, detail)]`` — runs after the probes
        have been read, so its own I/O never lands in a metric."""
        raise NotImplementedError


# -- TPC workloads -------------------------------------------------------------


class _CountRollbacks:
    """Wraps a workload's transaction bodies to count the rollbacks the
    specification demands (TPC-C: 1 % of NewOrder), which
    ``run_workload`` folds into ``stats.aborts`` beside real give-ups."""

    def __init__(self, inner):
        self.inner = inner
        self.voluntary = 0

    def next_transaction(self, db, rng):
        name, body = self.inner.next_transaction(db, rng)

        def counted(txn):
            try:
                yield from body(txn)
            except VoluntaryRollback:
                self.voluntary += 1
                raise

        return name, counted


class _AuditAdapter(StorageAdapter):
    """What the database mounts for the post-window audit: a synchronous,
    read-only view of the rig's device (same mapping, same array, none of
    the DES queues) that holds the audit's own dirty evictions in RAM.

    ``run_workload`` retires the db-writers by interrupting them, which
    can strand die / controller slots and GC flags on the DES side (see
    README, known-failing configurations); the audit must neither depend
    on that state nor write to the device it is auditing.
    """

    def __init__(self, view, mounted):
        self.view = view
        self.held = {}
        self.logical_pages = mounted.logical_pages
        self.num_regions = mounted.num_regions

    def read(self, page_id, ctx=None):
        if page_id in self.held:
            return self.held[page_id]
        return self.view.read(page_id)
        yield  # generator form

    def write(self, page_id, data, hint="hot", ctx=None):
        self.held[page_id] = data
        return
        yield  # generator form


class _Tpc(Load):
    """A TPC kit on a rig sized for it.  The defaults are the TPC-B pair's:
    data four times the cache, on NoFTL."""

    base_horizon_us = 0.0
    writer_policy = "region"

    def make_workload(self):
        return TPCB(sf=8, accounts_per_branch=3200)

    def headroom_pages(self, footprint: int) -> int:
        return footprint // 2

    def buffer_pages(self, footprint: int) -> int:
        return footprint // 4

    def build_rig(self, geometry):
        return build_noftl_rig(
            geometry=geometry,
            config=NoFTLConfig(num_regions=DIES, op_ratio=0.12),
            seed=RIG_SEED,
        )

    def __init__(self, seed: int, scale: float):
        self.scale = scale
        footprint = measure_workload_footprint(self.make_workload())
        rig = self.build_rig(sized_geometry(
            footprint, DIES, utilization=0.85,
            headroom_pages=self.headroom_pages(footprint)))
        self.rig = rig
        self.sim = rig.sim
        self.array = rig.array
        self.registry = rig.telemetry
        self.manager = getattr(rig, "manager", None)
        self.ftl = getattr(rig, "ftl", None)
        #: The object the DBMS's page I/O lands on; both kinds record
        #: ``read_latency`` / ``write_latency``.
        self.device = rig.storage if self.manager is not None else rig.device
        self.db = attach_database(
            rig, buffer_capacity=self.buffer_pages(footprint),
            foreground_flush=False,
        )
        self.db.start_writers(WRITERS, policy=self.writer_policy)
        self.workload = self.make_workload()
        self.sim.run_process(self.workload.load(self.db))
        self.counted = _CountRollbacks(self.workload)
        self.horizon_us = self.base_horizon_us * scale
        self.rng = random.Random(seed)
        self.probe_read_us = self._probe_read()
        self.read_mark = len(self.device.read_latency.samples)
        self.write_mark = len(self.device.write_latency.samples)
        self.stats = None

    def run(self) -> None:
        self.stats = run_workload(
            self.sim, self.db, self.counted,
            duration_us=self.horizon_us, num_terminals=TERMINALS,
            rng=self.rng, preloaded=True,
        )

    def host_writes(self) -> int:
        owner = self.manager if self.manager is not None else self.ftl
        return owner.stats.host_writes

    def outcome(self) -> dict:
        stats = self.stats
        # A window whose transactions never miss the buffer pool issues
        # no device read: report the set-up's probe read instead.
        read_lat = self.device.read_latency.samples[self.read_mark:] \
            or [self.probe_read_us]
        return {
            "ops": stats.commits,
            "attempted": stats.commits + stats.aborts,
            "failed": stats.aborts - self.counted.voluntary,
            "sim_ops_per_s": stats.tps,
            "lat": stats.latency.samples,
            "read_lat": read_lat,
            "write_lat": self.device.write_latency.samples[self.write_mark:],
            "retries": stats.retries,
            "voluntary_rollbacks": self.counted.voluntary,
        }

    def _probe_read(self) -> float:
        """One device read of a loaded page, at the end of set-up: the
        read-latency sample of a workload that never reads in its window
        (``tpcc_cached``).  It moves only when the read path does."""

        def probe():
            for page_id in range(self.db.pages_allocated):
                data = yield from self.device.read(page_id)
                if data is not None:
                    return

        self.sim.run_process(probe())
        return self.device.read_latency.samples[-1]

    def verify(self) -> list:
        executor = SyncExecutor(SyncFlashDevice(self.array))
        view = (SyncNoFTLStorage(self.manager, executor)
                if self.manager is not None
                else SyncBlockDevice(self.ftl, executor))
        audit = _AuditAdapter(view, self.db.storage)
        self.db.storage = self.db.buffer.storage = audit
        checks = [(
            "consistency",
            self.sim.run_process(self.workload.verify_consistency(self.db))
            is True,
            "workload.verify_consistency(db)",
        )]
        if self.manager is not None:
            problems = self.manager.verify_integrity()
            checks.append(("integrity", problems == [], "; ".join(problems[:3])))
        return checks


class TpcbNoftl(_Tpc):
    name = "tpcb_noftl"
    base_horizon_us = 3_000_000.0


class TpccCached(_Tpc):
    name = "tpcc_cached"
    base_horizon_us = 800_000.0

    def make_workload(self):
        return TPCC(warehouses=2, customers_per_district=20, items=80)

    def headroom_pages(self, footprint):
        # Inserts grow the database all window long (about 2.6 pages per
        # simulated ms, 2200 pages at scale 1).  The default footprint//2
        # headroom exhausts the block pool (see README), and a device
        # sized for a much longer horizon than the one run would only
        # begin to collect as the window closes — so it follows the
        # horizon.
        return int(6000 * self.scale)

    def buffer_pages(self, footprint):
        # 8x the loaded data plus room for everything the window inserts:
        # the cache must *fit*, or a handful of re-reads of evicted pages
        # become the whole device-read sample.
        return 8 * footprint + self.headroom_pages(footprint) // 2


class TpcbFaster(_Tpc):
    name = "tpcb_faster"
    base_horizon_us = 16_000_000.0
    writer_policy = "global"

    def build_rig(self, geometry):
        return build_blockdev_rig("faster", geometry=geometry, ncq_depth=32,
                                  seed=RIG_SEED)


# -- skewed page streams ---------------------------------------------------------


def _hot_cold(pages: int, rng: random.Random):
    """A seeded permutation of ``range(pages)`` whose first
    ``HOT_PAGE_SHARE`` is the hot set, and the size of that set."""
    order = list(range(pages))
    rng.shuffle(order)
    return order, max(1, int(pages * HOT_PAGE_SHARE))


def _skewed_position(rng: random.Random, pages: int, hot: int) -> int:
    if rng.random() < HOT_ACCESS_SHARE:
        return rng.randrange(hot)
    return hot + rng.randrange(pages - hot)


def _pick_kind(rng: random.Random, read_share: float, write_share: float):
    draw = rng.random()
    if draw < read_share:
        return READ
    if draw < read_share + write_share:
        return WRITE
    return TRIM


# -- replay_gc_noftl -------------------------------------------------------------


class _TimedSyncStorage(SyncNoFTLStorage):
    """``SyncNoFTLStorage`` that times each call on the replay device's
    simulated clock (``serial_us``: the flash time the op occupied, GC
    it triggered included).  ``replay_trace`` accepts it as the NoFTL
    target it is."""

    def __init__(self, storage: SyncNoFTLStorage):
        super().__init__(storage.manager, storage.executor)
        self.device = storage.executor.device
        self.read_us = []
        self.write_us = []

    def read(self, lpn, ctx=None):
        before = self.device.serial_us
        data = super().read(lpn, ctx)
        self.read_us.append(self.device.serial_us - before)
        return data

    def write(self, lpn, data=None, hint="hot", ctx=None):
        before = self.device.serial_us
        super().write(lpn, data, hint, ctx)
        self.write_us.append(self.device.serial_us - before)


class ReplayGcNoftl(Load):
    name = "replay_gc_noftl"
    pages = 6000
    base_ops = 250_000

    def __init__(self, seed: int, scale: float):
        rng = random.Random(seed)
        order, hot = _hot_cold(self.pages, rng)
        hint_of = {lpn: "hot" for lpn in order[:hot]}
        prefill = IOTrace()
        for lpn in range(self.pages):
            prefill.append(WRITE, lpn, hint_of.get(lpn, "cold"))
        self.trace = IOTrace()
        self.planned_ops = max(1, int(self.base_ops * scale))
        for __ in range(self.planned_ops):
            lpn = order[_skewed_position(rng, self.pages, hot)]
            self.trace.append(_pick_kind(rng, 0.25, 0.70), lpn,
                              hint_of.get(lpn, "cold"))

        geometry = geometry_for_footprint(
            self.pages, utilization=0.85, op_ratio=0.12, dies=2)
        storage, self.array = build_sync_noftl(
            geometry, config=NoFTLConfig(op_ratio=0.12), seed=RIG_SEED)
        self.storage = _TimedSyncStorage(storage)
        self.manager = storage.manager
        self.registry = self.array.telemetry
        replay_trace(prefill, self.storage)
        del self.storage.read_us[:], self.storage.write_us[:]
        self.clock_mark = self.storage.device.elapsed_us
        self.report = None

    def run(self) -> None:
        self.report = replay_trace(self.trace, self.storage)

    def sim_clock(self) -> float:
        # Perfect die pipelining (busiest die's busy time): the sync
        # device's own estimate of elapsed simulated time.
        return self.storage.device.elapsed_us

    def host_writes(self) -> int:
        return self.manager.stats.host_writes

    def outcome(self) -> dict:
        ops = len(self.trace)
        sim_s = (self.sim_clock() - self.clock_mark) / 1e6
        storage = self.storage
        return {
            "ops": ops,
            "attempted": ops,
            "failed": 0,
            "sim_ops_per_s": ops / sim_s,
            "lat": storage.read_us + storage.write_us,
            "read_lat": storage.read_us,
            "write_lat": storage.write_us,
        }

    def verify(self) -> list:
        problems = self.manager.verify_integrity()
        counts = self.trace.counts()
        replayed = (self.report.host_reads, self.report.host_writes
                    - self.pages, self.report.host_trims)
        wanted = (counts["reads"], counts["writes"], counts["trims"])
        return [
            ("integrity", problems == [], "; ".join(problems[:3])),
            ("replayed_counts", replayed == wanted,
             f"manager saw {replayed}, trace holds {wanted}"),
        ]


# -- dev_mixed_frontend ----------------------------------------------------------


class DevMixedFrontend(Load):
    """16 closed-loop submitters against the device front end.

    Submitter ``i`` owns the pages at positions ``i (mod 16)`` of the
    seeded permutation, so no two host ops on one page are ever in
    flight together (as a buffer manager guarantees) and the last
    acknowledged write of every page is known exactly.  An op the front
    end sheds (``DegradedModeError``) is resubmitted like an aborted
    transaction; only one given up after ``MAX_RETRIES`` is failed.
    """

    name = "dev_mixed_frontend"
    base_ops = 48_000
    fill_share = 0.8
    audit_pages = 2000
    with_frontend = True

    def __init__(self, seed: int, scale: float):
        rig = build_noftl_rig(
            geometry=geometry_with_dies(DIES), seed=RIG_SEED,
            frontend_config=FrontendConfig() if self.with_frontend else None,
        )
        self.rig = rig
        self.sim = rig.sim
        self.array = rig.array
        self.registry = rig.telemetry
        self.manager = rig.manager
        self.frontend = rig.frontend
        self.target = rig.mount_point

        pages = int(rig.storage.logical_pages * self.fill_share)
        self.expected = {}

        def prefill():
            for lpn in range(pages):
                data = ("prefill", lpn)
                yield from rig.storage.write(lpn, data)
                self.expected[lpn] = data

        self.sim.run_process(prefill())

        rng = random.Random(seed)
        order, hot = _hot_cold(pages, rng)
        per_submitter = max(1, int(self.base_ops * scale) // TERMINALS)
        self.planned_ops = per_submitter * TERMINALS
        self.streams = []
        for owner in range(TERMINALS):
            stream = []
            for __ in range(per_submitter):
                position = _skewed_position(rng, pages, hot)
                position = min(position - position % TERMINALS + owner,
                               pages - TERMINALS + owner)
                stream.append((_pick_kind(rng, 0.50, 0.45), order[position]))
            self.streams.append(stream)
        self.audit = random.Random(seed + 1).sample(
            range(pages), min(self.audit_pages, pages))

        self.read_us = []
        self.write_us = []
        self.acked = 0
        self.shed = 0
        self.clock_mark = self.sim.now

    def _submitter(self, owner: int, stream):
        sim = self.sim
        target = self.target
        expected = self.expected
        for serial, (kind, lpn) in enumerate(stream):
            began = sim.now  # latency runs from the first submission
            for __ in range(MAX_RETRIES + 1):
                try:
                    if kind == READ:
                        data = yield from target.read(lpn)
                        if data != expected[lpn]:
                            raise AssertionError(
                                f"read of page {lpn} returned {data!r}, last "
                                f"acknowledged write was {expected[lpn]!r}")
                        self.read_us.append(sim.now - began)
                    elif kind == WRITE:
                        data = ("w", owner, serial)
                        yield from target.write(lpn, data)
                        expected[lpn] = data
                        self.write_us.append(sim.now - began)
                    else:
                        yield from target.trim(lpn)
                        expected[lpn] = None
                except DegradedModeError:
                    # Shed by admission control: nothing was applied, and
                    # the deadline it waited out was the backoff.
                    self.shed += 1
                    continue
                self.acked += 1
                break

    def run(self) -> None:
        workers = [
            self.sim.process(self._submitter(owner, stream))
            for owner, stream in enumerate(self.streams)
        ]

        def close():
            yield self.sim.all_of(workers)
            yield from self.target.flush_barrier()

        # A submitter that raises fails ``close``, which nobody waits
        # on, so the kernel re-raises it out of run().
        closer = self.sim.process(close())
        self.sim.run()
        if closer.is_alive:
            raise RuntimeError("submitters or barrier never finished")

    def host_writes(self) -> int:
        return len(self.write_us)

    def outcome(self) -> dict:
        sim_s = (self.sim.now - self.clock_mark) / 1e6
        return {
            "ops": self.acked,
            "attempted": self.planned_ops,
            "failed": self.planned_ops - self.acked,
            "sim_ops_per_s": self.acked / sim_s,
            "lat": self.read_us + self.write_us,
            "read_lat": self.read_us,
            "write_lat": self.write_us,
        }

    def verify(self) -> list:
        problems = self.manager.verify_integrity()
        storage = self.rig.storage
        wrong = []

        def audit():
            # Below the front end: what the barrier left on the media.
            for lpn in self.audit:
                data = yield from storage.read(lpn)
                if data != self.expected[lpn]:
                    wrong.append(lpn)

        self.sim.run_process(audit())
        raised = 0 if self.frontend is None else sum(
            self.frontend.shed_counts[cls] for cls in ("read", "write", "trim"))
        return [
            ("integrity", problems == [], "; ".join(problems[:3])),
            ("shed_accounting", raised == self.shed,
             f"front end raised {raised} host-facing sheds, submitters "
             f"caught {self.shed}"),
            ("readback", not wrong,
             f"{len(wrong)} of {len(self.audit)} audited pages differ from "
             f"their last acknowledged write: {wrong[:5]}"),
        ]


class DevMixedBypass(DevMixedFrontend):
    """The front-end tax arm: the same op streams through the raw
    adapter (no front end).  Not a workload of its own — the traced run
    of ``dev_mixed_frontend`` compares against it."""

    name = "dev_mixed_bypass"
    with_frontend = False


LOADS = {cls.name: cls for cls in (
    TpcbNoftl, TpccCached, TpcbFaster, ReplayGcNoftl, DevMixedFrontend)}
