"""Benchmark rigs: standard device + database assemblies.

Every experiment builds its testbed from these factories so that the
storage architectures differ in exactly one dimension — the thing being
measured — while geometry, timing, buffer sizing and workload scale stay
identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager, SyncNoFTLStorage
from ..db import Database, BlockDeviceAdapter
from ..db.storage import RAMStorageAdapter
from ..device import BlockDevice, DeviceFrontend, FrontendConfig, SyncBlockDevice
from ..flash import (
    FaultPlan,
    FlashArray,
    Geometry,
    MLC_TIMING,
    SimExecutor,
    SimFlashDevice,
    SyncExecutor,
    SyncFlashDevice,
    TimingSpec,
)
from ..ftl import DFTL, FASTer, PageMapFTL
from ..sim import Simulator
from ..telemetry import EventTrace, HealthMonitor, MetricsRegistry
from ..workloads import (
    TPCB,
    TPCC,
    TPCE,
    TPCH,
    TraceRecordingAdapter,
    Workload,
    WorkloadStats,
    replay_trace,
    run_workload,
)

__all__ = [
    "geometry_with_dies",
    "DEMO_GEOMETRY",
    "make_ftl",
    "NoFTLRig",
    "BlockDeviceRig",
    "build_noftl_rig",
    "build_blockdev_rig",
    "build_sync_noftl",
    "build_sync_blockdev",
    "attach_database",
    "KITS",
    "RigShape",
    "SHAPES",
    "ClosedLoop",
    "build_closed_loop",
    "record_trace",
    "replay_geometry",
    "replay_pair",
]

#: Total flash pages kept constant while the die count varies (the paper
#: fixes a 10 GB drive and re-slices it over 1..32 dies in Figure 4).
TOTAL_PAGES_BUDGET = 32768
PAGES_PER_BLOCK = 32
PLANES_PER_DIE = 2
PAGE_BYTES = 2048
#: Over-provisioning of every rig's device, NoFTL and black-box alike.
OP_RATIO = 0.12
#: DFTL translation-page fan-out: one 8-byte entry per mapped page of a
#: :data:`PAGE_BYTES` translation page.
ENTRIES_PER_TRANSLATION_PAGE = PAGE_BYTES // 8


def _geometry(dies: int, blocks_per_plane: int,
              pages_per_block: int) -> Geometry:
    """The rigs' one die layout: dies spread over 1, 2 or 4 channels (one
    channel when the count does not divide), one chip per channel."""
    if dies <= 2:
        channels = 1
    elif dies <= 8:
        channels = 2
    else:
        channels = 4
    if dies % channels != 0:
        channels = 1
    return Geometry(
        channels=channels,
        chips_per_channel=1,
        dies_per_chip=dies // channels,
        planes_per_die=PLANES_PER_DIE,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        page_bytes=PAGE_BYTES,
    )


def geometry_with_dies(dies: int) -> Geometry:
    """A device with ``dies`` dies and a constant total capacity."""
    if dies < 1:
        raise ValueError("dies must be >= 1")
    blocks_per_plane = TOTAL_PAGES_BUDGET // (
        dies * PLANES_PER_DIE * PAGES_PER_BLOCK
    )
    if blocks_per_plane < 6:
        raise ValueError(f"too many dies ({dies}) for the capacity budget")
    return _geometry(dies, blocks_per_plane, PAGES_PER_BLOCK)


DEMO_GEOMETRY = geometry_with_dies(8)


def geometry_for_footprint(
    footprint_pages: int,
    utilization: float = 0.8,
    op_ratio: float = OP_RATIO,
    dies: int = 8,
) -> Geometry:
    """Size a device so ``footprint_pages`` fills ``utilization`` of the
    exported logical space — the steady-state condition GC comparisons
    need (an oversized device never garbage-collects)."""
    return sized_geometry(footprint_pages, dies, utilization, op_ratio)


def make_ftl(
    name: str,
    geometry: Geometry,
    cmt_entries: int = 1024,
    rng: Optional[random.Random] = None,
    bad_blocks: Iterable[int] = (),
    telemetry: Optional[MetricsRegistry] = None,
    trace: Optional[EventTrace] = None,
):
    """FTL factory by name: 'pagemap' | 'dftl' | 'faster', each at
    :data:`OP_RATIO`.  Only DFTL reads ``cmt_entries``; FASTer draws no
    random numbers, so it takes no ``rng``."""
    if name == "pagemap":
        return PageMapFTL(geometry, OP_RATIO, bad_blocks=bad_blocks, rng=rng,
                          telemetry=telemetry, trace=trace)
    if name == "dftl":
        return DFTL(geometry, OP_RATIO, cmt_entries=cmt_entries,
                    entries_per_translation_page=ENTRIES_PER_TRANSLATION_PAGE,
                    bad_blocks=bad_blocks, rng=rng,
                    telemetry=telemetry, trace=trace)
    if name == "faster":
        return FASTer(geometry, OP_RATIO, bad_blocks=bad_blocks,
                      telemetry=telemetry, trace=trace)
    raise ValueError(f"unknown FTL {name!r}")


@dataclass
class NoFTLRig:
    sim: Simulator
    geometry: Geometry
    array: FlashArray
    manager: NoFTLStorageManager
    storage: NoFTLStorage
    #: The mount slot: built as ``storage`` itself (NoFTLStorage is its
    #: own page interface); the chaos rig swaps in its checksum oracle
    #: wrapped around it.
    adapter: object
    db: Optional[Database] = None
    telemetry: Optional[MetricsRegistry] = None
    trace: Optional[EventTrace] = None
    #: Present only when the rig was built with ``frontend_config``.
    #: ``adapter`` stays the raw write-through path; the DBMS mounts
    #: the frontend instead (see :func:`attach_database`).
    frontend: Optional[DeviceFrontend] = None

    @property
    def mount_point(self):
        """What the DBMS mounts: the front end when present, else the
        raw adapter slot."""
        return self.frontend if self.frontend is not None else self.adapter


@dataclass
class BlockDeviceRig:
    sim: Simulator
    geometry: Geometry
    array: FlashArray
    ftl: object
    device: BlockDevice
    adapter: BlockDeviceAdapter
    db: Optional[Database] = None
    telemetry: Optional[MetricsRegistry] = None
    trace: Optional[EventTrace] = None


def build_noftl_rig(
    geometry: Geometry = DEMO_GEOMETRY,
    timing: TimingSpec = MLC_TIMING,
    config: Optional[NoFTLConfig] = None,
    seed: int = 0,
    telemetry: Optional[MetricsRegistry] = None,
    trace: Optional[EventTrace] = None,
    fault_plan: Optional[FaultPlan] = None,
    frontend_config: Optional[FrontendConfig] = None,
) -> NoFTLRig:
    """Figure 1.c: DBMS on native flash through NoFTL.

    ``frontend_config`` (opt-in, default off so legacy rigs stay
    event-for-event identical) interposes a :class:`DeviceFrontend` —
    hazard-safe admission plus a write-back cache — between the DBMS and
    the storage; power cuts on the array then wreck the volatile cache
    through the listener hook.
    """
    sim = Simulator()
    telemetry = telemetry or MetricsRegistry()
    if trace is not None:
        trace.set_clock(lambda: sim.now)
    array = FlashArray(geometry, timing, rng=random.Random(seed),
                       telemetry=telemetry, trace=trace,
                       fault_plan=fault_plan)
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(
        geometry,
        config or NoFTLConfig(op_ratio=OP_RATIO),
        factory_bad_blocks=array.factory_bad_blocks(),
        rng=random.Random(seed + 1),
        telemetry=telemetry,
        trace=trace,
    )
    storage = NoFTLStorage(sim, manager, executor)
    frontend = None
    if frontend_config is not None:
        frontend = DeviceFrontend(sim, storage, frontend_config,
                                  array=array, telemetry=telemetry,
                                  trace=manager.trace)
    return NoFTLRig(sim, geometry, array, manager, storage, storage,
                    telemetry=telemetry, trace=manager.trace,
                    frontend=frontend)


def build_blockdev_rig(
    ftl_name: str,
    geometry: Geometry = DEMO_GEOMETRY,
    timing: TimingSpec = MLC_TIMING,
    ncq_depth: int = 32,
    seed: int = 0,
    trace: Optional[EventTrace] = None,
    cmt_entries: int = 1024,
) -> BlockDeviceRig:
    """Figure 1.a/b: DBMS on a black-box SSD with an on-device FTL
    (``make_ftl`` reads ``cmt_entries``)."""
    sim = Simulator()
    telemetry = MetricsRegistry()
    if trace is not None:
        trace.set_clock(lambda: sim.now)
    array = FlashArray(geometry, timing, rng=random.Random(seed),
                       telemetry=telemetry, trace=trace)
    executor = SimExecutor(SimFlashDevice(sim, array))
    ftl = make_ftl(ftl_name, geometry, cmt_entries=cmt_entries,
                   rng=random.Random(seed + 1),
                   bad_blocks=array.factory_bad_blocks(),
                   telemetry=telemetry, trace=trace)
    device = BlockDevice(sim, ftl, executor, ncq_depth=ncq_depth)
    return BlockDeviceRig(sim, geometry, array, ftl, device,
                          BlockDeviceAdapter(device), telemetry=telemetry,
                          trace=ftl.trace)


def build_sync_noftl(
    geometry: Geometry = DEMO_GEOMETRY,
    timing: TimingSpec = MLC_TIMING,
    config: Optional[NoFTLConfig] = None,
    seed: int = 0,
):
    """Synchronous NoFTL target for trace replay (Figure 3): no page
    payloads are kept."""
    telemetry = MetricsRegistry()
    array = FlashArray(geometry, timing, store_data=False,
                       rng=random.Random(seed), telemetry=telemetry)
    device = SyncFlashDevice(array)
    # Replay has no simulator: spans time themselves on the flash clock,
    # the serialised command latency the replay reports already use.
    telemetry.set_clock(lambda: device.serial_us)
    executor = SyncExecutor(device)
    manager = NoFTLStorageManager(
        geometry, config or NoFTLConfig(op_ratio=OP_RATIO),
        factory_bad_blocks=array.factory_bad_blocks(),
        rng=random.Random(seed + 1),
        telemetry=telemetry,
    )
    return SyncNoFTLStorage(manager, executor), array


def build_sync_blockdev(
    ftl_name: str,
    geometry: Geometry = DEMO_GEOMETRY,
    seed: int = 0,
):
    """Synchronous black-box SSD target for trace replay (Figure 3):
    MLC timing, no page payloads kept."""
    telemetry = MetricsRegistry()
    array = FlashArray(geometry, MLC_TIMING, store_data=False,
                       rng=random.Random(seed), telemetry=telemetry)
    device = SyncFlashDevice(array)
    telemetry.set_clock(lambda: device.serial_us)
    executor = SyncExecutor(device)
    ftl = make_ftl(ftl_name, geometry, rng=random.Random(seed + 1),
                   bad_blocks=array.factory_bad_blocks(),
                   telemetry=telemetry)
    return SyncBlockDevice(ftl, executor), array


def measure_workload_footprint(workload) -> int:
    """Load a workload into a RAM-backed database and return how many
    pages its initial population occupies — used to size flash devices to
    a target utilization before the real run."""
    sim = Simulator()
    ram = RAMStorageAdapter(sim, logical_pages=1_000_000, latency_us=1.0)
    db = Database(sim, ram, page_bytes=PAGE_BYTES, buffer_capacity=4096,
                  cpu_us_per_op=0.0, wal_flush_latency_us=1.0)
    sim.run_process(workload.load(db))
    return db.pages_allocated


def sized_geometry(
    footprint_pages: int,
    dies: int,
    utilization: float = 0.85,
    op_ratio: float = OP_RATIO,
    pages_per_block: int = PAGES_PER_BLOCK,
    headroom_pages: int = 0,
) -> Geometry:
    """Size a device so ``footprint_pages`` plus ``headroom_pages`` fill
    ``utilization`` of the exported logical space, with an explicit die
    count and block size — used by sweeps that re-slice one drive
    over many dies (Figure 4) while keeping space utilization constant."""
    if not 0.1 <= utilization <= 0.98:
        raise ValueError("utilization must be in [0.1, 0.98]")
    needed_total = (footprint_pages + headroom_pages) / utilization \
        / (1.0 - op_ratio)
    per_die = PLANES_PER_DIE * pages_per_block
    blocks_per_plane = max(6, -(-int(needed_total) // (dies * per_die)))
    return _geometry(dies, blocks_per_plane, pages_per_block)


def attach_database(
    rig,
    buffer_capacity: int = 160,
    cpu_us_per_op: float = 3.0,
    wal_flush_latency_us: float = 120.0,
    foreground_flush: bool = True,
    dirty_throttle_fraction=None,
    heat_hints: bool = False,
) -> Database:
    """Mount the mini-DBMS on a rig's storage adapter (through the
    device front end when the rig was built with one)."""
    db = Database(
        rig.sim,
        getattr(rig, "frontend", None) or rig.adapter,
        page_bytes=rig.geometry.page_bytes,
        buffer_capacity=buffer_capacity,
        cpu_us_per_op=cpu_us_per_op,
        wal_flush_latency_us=wal_flush_latency_us,
        foreground_flush=foreground_flush,
        dirty_throttle_fraction=dirty_throttle_fraction,
        trace=getattr(rig, "trace", None),
        heat_hints=heat_hints,
    )
    rig.db = db
    return db


#: The closed-loop rigs' TPC kits, per (family, workload): a rig runs
#: the kit of its shape's family.
#:
#: * ``fig4`` — scaled-down renditions of Figure 4's captions (sf=50
#:   TPC-C, sf=500 TPC-B): enough warehouses and branches that row locks
#:   never cap throughput before the storage does;
#: * ``headline`` — E4's kits, which E5 and the demo examples run too;
#: * ``health`` — smaller than the stack benchmark's (rigs plus a double
#:   run stay CI-smoke sized) but with its shapes and write mixes;
#: * ``streams`` — bigger: the placement comparison needs the data
#:   footprint to fill the device;
#: * ``chaos`` and ``cut`` — the robustness harness's; the power-cut
#:   kits are smaller, since a sweep replays the whole run once per cut.
KITS: Dict[Tuple[str, str], Callable[[], Workload]] = {
    ("fig4", "tpcc"): lambda: TPCC(warehouses=8, customers_per_district=30,
                                   items=100),
    ("fig4", "tpcb"): lambda: TPCB(sf=16, accounts_per_branch=400),
    ("headline", "tpcc"): lambda: TPCC(warehouses=4,
                                       customers_per_district=30, items=100),
    ("headline", "tpcb"): lambda: TPCB(sf=8, accounts_per_branch=400),
    ("headline", "tpce"): lambda: TPCE(customers=400, securities=60),
    ("headline", "tpch"): lambda: TPCH(customers=60, orders=300),
    ("health", "tpcb"): lambda: TPCB(sf=4, accounts_per_branch=200),
    ("health", "tpcc"): lambda: TPCC(warehouses=1, customers_per_district=20,
                                     items=80),
    ("streams", "tpcb"): lambda: TPCB(sf=32, accounts_per_branch=2000),
    ("streams", "tpcc"): lambda: TPCC(warehouses=8,
                                      customers_per_district=500,
                                      items=1600),
    ("chaos", "tpcc"): lambda: TPCC(warehouses=2, customers_per_district=20,
                                    items=60),
    ("chaos", "tpcb"): lambda: TPCB(sf=4, accounts_per_branch=200),
    ("cut", "tpcc"): lambda: TPCC(warehouses=1, customers_per_district=12,
                                  items=48),
    ("cut", "tpcb"): lambda: TPCB(sf=2, accounts_per_branch=120),
}


@dataclass(frozen=True)
class RigShape:
    """One closed-loop rig: its kit family, device sizing, database
    mount and load.

    The device is sized by :func:`sized_geometry`: the kit's measured
    footprint, ``footprint // headroom_divisor`` pages of growth and
    ``reserved_pages`` kept out of the db allocator's reach fill
    ``utilization`` of the exported space, with ``op_ratio`` of the
    flash over-provisioned, on ``dies`` dies (one NoFTL region each).
    """

    kits: str
    dies: int
    utilization: float
    op_ratio: float
    buffer_frames: Callable[[int], int]
    writers: int
    terminals: int
    headroom_divisor: int = 2
    pages_per_block: int = PAGES_PER_BLOCK
    reserved_pages: int = 0
    #: NoFTL's GC trigger, free blocks per plane.
    gc_low_water: int = 2
    #: DFTL's mapping cache; ``None`` scales it with the device, ~3 % of
    #: the page population, as real controllers must (Section 3.1).
    cmt_entries: Optional[int] = 1024
    cpu_us_per_op: float = 3.0
    wal_flush_latency_us: float = 120.0
    foreground_flush: bool = False
    dirty_throttle_fraction: Optional[float] = None

    def kit_footprint(self, workload: str) -> int:
        """The measured page footprint of this shape's ``workload`` kit,
        for a caller that builds several rigs of one kit."""
        return measure_workload_footprint(KITS[self.kits, workload]())


_CHAOS = RigShape(kits="chaos", dies=8, utilization=0.8, op_ratio=0.28,
                  buffer_frames=lambda footprint: max(64, footprint // 8),
                  writers=4, terminals=8)

#: Every closed-loop rig of the figure benches, the two harnesses and
#: the examples.  ``footprint`` below is the kit's measured page count.
SHAPES: Dict[str, RigShape] = {
    # E2/E3 (Figure 4) at eight dies, and the tail scenario: one writer
    # per die, a warm buffer holding the kit and its growth, cheap CPU so
    # the device sets the pace, and a dirty-page throttle that couples
    # admission to db-writer cleaning (Shore-MT's back-pressure).
    "fig4": RigShape(kits="fig4", dies=8, utilization=0.85,
                     op_ratio=OP_RATIO, pages_per_block=16,
                     buffer_frames=lambda footprint: footprint
                     + footprint // 2,
                     writers=8, terminals=16, cpu_us_per_op=1.0,
                     wal_flush_latency_us=60.0,
                     dirty_throttle_fraction=0.10),
    # E4: every architecture on one device, DFTL's CMT scaled with it.
    "headline": RigShape(kits="headline", dies=8, utilization=0.88,
                         op_ratio=OP_RATIO,
                         buffer_frames=lambda footprint: max(64,
                                                             footprint // 8),
                         writers=8, terminals=16, cmt_entries=None),
    # E5: PageMap vs DFTL, which sweeps ``cmt_entries``; transactions
    # write their own dirty pages back on eviction.
    "dftl": RigShape(kits="headline", dies=8, utilization=0.85,
                     op_ratio=OP_RATIO,
                     buffer_frames=lambda footprint: max(64,
                                                         footprint // 10),
                     writers=4, terminals=16, foreground_flush=True),
    "health": RigShape(kits="health", dies=4, utilization=0.85,
                       op_ratio=OP_RATIO,
                       buffer_frames=lambda footprint: max(64,
                                                           footprint // 4),
                       writers=4, terminals=8),
    # One die filled to 97 % with small blocks: placement only matters
    # once steady-state GC runs inside the arm, and each plane must hold
    # per-class open frontiers plus GC headroom.  GC starts earlier
    # (identically in both arms) because the streams arm keeps one open
    # block per class frontier.  The reserved pages are the circular WAL
    # segment window at the top of the logical space.
    "streams": RigShape(kits="streams", dies=1, utilization=0.97,
                        op_ratio=OP_RATIO, headroom_divisor=20,
                        pages_per_block=16,
                        buffer_frames=lambda footprint: max(64,
                                                            footprint // 4),
                        writers=4, terminals=8, reserved_pages=64,
                        gc_low_water=4),
    # The robustness harness: generous over-provisioning, since faults
    # retire blocks.
    "chaos": _CHAOS,
    "cut": replace(_CHAOS, kits="cut"),
    # The siege reserves its burst clients' high-LPN range, and its pool
    # holds the kit: foreground transactions never evict, so never meet
    # a write shed they cannot catch.
    "siege": replace(_CHAOS, kits="cut", reserved_pages=512,
                     buffer_frames=lambda footprint: footprint + 96,
                     terminals=6),
}


@dataclass
class ClosedLoop:
    """A mounted closed-loop rig: the database on a device sized for its
    kit, the db-writers started."""

    shape: RigShape
    workload: str
    rig: object
    db: Database
    #: The kit whose footprint sized the device (not loaded by the
    #: builder unless asked to).
    kit: Workload
    footprint: int
    monitor: Optional[HealthMonitor]

    def load(self) -> None:
        self.rig.sim.run_process(self.kit.load(self.db))

    def drive(self, duration_us: float, seed: int,
              preloaded: bool = True) -> WorkloadStats:
        """The timed window: a fresh kit on the shape's terminals,
        seeded (loaded first unless ``preloaded``)."""
        return run_workload(self.rig.sim, self.db,
                            KITS[self.shape.kits, self.workload](),
                            duration_us=duration_us,
                            num_terminals=self.shape.terminals,
                            rng=random.Random(seed), preloaded=preloaded)


def build_closed_loop(
    shape: RigShape,
    workload: str,
    arch: str,
    seed: int,
    *,
    policy: Optional[str] = None,
    streams: bool = False,
    trace: Optional[EventTrace] = None,
    telemetry: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    frontend_config: Optional[FrontendConfig] = None,
    wrap: Optional[Callable] = None,
    monitor: bool = False,
    preload: bool = False,
    footprint: Optional[int] = None,
) -> ClosedLoop:
    """Size, build and mount one closed-loop rig.

    The device is sized per ``shape`` for the kit's ``footprint``,
    measured here unless the caller passes the one it measured for an
    earlier rig of the same kit (nothing is cached: ``OpContext`` ids
    are process-global, so a hidden cache would shift a later traced
    run's ids).  ``arch`` is ``"noftl"`` or a :func:`make_ftl` name
    behind a block device; the telemetry, fault-plan and front-end seams
    are NoFTL's.  The construction order is the same on every call, so
    a power-cut run replays its baseline's flash-command sequence
    exactly until the plug is pulled.

    ``monitor`` feeds a :class:`HealthMonitor` on the array (and, on
    NoFTL, the manager's trims).  ``wrap`` is the seam for a
    storage-adapter wrapper: it gets what the DBMS would mount and
    returns what it mounts instead.  ``streams`` turns on object-aware
    placement: per-class allocation points plus the buffer pool's
    reference-heat hints.  The db-writers start last: by default
    die-wise on NoFTL and global on a black box, where one opaque region
    makes die-wise assignment impossible.  With ``preload`` the kit is
    loaded before they start, the WAL keeping its records (the power-cut
    runs, which count the load's flash commands).
    """
    kit = KITS[shape.kits, workload]()
    if footprint is None:
        footprint = measure_workload_footprint(kit)
    geometry = sized_geometry(
        footprint + shape.reserved_pages, shape.dies,
        utilization=shape.utilization, op_ratio=shape.op_ratio,
        headroom_pages=footprint // shape.headroom_divisor,
        pages_per_block=shape.pages_per_block,
    )
    if arch == "noftl":
        rig = build_noftl_rig(
            geometry=geometry,
            config=NoFTLConfig(num_regions=shape.dies,
                               op_ratio=shape.op_ratio,
                               gc_low_water=shape.gc_low_water,
                               write_streams=streams),
            seed=seed, telemetry=telemetry, trace=trace,
            fault_plan=fault_plan, frontend_config=frontend_config,
        )
    else:
        cmt_entries = shape.cmt_entries
        if cmt_entries is None:
            cmt_entries = max(128, geometry.total_pages // 32)
        rig = build_blockdev_rig(arch, geometry=geometry, seed=seed,
                                 trace=trace, cmt_entries=cmt_entries)
    health = None
    if monitor:
        health = HealthMonitor(clock=lambda: rig.sim.now)
        health.attach_array(rig.array)
        if arch == "noftl":
            health.attach_manager(rig.manager)
        health.install(rig.telemetry)
    if wrap is not None:
        if getattr(rig, "frontend", None) is not None:
            rig.frontend = wrap(rig.frontend)
        else:
            rig.adapter = wrap(rig.adapter)
    db = attach_database(
        rig,
        buffer_capacity=shape.buffer_frames(footprint),
        cpu_us_per_op=shape.cpu_us_per_op,
        wal_flush_latency_us=shape.wal_flush_latency_us,
        foreground_flush=shape.foreground_flush,
        dirty_throttle_fraction=shape.dirty_throttle_fraction,
        heat_hints=streams,
    )
    loop = ClosedLoop(shape, workload, rig, db, kit, footprint, health)
    if preload:
        db.wal.keep_records = True
        loop.load()
    db.start_writers(shape.writers, policy=policy or (
        "region" if arch == "noftl" else "global"))
    return loop


#: Replay-device sizing.  Calibrated so both targets run in GC steady
#: state (12% over-provisioning — FASTer's log area must fit inside it —
#: and ~82% logical space utilization), the regime where the paper's ~2x
#: copyback factor appears.  Lower utilization exaggerates NoFTL's win,
#: higher drowns it; see the E10 ablation for the sensitivity.
REPLAY_UTILIZATION = 0.85
REPLAY_OP_RATIO = OP_RATIO  # the black-box arm's, fixed in make_ftl
REPLAY_DIES = 2


def _trace_workload(name: str, scale: float):
    """Each TPC kit at the size :func:`record_trace` records it."""
    if name == "tpcc":
        return TPCC(warehouses=max(1, int(2 * scale)),
                    customers_per_district=40, items=150)
    if name == "tpcb":
        return TPCB(sf=max(1, int(4 * scale)), accounts_per_branch=700)
    if name == "tpce":
        return TPCE(customers=max(100, int(1000 * scale)), securities=80)
    raise ValueError(f"unknown workload {name!r}")


def record_trace(workload_name: str, duration_us: float = 3_000_000,
                 scale: float = 1.0, seed: int = 11):
    """Run a workload on an in-memory database (8 terminals, a 96-frame
    buffer pool) and capture its I/O trace."""
    sim = Simulator()
    logical_pages = int(DEMO_GEOMETRY.total_pages * 0.85)
    ram = RAMStorageAdapter(sim, logical_pages=logical_pages,
                            latency_us=25.0)
    adapter = TraceRecordingAdapter(ram)
    db = Database(sim, adapter, page_bytes=DEMO_GEOMETRY.page_bytes,
                  buffer_capacity=96, cpu_us_per_op=2.0)
    db.start_writers(4, policy="global")
    workload = _trace_workload(workload_name, scale)
    run_workload(sim, db, workload, duration_us=duration_us,
                 num_terminals=8, rng=random.Random(seed))
    sim.run_process(db.checkpoint())
    return adapter.trace


def replay_geometry(trace) -> Geometry:
    """The replay device for ``trace``: its final footprint
    (``max_page() + 1``) fills :data:`REPLAY_UTILIZATION` of the
    exported space on :data:`REPLAY_DIES` dies.  Every trace replay sizes
    its device here, so a change of sizing (a declared utilization, a
    preconditioned fill) is one edit."""
    return geometry_for_footprint(
        trace.max_page() + 1,
        utilization=REPLAY_UTILIZATION,
        op_ratio=REPLAY_OP_RATIO,
        dies=REPLAY_DIES,
    )


def _monitored_replay(trace, target) -> dict:
    device, array = target
    monitor = HealthMonitor()
    monitor.attach_array(array)
    return {**replay_trace(trace, device).as_dict(),
            "health": monitor.report()}


def replay_pair(name: str, duration_us: float, scale: float,
                seed: int) -> dict:
    """Figure 3's off-line methodology for one workload: record its
    trace on an in-memory database, then replay it into a black-box
    FASTer SSD (no trims) and into NoFTL on the same replay device, with
    a health monitor (WA ledger, wear) on each array.

    Returns plain picklable data, so a sweep can fan workloads out over
    a process pool: the trace's op counts, and per target (``"FASTer"``,
    ``"NoFTL"``) the replay report with the monitor's report under
    ``"health"``.
    """
    trace = record_trace(name, duration_us=duration_us, scale=scale,
                         seed=seed)
    geometry = replay_geometry(trace)
    return {
        "workload": name,
        "trace_counts": trace.counts(),
        "report": {
            "FASTer": _monitored_replay(trace, build_sync_blockdev(
                "faster", geometry=geometry, seed=seed)),
            "NoFTL": _monitored_replay(trace, build_sync_noftl(
                geometry=geometry, seed=seed,
                config=NoFTLConfig(op_ratio=REPLAY_OP_RATIO))),
        },
    }
