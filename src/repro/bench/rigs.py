"""Benchmark rigs: standard device + database assemblies.

Every experiment builds its testbed from these factories so that the
storage architectures differ in exactly one dimension — the thing being
measured — while geometry, timing, buffer sizing and workload scale stay
identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

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
from ..telemetry import EventTrace, MetricsRegistry
from ..workloads import (
    TPCB,
    TPCC,
    TPCE,
    TraceRecordingAdapter,
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
    "record_trace",
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
    op_ratio: float = 0.12,
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
    store_data: bool = True,
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
                       fault_plan=fault_plan, store_data=store_data)
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
    op_ratio: float = 0.12,
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
