"""Object/stream-aware write placement: the stream taxonomy, data-class
chain resolution, class-segregated allocation and GC, the wear-shadow
identity, mount-time frontier re-derivation, the temp producer, and the
WA ledger's class learning/forgetting around all of it."""

import random

import pytest

from repro.bench.observe import run_arm, stream_stats_of
from repro.bench.rigs import attach_database, build_noftl_rig
from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.db import TempArea
from repro.db import temp as temp_module
from repro.flash import (
    FlashArray,
    Geometry,
    ReadOob,
    SLC_TIMING,
    SimExecutor,
    SimFlashDevice,
    SyncExecutor,
    SyncFlashDevice,
)
from repro.ftl.base import FTLStats, MappingState, UNMAPPED
from repro.ftl.pagespace import PageMappedSpace
from repro.ftl.streams import (
    CLASS_CODES,
    CODE_CLASSES,
    FOREGROUND_STREAMS,
    GC_SUFFIX,
    STREAM_CODES,
    gc_stream_of_code,
    stream_for,
)
from repro.sim import Simulator
from repro.telemetry import (
    HealthMonitor,
    OpContext,
    WriteAmplificationLedger,
    data_class_of,
)


class TestStreamTaxonomy:
    def test_stream_for_routes_classes(self):
        assert stream_for("wal", "hot") == "wal"
        assert stream_for("btree", "cold") == "btree"
        assert stream_for("heap", "hot") == "heap-hot"
        assert stream_for("heap", "cold") == "heap-cold"
        # Unclassified traffic degrades to the legacy temperature split.
        assert stream_for(None, "hot") == "hot"
        assert stream_for(None, "cold") == "cold"
        assert stream_for("unknown", "cold") == "cold"

    def test_class_codes_round_trip_through_streams(self):
        for cls, code in CLASS_CODES.items():
            assert STREAM_CODES.get(stream_for(cls, "hot"), 0) == code
            assert STREAM_CODES.get(stream_for(cls, "cold"), 0) == code
            assert STREAM_CODES.get(cls + GC_SUFFIX, 0) == code
        # Legacy temperature streams hold untracked blocks.
        assert STREAM_CODES.get("hot", 0) == 0
        assert STREAM_CODES.get("cold", 0) == 0

    def test_gc_streams_keep_class_and_never_hit_foreground(self):
        foreground = set(FOREGROUND_STREAMS.values()) | {"heap-cold"}
        for code in CODE_CLASSES:
            stream = gc_stream_of_code(code)
            assert stream.endswith(GC_SUFFIX)
            assert stream not in foreground
            assert STREAM_CODES.get(stream, 0) == code
        # Untracked pages relocate into the legacy cold point.
        assert gc_stream_of_code(0) == "cold"


class TestDataClassChains:
    def test_maintenance_leaf_under_stamped_host_chain_is_none(self):
        # child() inherits the stamp, but a maintenance leaf must still
        # resolve to None: the adopting request's class says nothing
        # about the page being moved.
        host = OpContext("txn", txn_id=9, data_class="heap")
        merge = host.child("gc").child("merge")
        assert merge.data_class == "heap"
        assert data_class_of(merge) is None

    def test_adopted_maintenance_chain_stays_unclassified(self):
        orphan = OpContext("gc")
        orphan.adopt(OpContext("db-writer", data_class="btree"))
        assert data_class_of(orphan) is None

    def test_stamp_found_above_unstamped_leaf(self):
        root = OpContext("db-writer", data_class="btree")
        leaf = OpContext("txn", parent=root)
        assert data_class_of(leaf) == "btree"

    def test_leaf_origin_fallback_beats_root_fallback(self):
        # The walk collects the first (leaf-most) origin fallback.
        chain = OpContext("txn-commit", parent=OpContext("recovery"))
        assert data_class_of(chain) == "wal"

    def test_explicit_stamp_beats_origin_fallback(self):
        assert data_class_of(OpContext("txn-commit", data_class="map")) \
            == "map"


GEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=32,
    pages_per_block=8,
    page_bytes=512,
)


def make_space():
    array = FlashArray(GEO, SLC_TIMING)
    executor = SyncExecutor(SyncFlashDevice(array))
    logical = int(GEO.total_pages * 0.7)
    mapping = MappingState(GEO, logical)
    planes = [(die, plane) for die in range(GEO.total_dies)
              for plane in range(GEO.planes_per_die)]
    space = PageMappedSpace(GEO, mapping, planes, FTLStats())
    return space, mapping, executor, array, logical


def block_classes(space, mapping):
    """pbn -> set of class codes over the block's live pages."""
    classes = {}
    for lpn in range(mapping.logical_pages):
        ppn = mapping.lookup(lpn)
        if ppn == UNMAPPED:
            continue
        pbn = GEO.block_of_ppn(ppn)
        classes.setdefault(pbn, set()).add(mapping.lpn_class[lpn])
    return classes


class TestClassSegregatedPlacement:
    def test_oob_carries_class_only_in_streams_mode(self):
        space, mapping, executor, array, _ = make_space()
        executor.run(space.write(3, data="x", stream="btree"))
        oob = array.apply(ReadOob(ppn=mapping.lookup(3))).oob
        assert oob["cls"] == CLASS_CODES["btree"]
        assert mapping.lpn_class[3] == CLASS_CODES["btree"]

        # Digest safety: the legacy path must emit byte-identical OOB.
        legacy, lmap, lexec, larray, _ = make_space()
        lexec.run(legacy.write(3, data="x", stream="hot"))
        assert "cls" not in larray.apply(ReadOob(ppn=lmap.lookup(3))).oob

    def test_blocks_stay_single_class_through_gc(self):
        space, mapping, executor, _, logical = make_space()
        rng = random.Random(7)
        span = int(logical * 0.8)
        lanes = ("wal", "heap-hot", "btree", "temp")
        # Interleaved multi-class traffic with enough overwrite pressure
        # to cycle GC several times.
        for step in range(span * 6):
            lpn = rng.randrange(span)
            executor.run(space.write(lpn, data=step,
                                     stream=lanes[lpn % len(lanes)]))
        assert space.stream_stats["victims"] > 0
        assert space.stream_stats["mixed_class_victims"] == 0
        for pbn, codes in block_classes(space, mapping).items():
            assert len(codes) == 1, f"block {pbn} mixes classes {codes}"

    def test_trim_clears_class_and_rewrite_relearns(self):
        space, mapping, executor, _, _ = make_space()
        executor.run(space.write(5, data="a", stream="btree"))
        space.trim(5)
        assert mapping.lpn_class[5] == 0
        executor.run(space.write(5, data="b", stream="wal"))
        assert mapping.lpn_class[5] == CLASS_CODES["wal"]


class TestWearShadowIdentity:
    def test_shadow_matches_array_truth_blockwise(self):
        space, mapping, executor, array, logical = make_space()
        rng = random.Random(3)
        span = int(logical * 0.8)
        for step in range(span * 6):
            executor.run(space.write(rng.randrange(span), data=step,
                                     stream="heap-hot" if step % 3 else
                                     "btree"))
        # The space is this array's only eraser, so its flat shadow must
        # be the identity of the device truth — per block, not just in
        # aggregate.
        assert sum(space.erase_counts) > 0
        for pbn in range(GEO.total_blocks):
            assert space.erase_counts[pbn] == array.erase_counts[pbn]

        shadow = space.wear_shadow()
        nonzero = [count for count in space.erase_counts if count]
        assert shadow["blocks_seen"] == len(nonzero)
        assert shadow["min"] == min(nonzero)
        assert shadow["max"] == max(nonzero)


MGEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=32,
    pages_per_block=8,
    page_bytes=512,
)

#: Per-class context factories and disjoint lpn lanes for mount tests.
SEED_CLASSES = (
    ("wal", 0, lambda: OpContext("txn-commit")),
    ("btree", 40, lambda: OpContext("db-writer", data_class="btree")),
    ("heap", 80, lambda: OpContext("db-writer", data_class="heap")),
)
SEED_WIDTH = 13


def make_mounted(array, streams=True):
    sim = Simulator()
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(
        MGEO,
        NoFTLConfig(op_ratio=0.25, num_regions=1, write_streams=streams),
        factory_bad_blocks=array.factory_bad_blocks(),
    )
    storage = NoFTLStorage(sim, manager, executor)
    report = sim.run_process(storage.mount())
    return sim, manager, storage, report


def seed_classified(sim, storage, rounds=2):
    for step in range(rounds):
        for cls, base, ctx_of in SEED_CLASSES:
            for k in range(SEED_WIDTH):
                sim.run_process(storage.write(
                    base + k, (cls, step, k), "hot", ctx=ctx_of()))


def active_frontiers(manager):
    """pbn -> (stream, next_offset) over every open write point."""
    out = {}
    for region in manager.regions.regions:
        for plane in region.space._planes.values():
            for stream, entry in plane.active.items():
                if entry is not None:
                    out[entry[0]] = (stream, entry[1])
    return out


class TestMountFrontierRoundTrip:
    def test_mount_rederives_per_stream_frontiers(self):
        array = FlashArray(MGEO, SLC_TIMING, store_data=True)
        sim, _, storage, _ = make_mounted(array)
        seed_classified(sim, storage)

        # Cold start on the written array: nothing but OOB evidence.
        _, manager, _, report = make_mounted(array)
        assert report.stream_frontiers
        adopted = active_frontiers(manager)
        streams_seen = set()
        for pbn, stream, offset in report.stream_frontiers:
            assert 0 < offset < MGEO.pages_per_block
            assert STREAM_CODES.get(stream, 0) > 0
            # The reported frontier is a live write point again.
            assert adopted[pbn] == (stream, offset)
            streams_seen.add(STREAM_CODES.get(stream, 0))
        assert stream_stats_of(manager)["frontiers_adopted"] == \
            len(report.stream_frontiers)
        # All three seeded classes left adoptable evidence.
        assert streams_seen == {
            CLASS_CODES["wal"], CLASS_CODES["btree"], CLASS_CODES["heap"],
        }
        # The snapshot surfaces the same triples (streams mode only).
        assert report.snapshot()["stream_frontiers"] == [
            list(entry) for entry in report.stream_frontiers
        ]

    def test_mount_rebuilds_lpn_class_table(self):
        array = FlashArray(MGEO, SLC_TIMING, store_data=True)
        sim, _, storage, _ = make_mounted(array)
        seed_classified(sim, storage)

        _, manager, _, _ = make_mounted(array)
        for cls, base, _ in SEED_CLASSES:
            for k in range(SEED_WIDTH):
                assert manager.mapping.lpn_class[base + k] == \
                    CLASS_CODES[cls]

    def test_write_continues_in_adopted_frontier(self):
        array = FlashArray(MGEO, SLC_TIMING, store_data=True)
        sim, _, storage, _ = make_mounted(array)
        seed_classified(sim, storage)

        sim2, manager, storage2, report = make_mounted(array)
        frontier = {stream: (pbn, offset)
                    for pbn, stream, offset in report.stream_frontiers}
        assert "btree" in frontier
        pbn, offset = frontier["btree"]
        space = manager.regions.regions[0].space
        plane_id = next(pid for pid, plane in space._planes.items()
                        if (plane.active.get("btree") or [None])[0] == pbn)
        lane = next(base for cls, base, _ in SEED_CLASSES if cls == "btree")
        lpn = next(l for l in range(lane, lane + SEED_WIDTH)
                   if space.plane_of_lpn(l) == plane_id)
        sim2.run_process(storage2.write(
            lpn, "fresh", "hot",
            ctx=OpContext("db-writer", data_class="btree")))
        ppn = manager.mapping.lookup(lpn)
        assert MGEO.block_of_ppn(ppn) == pbn
        assert ppn == MGEO.ppn_of(pbn, offset)

    def test_mount_write_keeps_ledger_fully_classified(self):
        # The regression this PR fixes: rebuild_allocation used to come
        # back with only the legacy hot/cold write points, so the first
        # post-mount GC cycle mixed classes and the ledger leaked
        # physical writes into 'unknown'.
        array = FlashArray(MGEO, SLC_TIMING, store_data=True)
        sim, _, storage, _ = make_mounted(array)
        seed_classified(sim, storage)

        sim2, manager, storage2, _ = make_mounted(array)
        monitor = HealthMonitor(clock=lambda: sim2.now)
        monitor.attach_array(array)
        monitor.attach_manager(manager)
        rng = random.Random(23)
        lanes = [(base, ctx_of) for _, base, ctx_of in SEED_CLASSES]
        for step in range(600):
            base, ctx_of = lanes[step % len(lanes)]
            sim2.run_process(storage2.write(
                base + rng.randrange(SEED_WIDTH), step, "hot",
                ctx=ctx_of()))
        report = monitor.ledger.report()
        assert monitor.ledger.total_erases > 0
        assert report["per_class"].get("unknown", {}) \
            .get("physical", 0) == 0
        assert stream_stats_of(manager)["mixed_class_victims"] == 0
        for cls in ("wal", "btree", "heap"):
            assert cls not in report["producerless_classes"]

    def test_streams_off_mount_reports_no_frontiers(self):
        array = FlashArray(MGEO, SLC_TIMING, store_data=True)
        sim, _, storage, _ = make_mounted(array, streams=False)
        for lpn in range(24):
            sim.run_process(storage.write(lpn, lpn, "hot"))
        _, _, _, report = make_mounted(array, streams=False)
        assert report.stream_frontiers == ()
        # Digest safety: the legacy snapshot shape is untouched.
        assert "stream_frontiers" not in report.snapshot()


TGEO = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=2048,
)


def make_temp_rig():
    rig = build_noftl_rig(
        geometry=TGEO,
        config=NoFTLConfig(num_regions=2, write_streams=True),
    )
    monitor = HealthMonitor(clock=lambda: rig.sim.now)
    monitor.attach_array(rig.array)
    monitor.attach_manager(rig.manager)
    db = attach_database(rig, buffer_capacity=64, foreground_flush=False)
    return rig, monitor, db


class TestTempProducer:
    def test_spill_classifies_and_drain_forgets(self):
        rig, monitor, db = make_temp_rig()
        temp = TempArea(db)
        rig.sim.run_process(temp.spill(6))
        assert temp.live_runs == 1
        assert monitor.ledger.logical_by_class["temp"] == 6
        spilled = set(monitor.ledger.class_of)
        assert len(spilled) == 6

        rig.sim.run_process(temp.drain())
        assert temp.live_runs == 0
        assert temp.pages_reclaimed == 6
        # Trim-forget: released page ids drop their learned class, so a
        # recycled id re-learns from whoever writes it next.
        for lpn in spilled:
            assert lpn not in monitor.ledger.class_of
        assert temp.snapshot()["pages_spilled"] == 6

    def test_process_is_bounded_and_drains_at_horizon(self, monkeypatch):
        monkeypatch.setattr(temp_module, "KEEP_RUNS", 1)
        rig, _, db = make_temp_rig()
        temp = TempArea(db)
        rig.sim.process(temp.process(1_000.0, 2,
                                     until_us=rig.sim.now + 10_000.0))
        rig.sim.run()
        assert temp.spills >= 5
        assert temp.live_runs == 0
        assert temp.pages_reclaimed == temp.pages_spilled

    def test_ledger_flags_producerless_classes(self):
        ledger = WriteAmplificationLedger()
        ctx = OpContext("db-writer", data_class="heap")
        ledger.record("program", 0, ctx, {"lpn": 1})
        # Everything declared but silent is flagged — except map (pure
        # overhead, no logical writes by design) and unknown.
        assert ledger.report()["producerless_classes"] == \
            ["btree", "recovery", "temp", "wal"]
        ledger.record("program", 0, OpContext("txn", data_class="temp"),
                      {"lpn": 2})
        assert "temp" not in ledger.report()["producerless_classes"]


class TestStreamsOnDatabaseRun:
    """The observe harness's streams arm on TPC-B, cut to 60 ms (seed 17:
    the scenario's own), run once for the class."""

    @pytest.fixture(scope="class")
    def arm(self):
        return run_arm("tpcb", True, 17, 60_000.0)

    def test_tpcb_run_classifies_everything(self, arm):
        assert arm["commits"] > 0
        assert arm["stream_stats"]["mixed_class_victims"] == 0
        per_class = arm["wa"]["per_class"]
        # Fully stamped stack: nothing falls through to 'unknown'.
        assert per_class.get("unknown", {}).get("physical", 0) == 0
        # The arm puts its WAL on flash and runs a temp producer, so
        # every producing class shows up; only recovery stays silent.
        for cls in ("wal", "heap", "btree", "temp"):
            assert per_class[cls]["logical"] > 0
        assert arm["wa"]["producerless_classes"] == ["recovery"]

    def test_tpcb_arm_numbers_are_pinned(self, arm):
        """Exact short-horizon numbers of the streams scenario: a change
        of rig assembly, construction order or RNG draws moves them."""
        assert arm["commits"] == 64
        assert arm["steady"] == {
            "warmup_us": 45_000.0, "logical_writes": 23,
            "physical_writes": 23, "erases": 2, "write_amplification": 1.0,
            "erases_per_write": 0.08696, "victims": 2,
            "mixed_class_victims": 0,
        }
        assert (arm["wa"]["logical_writes"], arm["wa"]["physical_writes"],
                arm["wa"]["erases"]["total"]) == (3960, 3960, 39)
        assert arm["stream_stats"] == {
            "victims": 39, "mixed_class_victims": 0, "frontiers_adopted": 0}
        assert arm["wal_volume"] == {
            "pages_programmed": 1093, "wraps": 17, "window_pages": 64}
        assert arm["temp"] == {"spills": 3, "pages_spilled": 12,
                               "pages_reclaimed": 12, "live_runs": 0}
        assert arm["write_blame"]["count"] == 3959
        assert arm["write_blame"]["p99_us"] == 3624.4799999999814
        assert arm["trace_events"] == 9805
