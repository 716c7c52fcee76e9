"""Tests for the hazard-safe device front end and its durability oracle.

Three layers:

* :class:`DeviceFrontend` unit behaviour over a RAM-backed fake adapter
  — volatile acks, coalescing, the ``flush_barrier`` durability point,
  watermark backpressure shedding loudly, power-cut wipe semantics, trim
  supersession (and the regression where a *shed* trim used to destroy
  the newest acknowledged version), WAR fencing and maintenance
  throttling;
* :class:`ChecksumOracle` durability bookkeeping — mid-flight trim
  indeterminacy, shed trims leaving the ledger untouched, and barrier
  floors surviving a concurrent trim+rewrite (the stale-snapshot
  regression);
* the full stack — the front end mounted over a real NoFTL rig, the
  synthetic workload routed through it, and the combined-failure siege
  rig holding every gate.
"""

import pytest

from repro.bench.chaos import ChecksumOracle
from repro.bench.rigs import build_noftl_rig
from repro.bench.siege import run_siege
from repro.core import NoFTLConfig
from repro.core.badblock import DegradedModeError
from repro.device import DeviceFrontend, FrontendConfig, FrontendShedError
from repro.flash import Geometry, PowerCutError, UncorrectableError
from repro.sim import Simulator
from repro.workloads.synth import SyntheticSpec, run_synthetic

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)


class RamAdapter:
    """StorageAdapter-shaped fake: a dict with configurable latencies."""

    def __init__(self, sim, logical_pages=64, write_us=100.0,
                 read_us=40.0, trim_us=20.0):
        self.sim = sim
        self.logical_pages = logical_pages
        self.num_regions = 1
        self.write_us = write_us
        self.read_us = read_us
        self.trim_us = trim_us
        self.store = {}
        self.writes = 0
        self.trims = 0
        self.maintenance_active = False

    def region_of_page(self, page_id):
        return 0

    def read(self, page_id, ctx=None):
        yield self.sim.timeout(self.read_us)
        return self.store.get(page_id)

    def write(self, page_id, data, hint="hot", ctx=None):
        yield self.sim.timeout(self.write_us)
        self.store[page_id] = data
        self.writes += 1

    def trim(self, page_id, ctx=None):
        yield self.sim.timeout(self.trim_us)
        self.store.pop(page_id, None)
        self.trims += 1


class ArrayStub:
    """Just enough of a FlashArray for the power-cut listener contract."""

    def __init__(self):
        self.power_cut_listeners = []


def make_frontend(sim=None, config=None, array=None, **adapter_kw):
    sim = sim or Simulator()
    backing = RamAdapter(sim, **adapter_kw)
    frontend = DeviceFrontend(sim, backing, config, array=array)
    return sim, backing, frontend


class TestWriteBackCache:
    def test_write_acks_volatile_then_destages(self):
        sim, backing, frontend = make_frontend()

        def proc():
            yield from frontend.write(3, ("v", 1))
            # Served from the cache: the backing store has not seen it.
            value = yield from frontend.read(3)
            return value

        assert sim.run_process(proc()) == ("v", 1)
        assert frontend.ack_count == 1
        sim.run()  # background workers drain the dirty page
        assert backing.store[3] == ("v", 1)
        assert frontend.destage_count == 1
        # Re-read after the destage: now it comes from the backing store.
        assert sim.run_process(frontend.read(3)) == ("v", 1)

    def test_repeated_writes_coalesce(self):
        sim, backing, frontend = make_frontend(write_us=500.0)

        def proc():
            for version in range(6):
                yield from frontend.write(5, ("v", version))

        sim.run_process(proc())
        sim.run()
        assert frontend.coalesced_count >= 4
        assert backing.store[5] == ("v", 5)
        # Coalescing means far fewer media programs than acks.
        assert backing.writes < frontend.ack_count

    def test_flush_barrier_is_the_durability_point(self):
        sim, backing, frontend = make_frontend(write_us=300.0)

        def proc():
            for lpn in range(8):
                yield from frontend.write(lpn, ("d", lpn))
            yield from frontend.flush_barrier()

        sim.run_process(proc())
        # On barrier return every acked write is on the backing store.
        assert all(backing.store[lpn] == ("d", lpn) for lpn in range(8))
        assert frontend.barrier_count == 1

    def test_throttled_destage_still_drains(self):
        sim, backing, frontend = make_frontend(write_us=200.0)
        backing.maintenance_active = True  # destage throttled to 1

        def proc():
            for lpn in range(6):
                yield from frontend.write(lpn, lpn)
            yield from frontend.flush_barrier()

        sim.run_process(proc())
        assert len(backing.store) == 6


class TestBackpressure:
    def test_watermark_sheds_loudly_past_deadline(self):
        config = FrontendConfig(
            cache_pages=4, dirty_high_watermark=0.5,
            write_deadline_us=10.0, destage_workers=2,
        )
        sim, backing, frontend = make_frontend(
            config=config, write_us=5_000.0
        )
        outcomes = {"acked": 0, "shed": 0}

        def writer(lpn):
            try:
                yield from frontend.write(lpn, ("w", lpn))
                outcomes["acked"] += 1
            except DegradedModeError:
                outcomes["shed"] += 1

        for lpn in range(12):
            sim.process(writer(lpn))
        sim.run()
        # Every shed was raised to its caller AND counted by the front
        # end — reported, never silently dropped.
        assert outcomes["shed"] > 0
        assert outcomes["shed"] == frontend.shed_counts["write"]
        assert outcomes["acked"] + outcomes["shed"] == 12
        assert frontend.sheds_total == outcomes["shed"]

    def test_shed_is_a_degraded_mode_error(self):
        with pytest.raises(DegradedModeError):
            raise FrontendShedError("write", "test")


class TestPowerCut:
    def test_cut_wipes_volatile_only_and_latches(self):
        array = ArrayStub()
        sim, backing, frontend = make_frontend(
            array=array, write_us=50_000.0
        )

        def proc():
            for lpn in range(3):
                yield from frontend.write(lpn, lpn)

        sim.run_process(proc())
        assert len(array.power_cut_listeners) == 1
        array.power_cut_listeners[0](None)  # the plug is pulled
        assert frontend.volatile_lost == 3
        assert frontend.dirty_pages == 0
        with pytest.raises(PowerCutError):
            sim.run_process(frontend.write(9, "post-cut"))
        with pytest.raises(PowerCutError):
            sim.run_process(frontend.read(0))
        frontend.power_cycle()
        sim.run_process(frontend.write(9, "post-cycle"))
        assert frontend.ack_count == 4


class TestTrim:
    def test_trim_supersedes_cache_and_backing(self):
        sim, backing, frontend = make_frontend()

        def proc():
            yield from frontend.write(4, "doomed")
            yield from frontend.trim(4)
            value = yield from frontend.read(4)
            return value

        assert sim.run_process(proc()) is None
        sim.run()
        assert 4 not in backing.store
        assert backing.trims == 1

    def test_shed_trim_preserves_newest_acked_version(self):
        """Regression: the trim used to drop the cache entry *before*
        admission — a trim that then shed had already destroyed the
        newest acknowledged write, and concurrent reads saw stale
        media."""
        config = FrontendConfig(
            max_inflight=1, trim_deadline_us=5.0,
            read_deadline_us=500_000.0,
        )
        sim, backing, frontend = make_frontend(
            config=config, read_us=10_000.0
        )
        result = {}

        def slow_reader():
            # Occupies the single admission slot for 10 ms.
            yield from frontend.read(60)

        def victim():
            yield from frontend.write(7, ("acked", 7))
            try:
                yield from frontend.trim(7)
                result["trim"] = "done"
            except DegradedModeError:
                result["trim"] = "shed"
            value = yield from frontend.read(7)
            result["readback"] = value

        sim.process(slow_reader())
        sim.process(victim())
        sim.run()
        assert result["trim"] == "shed"
        # The acked version survived the refused trim.
        assert result["readback"] == ("acked", 7)


class TestHazards:
    def test_destage_fences_behind_inflight_reader(self):
        sim, backing, frontend = make_frontend(read_us=2_000.0)
        backing.store[11] = "old"
        order = []

        def reader():
            value = yield from frontend.read(11)
            order.append(("read", value, sim.now))

        def writer():
            yield sim.timeout(100.0)  # the read is mid-flight on media
            yield from frontend.write(11, "new")
            order.append(("acked", sim.now))

        sim.process(reader())
        sim.process(writer())
        sim.run()
        # WAR fence: the destage waited for the reader to drain, so the
        # in-flight read saw the old version, not a torn interleaving.
        assert ("read", "old", 2_000.0) in order
        assert frontend.hazard_stalls >= 1
        assert backing.store[11] == "new"


class TestChecksumOracle:
    def _stack(self, **kw):
        sim, backing, frontend = make_frontend(**kw)
        oracle = ChecksumOracle(frontend, shadow_reads=True)
        return sim, backing, frontend, oracle

    def test_floor_tracks_barrier_not_ack(self):
        sim, backing, frontend, oracle = self._stack()

        def proc():
            yield from oracle.write(2, "v1")
            yield from oracle.flush_barrier()
            yield from oracle.write(2, "v2")  # acked-volatile

        sim.run_process(proc())
        assert oracle.durable_floor[2] == 0
        assert len(oracle.history[2]) == 2
        assert len(oracle.acceptable_after_cut(2)) == 2

    def test_midflight_trim_is_indeterminate(self):
        sim, backing, frontend, oracle = self._stack()

        def exploding_trim(page_id, ctx=None):
            yield sim.timeout(1.0)  # partial invalidation...
            raise UncorrectableError("trim died mid-flight")

        def proc():
            yield from oracle.write(6, "data")
            yield from oracle.flush_barrier()
            frontend.trim = exploding_trim
            with pytest.raises(UncorrectableError):
                yield from oracle.trim(6)

        sim.run_process(proc())
        # Outcome unknowable: dropped from every audited set, kept in
        # ``retired`` (the content may still be readable), remembered.
        assert 6 in oracle.indeterminate
        assert 6 not in oracle.checksums
        assert 6 not in oracle.history
        assert 6 not in oracle.durable_floor
        assert len(oracle.retired[6]) == 1

    def test_shed_trim_leaves_ledger_untouched(self):
        """Regression: a shed trim is refused *before* any side effect —
        it must not mark the page indeterminate or retire versions."""
        sim, backing, frontend, oracle = self._stack()

        def shedding_trim(page_id, ctx=None):
            raise FrontendShedError("trim", "queue full")
            yield  # pragma: no cover - generator form

        def proc():
            yield from oracle.write(8, "keep-me")
            yield from oracle.flush_barrier()
            frontend.trim = shedding_trim
            with pytest.raises(DegradedModeError):
                yield from oracle.trim(8)

        sim.run_process(proc())
        assert 8 not in oracle.indeterminate
        assert 8 not in oracle.retired
        assert oracle.durable_floor[8] == 0
        assert len(oracle.history[8]) == 1

    def test_barrier_floor_survives_concurrent_trim_rewrite(self):
        """Regression: the barrier snapshotted a history *index*; a trim
        completing mid-barrier restarted the history and the stale index
        produced an impossible floor (floor >= len(history))."""
        sim, backing, frontend, oracle = self._stack(write_us=2_000.0)

        def barrier_proc():
            yield from oracle.flush_barrier()

        def churn():
            yield sim.timeout(10.0)  # barrier is mid-destage
            yield from oracle.trim(9)
            yield from oracle.write(9, "reborn")

        def seed():
            for _ in range(4):
                yield from oracle.write(9, "doomed")

        sim.run_process(seed())
        sim.process(barrier_proc())
        sim.process(churn())
        sim.run()
        for lpn, floor in oracle.durable_floor.items():
            assert floor < len(oracle.history[lpn])

    def test_resurrected_pretrim_version_is_acked(self):
        sim, backing, frontend, oracle = self._stack()

        def proc():
            yield from oracle.write(5, "pre-trim")
            yield from oracle.flush_barrier()
            yield from oracle.trim(5)
            yield from oracle.write(5, "post-trim")

        sim.run_process(proc())
        # An un-journaled trim may resurrect the pre-trim version after
        # a power cut: both versions are legal acked content.
        versions = oracle.acked_versions(5)
        assert len(versions) == 2


class TestFrontendOnRealRig:
    def test_roundtrip_and_barrier_over_noftl(self):
        rig = build_noftl_rig(
            geometry=GEO,
            config=NoFTLConfig(num_regions=4, op_ratio=0.25),
            frontend_config=FrontendConfig(),
        )
        frontend = rig.frontend
        assert isinstance(frontend, DeviceFrontend)
        assert rig.mount_point is frontend

        def proc():
            for lpn in range(12):
                yield from frontend.write(lpn, ("page", lpn))
            yield from frontend.flush_barrier()
            values = []
            for lpn in range(12):
                value = yield from frontend.read(lpn)
                values.append(value)
            return values

        values = rig.sim.run_process(proc())
        assert values == [("page", lpn) for lpn in range(12)]
        # Durable on media, not just cached: the manager mapped them all.
        assert rig.manager.stats.host_writes >= 12

    def test_default_rig_has_no_frontend(self):
        rig = build_noftl_rig(
            geometry=GEO, config=NoFTLConfig(num_regions=4, op_ratio=0.25)
        )
        assert rig.frontend is None
        assert rig.mount_point is rig.adapter

    def test_synthetic_workload_through_frontend(self):
        rig = build_noftl_rig(
            geometry=GEO,
            config=NoFTLConfig(num_regions=4, op_ratio=0.25),
            frontend_config=FrontendConfig(),
        )
        spec = SyntheticSpec(pattern="random", read_fraction=0.3,
                             queue_depth=4, ops=80, span=16, seed=1)
        result = run_synthetic(rig.sim, rig.frontend, spec)
        assert result.read_latency.count + result.write_latency.count == 80
        assert result.iops > 0
        # Drain the write-back cache: every acked page reaches the media.
        rig.sim.run_process(rig.frontend.flush_barrier())
        assert rig.frontend.dirty_pages == 0


class TestSiege:
    def test_all_gates_hold(self):
        report = run_siege(seed=11)
        assert report.fired
        assert not report.lost_durable
        assert not report.corrupt_durable
        assert not report.corrupt_volatile
        assert report.hazard_violations == 0
        assert report.sheds_reported > 0
        assert report.sheds_reported == report.sheds_observed
        assert report.ok
