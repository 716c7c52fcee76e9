"""Device health observability: WA ledger classification, wear and
lifetime accounting, the live window engine, saturation detection, and
the ledger-vs-registry accounting identities on a real rig."""

import json

import pytest

from repro.bench.rigs import build_sync_noftl
from repro.core import NoFTLConfig
from repro.flash import Geometry
from repro.telemetry import (
    HealthMonitor,
    LoadWindowEngine,
    MetricsRegistry,
    OpContext,
    WriteAmplificationLedger,
    credit_busy,
    data_class_of,
    wear_report,
)
from repro.telemetry.health import DEFAULT_ENDURANCE_CYCLES


class TestDataClassResolution:
    def test_explicit_stamp_wins_leaf_first(self):
        root = OpContext("db-writer", data_class="heap")
        assert data_class_of(root) == "heap"
        # The child inherits the stamp through child().
        assert data_class_of(root.child("txn")) == "heap"

    def test_maintenance_leaf_resolves_to_none(self):
        host = OpContext("db-writer", data_class="heap")
        gc = host.child("gc")
        # The adopting request's class says nothing about the moved page.
        assert data_class_of(gc) is None

    def test_origin_fallbacks(self):
        assert data_class_of(OpContext("txn-commit")) == "wal"
        assert data_class_of(OpContext("recovery")) == "recovery"
        assert data_class_of(OpContext("host")) is None

    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            OpContext("host", data_class="parquet")


class TestWriteAmplificationLedger:
    def test_host_program_is_logical_and_learns_class(self):
        ledger = WriteAmplificationLedger()
        ctx = OpContext("db-writer", data_class="heap")
        ledger.record("program", 0, ctx, {"lpn": 42})
        assert ledger.logical_by_class == {"heap": 1}
        assert ledger.physical_by_class == {"heap": 1}
        assert ledger.class_of[42] == "heap"
        assert ledger.write_amplification("heap") == 1.0

    def test_maintenance_move_classified_by_learned_lpn(self):
        ledger = WriteAmplificationLedger()
        ledger.record("program", 0, OpContext("txn", data_class="btree"),
                      {"lpn": 7})
        # GC moves the page later: physical for btree, never logical.
        gc = OpContext("db-writer").child("gc")
        ledger.record("copyback", 1, gc, {"lpn": 7})
        assert ledger.logical_by_class == {"btree": 1}
        assert ledger.physical_by_class == {"btree": 2}
        assert ledger.maintenance_writes == 1
        assert ledger.write_amplification("btree") == 2.0
        assert ledger.physical_matrix[("btree", "gc")] == 1

    def test_maintenance_move_without_learned_class_is_unknown(self):
        ledger = WriteAmplificationLedger()
        ledger.record("program", 0, OpContext("gc"), {"lpn": 9})
        assert ledger.physical_by_class == {"unknown": 1}
        assert ledger.logical_writes == 0

    def test_map_writes_are_pure_overhead(self):
        ledger = WriteAmplificationLedger()
        # DFTL translation-page traffic: host origin, class "map".
        ledger.record("program", 0, OpContext("host", data_class="map"),
                      {"lpn": 3})
        assert ledger.physical_by_class == {"map": 1}
        assert ledger.logical_writes == 0
        assert ledger.write_amplification("map") is None
        # But the lpn class is still learned for later GC moves.
        assert ledger.class_of[3] == "map"

    def test_commit_fallback_classifies_as_wal(self):
        ledger = WriteAmplificationLedger()
        ledger.record("program", 2, OpContext("txn-commit"), {"lpn": 1})
        assert ledger.logical_by_class == {"wal": 1}

    def test_erases_accounted_by_cause_and_die(self):
        ledger = WriteAmplificationLedger()
        ledger.record("erase", 0, OpContext("gc"), None)
        ledger.record("erase", 0, OpContext("gc"), None)
        ledger.record("erase", 1, OpContext("wear-level"), None)
        assert ledger.total_erases == 3
        assert ledger.erases_by_cause == {"gc": 2, "wear-level": 1}
        assert ledger.erases_by_die == {0: 2, 1: 1}
        # Erases are not physical writes.
        assert ledger.physical_writes == 0

    def test_forget_drops_learned_class(self):
        ledger = WriteAmplificationLedger()
        ledger.record("program", 0, OpContext("txn", data_class="heap"),
                      {"lpn": 5})
        ledger.forget(5)
        ledger.record("copyback", 0, OpContext("gc"), {"lpn": 5})
        assert ledger.physical_by_class["unknown"] == 1

    def test_report_shape_and_rounding(self):
        ledger = WriteAmplificationLedger()
        ctx = OpContext("db-writer", data_class="heap")
        for lpn in range(3):
            ledger.record("program", 0, ctx, {"lpn": lpn})
        ledger.record("copyback", 0, OpContext("gc"), {"lpn": 0})
        ledger.record("erase", 0, OpContext("gc"), None)
        report = ledger.report()
        assert report["logical_writes"] == 3
        assert report["physical_writes"] == 4
        assert report["maintenance_writes"] == 1
        assert report["write_amplification"] == pytest.approx(4 / 3, abs=1e-4)
        # Classes with no traffic are omitted from per_class.
        assert set(report["per_class"]) == {"heap"}
        assert report["matrix"] == {"heap/db-writer": 3, "heap/gc": 1}
        assert report["erases"]["total"] == 1


class _FakeArray:
    """Just enough surface for wear_report."""

    def __init__(self, counts, bad=(), max_erase_cycles=None):
        self.erase_counts = list(counts)
        self._bad = set(bad)
        self.max_erase_cycles = max_erase_cycles

    def is_bad(self, pbn):
        return pbn in self._bad


class TestWearReport:
    def test_distribution_skew_and_cv(self):
        report = wear_report(_FakeArray([2, 4, 6, 8]), logical_writes=None)
        assert report["min"] == 2 and report["max"] == 8
        assert report["mean"] == pytest.approx(5.0)
        assert report["skew"] == pytest.approx(8 / 5, abs=1e-4)
        # population stddev of [2,4,6,8] is sqrt(5)
        assert report["cv"] == pytest.approx(5 ** 0.5 / 5.0, abs=1e-4)

    def test_bad_blocks_excluded_from_distribution(self):
        report = wear_report(_FakeArray([1, 1, 500], bad={2}))
        assert report["bad_blocks"] == 1
        assert report["max"] == 1
        # total_erases still counts the retired block's history.
        assert report["total_erases"] == 502

    def test_lifetime_projection_with_explicit_endurance(self):
        array = _FakeArray([10, 20], max_erase_cycles=100)
        report = wear_report(array, logical_writes=1000)
        life = report["lifetime"]
        assert life["endurance_cycles"] == 100
        assert life["endurance_assumed"] is False
        assert life["life_used"] == pytest.approx(0.2)
        # 1000 host writes cost 20 cycles on the hottest block; 80 left.
        assert life["remaining_host_writes"] == 1000 * 80 // 20
        assert life["projected_total_host_writes"] == 1000 * 100 // 20

    def test_assumed_endurance_is_flagged(self):
        report = wear_report(_FakeArray([1]), logical_writes=10)
        life = report["lifetime"]
        assert life["endurance_assumed"] is True
        assert life["endurance_cycles"] == DEFAULT_ENDURANCE_CYCLES

    def test_unworn_device_has_no_projection(self):
        report = wear_report(_FakeArray([0, 0]), logical_writes=10)
        assert report["lifetime"]["remaining_host_writes"] is None
        assert report["skew"] is None


class TestCreditBusy:
    def test_exact_split_across_boundary(self):
        series = [0.0, 0.0, 0.0]
        credit_busy(series, t0=0.0, window_us=10.0, start=8.0,
                    duration_us=6.0)
        assert series == pytest.approx([2.0, 4.0, 0.0])

    def test_before_first_window_clamps_to_first(self):
        series = [0.0, 0.0]
        credit_busy(series, t0=100.0, window_us=10.0, start=50.0,
                    duration_us=5.0)
        assert series == pytest.approx([5.0, 0.0])

    def test_past_last_edge_lands_in_last(self):
        series = [0.0, 0.0, 0.0]
        credit_busy(series, t0=0.0, window_us=10.0, start=15.0,
                    duration_us=100.0)
        # 5us finish window 1, 10us fill window 2, the 85us overhang
        # past the final edge stays in the last window: total conserved.
        assert series == pytest.approx([0.0, 5.0, 95.0])
        assert sum(series) == pytest.approx(100.0)


class TestLoadWindowEngine:
    def test_ops_bucket_by_completion_time(self):
        engine = LoadWindowEngine(window_us=10.0)
        engine.note_op(5.0, "write", 3.0, queued=2, dirty_ratio=0.5)
        engine.note_op(7.0, "write", 5.0, queued=4)
        engine.note_op(25.0, "read", 1.0)
        series = engine.series()
        assert series["windows"] == [0.0, 10.0, 20.0]
        assert series["per_class"]["write"]["count"] == [2, 0, 0]
        assert series["per_class"]["read"]["count"] == [0, 0, 1]
        assert series["queue_depth"] == [4, 0, 0]
        assert series["dirty_ratio"][0] == pytest.approx(0.5)

    def test_busy_splits_like_credit_busy(self):
        engine = LoadWindowEngine(window_us=10.0)
        engine.note_busy(8.0, die=0, latency_us=6.0)
        series = engine.series()
        assert series["die_busy"][0] == pytest.approx([0.2, 0.4])

    def test_shed_onset_beats_latency_knee(self):
        engine = LoadWindowEngine(window_us=10.0)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            engine.note_op(t, "write", 10.0)
        engine.note_shed(32.0, "write")
        point = engine.saturation()
        assert point["kind"] == "shed-onset"
        assert point["window"] == 3
        assert point["at_us"] == pytest.approx(30.0)

    def test_latency_knee_detected_against_baseline(self):
        engine = LoadWindowEngine(window_us=10.0)
        # Three calm baseline windows, then a 10x p99 explosion.
        for widx in range(3):
            for k in range(6):
                engine.note_op(widx * 10.0 + k, "write", 10.0)
        for k in range(6):
            engine.note_op(30.0 + k, "write", 100.0)
        point = engine.saturation()
        assert point["kind"] == "latency-knee"
        assert point["window"] == 3
        assert point["p99_us"] == pytest.approx(100.0)
        assert point["baseline_p99_us"] == pytest.approx(10.0)

    def test_sparse_windows_ignored_for_knee(self):
        engine = LoadWindowEngine(window_us=10.0)
        for widx in range(3):
            for k in range(6):
                engine.note_op(widx * 10.0 + k, "write", 10.0)
        # A single slow op is below KNEE_MIN_OPS: not a knee.
        engine.note_op(35.0, "write", 500.0)
        assert engine.saturation() is None

    def test_unsaturated_run_reports_none(self):
        engine = LoadWindowEngine(window_us=10.0)
        for t in range(50):
            engine.note_op(float(t), "write", 10.0)
        assert engine.saturation() is None
        assert engine.series()["sheds"] == [0] * 5

    def test_empty_engine(self):
        engine = LoadWindowEngine(window_us=10.0)
        assert engine.saturation() is None
        assert engine.series()["windows"] == []


def _gauge_value(registry, name):
    (entry,) = [g for g in registry.snapshot()["gauges"]
                if g["name"] == name]
    return entry["value"]


class TestGaugeMergePolicies:
    def test_default_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("frontend.queue_depth").set(3)
        b.gauge("frontend.queue_depth").set(5)
        a.merge_from(b)
        assert _gauge_value(a, "frontend.queue_depth") == 8

    def test_degraded_indicator_merges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("noftl.degraded").set(1)
        b.gauge("noftl.degraded").set(0)
        a.merge_from(b)
        # sum would also give 1 here; assert the policy, not the luck:
        b2 = MetricsRegistry()
        b2.gauge("noftl.degraded").set(1)
        a.merge_from(b2)
        assert _gauge_value(a, "noftl.degraded") == 1

    def test_last_policy_overwrites(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.set_gauge_merge("temp.level", "last")
        a.gauge("temp.level").set(9)
        b.gauge("temp.level").set(2)
        a.merge_from(b)
        assert _gauge_value(a, "temp.level") == 2

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().set_gauge_merge("x", "median")

    def test_merge_carries_histograms_not_collectors(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("lat", layer="x").observe(5.0)
        b.register_collector("only.remote", lambda: {"k": 1})
        a.merge_from(b)
        snap = a.snapshot()
        assert snap["histograms"]
        # Collectors are bound to the source registry's objects: never
        # merged across registries.
        assert "only.remote" not in snap.get("collectors", {})


def _churn_rig(seed: int = 7):
    """A tiny sync NoFTL device driven hard enough to trigger GC, with a
    HealthMonitor attached.  Returns (monitor, registry, storage)."""
    geometry = Geometry(channels=1, chips_per_channel=1, dies_per_chip=2,
                        planes_per_die=1, blocks_per_plane=10,
                        pages_per_block=8, page_bytes=512, oob_bytes=64)
    storage, array = build_sync_noftl(
        geometry, config=NoFTLConfig(num_regions=2, op_ratio=0.25),
        seed=seed)
    telemetry = array.telemetry
    monitor = HealthMonitor()
    monitor.attach_array(array)
    monitor.install(telemetry)
    ctx = OpContext("db-writer", data_class="heap")
    logical = storage.logical_pages
    for round_no in range(6):
        for lpn in range(logical):
            storage.write(lpn, hint="hot", ctx=ctx)
    return monitor, telemetry, storage


class TestLedgerOnRealRig:
    def test_ledger_agrees_with_registry_and_ftl_stats(self):
        monitor, telemetry, storage = _churn_rig()
        ledger = monitor.ledger
        stats = storage.manager.stats
        # Overwriting the whole device 6x must have forced GC.
        assert ledger.maintenance_writes > 0
        # Identity 1: ledger physical writes == every program+copyback
        # the registry counted.
        registry_physical = (telemetry.value("flash.commands", op="program")
                             + telemetry.value("flash.commands",
                                               op="copyback"))
        assert ledger.physical_writes == registry_physical
        # Identity 2: ledger erases == registry erases.
        assert ledger.total_erases == telemetry.value("flash.commands",
                                                      op="erase")
        # Identity 3: maintenance writes == the manager's own relocation
        # counter (fault-free run: no scrub/wear-level traffic).
        assert ledger.maintenance_writes == stats.gc_relocations
        # Identity 4: logical writes == host writes the manager saw.
        assert ledger.logical_writes == stats.host_writes
        # Every physical write resolved to the stamped class.
        assert set(ledger.physical_by_class) == {"heap"}
        wa = ledger.write_amplification()
        assert wa is not None and wa > 1.0

    def test_wear_flows_into_monitor_report(self):
        monitor, _, _ = _churn_rig()
        report = monitor.report()
        wear = report["wear"]
        assert wear["total_erases"] == monitor.ledger.total_erases
        assert wear["lifetime"]["remaining_host_writes"] is not None
        assert wear["skew"] >= 1.0
        # No clock attached: the window series stays empty, and the run
        # never saturates.
        assert report["windows"]["windows"] == []
        assert report["saturation"]["saturated"] is False

    def test_health_report_is_deterministic(self):
        first = _churn_rig(seed=13)[0].report()
        second = _churn_rig(seed=13)[0].report()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))


class TestHealthCollectors:
    def test_snapshot_carries_health_sections(self):
        monitor, telemetry, _ = _churn_rig()
        snap = telemetry.snapshot()
        collectors = snap["collectors"]
        for key in ("health.wa", "health.wear", "health.windows",
                    "health.saturation"):
            assert key in collectors
        assert collectors["health.wa"]["write_amplification"] == \
            pytest.approx(monitor.ledger.write_amplification(), abs=1e-4)
