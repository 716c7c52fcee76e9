"""Telemetry subsystem: registry semantics, histograms, tracing, and the
cross-layer wiring (flash -> FTL -> NoFTL -> DBMS -> bench)."""

import json
import random

import pytest

from repro.bench.reporting import emit, export_metrics
from repro.bench.rigs import (
    DEMO_GEOMETRY,
    attach_database,
    build_blockdev_rig,
    build_noftl_rig,
    build_sync_noftl,
    geometry_for_footprint,
    geometry_with_dies,
    measure_workload_footprint,
    record_trace,
    sized_geometry,
)
from repro.core import NoFTLConfig, NoFTLStorageManager
from repro.device import FrontendConfig
from repro.sim.stats import percentile
from repro.telemetry import (
    EventTrace,
    MetricsRegistry,
    sum_per_die,
)
from repro.workloads import TPCB, replay_trace, run_workload


class TestRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("flash.commands", die=0, op="erase")
        b = registry.counter("flash.commands", op="erase", die=0)
        assert a is b  # label order is canonicalized
        a.inc()
        assert b.value == 1

    def test_counters_reject_negative_increments(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_value_sums_over_label_superset(self):
        registry = MetricsRegistry()
        registry.counter("flash.commands", die=0, op="erase").inc(3)
        registry.counter("flash.commands", die=1, op="erase").inc(4)
        registry.counter("flash.commands", die=0, op="read").inc(9)
        registry.counter("other", die=0, op="erase").inc(100)
        assert registry.value("flash.commands", op="erase") == 7
        assert registry.value("flash.commands", die=0) == 12
        assert registry.value("flash.commands") == 16
        assert registry.value("flash.commands", op="trim") == 0

    def test_series_groups_by_one_label(self):
        registry = MetricsRegistry()
        registry.counter("flash.commands", die=0, op="copyback").inc(5)
        registry.counter("flash.commands", die=1, op="copyback").inc(7)
        registry.counter("flash.commands", die=1, op="erase").inc(2)
        assert registry.series("flash.commands", "die", op="copyback") == {
            0: 5, 1: 7,
        }
        assert sum_per_die(registry, "copyback") == {0: 5, 1: 7}

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth", die=3)
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7

    def test_snapshot_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a", layer="flash").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c").observe(4.0)
        registry.register_collector("extra", lambda: {"k": "v"})
        snap = json.loads(registry.to_json())
        assert snap["counters"][0]["value"] == 2
        assert snap["collectors"]["extra"] == {"k": "v"}

    def test_logical_clock_without_sim(self):
        registry = MetricsRegistry()
        first, second = registry.now(), registry.now()
        assert second > first
        registry.set_clock(lambda: 42.0)
        assert registry.now() == 42.0

    def test_merge_counters_from(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("n", die=0).inc(1)
        right.counter("n", die=0).inc(2)
        right.counter("n", die=1).inc(3)
        left.merge_from(right)
        assert left.value("n") == 6
        assert left.value("n", die=1) == 3


class TestHistogram:
    def test_percentiles_match_sim_stats(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", layer="flash")
        values = [float(v * v % 97) for v in range(50)]
        for value in values:
            histogram.observe(value)
        for q in (0.0, 25.0, 50.0, 90.0, 99.0, 100.0):
            assert histogram.pct(q) == percentile(values, q)
        assert histogram.count == 50
        assert histogram.mean == pytest.approx(sum(values) / 50)


class TestEventTrace:
    def test_ring_buffer_overflow_keeps_newest(self):
        trace = EventTrace(capacity=4)
        for index in range(10):
            trace.emit("tick", index=index)
        assert trace.emitted == 10
        assert trace.dropped == 6
        kept = [event.fields["index"] for event in trace.events]
        assert kept == [6, 7, 8, 9]

    def test_disabled_trace_is_free(self):
        trace = EventTrace(capacity=4, enabled=False)
        trace.emit("tick")
        assert trace.emitted == 0
        assert len(trace.events) == 0

    def test_span_records_duration_with_fake_clock(self):
        clock = {"now": 0.0}
        registry = MetricsRegistry()
        registry.set_clock(lambda: clock["now"])
        trace = EventTrace(clock=registry.now)
        histogram = registry.histogram("span_us")
        with trace.span("gc.collect", histogram=histogram, victim=7) as span:
            clock["now"] = 10.0
            span.note(moved=3)
        kinds = [event.kind for event in trace.events]
        assert kinds == ["gc.collect:begin", "gc.collect:end"]
        end = trace.events[-1].fields
        assert end["victim"] == 7 and end["moved"] == 3
        assert end["duration_us"] == 10.0
        assert histogram.samples == [10.0]

    def test_span_marks_errors(self):
        trace = EventTrace()
        with pytest.raises(RuntimeError):
            with trace.span("wl.migrate"):
                raise RuntimeError("boom")
        end = trace.events[-1]
        assert end.kind == "wl.migrate:end"
        assert end.fields["error"] == "RuntimeError"

    def test_jsonl_sink(self, tmp_path):
        sink_path = tmp_path / "trace.jsonl"
        with open(sink_path, "w") as sink:
            trace = EventTrace(capacity=2, sink=sink)
            for index in range(5):
                trace.emit("tick", index=index)
        lines = [json.loads(line)
                 for line in sink_path.read_text().splitlines()]
        # The sink sees every event, even ones the ring dropped.
        assert [line["index"] for line in lines] == [0, 1, 2, 3, 4]


class TestReporting:
    def test_emit_respects_repro_quiet(self, monkeypatch, capsys):
        written = []
        from repro.bench import reporting
        monkeypatch.setattr(reporting, "_EMIT_OVERRIDE", written.append)
        monkeypatch.setenv("REPRO_QUIET", "1")
        emit("should vanish")
        assert written == []
        monkeypatch.setenv("REPRO_QUIET", "0")
        emit("should appear")
        assert written == ["should appear"]

    def test_export_metrics_writes_json(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_METRICS_DIR", str(tmp_path))
        registry = MetricsRegistry()
        registry.counter("flash.commands", die=0, op="erase").inc(5)
        path = export_metrics("unit", registry, extra={"note": "hi"})
        data = json.loads(open(path).read())
        assert data["extra"] == {"note": "hi"}
        assert data["counters"][0]["value"] == 5


class TestStackSmoke:
    def test_tpcc_rig_produces_per_die_gc_counters(self):
        """A short TPC-C run replayed into a sized NoFTL device must leave
        nonzero erase and copyback counts on every die of the registry."""
        trace = record_trace("tpcc", duration_us=400_000, scale=0.3, seed=5)
        geometry = geometry_for_footprint(trace.max_page() + 1,
                                          utilization=0.85, dies=2)
        storage, array = build_sync_noftl(
            geometry=geometry, seed=5, config=NoFTLConfig(op_ratio=0.12))
        report = replay_trace(trace, storage)

        registry = array.telemetry
        erases = sum_per_die(registry, "erase")
        copybacks = sum_per_die(registry, "copyback")
        assert set(erases) == set(range(geometry.total_dies))
        assert all(count > 0 for count in erases.values())
        assert all(count > 0 for count in copybacks.values())
        # The registry's totals agree with the array's legacy counters
        # and with what the replay report says.
        def total(op):
            return registry.value("flash.commands", op=op)

        assert total("erase") == array.counters.erases == report.erases
        assert total("copyback") == array.counters.copybacks \
            == report.copybacks
        assert total("program") == array.counters.programs
        # FTL-layer instruments landed in the same registry.
        assert registry.value("ftl.gc.collections") > 0
        assert registry.value("ftl.relocations") == report.relocations > 0


class TestOptInTracing:
    """Tracing is opt-in: rigs built without a trace record nothing, and
    spans still time their histograms on the rig's clock."""

    @staticmethod
    def _tpcb(rig, writers=0):
        db = attach_database(rig, buffer_capacity=64, foreground_flush=writers == 0)
        if writers:
            db.start_writers(writers, policy="region")
        workload = TPCB(sf=2, accounts_per_branch=100)
        rig.sim.run_process(workload.load(db))
        stats = run_workload(rig.sim, db, workload, duration_us=60_000,
                             num_terminals=4, rng=random.Random(3),
                             preloaded=True)
        assert stats.commits > 0
        return db

    def test_default_rigs_emit_no_events(self):
        noftl = build_noftl_rig(seed=3)
        db = self._tpcb(noftl, writers=2)
        faster = build_blockdev_rig("faster", geometry=geometry_with_dies(2), seed=3)
        self._tpcb(faster)
        storage, __ = build_sync_noftl(geometry_for_footprint(600, utilization=0.85, dies=2))
        for lpn in range(3000):
            storage.write(lpn % 600)
        assert storage.manager.telemetry.value("ftl.gc.collections") > 0
        traces = [noftl.trace, noftl.manager.trace, db.trace, db.buffer.trace,
                  db.writers.trace, faster.trace, faster.db.trace,
                  storage.manager.trace]
        traces += [region.space.trace for region in noftl.manager.regions.regions]
        traces += [region.space.trace for region in storage.manager.regions.regions]
        for trace in traces:
            assert not trace.enabled
            assert trace.emitted == 0 and len(trace) == 0

    def test_sync_gc_spans_time_on_the_flash_clock(self):
        """On a replay rig each ``gc.collect`` sample is the summed flash
        latency of that collection's commands, not a count of clock
        reads."""
        storage, array = build_sync_noftl(
            geometry_for_footprint(600, utilization=0.85, dies=2), seed=4)
        device = storage.executor.device
        per_collection = {}  # maintenance ctx -> summed latency, in order
        execute = device.execute

        def logged(command):
            result = execute(command)
            ctx = command.ctx
            if ctx is not None and ctx.origin in ("gc", "wear-level"):
                per_collection[ctx] = per_collection.get(ctx, 0.0) + result.latency_us
            return result

        device.execute = logged
        rng = random.Random(4)
        for __ in range(3000):
            storage.write(rng.randrange(600))
        samples = array.telemetry.histogram("ftl.gc.collect_us", layer="ftl").samples
        assert len(samples) > 10
        assert samples == pytest.approx(list(per_collection.values()))
        assert min(samples) > 1.0


class TestOneTally:
    """Each event is counted once, by a registry instrument; the per-object
    counters of the array, FTL stats, buffer pool and front end read it."""

    @pytest.fixture(scope="class")
    def rig(self):
        workload = TPCB(sf=8, accounts_per_branch=400)
        footprint = measure_workload_footprint(workload)
        geometry = sized_geometry(footprint, 2, utilization=0.85,
                                  headroom_pages=footprint // 2)
        rig = build_noftl_rig(
            geometry=geometry, config=NoFTLConfig(num_regions=2, op_ratio=0.12),
            seed=3, frontend_config=FrontendConfig())
        db = attach_database(rig, buffer_capacity=max(64, footprint // 4),
                             foreground_flush=False)
        db.start_writers(2, policy="region")
        rig.sim.run_process(workload.load(db))
        run_workload(rig.sim, db, workload, duration_us=120_000,
                     num_terminals=4, rng=random.Random(3), preloaded=True)
        return rig

    def test_storage_latencies_are_the_histograms(self, rig):
        registry = rig.telemetry
        assert rig.storage.read_latency is registry.histograms_named("noftl.read_us")[0]
        assert rig.storage.write_latency is registry.histograms_named("noftl.write_us")[0]
        assert rig.storage.write_latency.count > 0

    def test_array_counters_are_the_command_totals(self, rig):
        registry = rig.telemetry
        counters = rig.array.counters
        for field, op in (("reads", "read"), ("programs", "program"),
                          ("erases", "erase"), ("copybacks", "copyback"),
                          ("oob_reads", "oob_read")):
            assert getattr(counters, field) == registry.value("flash.commands", op=op)
        assert counters.copybacks > 0
        assert counters.per_die_ops == [
            registry.value("flash.commands", die=die)
            for die in range(rig.geometry.total_dies)
        ]
        # Pause occupies no die: the only busy time outside flash.busy_us.
        assert counters.busy_us >= registry.value("flash.busy_us") > 0

    def test_views_equal_their_series(self, rig):
        registry = rig.telemetry
        stats = rig.manager.stats
        assert stats.gc_relocations == registry.value("ftl.relocations") > 0
        for field in ("read_retries", "scrubs", "program_remaps"):
            assert getattr(stats, field) == registry.value(f"noftl.{field}")
        assert stats.relocation_skips == registry.value("noftl.gc.relocation_skips")
        pool = rig.db.buffer
        assert pool.hits == registry.value("db.buffer.lookups", event="hit") > 0
        assert pool.misses == registry.value("db.buffer.lookups", event="miss") > 0
        assert pool.evictions == registry.value("db.buffer.evictions")
        assert pool.dirty_eviction_stalls == registry.value("db.buffer.dirty_eviction_stalls")
        assert pool.flushes == registry.histograms_named("db.flush_us")[0].count > 0
        frontend = rig.frontend
        for view, series in (("ack_count", "frontend.acks"),
                             ("coalesced_count", "frontend.coalesced"),
                             ("destage_count", "frontend.destages"),
                             ("barrier_count", "frontend.barriers"),
                             ("hazard_stalls", "frontend.hazard_stalls"),
                             ("degraded_destages", "frontend.destage_degraded"),
                             ("volatile_lost", "frontend.volatile_lost")):
            assert getattr(frontend, view) == registry.value(series)
        assert frontend.ack_count > 0
        sheds = registry.series("frontend.sheds", "cls")
        assert frontend.shed_counts == {
            cls: sheds.get(cls, 0)
            for cls in ("read", "barrier", "trim", "destage", "write")
        }

    def test_a_new_owner_counts_from_its_construction(self, rig):
        # A cold start builds a new manager on the same registry: its
        # views start at zero although the registry counters do not.
        registry = rig.telemetry
        fresh = NoFTLStorageManager(rig.geometry, NoFTLConfig(num_regions=2, op_ratio=0.12),
                                    telemetry=registry)
        assert registry.value("ftl.relocations") > 0
        assert fresh.stats.gc_relocations == 0
        assert fresh.stats.snapshot() == NoFTLStorageManager(rig.geometry).stats.snapshot()

    def test_merge_keeps_collectors_on_their_own_run(self):
        registry = MetricsRegistry()
        manager = NoFTLStorageManager(DEMO_GEOMETRY, telemetry=registry)
        registry.counter("ftl.relocations", layer="ftl").inc(2)
        assert manager.stats.gc_relocations == 2
        other = MetricsRegistry()
        other.counter("ftl.relocations", layer="ftl").inc(5)
        registry.merge_from(other)
        assert registry.value("ftl.relocations") == 7
        assert registry.snapshot()["collectors"]["noftl.stats"]["gc_relocations"] == 2
