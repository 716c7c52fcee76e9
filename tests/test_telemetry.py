"""Telemetry subsystem: registry semantics, histograms, tracing, and the
cross-layer wiring (flash -> FTL -> NoFTL -> DBMS -> bench)."""

import json

import pytest

from repro.bench.reporting import emit, export_metrics
from repro.bench.rigs import build_sync_noftl, geometry_for_footprint
from repro.core import NoFTLConfig
from repro.sim.stats import percentile
from repro.telemetry import (
    EventTrace,
    MetricsRegistry,
    sum_per_die,
)
from repro.workloads import replay_trace
from repro.bench.fig3 import record_trace


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
        registry = MetricsRegistry(clock=lambda: clock["now"])
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
