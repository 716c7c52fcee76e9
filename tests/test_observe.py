"""Causal tracing and tail-latency attribution: OpContext propagation,
JSONL trace round-trips, span parenting and the attribution engine."""

import io
import random

import pytest

from repro.bench.observe import (
    analyze_trace,
    check_tail,
    run_db_rig,
    run_saturation_rig,
)
from repro.bench.rigs import (
    attach_database,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)
from repro.core import NoFTLConfig
from repro.flash.commands import ProgramPage, stamp_context, tag_commands
from repro.sim import LatencyRecorder
from repro.telemetry import (
    EventTrace,
    MetricsRegistry,
    OpContext,
    blame_breakdown,
    load_jsonl,
    origin_mix,
    span_rollup,
    verify_origins,
    windowed_series,
)
from repro.workloads import TPCB, run_workload


class TestOpContext:
    def test_child_inherits_identity(self):
        root = OpContext("db-writer", writer_id=3, txn_id=7)
        child = root.child("gc")
        assert child.origin == "gc"
        assert child.writer_id == 3
        assert child.txn_id == 7
        assert child.parent is root
        assert child.root() is root

    def test_path_joins_origins_root_first(self):
        root = OpContext("txn")
        leaf = root.child("gc").child("merge")
        assert leaf.path() == "txn/gc/merge"

    def test_adopt_attaches_orphan_chain_once(self):
        host = OpContext("db-writer")
        gc = OpContext("gc")
        merge = gc.child("merge")
        merge.adopt(host)
        assert gc.parent is host
        assert merge.path() == "db-writer/gc/merge"
        other = OpContext("txn")
        merge.adopt(other)  # already rooted: no re-parenting
        assert gc.parent is host

    def test_charge_accumulates_and_skips_zero(self):
        ctx = OpContext("txn")
        ctx.charge("media_us", 10.0)
        ctx.charge("media_us", 5.0)
        ctx.charge("gc_us", 0.0)
        assert ctx.costs == {"media_us": 15.0}

    def test_rejects_unknown_origin(self):
        with pytest.raises(ValueError):
            OpContext("cosmic-rays")

    def test_fields_carry_identity(self):
        ctx = OpContext("db-writer", writer_id=2).child("gc")
        fields = ctx.fields()
        assert fields["origin"] == "gc"
        assert fields["writer"] == 2
        assert fields["path"] == "db-writer/gc"


class TestCommandTagging:
    def test_tag_commands_stamps_untagged_only(self):
        inner_ctx = OpContext("scrub")

        def op():
            yield stamp_context(ProgramPage(ppn=1), inner_ctx)
            yield ProgramPage(ppn=2)
            return "done"

        outer_ctx = OpContext("gc")
        gen = tag_commands(op(), outer_ctx)
        first = gen.send(None)
        assert first.ctx is inner_ctx  # more specific wrapper wins
        second = gen.send(None)
        assert second.ctx is outer_ctx
        with pytest.raises(StopIteration) as stop:
            gen.send(None)
        assert stop.value.value == "done"


class TestReservoir:
    def test_unbounded_keeps_every_sample(self):
        rec = LatencyRecorder("x")
        for i in range(100):
            rec.record(float(i))
        assert len(rec.samples) == 100


class TestRegistryMerge:
    def test_merge_from_carries_all_instrument_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops", layer="x").inc(2)
        b.counter("ops", layer="x").inc(3)
        b.gauge("level", layer="x").set(7)
        b.histogram("lat", layer="x").observe(5.0)
        a.merge_from(b)
        assert a.value("ops", layer="x") == 5
        snapshot = a.snapshot()
        assert snapshot["gauges"]
        assert snapshot["histograms"]


class TestTraceRoundTrip:
    def test_jsonl_sink_round_trips_events(self):
        sink = io.StringIO()
        trace = EventTrace(sink=sink)
        trace.emit("flash.cmd", op="program", die=3, origin="gc",
                   latency_us=200.0)
        trace.emit("host.op", op="write", elapsed_us=450.0, origin="txn")
        events = load_jsonl(io.StringIO(sink.getvalue()))
        assert len(events) == 2
        assert events[0]["kind"] == "flash.cmd"
        assert events[0]["die"] == 3
        assert events[1]["op"] == "write"

    def test_nested_spans_rebuild_parent_paths(self):
        sink = io.StringIO()
        trace = EventTrace(sink=sink)
        with trace.span("log.reclaim") as outer:
            with trace.span("merge.full", parent=outer):
                pass
        events = load_jsonl(io.StringIO(sink.getvalue()))
        rollup = span_rollup(events)
        paths = {entry["path"] for entry in rollup}
        assert "log.reclaim" in paths
        assert "log.reclaim;merge.full" in paths


class TestAttribution:
    def _events(self):
        return [
            {"ts": 10.0, "kind": "host.op", "op": "write",
             "elapsed_us": 100.0, "media_us": 60.0, "queue_gc_us": 30.0},
            {"ts": 20.0, "kind": "host.op", "op": "write",
             "elapsed_us": 1000.0, "media_us": 100.0, "gc_us": 800.0},
            {"ts": 30.0, "kind": "flash.cmd", "op": "program", "die": 0,
             "origin": "gc", "latency_us": 200.0},
            {"ts": 40.0, "kind": "flash.cmd", "op": "read", "die": 1,
             "origin": "txn", "latency_us": 50.0},
        ]

    def test_blame_breakdown_tail_and_residual(self):
        blame = blame_breakdown(self._events(), op="write")
        assert blame["count"] == 2
        # the tail is the slow write: 800 gc + 100 media + 100 residual
        assert blame["tail_buckets"]["gc_us"] == 800.0
        assert blame["tail_buckets"]["other_us"] == 100.0
        assert blame["gc_blamed_us"] == 800.0

    def test_over_charged_op_raises_instead_of_clamping(self):
        # 70 + 40 us charged to a 100 us op: 10 us of blame counted twice.
        over = {"ts": 5.0, "kind": "host.op", "op": "write",
                "elapsed_us": 100.0, "media_us": 70.0, "queue_gc_us": 40.0}
        with pytest.raises(ValueError, match="charges 110.0 us"):
            blame_breakdown(self._events() + [over], op="write")
        # Float rounding is not over-charging: 0.1 + 0.2 > 0.3 by one ulp.
        rounded = dict(over, elapsed_us=0.3, media_us=0.1, queue_gc_us=0.2)
        blame = blame_breakdown([rounded], op="write")
        assert blame["buckets"]["other_us"] == 0.0

    def test_origin_checks(self):
        events = self._events()
        assert verify_origins(events) == {"flash_cmds": 2,
                                          "missing_origin": 0}
        events.append({"ts": 50.0, "kind": "flash.cmd", "op": "program",
                       "die": 0, "latency_us": 1.0})
        assert verify_origins(events)["missing_origin"] == 1
        mix = origin_mix(events)
        assert mix["gc"] == 1 and mix["txn"] == 1

    def test_windowed_series_buckets_by_time(self):
        series = windowed_series(self._events(), window_us=25.0)
        assert len(series["windows"]) == 2
        assert sum(series["ops"]) == 2
        # Die-busy credit is split across window edges: the program starts
        # at ts=30 with 200us of latency, so window [10, 35) holds 5us and
        # the remainder lands in the last window (35, the series tail).
        assert series["die_busy"][0][0] == pytest.approx(5.0 / 25.0)
        assert series["die_busy"][0][1] == pytest.approx(195.0 / 25.0)
        # die 1: read at ts=40 for 50us, entirely inside the final window.
        assert series["die_busy"][1][1] == pytest.approx(50.0 / 25.0)
        # Total busy time is conserved by the split.
        assert sum(series["die_busy"][0]) * 25.0 == pytest.approx(200.0)
        assert series["maintenance_cmds"][0] == 1


class TestEndToEndTrace:
    def test_tpcb_run_traces_origins_and_replays(self, tmp_path):
        workload = TPCB(sf=1, accounts_per_branch=50)
        footprint = measure_workload_footprint(workload)
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            trace = EventTrace(sink=sink)
            rig = build_noftl_rig(
                geometry=sized_geometry(footprint, dies=2, utilization=0.8,
                                        headroom_pages=footprint // 2,
                                        pages_per_block=16),
                config=NoFTLConfig(num_regions=2, op_ratio=0.12),
                seed=5,
                trace=trace,
            )
            db = attach_database(rig, buffer_capacity=footprint,
                                 cpu_us_per_op=1.0,
                                 wal_flush_latency_us=60.0,
                                 foreground_flush=False,
                                 dirty_throttle_fraction=0.10)
            db.start_writers(2, policy="region")
            run_workload(rig.sim, db, TPCB(sf=1, accounts_per_branch=50),
                         duration_us=250_000, num_terminals=4,
                         rng=random.Random(5))
            trace.enabled = False
            trace.sink = None
        report = analyze_trace(str(path))
        origins = report["origins"]
        assert origins["flash_cmds"] > 0
        assert origins["missing_origin"] == 0
        # background cleaning dominates the write path; its origin label
        # must survive all the way down to the flash commands
        assert report["origin_mix"].get("db-writer", 0) > 0
        assert report["write_blame"]["count"] > 0
        assert report["commit_blame"]["count"] > 0
        # commits are WAL-bound: the wal bucket carries their latency
        assert report["commit_blame"]["tail_buckets"]["wal_us"] > 0
        # both dies show up in the utilization series
        assert set(report["series"]["die_busy"]) == {0, 1}
        failures = check_tail({"noftl": report}, dies=2)
        assert failures == []


class TestHealthScenario:
    """Exact short-horizon numbers of the observe harness's health
    scenario (seed 11, its own): a change of rig assembly, construction
    order or RNG draws moves them."""

    def test_tpcb_rig_numbers_are_pinned(self):
        out = run_db_rig("tpcb", 11, 150_000.0)
        health = out["health"]
        assert out["commits"] == 2106
        wa = health["wa"]
        assert (wa["logical_writes"], wa["physical_writes"],
                wa["erases"]["total"]) == (949, 949, 9)
        assert wa["per_die"] == {0: 242, 1: 239, 2: 232, 3: 236}
        wear = health["wear"]
        assert (wear["skew"], wear["max"], wear["mean"]) == (5.3333, 1, 0.1875)
        assert wear["lifetime"]["remaining_host_writes"] == 2_846_051
        assert wear["lifetime"]["projected_total_host_writes"] == 2_847_000
        assert len(health["windows"]["windows"]) == 17

    def test_saturation_rig_numbers_are_pinned(self):
        out = run_saturation_rig(11)
        assert out["offered"] == {"acked": 518, "shed": 6091}
        assert out["saturation"] == {
            "saturated": True,
            "point": {"kind": "shed-onset", "window": 3, "at_us": 12_000.0,
                      "sheds": 10},
        }
        assert (out["frontend"]["coalesced"],
                out["frontend"]["destages"]) == (316, 226)
