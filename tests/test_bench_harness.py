"""Tests for the benchmark harness: rigs, reporting, trace replay and the
cheap experiments (validation) — the expensive sweeps are exercised by
the benchmark suite itself."""

import pytest

from repro.bench import (
    build_blockdev_rig,
    build_noftl_rig,
    build_sync_blockdev,
    build_sync_noftl,
    geometry_for_footprint,
    geometry_with_dies,
    make_ftl,
    measure_workload_footprint,
    render_series,
    render_table,
    ratio,
    sized_geometry,
    validate_emulator,
)
from repro.bench.fig3 import record_trace
from repro.workloads import TPCB, IOTrace, replay_trace
from repro.workloads.trace import TRIM, WRITE


class TestReporting:
    def test_render_table_contains_cells(self):
        text = render_table("Title", ["a", "b"], [[1, 2.5], ["x", 10_000]])
        assert "Title" in text
        assert "2.50" in text
        assert "10,000" in text

    def test_render_series_aligns_columns(self):
        text = render_series("S", "x", [1, 2], [("s1", [10, 20])])
        assert "s1" in text and "20" in text

    def test_ratio_guards_zero(self):
        assert ratio(4, 2) == 2
        assert ratio(1, 0) == float("inf")


class TestGeometryFactories:
    @pytest.mark.parametrize("dies", [1, 2, 4, 8, 16, 32])
    def test_geometry_with_dies_capacity_constant(self, dies):
        geometry = geometry_with_dies(dies)
        assert geometry.total_dies == dies
        assert geometry.total_pages == geometry_with_dies(1).total_pages

    def test_geometry_for_footprint_fits_target(self):
        geometry = geometry_for_footprint(3000, utilization=0.8,
                                          op_ratio=0.1)
        logical = geometry.total_pages * 0.9
        assert logical >= 3000
        assert 3000 / logical >= 0.5  # not absurdly oversized

    def test_sized_geometry_die_count(self):
        geometry = sized_geometry(4000, dies=16, pages_per_block=16)
        assert geometry.total_dies == 16
        assert geometry.pages_per_block == 16

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geometry_with_dies(0)
        with pytest.raises(ValueError):
            geometry_for_footprint(1000, utilization=0.01)

    @pytest.mark.parametrize("utilization", [0, 1.5])
    def test_sized_geometry_rejects_utilization(self, utilization):
        with pytest.raises(ValueError):
            sized_geometry(1000, dies=4, utilization=utilization)

    @pytest.mark.parametrize("footprint,utilization,op_ratio,dies", [
        (6000, 0.85, 0.12, 2),  # the replay_gc_noftl stack workload
        (3000, 0.8, 0.1, 8),
        (1131, 0.5, 0.28, 3),
        (50, 0.98, 0.12, 16),
        (20000, 0.1, 0.2, 32),
    ])
    def test_footprint_sizing_is_sized_geometry(self, footprint, utilization,
                                                op_ratio, dies):
        assert geometry_for_footprint(
            footprint, utilization, op_ratio, dies) == sized_geometry(
            footprint, dies, utilization, op_ratio, headroom_pages=0)

    def test_make_ftl_names(self):
        geometry = geometry_with_dies(2)
        assert make_ftl("pagemap", geometry).name == "PageMapFTL"
        assert make_ftl("dftl", geometry).name == "DFTL"
        assert make_ftl("faster", geometry).name == "FASTer"
        with pytest.raises(ValueError):
            make_ftl("nope", geometry)


class TestRigs:
    def test_noftl_rig_roundtrip(self):
        rig = build_noftl_rig(geometry=geometry_with_dies(2))

        def proc():
            yield from rig.storage.write(1, data=b"x")
            value = yield from rig.storage.read(1)
            return value

        assert rig.sim.run_process(proc()) == b"x"

    def test_blockdev_rig_roundtrip(self):
        rig = build_blockdev_rig("pagemap", geometry=geometry_with_dies(2))

        def proc():
            yield from rig.device.write(1, data=b"y")
            value = yield from rig.device.read(1)
            return value

        assert rig.sim.run_process(proc()) == b"y"

    def test_measure_workload_footprint_positive(self):
        footprint = measure_workload_footprint(
            TPCB(sf=1, accounts_per_branch=50))
        assert footprint > 3


class TestTraceReplayIntegration:
    def test_record_and_replay_both_targets(self):
        trace = record_trace("tpcb", duration_us=150_000, scale=0.2,
                             seed=3)
        assert len(trace) > 0
        geometry = geometry_for_footprint(trace.max_page() + 1,
                                          utilization=0.7, dies=2)
        faster_dev, faster_array = build_sync_blockdev(
            "faster", geometry=geometry)
        faster = replay_trace(trace, faster_dev)
        noftl_dev, noftl_array = build_sync_noftl(geometry=geometry)
        noftl = replay_trace(trace, noftl_dev)
        # identical host stream on both targets
        assert faster.host_writes == noftl.host_writes
        assert faster.host_reads == noftl.host_reads
        assert faster.host_writes == trace.counts()["writes"]
        # flash counters come from the arrays, not guesses
        assert faster_array.counters.programs >= faster.host_writes

    @pytest.mark.parametrize("target", ["noftl", "pagemap"])
    def test_unknown_op_kind_rejected_not_trimmed(self, target):
        geometry = geometry_with_dies(2)
        if target == "noftl":
            device, __ = build_sync_noftl(geometry=geometry)
        else:
            device, __ = build_sync_blockdev(target, geometry=geometry)
        trace = IOTrace()
        trace.append(WRITE, 4)
        trace.append(TRIM, 4)
        trace.append("x", 4)
        with pytest.raises(ValueError, match="unknown trace op kind"):
            replay_trace(trace, device)


class TestValidation:
    def test_emulator_validation_exact(self):
        report = validate_emulator()
        assert report.max_error < 1e-6
        assert len(report.rows) >= 6
