"""The sweep-merge determinism contract (DESIGN.md §13).

``python -m repro.bench.sweep`` exists to buy wall-clock, never to
change a byte of output: a multi-run rig executed across N pool workers
must produce a merged report and merged telemetry **bit-identical** to
the same sweep run in-process.  These tests pin the contract end to end
on the crash harness (the heaviest consumer: per-cut registries, ordered
``merge_from``, per-cut CutReports) plus the executor and registry
pickling pieces it stands on.
"""

import hashlib
import json

import pytest

from repro.bench.crash import run_crash_sweep
from repro.bench.sweep import SweepTask, run_sweep
from repro.telemetry import MetricsRegistry

#: Small but real: four seeded power cuts on the TPC-B crash rig.  Every
#: cut is a full build + run + cold start + audit, so keep the horizon
#: tight — the point here is cross-worker identity, not coverage (the
#: crash suite itself sweeps harder).
SWEEP_KWARGS = dict(
    workload_name="tpcb",
    cuts=4,
    seed=7,
    duration_us=50_000.0,
    resume_us=20_000.0,
)


def _report_digest(report) -> str:
    """SHA-256 over the report snapshot + full merged telemetry JSON."""
    payload = json.dumps(report.snapshot(), sort_keys=True, default=str) \
        + report.telemetry.to_json()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def sequential_report():
    return run_crash_sweep(workers=1, **SWEEP_KWARGS)


class TestSweepDeterminism:
    def test_sequential_sweep_has_enough_runs(self, sequential_report):
        assert len(sequential_report.cuts) >= 4
        assert sequential_report.ok

    def test_parallel_sweep_is_byte_identical(self, sequential_report):
        parallel = run_crash_sweep(workers=4, **SWEEP_KWARGS)
        assert parallel.ok
        assert [c.cut_op for c in parallel.cuts] \
            == [c.cut_op for c in sequential_report.cuts]
        assert json.dumps(parallel.snapshot(), sort_keys=True, default=str) \
            == json.dumps(sequential_report.snapshot(), sort_keys=True,
                          default=str)
        # The merged registries must agree to the byte: counters summed
        # in cut order, histogram samples re-observed in cut order,
        # gauges combined under their declared policies.
        assert parallel.telemetry.to_json() \
            == sequential_report.telemetry.to_json()
        assert _report_digest(parallel) == _report_digest(sequential_report)

    def test_repeat_sequential_sweep_is_deterministic(self,
                                                      sequential_report):
        again = run_crash_sweep(workers=1, **SWEEP_KWARGS)
        assert _report_digest(again) == _report_digest(sequential_report)


class TestRunSweepExecutor:
    def test_results_and_callback_arrive_in_task_order(self):
        tasks = [
            SweepTask(label=f"sq{n}", fn="tests.test_bench_sweep:_square",
                      kwargs={"n": n})
            for n in (3, 1, 4, 1, 5)
        ]
        seen = []
        results = run_sweep(
            tasks, workers=2,
            on_result=lambda i, task, r: seen.append((i, task.label, r)),
        )
        assert results == [9, 1, 16, 1, 25]
        assert seen == [(0, "sq3", 9), (1, "sq1", 1), (2, "sq4", 16),
                        (3, "sq1", 1), (4, "sq5", 25)]

    def test_workers_one_runs_in_process(self):
        import os

        tasks = [SweepTask(label="pid", fn="tests.test_bench_sweep:_pid",
                           kwargs={})] * 2
        assert run_sweep(tasks, workers=1) == [os.getpid()] * 2

    def test_bad_fn_path_is_rejected(self):
        with pytest.raises(ValueError):
            run_sweep([SweepTask("bad", "no-colon-here", {})], workers=1)


class TestRegistryPickling:
    def test_registry_round_trips_without_collectors_or_clock(self):
        import pickle

        registry = MetricsRegistry()
        registry.set_clock(lambda: 42.0)
        registry.counter("flash.commands", op="read", die=0).inc(7)
        registry.gauge("noftl.degraded").set(1.0)
        registry.histogram("db.commit_us", layer="db").observe(12.5)
        registry.register_collector("live", lambda: {"bound": True})

        clone = pickle.loads(pickle.dumps(registry))
        assert clone.value("flash.commands", op="read") == 7
        # collectors are bound to live rig objects and must not cross
        snap = clone.snapshot()
        assert snap["collectors"] == {}
        # the clock closure is dropped too: now() falls back to sequence
        assert clone.now() == 1.0

        merged = MetricsRegistry()
        merged.merge_from(clone)
        assert merged.value("flash.commands", op="read") == 7
        assert merged.to_json() != ""


# module-level task bodies so the pool can resolve them by import path
def _square(n):
    return n * n


def _pid():
    import os

    return os.getpid()
