"""Unit tests for Resource and the stats helpers."""

import pytest

from repro.sim import LatencyRecorder, Resource, Simulator
from repro.sim import percentile


class TestResource:
    def test_capacity_one_serialises_users(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        spans = []

        def user(name, hold):
            yield res.request()
            start = sim.now
            yield sim.timeout(hold)
            res.release()
            spans.append((name, start, sim.now))

        sim.process(user("a", 5))
        sim.process(user("b", 3))
        sim.run()
        assert spans == [("a", 0, 5), ("b", 5, 8)]

    def test_capacity_two_allows_overlap(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        done = []

        def user(name):
            yield res.request()
            yield sim.timeout(10)
            res.release()
            done.append((name, sim.now))

        for name in "abc":
            sim.process(user(name))
        sim.run()
        assert done == [("a", 10), ("b", 10), ("c", 20)]

    def test_fifo_granting(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(name, arrive):
            yield sim.timeout(arrive)
            yield res.request()
            order.append(name)
            yield sim.timeout(100)
            res.release()

        sim.process(user("late", 2))
        sim.process(user("early", 1))
        sim.process(user("first", 0))
        sim.run()
        assert order == ["first", "early", "late"]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_contention_statistics(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user():
            yield res.request()
            yield sim.timeout(4)
            res.release()

        sim.process(user())
        sim.process(user())
        sim.run()
        assert res.total_requests == 2
        assert res.total_waits == 1
        assert res.total_wait_time == 4


class TestStats:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_bounds(self):
        values = [5, 1, 9]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_bad_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentiles_batch_matches_singles(self):
        from repro.sim import percentiles

        values = [9, 1, 5, 3, 7, 2, 8]
        qs = (0, 25, 50, 95, 99.9, 100)
        assert percentiles(values, qs) == [percentile(values, q) for q in qs]

    def test_percentiles_batch_empty_raises(self):
        from repro.sim import percentiles

        with pytest.raises(ValueError):
            percentiles([], (50,))

    def test_latency_recorder_mean_and_max(self):
        rec = LatencyRecorder("reads")
        for value in (2, 4, 6):
            rec.record(value)
        assert rec.count == 3
        assert rec.mean == pytest.approx(4)
        assert rec.maximum == 6

    def test_latency_recorder_empty(self):
        rec = LatencyRecorder("reads")
        assert rec.count == 0
        assert rec.mean == 0.0
        assert rec.maximum == 0.0

    def test_latency_recorder_summary(self):
        rec = LatencyRecorder("writes")
        for value in [1.0] * 99 + [100.0]:
            rec.record(value)
        summary = rec.summary()
        assert summary["count"] == 100
        assert summary["max"] == 100.0
        assert summary["p50"] == 1.0
        assert rec.outliers_over(10) == 1
