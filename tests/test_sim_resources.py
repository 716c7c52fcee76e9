"""Unit tests for Resource/Store and the stats helpers."""

import pytest

from repro.sim import LatencyRecorder, Resource, RunningStats, Simulator, Store
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


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")

        def getter():
            item = yield store.get()
            return item

        assert sim.run_process(getter()) == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((sim.now, item))

        def putter():
            yield sim.timeout(7)
            store.put("late-item")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [(7, "late-item")]

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)

        def getter():
            items = []
            for __ in range(3):
                items.append((yield store.get()))
            return items

        assert sim.run_process(getter()) == [0, 1, 2]
        assert len(store) == 0

    def test_len_and_peek(self):
        store = Store(Simulator())
        store.put("a")
        store.put("b")
        assert len(store) == 2


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

    def test_running_stats_mean_and_extrema(self):
        stats = RunningStats()
        stats.extend([2, 4, 6])
        assert stats.mean == pytest.approx(4)
        assert stats.minimum == 2
        assert stats.maximum == 6
        assert stats.variance == pytest.approx(4)

    def test_running_stats_empty(self):
        stats = RunningStats()
        assert stats.mean == 0.0
        assert stats.variance == 0.0

    def test_latency_recorder_summary(self):
        rec = LatencyRecorder("writes")
        for value in [1.0] * 99 + [100.0]:
            rec.record(value)
        summary = rec.summary()
        assert summary["count"] == 100
        assert summary["max"] == 100.0
        assert summary["p50"] == 1.0
        assert rec.outliers_over(10) == 1
