"""Tests for the buffer pool: pinning, eviction, WAL rule, dirty listener."""

import random

import pytest

from repro.db import BufferPool, DbWriterPool, RAMStorageAdapter, SlottedPage, WALog
from repro.db import flusher
from repro.db.flusher import BATCH_SIZE
from repro.sim import Simulator

PAGE_BYTES = 256


def make_pool(capacity=4, latency_us=10.0):
    sim = Simulator()
    storage = RAMStorageAdapter(sim, logical_pages=256, latency_us=latency_us)
    wal = WALog(sim, flush_latency_us=50)
    pool = BufferPool(sim, storage, wal, capacity)
    return sim, storage, wal, pool


def seed_pages(sim, pool, count):
    """Create `count` pages and flush them so storage has them."""

    def proc():
        for page_id in range(count):
            page = SlottedPage(page_id, PAGE_BYTES)
            page.insert(f"page-{page_id}".encode())
            yield from pool.new_page(page_id, page)
            pool.unpin(page_id)
        yield from pool.flush_all()

    sim.run_process(proc())


class TestFetch:
    def test_hit_after_miss(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 2)

        def proc():
            frame = yield from pool.fetch(0)
            pool.unpin(0)
            frame = yield from pool.fetch(0)
            pool.unpin(0)
            return frame.page.get(0)

        assert sim.run_process(proc()) == b"page-0"
        assert pool.hits >= 1

    def test_fetch_missing_page_raises(self):
        sim, __, __, pool = make_pool()

        def proc():
            yield from pool.fetch(99)

        with pytest.raises(KeyError):
            sim.run_process(proc())

    def test_concurrent_fetchers_share_one_load(self):
        sim, storage, __, pool = make_pool(latency_us=100)
        seed_pages(sim, pool, 8)
        # evict everything by filling with other pages
        def wipe():
            for page_id in range(4, 8):
                frame = yield from pool.fetch(page_id)
                pool.unpin(page_id)
        sim.run_process(wipe())
        misses_before = pool.misses

        def fetcher():
            frame = yield from pool.fetch(0)
            pool.unpin(0)

        sim.process(fetcher())
        sim.process(fetcher())
        sim.run()
        assert pool.misses == misses_before + 1  # second fetch waited, then hit

    def test_eviction_is_lru(self):
        sim, __, __, pool = make_pool(capacity=4)
        seed_pages(sim, pool, 8)

        def proc():
            for page_id in (0, 1, 2, 3):
                yield from pool.fetch(page_id)
                pool.unpin(page_id)
            # touch 0 so 1 becomes LRU
            yield from pool.fetch(0)
            pool.unpin(0)
            yield from pool.fetch(4)  # forces one eviction
            pool.unpin(4)

        sim.run_process(proc())
        assert 1 not in pool.frames
        assert 0 in pool.frames

    def test_pinned_pages_never_evicted(self):
        sim, __, __, pool = make_pool(capacity=4)
        seed_pages(sim, pool, 8)
        log = []

        def pinner():
            for page_id in (0, 1, 2):
                yield from pool.fetch(page_id)
            # hold pins; try to bring in 2 more pages than capacity allows
            yield sim.timeout(1000)
            for page_id in (0, 1, 2):
                pool.unpin(page_id)
            log.append("released")

        def prober():
            yield sim.timeout(10)
            yield from pool.fetch(4)  # takes the only unpinned frame slot
            yield from pool.fetch(5)  # needs a second frame: must wait
            pool.unpin(4)
            pool.unpin(5)
            log.append(("prober-done", sim.now))

        sim.process(pinner())
        sim.process(prober())
        sim.run()
        # The prober could not proceed until the pinner released its pins.
        assert log[0] == "released"
        assert log[1][0] == "prober-done"


def evict_all(sim, pool, first=4, last=8):
    """Cycle pages ``first..last-1`` through a 4-frame pool so none of
    the pages below ``first`` stays resident."""

    def wipe():
        for page_id in range(first, last):
            yield from pool.fetch(page_id)
            pool.unpin(page_id)

    sim.run_process(wipe())


class TestPin:
    """``pin`` serves hits synchronously; ``fetch`` serves the rest."""

    def test_hit_pins_and_counts_without_scheduling_an_event(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 2)
        sim.run()  # drain what the seeding left queued
        hits = pool.telemetry.value("db.buffer.lookups", event="hit")
        events = sim.events_processed
        frame = pool.pin(0)
        assert frame is pool.frames[0]
        assert frame.pin_count == 1
        assert pool.telemetry.value("db.buffer.lookups", event="hit") == hits + 1
        sim.run()  # nothing was scheduled, so nothing fires
        assert sim.events_processed == events
        pool.unpin(0)
        assert frame.pin_count == 0

    def test_miss_returns_none_and_fetch_loads_the_page(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 8)
        evict_all(sim, pool)
        misses = pool.misses
        assert pool.pin(0) is None
        assert pool.misses == misses  # pin never counts a miss

        def proc():
            frame = pool.pin(0) or (yield from pool.fetch(0))
            return frame

        frame = sim.run_process(proc())
        assert frame is pool.frames[0]
        assert frame.pin_count == 1
        assert frame.page.get(0) == b"page-0"
        assert pool.misses == misses + 1

    def test_two_missing_processes_share_one_load(self):
        sim, __, __, pool = make_pool(latency_us=100)
        seed_pages(sim, pool, 8)
        evict_all(sim, pool)
        misses, hits = pool.misses, pool.hits
        frames = []

        def fetcher():
            frame = pool.pin(0) or (yield from pool.fetch(0))
            frames.append(frame)
            pool.unpin(0)

        sim.process(fetcher())
        sim.process(fetcher())
        sim.run()
        assert len(frames) == 2 and frames[0] is frames[1]
        assert pool.misses == misses + 1
        assert pool.hits == hits + 1  # the second waited, then hit


class TestDirtyAndFlush:
    def test_mark_dirty_requires_residency(self):
        __, __, __, pool = make_pool()
        with pytest.raises(KeyError):
            pool.mark_dirty(0)

    def test_dirty_listener_fires_once_per_dirtying(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 2)
        events = []
        pool.set_dirty_listener(lambda page_id, frame: events.append(page_id))

        def proc():
            frame = yield from pool.fetch(0)
            pool.mark_dirty(0)
            pool.mark_dirty(0)  # second mark on already-dirty: no event
            pool.unpin(0)
            yield from pool.flush_page(0)
            frame = yield from pool.fetch(0)
            pool.mark_dirty(0)  # re-dirty after clean: new event
            pool.unpin(0)

        sim.run_process(proc())
        assert events == [0, 0]

    def test_flush_respects_wal_rule(self):
        sim, __, wal, pool = make_pool()
        seed_pages(sim, pool, 1)

        def proc():
            frame = yield from pool.fetch(0)
            lsn = wal.append("update", 1)
            frame.page.lsn = lsn
            pool.mark_dirty(0)
            pool.unpin(0)
            yield from pool.flush_page(0)
            return lsn

        lsn = sim.run_process(proc())
        assert wal.flushed_lsn >= lsn

    def test_flush_clean_page_is_noop(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 1)

        def proc():
            flushed = yield from pool.flush_page(0)
            return flushed

        assert sim.run_process(proc()) is False

    def test_redirty_during_flush_stays_dirty(self):
        sim, __, __, pool = make_pool(latency_us=100)
        seed_pages(sim, pool, 1)

        def flusher():
            frame = yield from pool.fetch(0)
            pool.mark_dirty(0)
            pool.unpin(0)
            yield from pool.flush_page(0)

        def mutator():
            yield sim.timeout(10)  # lands mid-flush
            frame = yield from pool.fetch(0)
            frame.page.insert(b"late-change")
            pool.mark_dirty(0)
            pool.unpin(0)

        sim.process(flusher())
        sim.process(mutator())
        sim.run()
        assert pool.frames[0].dirty  # the late change is not lost

    def test_dirty_eviction_counts_stall(self):
        sim, __, __, pool = make_pool(capacity=4)
        seed_pages(sim, pool, 8)

        def proc():
            for page_id in range(4):
                yield from pool.fetch(page_id)
                pool.mark_dirty(page_id)
                pool.unpin(page_id)
            yield from pool.fetch(5)  # every victim dirty -> stall
            pool.unpin(5)

        sim.run_process(proc())
        assert pool.dirty_eviction_stalls >= 1

    def test_flush_all_checkpoints_everything(self):
        sim, storage, __, pool = make_pool(capacity=8)
        seed_pages(sim, pool, 4)

        def proc():
            for page_id in range(4):
                frame = yield from pool.fetch(page_id)
                frame.page.insert(b"mutation")
                pool.mark_dirty(page_id)
                pool.unpin(page_id)
            yield from pool.flush_all()

        sim.run_process(proc())
        assert pool.dirty_count == 0

    def test_snapshot_fields(self):
        sim, __, __, pool = make_pool()
        seed_pages(sim, pool, 1)
        snap = pool.snapshot()
        assert snap["capacity"] == 4
        assert "hit_ratio" in snap


def _full_scan(writers, index):
    """Reference: the db-writer candidate scan over the whole pool that
    the per-writer dirty counts replaced."""
    picked = []
    for page_id, frame in writers.buffer_pool.frames.items():
        if frame.dirty and frame.pin_count == 0 and frame.flush_event is None \
                and (writers.policy == "global"
                     or writers.storage.region_of_page(page_id)
                     % writers.num_writers == index):
            picked.append(page_id)
            if len(picked) >= BATCH_SIZE:
                break
    return picked


def _recount(writers):
    """Per-writer dirty counts recomputed from the resident frames."""
    pool = writers.buffer_pool
    counts = [0] * len(pool.writer_dirty)
    for page_id, frame in pool.frames.items():
        if frame.dirty:
            counts[0 if writers.policy == "global"
                   else writers.storage.region_of_page(page_id)
                   % writers.num_writers] += 1
    return counts


class TestWriterDirtyCounts:
    """Differential check of the db-writers' per-writer dirty counts: each
    candidate scan picks exactly what the full-pool scan picks, and each
    count equals a recount, under churn that covers every dirty/clean
    transition — mutations, write-backs (writer, eviction, checkpoint),
    purges, and pages re-dirtied while a write-back is in flight."""

    PAGES = 48
    MUTATORS = 4

    @pytest.mark.parametrize("policy", ["global", "region"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_candidates_match_the_full_scan(self, policy, seed,
                                            monkeypatch):
        # Idle writers re-scan every 60 us, so the churn meets many scans.
        monkeypatch.setattr(flusher, "IDLE_POLL_US", 60.0)
        rng = random.Random(seed)
        sim = Simulator()
        storage = RAMStorageAdapter(sim, logical_pages=256, latency_us=40.0,
                                    num_regions=4)
        pool = BufferPool(sim, storage, WALog(sim, flush_latency_us=20), 16)
        seed_pages(sim, pool, self.PAGES)
        writers = DbWriterPool(sim, pool, storage, 3, policy)
        scans = []
        original = writers._candidates

        def checked(index):
            assert pool.writer_dirty == _recount(writers)
            picked = original(index)
            assert picked == _full_scan(writers, index)
            scans.append(picked)
            return picked

        writers._candidates = checked
        redirtied_mid_flush = [0]
        purged = [0]

        def mutator(pages):
            for __ in range(120):
                page_id = rng.choice(pages)
                if rng.random() < 0.1:
                    yield from pool.purge_page(page_id)
                    purged[0] += 1
                else:
                    frame = yield from pool.fetch(page_id)
                    frame.page.update(0, frame.page.get(0)[::-1])
                    if frame.dirty and frame.flush_event is not None:
                        redirtied_mid_flush[0] += 1
                    pool.mark_dirty(page_id)
                    pool.unpin(page_id)
                assert pool.writer_dirty == _recount(writers)
                yield sim.timeout(rng.uniform(0.0, 30.0))

        for first in range(self.MUTATORS):
            sim.process(mutator(list(range(first, self.PAGES, self.MUTATORS))))
        sim.run(until=sim.now + 20_000.0)
        sim.run_process(pool.flush_all())
        assert pool.writer_dirty == _recount(writers) == [0] * len(pool.writer_dirty)
        writers.stop()
        sim.run()
        assert purged[0] and redirtied_mid_flush[0]
        assert any(scans) and not all(scans)

    def test_counts_survive_repartitioning(self):
        sim, storage, __, pool = make_pool(capacity=8)
        seed_pages(sim, pool, 6)

        def dirty_all():
            for page_id in range(6):
                yield from pool.fetch(page_id)
                pool.mark_dirty(page_id)
                pool.unpin(page_id)

        sim.run_process(dirty_all())
        assert pool.writer_dirty == [6]
        pool.partition_writers(2, lambda page_id: page_id % 2)
        assert pool.writer_dirty == [3, 3]
