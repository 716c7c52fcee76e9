"""Tests for the WAL (group commit) and the lock manager / RW latch."""

import pytest

from repro.db import LockManager, LockMode, RWLock, TxnAborted, WALog
from repro.db.heap import RID
from repro.sim import Simulator


class TestWAL:
    def test_append_assigns_increasing_lsns(self):
        wal = WALog(Simulator())
        assert wal.append("update", 1) == 1
        assert wal.append("update", 1) == 2
        assert wal.appended_lsn == 2

    def test_flush_advances_flushed_lsn(self):
        sim = Simulator()
        wal = WALog(sim, flush_latency_us=100)
        lsn = wal.append("commit", 1)

        def proc():
            yield from wal.flush_to(lsn)

        sim.run_process(proc())
        assert wal.flushed_lsn >= lsn
        assert sim.now == 100

    def test_flush_to_already_durable_is_free(self):
        sim = Simulator()
        wal = WALog(sim, flush_latency_us=100)
        lsn = wal.append("commit", 1)
        sim.run_process(_flush(sim, wal, lsn))
        before = sim.now

        sim.run_process(_flush(sim, wal, lsn))
        assert sim.now == before
        assert wal.total_flushes == 1

    def test_group_commit_shares_one_flush(self):
        sim = Simulator()
        wal = WALog(sim, flush_latency_us=100)
        done = []

        def committer(name):
            lsn = wal.append("commit", 1)
            yield from wal.flush_to(lsn)
            done.append((name, sim.now))

        sim.process(committer("a"))
        sim.process(committer("b"))
        sim.process(committer("c"))
        sim.run()
        assert len(done) == 3
        # a's flush covers only its own record; b and c piggyback on the
        # second flush instead of issuing one each: 2 flushes, not 3.
        assert wal.total_flushes == 2
        assert wal.total_group_commits >= 2
        assert done[0] == ("a", 100)
        assert done[1:] == [("b", 200), ("c", 200)]

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            WALog(Simulator(), flush_latency_us=-1)


def _flush(sim, wal, lsn):
    yield from wal.flush_to(lsn)


class TestLockManager:
    def test_shared_locks_coexist(self):
        sim = Simulator()
        locks = LockManager(sim)
        granted = []

        def reader(txn_id):
            yield from locks.acquire(txn_id, "k", LockMode.SHARED)
            granted.append(txn_id)

        sim.process(reader(1))
        sim.process(reader(2))
        sim.run()
        assert sorted(granted) == [1, 2]

    def test_exclusive_blocks_until_release(self):
        sim = Simulator()
        locks = LockManager(sim)
        order = []

        def first():
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)
            order.append(("granted", 1, sim.now))
            yield sim.timeout(50)
            locks.release_all(1)

        def second():
            yield sim.timeout(1)
            yield from locks.acquire(2, "k", LockMode.EXCLUSIVE)
            order.append(("granted", 2, sim.now))
            locks.release_all(2)

        sim.process(first())
        sim.process(second())
        sim.run()
        assert order == [("granted", 1, 0), ("granted", 2, 50)]

    def test_reacquire_held_lock_is_instant(self):
        sim = Simulator()
        locks = LockManager(sim)

        def proc():
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)
            yield from locks.acquire(1, "k", LockMode.SHARED)

        sim.run_process(proc())
        assert locks.total_waits == 0

    def test_upgrade_sole_reader(self):
        sim = Simulator()
        locks = LockManager(sim)

        def proc():
            yield from locks.acquire(1, "k", LockMode.SHARED)
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)

        sim.run_process(proc())
        assert locks.total_waits == 0

    def test_timeout_aborts_waiter(self):
        sim = Simulator()
        locks = LockManager(sim, timeout_us=10)
        outcome = []

        def holder():
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)
            yield sim.timeout(1000)  # hold way past the waiter's budget
            locks.release_all(1)

        def waiter():
            yield sim.timeout(1)
            try:
                yield from locks.acquire(2, "k", LockMode.EXCLUSIVE)
                outcome.append("granted")
            except TxnAborted:
                outcome.append("aborted")

        sim.process(holder())
        sim.process(waiter())
        sim.run()
        assert outcome == ["aborted"]
        assert locks.total_timeouts == 1

    def test_fifo_no_barging(self):
        sim = Simulator()
        locks = LockManager(sim)
        order = []

        def writer():
            yield from locks.acquire(1, "k", LockMode.EXCLUSIVE)
            yield sim.timeout(10)
            locks.release_all(1)

        def waiting_writer():
            yield sim.timeout(1)
            yield from locks.acquire(2, "k", LockMode.EXCLUSIVE)
            order.append(2)
            yield sim.timeout(10)
            locks.release_all(2)

        def late_reader():
            yield sim.timeout(2)
            yield from locks.acquire(3, "k", LockMode.SHARED)
            order.append(3)
            locks.release_all(3)

        sim.process(writer())
        sim.process(waiting_writer())
        sim.process(late_reader())
        sim.run()
        assert order == [2, 3]

    def test_release_all_cleans_state(self):
        sim = Simulator()
        locks = LockManager(sim)

        def proc():
            yield from locks.acquire(1, "a", LockMode.EXCLUSIVE)
            yield from locks.acquire(1, "b", LockMode.SHARED)
            locks.release_all(1)

        sim.run_process(proc())
        assert locks.snapshot()["active_keys"] == 0

    def test_release_all_wakes_queued_keys_in_repr_order(self):
        """The wake-up order is the keys' ``repr`` order — not the order
        the keys were locked, the waiters queued, or a set iterates — so
        the schedule does not depend on PYTHONHASHSEED."""
        sim = Simulator()
        locks = LockManager(sim)
        table = ("table", "orders")
        stock = ("stock", RID(7, 2))
        district = ("district", RID(1, 0))
        quiet = [("item", RID(3, 1)), ("warehouse", 9), "zzz"]
        granted = []
        active = {}

        def holder():
            yield from locks.acquire(1, table, LockMode.EXCLUSIVE)
            yield from locks.acquire(1, stock, LockMode.EXCLUSIVE)
            yield from locks.acquire(1, district, LockMode.SHARED)
            for key in quiet:
                yield from locks.acquire(1, key, LockMode.EXCLUSIVE)
            yield sim.timeout(10)
            active["before"] = locks.snapshot()["active_keys"]
            locks.release_all(1)
            active["after"] = locks.snapshot()["active_keys"]

        def waiter(txn_id, key, mode, delay):
            yield sim.timeout(delay)
            yield from locks.acquire(txn_id, key, mode)
            granted.append((txn_id, key))

        def upgrader():
            yield sim.timeout(1)
            yield from locks.acquire(5, district, LockMode.SHARED)
            yield sim.timeout(3)  # queue behind the other waiters
            yield from locks.acquire(5, district, LockMode.EXCLUSIVE)
            granted.append((5, district))

        sim.process(holder())
        sim.process(waiter(3, table, LockMode.SHARED, 2))
        sim.process(waiter(2, stock, LockMode.EXCLUSIVE, 3))
        sim.process(upgrader())
        sim.run()
        assert granted == [(5, district), (2, stock), (3, table)]
        assert [key for __, key in granted] == sorted(
            [table, stock, district], key=repr)
        assert locks.total_waits == 3
        # The quiet keys are gone; each queued key is held by its waiter.
        assert active == {"before": 6, "after": 3}


class TestRWLock:
    def test_readers_share(self):
        sim = Simulator()
        latch = RWLock(sim)
        active = []

        def reader(name):
            yield from latch.acquire_read()
            active.append(name)
            yield sim.timeout(10)
            latch.release_read()

        sim.process(reader("a"))
        sim.process(reader("b"))
        sim.run()
        assert sim.now == 10  # fully overlapped

    def test_writer_excludes_readers(self):
        sim = Simulator()
        latch = RWLock(sim)
        log = []

        def writer():
            yield from latch.acquire_write()
            log.append(("w", sim.now))
            yield sim.timeout(10)
            latch.release_write()

        def reader():
            yield sim.timeout(1)
            yield from latch.acquire_read()
            log.append(("r", sim.now))
            latch.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert log == [("w", 0), ("r", 10)]

    def test_fair_queue_writer_not_starved(self):
        sim = Simulator()
        latch = RWLock(sim)
        log = []

        def long_reader():
            yield from latch.acquire_read()
            yield sim.timeout(10)
            latch.release_read()

        def writer():
            yield sim.timeout(1)
            yield from latch.acquire_write()
            log.append(("w", sim.now))
            yield sim.timeout(5)
            latch.release_write()

        def late_reader():
            yield sim.timeout(2)
            yield from latch.acquire_read()
            log.append(("r", sim.now))
            latch.release_read()

        sim.process(long_reader())
        sim.process(writer())
        sim.process(late_reader())
        sim.run()
        assert log == [("w", 10), ("r", 15)]

    def test_release_without_acquire_raises(self):
        latch = RWLock(Simulator())
        with pytest.raises(RuntimeError):
            latch.release_read()
        with pytest.raises(RuntimeError):
            latch.release_write()
