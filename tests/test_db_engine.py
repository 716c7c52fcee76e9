"""Integration tests: heaps, B+-trees, transactions, db-writers — over RAM
and over NoFTL-managed flash (full-stack durability)."""

import random

import pytest

from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.db import (
    Database,
    DuplicateKeyError,
    RAMStorageAdapter,
    RID,
    pack_rid,
    unpack_rid,
)
from repro.flash import FlashArray, Geometry, SLC_TIMING, SimExecutor, SimFlashDevice
from repro.sim import Simulator

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=32,
    pages_per_block=16,
    page_bytes=1024,
)


def make_ram_db(buffer_capacity=32):
    sim = Simulator()
    storage = RAMStorageAdapter(sim, logical_pages=4096, latency_us=5.0)
    db = Database(sim, storage, page_bytes=1024,
                  buffer_capacity=buffer_capacity, cpu_us_per_op=1.0)
    return sim, db


GEO_SMALL = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=8,
    pages_per_block=8,
    page_bytes=1024,
)


def make_noftl_db(buffer_capacity=32, config=None, geometry=GEO):
    sim = Simulator()
    array = FlashArray(geometry, SLC_TIMING)
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(geometry,
                                  config or NoFTLConfig(op_ratio=0.25))
    storage = NoFTLStorage(sim, manager, executor)
    db = Database(sim, storage, page_bytes=1024,
                  buffer_capacity=buffer_capacity, cpu_us_per_op=1.0)
    return sim, db, manager, array


class TestRIDPacking:
    def test_roundtrip(self):
        rid = RID(12345, 17)
        assert unpack_rid(pack_rid(rid)) == rid

    def test_slot_boundary(self):
        rid = RID(1, 0xFFFF)
        assert unpack_rid(pack_rid(rid)) == rid


class TestHeapTransactions:
    def test_insert_read_commit(self):
        sim, db = make_ram_db()
        heap = db.create_heap("t")

        def proc():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"hello")
            yield from db.commit(txn)
            reader = db.begin()
            value = yield from heap.read(reader, rid)
            yield from db.commit(reader)
            return value

        assert sim.run_process(proc()) == b"hello"
        assert db.txn_manager.commits == 2

    def test_update_and_delete(self):
        sim, db = make_ram_db()
        heap = db.create_heap("t")

        def proc():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"v1")
            yield from heap.update(txn, rid, b"v2")
            yield from db.commit(txn)
            txn2 = db.begin()
            value = yield from heap.read(txn2, rid)
            yield from heap.delete(txn2, rid)
            yield from db.commit(txn2)
            txn3 = db.begin()
            try:
                yield from heap.read(txn3, rid)
                return value, "still-there"
            except KeyError:
                return value, "gone"

        assert sim.run_process(proc()) == (b"v2", "gone")

    def test_abort_undoes_everything(self):
        sim, db = make_ram_db()
        heap = db.create_heap("t")

        def proc():
            setup = db.begin()
            rid = yield from heap.insert(setup, b"original")
            yield from db.commit(setup)

            txn = db.begin()
            yield from heap.update(txn, rid, b"mutated")
            new_rid = yield from heap.insert(txn, b"extra")
            yield from heap.delete(txn, rid)
            yield from db.abort(txn)

            check = db.begin()
            value = yield from heap.read(check, rid)
            try:
                yield from heap.read(check, new_rid)
                extra = "present"
            except KeyError:
                extra = "absent"
            return value, extra

        assert sim.run_process(proc()) == (b"original", "absent")
        assert db.txn_manager.aborts == 1

    def test_scan_returns_all_records(self):
        sim, db = make_ram_db()
        heap = db.create_heap("t")

        def proc():
            txn = db.begin()
            expected = set()
            for index in range(200):
                record = f"row-{index}".encode()
                yield from heap.insert(txn, record)
                expected.add(record)
            yield from db.commit(txn)
            txn2 = db.begin()
            rows = yield from heap.scan(txn2)
            yield from db.commit(txn2)
            return expected, {record for __, record in rows}

        expected, got = sim.run_process(proc())
        assert got == expected
        assert len(heap.page_ids) > 1  # spilled across pages

    def test_record_locks_serialize_writers(self):
        sim, db = make_ram_db()
        heap = db.create_heap("t")
        order = []

        def setup():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"shared")
            yield from db.commit(txn)
            return rid

        rid_holder = []

        def writer(name, delay, hold):
            yield sim.timeout(delay)
            txn = db.begin()
            yield from heap.update(txn, rid_holder[0], name.encode())
            order.append((name, "locked", sim.now))
            yield sim.timeout(hold)
            yield from db.commit(txn)
            order.append((name, "committed", sim.now))

        def main():
            rid = yield from setup()
            rid_holder.append(rid)

        sim.run_process(main())
        sim.process(writer("a", 0, 500))
        sim.process(writer("b", 10, 0))
        sim.run()
        assert [entry[0] for entry in order] == ["a", "a", "b", "b"]
        # b could not lock until a committed
        assert order[2][2] >= order[1][2]


class TestBTree:
    def test_insert_lookup(self):
        sim, db = make_ram_db()

        def proc():
            index = yield from db.create_index("idx")
            txn = db.begin()
            yield from index.insert(txn, 42, 4242)
            yield from db.commit(txn)
            txn2 = db.begin()
            value = yield from index.lookup(txn2, 42)
            missing = yield from index.lookup(txn2, 43)
            return value, missing

        assert sim.run_process(proc()) == (4242, None)

    def test_duplicate_key_rejected(self):
        sim, db = make_ram_db()

        def proc():
            index = yield from db.create_index("idx")
            txn = db.begin()
            yield from index.insert(txn, 1, 10)
            with pytest.raises(DuplicateKeyError):
                yield from index.insert(txn, 1, 20)

        sim.run_process(proc())

    def test_many_inserts_split_and_stay_sorted(self):
        sim, db = make_ram_db(buffer_capacity=64)
        rng = random.Random(3)
        keys = list(range(500))
        rng.shuffle(keys)

        def proc():
            index = yield from db.create_index("idx")
            txn = db.begin()
            for key in keys:
                yield from index.insert(txn, key, key * 2)
            yield from db.commit(txn)
            txn2 = db.begin()
            everything = yield from index.range(txn2, 0, 10_000)
            sample = yield from index.lookup(txn2, 321)
            return everything, sample, index.height

        everything, sample, height = sim.run_process(proc())
        assert [key for key, __ in everything] == sorted(keys)
        assert all(value == key * 2 for key, value in everything)
        assert sample == 642
        assert height >= 2  # actually split

    def test_range_bounds_inclusive(self):
        sim, db = make_ram_db()

        def proc():
            index = yield from db.create_index("idx")
            txn = db.begin()
            for key in (10, 20, 30, 40):
                yield from index.insert(txn, key, key)
            result = yield from index.range(txn, 20, 30)
            return result

        assert sim.run_process(proc()) == [(20, 20), (30, 30)]

    def test_delete_and_undo(self):
        sim, db = make_ram_db()

        def proc():
            index = yield from db.create_index("idx")
            setup = db.begin()
            yield from index.insert(setup, 5, 55)
            yield from db.commit(setup)

            txn = db.begin()
            value = yield from index.delete(txn, 5)
            yield from db.abort(txn)

            check = db.begin()
            restored = yield from index.lookup(check, 5)
            return value, restored

        assert sim.run_process(proc()) == (55, 55)


class TestDbWriters:
    def test_writers_clean_dirty_pages_in_background(self):
        sim, db = make_ram_db(buffer_capacity=64)
        heap = db.create_heap("t")
        db.start_writers(2, policy="global")

        def proc():
            txn = db.begin()
            for index in range(100):
                yield from heap.insert(txn, f"row-{index}".encode())
            yield from db.commit(txn)

        sim.process(proc())
        sim.run(until=300_000)  # writers poll forever: bound the clock
        assert sum(db.writers.pages_flushed) > 0
        assert db.writers.backlog() <= 2  # at most the hot tail stays dirty
        db.writers.stop()
        sim.run()

    def test_region_policy_partitions_work(self):
        sim, db, manager, __ = make_noftl_db(buffer_capacity=64)
        heap = db.create_heap("t")
        pool = db.start_writers(manager.num_regions, policy="region")

        def proc():
            txn = db.begin()
            for index in range(200):
                yield from heap.insert(txn, f"row-{index}".encode())
            yield from db.commit(txn)

        sim.process(proc())
        sim.run(until=500_000)
        busy_writers = sum(1 for count in pool.pages_flushed if count > 0)
        assert busy_writers > 1  # work was spread across region writers
        pool.stop()
        sim.run()

    def test_writer_stop_lets_simulation_drain(self):
        sim, db = make_ram_db(buffer_capacity=32)
        db.create_heap("t")
        pool = db.start_writers(3, policy="global")
        sim.run(until=10_000)
        pool.stop()
        sim.run()  # must terminate: no writer keeps polling
        assert not any(process.is_alive for process in pool._processes)

    def test_bad_policy_rejected(self):
        sim, db = make_ram_db()
        with pytest.raises(ValueError):
            db.start_writers(2, policy="nonsense")


class TestFullStackOverNoFTL:
    def test_transactions_survive_flash_gc(self):
        sim, db, manager, array = make_noftl_db(buffer_capacity=8,
                                                geometry=GEO_SMALL)
        heap = db.create_heap("accounts")
        rng = random.Random(5)

        def proc():
            txn = db.begin()
            rids = []
            for index in range(1500):
                rid = yield from heap.insert(
                    txn, f"balance-{index:06d}:{0:06d}".encode()
                )
                rids.append(rid)
            yield from db.commit(txn)
            # update storm with a tiny buffer -> continuous write-back
            # -> flash GC underneath the database
            for round_no in range(40):
                txn = db.begin()
                for __ in range(60):
                    victim = rng.randrange(len(rids))
                    yield from heap.update(
                        txn, rids[victim],
                        f"balance-{victim:06d}:{round_no:06d}".encode()
                    )
                yield from db.commit(txn)
            yield from db.checkpoint()
            txn = db.begin()
            rows = yield from heap.scan(txn)
            yield from db.commit(txn)
            return rows

        rows = sim.run_process(proc())
        assert len(rows) == 1500
        assert manager.stats.gc_erases > 0, "GC never ran; grow the workload"
        for __, record in rows:
            assert record.startswith(b"balance-")

    def test_page_release_reaches_flash_as_trim(self):
        sim, db, manager, __ = make_noftl_db(buffer_capacity=32)
        heap = db.create_heap("victims")

        def proc():
            txn = db.begin()
            rids = []
            for index in range(120):
                rid = yield from heap.insert(txn, b"x" * 64)
                rids.append(rid)
            yield from db.commit(txn)
            txn = db.begin()
            for rid in rids:
                yield from heap.delete(txn, rid)
            yield from db.commit(txn)

        sim.run_process(proc())
        assert db.pages_released > 0
        assert manager.stats.host_trims > 0
