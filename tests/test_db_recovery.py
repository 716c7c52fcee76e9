"""Crash-recovery tests: WAL redo/undo over surviving NoFTL flash.

The full crash story: the host dies mid-workload; the flash array (and
the durable prefix of the WAL) survive.  Recovery is two-staged, as in
the NoFTL design: the storage manager rebuilds its mapping from the OOB
metadata, then the engine replays the WAL — redo for winners, undo for
losers.
"""

import random

import pytest

from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.db import Database, cold_start
from repro.flash import (
    FlashArray,
    Geometry,
    SLC_TIMING,
    SimExecutor,
    SimFlashDevice,
)
from repro.sim import Simulator

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=16,
    page_bytes=1024,
)


def make_db(array=None, sim=None):
    sim = sim or Simulator()
    array = array or FlashArray(GEO, SLC_TIMING)
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(GEO, NoFTLConfig(op_ratio=0.25))
    storage = NoFTLStorage(sim, manager, executor)
    db = Database(sim, storage,
                  page_bytes=GEO.page_bytes, buffer_capacity=24,
                  cpu_us_per_op=1.0, wal_keep_records=True)
    return sim, db, manager, array


def crash_and_recover(old_sim, old_db, array, rebuild_schema):
    """Simulate a host crash through the product cold-start path: only
    the flash array and the durable WAL prefix survive — no pre-crash
    in-memory state (allocator, free list, mapping) is consulted.
    Returns the recovered (sim, db, report)."""
    boot = cold_start(
        array, GEO, list(old_db.wal.records), old_db.wal.flushed_lsn,
        rebuild_schema,
        config=NoFTLConfig(op_ratio=0.25),
        buffer_capacity=24,
    )
    return boot.sim, boot.db, boot.recovery


class TestHeapRecovery:
    def test_committed_inserts_survive_even_if_never_flushed(self):
        sim, db, manager, array = make_db()
        heap = db.create_heap("t")

        def work():
            txn = db.begin()
            rids = []
            for index in range(60):
                rid = yield from heap.insert(txn, b"row-%03d" % index)
                rids.append(rid)
            yield from db.commit(txn)
            return rids

        rids = sim.run_process(work())
        # crash WITHOUT checkpoint: some pages only exist in the log

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        sim2, db2, report = crash_and_recover(sim, db, array, rebuild)
        assert report.redo_applied > 0

        def verify():
            txn = db2.begin()
            values = []
            for rid in rids:
                value = yield from db2.heaps["t"].read(txn, rid)
                values.append(value)
            yield from db2.commit(txn)
            return values

        values = sim2.run_process(verify())
        assert values == [b"row-%03d" % i for i in range(60)]

    def test_uncommitted_changes_rolled_back(self):
        sim, db, manager, array = make_db()
        heap = db.create_heap("t")

        def work():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"committed")
            yield from db.commit(txn)

            loser = db.begin()
            yield from heap.update(loser, rid, b"dirty-own")
            loser_rid = yield from heap.insert(loser, b"loser-row")
            # force the dirty page to flash (STEAL) before the crash
            yield from db.buffer.flush_page(rid.page_id)
            # ... and make the log durable up to here WITHOUT a commit
            yield from db.wal.flush_to(db.wal.appended_lsn)
            return rid, loser_rid

        rid, loser_rid = sim.run_process(work())

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        sim2, db2, report = crash_and_recover(sim, db, array, rebuild)
        assert report.loser_txns
        assert report.undo_applied > 0

        def verify():
            txn = db2.begin()
            value = yield from db2.heaps["t"].read(txn, rid)
            try:
                yield from db2.heaps["t"].read(txn, loser_rid)
                loser_state = "present"
            except KeyError:
                loser_state = "gone"
            yield from db2.commit(txn)
            return value, loser_state

        value, loser_state = sim2.run_process(verify())
        assert value == b"committed"  # dirty flushed page rolled back
        assert loser_state == "gone"

    def test_unflushed_log_tail_is_lost(self):
        """Changes whose commit record never reached the log device do
        not survive — durability is exactly the flushed LSN."""
        sim, db, manager, array = make_db()
        heap = db.create_heap("t")

        def work():
            txn = db.begin()
            rid = yield from heap.insert(txn, b"durable")
            yield from db.commit(txn)
            durable_lsn = db.wal.flushed_lsn
            # appended but never flushed: lost at the crash
            txn2 = db.begin()
            rid2 = yield from heap.insert(txn2, b"volatile")
            lsn = db.wal.append("commit", txn2.txn_id)
            txn2.state = "committed"
            return rid, rid2, durable_lsn

        rid, rid2, durable_lsn = sim.run_process(work())
        records = [r for r in db.wal.records]

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        boot = cold_start(array, GEO, records, durable_lsn, rebuild,
                          config=NoFTLConfig(op_ratio=0.25),
                          buffer_capacity=24)
        sim2, db2, report = boot.sim, boot.db, boot.recovery

        def verify():
            txn = db2.begin()
            value = yield from db2.heaps["t"].read(txn, rid)
            try:
                yield from db2.heaps["t"].read(txn, rid2)
                return value, "volatile-survived"
            except (KeyError, Exception):
                return value, "volatile-lost"

        value, volatile = sim2.run_process(verify())
        assert value == b"durable"
        assert volatile == "volatile-lost"


class TestIndexRecovery:
    def test_index_rebuilt_logically(self):
        sim, db, manager, array = make_db()
        heap = db.create_heap("t")

        def work():
            index = yield from db.create_index("idx")
            txn = db.begin()
            from repro.db import pack_rid
            for key in range(40):
                rid = yield from heap.insert(txn, b"k%03d" % key)
                yield from index.insert(txn, key, pack_rid(rid))
            yield from index.delete(txn, 7)
            yield from db.commit(txn)

        sim.run_process(work())

        def rebuild(new_db):
            new_db.create_heap("t")
            yield from new_db.create_index("idx")

        sim2, db2, report = crash_and_recover(sim, db, array, rebuild)
        assert report.index_ops_replayed > 0

        def verify():
            txn = db2.begin()
            index = db2.indexes["idx"]
            hits = []
            for key in range(40):
                value = yield from index.lookup(txn, key)
                hits.append(value is not None)
            yield from db2.commit(txn)
            return hits

        hits = sim2.run_process(verify())
        assert hits[7] is False     # deleted key stays deleted
        assert all(hits[:7]) and all(hits[8:])


class TestRandomizedCrashes:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_point_crash_preserves_committed_prefix(self, seed):
        sim, db, manager, array = make_db()
        heap = db.create_heap("t")
        rng = random.Random(seed)
        oracle = {}

        def work():
            rids = []
            for batch in range(12):
                txn = db.begin()
                changes = {}
                for __ in range(8):
                    if rids and rng.random() < 0.5:
                        rid = rng.choice(rids)
                        value = b"u-%d-%d" % (batch, rng.randrange(999))
                        yield from heap.update(txn, rid, value)
                        changes[rid] = value
                    else:
                        value = b"i-%d-%d" % (batch, len(rids))
                        rid = yield from heap.insert(txn, value)
                        rids.append(rid)
                        changes[rid] = value
                yield from db.commit(txn)
                oracle.update(changes)

        sim.run_process(work())

        def rebuild(new_db):
            new_db.create_heap("t")
            return
            yield

        sim2, db2, report = crash_and_recover(sim, db, array, rebuild)

        def verify():
            txn = db2.begin()
            for rid, expected in oracle.items():
                value = yield from db2.heaps["t"].read(txn, rid)
                assert value == expected, (rid, value, expected)
            yield from db2.commit(txn)

        sim2.run_process(verify())
