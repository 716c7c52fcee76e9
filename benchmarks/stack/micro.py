"""Layer micro calls: fixed-count, fixed-seed direct calls into each
layer's public API on a tiny rig, reported as host nanoseconds per call.

Each entry prepares a tiny rig and returns ``(hot, calls)``; :func:`run_all`
times ``hot()`` alone (best of three rounds, each on a fresh rig) and divides.
Counts are sized so one round stays well under 0.1 s on this class of
machine; ``scale`` shrinks them for the smoke pass.
"""

from __future__ import annotations

import random
import time

from repro.bench.rigs import build_sync_noftl
from repro.core import NoFTLConfig
from repro.db import Database, RAMStorageAdapter, SlottedPage, WALog
from repro.device import DeviceFrontend, FrontendConfig
from repro.flash import (
    MLC_TIMING,
    EraseBlock,
    FlashArray,
    Geometry,
    ProgramPage,
    ReadPage,
    SyncFlashDevice,
)
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry

ROUNDS = 3
PAGE_BYTES = 2048
TINY = Geometry(channels=1, chips_per_channel=1, dies_per_chip=2,
                planes_per_die=2, blocks_per_plane=16, pages_per_block=32,
                page_bytes=PAGE_BYTES)


def _sim_timeout(count):
    sim = Simulator()

    def ticker():
        for __ in range(count):
            yield sim.timeout(1.0)

    sim.process(ticker())
    return sim.run, count


def _sim_dispatch(count):
    sim = Simulator()

    def spinner():
        for __ in range(count):
            yield sim.timeout(0)

    sim.process(spinner())
    return sim.run, count


def _flash_array_cmd(count):
    device = SyncFlashDevice(FlashArray(TINY, MLC_TIMING, store_data=False,
                                        rng=random.Random(0)))
    execute = device.execute
    per_sweep = 2 * TINY.total_pages + TINY.total_blocks
    sweeps = max(1, count // per_sweep)

    def hot():
        for sweep in range(sweeps):
            for ppn in range(TINY.total_pages):
                execute(ProgramPage(ppn=ppn, oob=(ppn, sweep)))
            for ppn in range(TINY.total_pages):
                execute(ReadPage(ppn=ppn))
            for pbn in range(TINY.total_blocks):
                execute(EraseBlock(pbn=pbn))

    return hot, sweeps * per_sweep


def _sync_noftl(fill_share):
    storage, __ = build_sync_noftl(TINY, config=NoFTLConfig(op_ratio=0.12),
                                   seed=0)
    pages = int(storage.logical_pages * fill_share)
    for lpn in range(pages):
        storage.write(lpn)
    return storage, pages


def _manager_write(count):
    # First writes into an empty device: no GC runs.
    storage, __ = _sync_noftl(0.0)
    count = min(count, storage.logical_pages // 2)
    write = storage.write

    def hot():
        for lpn in range(count):
            write(lpn)

    return hot, count


def _manager_read(count):
    storage, pages = _sync_noftl(0.5)
    read = storage.read

    def hot():
        for index in range(count):
            read(index % pages)

    return hot, count


def _manager_trim(count):
    storage, pages = _sync_noftl(0.5)
    trim = storage.trim

    def hot():
        for index in range(count):
            trim(index % pages)

    return hot, count


def _pagespace_write_gc(count):
    # Random overwrites of an 85 % full device: every few writes pay a
    # GC collection (victim pick, copybacks, erase).
    storage, pages = _sync_noftl(0.85)
    rng = random.Random(0)
    targets = [rng.randrange(pages) for __ in range(count)]
    write = storage.write

    def hot():
        for lpn in targets:
            write(lpn)

    return hot, count


def _tiny_db(buffer_capacity):
    sim = Simulator()
    ram = RAMStorageAdapter(sim, logical_pages=4096, latency_us=1.0)
    db = Database(sim, ram, page_bytes=PAGE_BYTES,
                  buffer_capacity=buffer_capacity, cpu_us_per_op=0.0,
                  wal_flush_latency_us=1.0)
    return sim, db


def _buffer_fetch(count, span):
    """fetch+unpin cycling over ``span`` of 128 pages on a 64-frame LRU
    pool: a span of 32 always hits, the full 128 always misses."""
    sim, db = _tiny_db(buffer_capacity=64)
    buffer = db.buffer

    def populate():
        for page_id in range(128):
            yield from buffer.new_page(page_id,
                                       SlottedPage(page_id, PAGE_BYTES))
            buffer.unpin(page_id)
        yield from buffer.flush_all()
        for page_id in range(span):
            yield from buffer.fetch(page_id)
            buffer.unpin(page_id)

    sim.run_process(populate())

    def fetcher():
        for index in range(count):
            page_id = index % span
            yield from buffer.fetch(page_id)
            buffer.unpin(page_id)

    sim.process(fetcher())
    return sim.run, count


def _buffer_hit(count):
    return _buffer_fetch(count, span=32)


def _buffer_miss(count):
    return _buffer_fetch(count, span=128)


def _wal_group_commit(count):
    sim = Simulator()
    wal = WALog(sim, flush_latency_us=1.0)
    committers = 4  # so flushes really are shared

    def committer(txn_id):
        for __ in range(count // committers):
            for ___ in range(4):
                lsn = wal.append("update", txn_id)
            yield from wal.flush_to(lsn)

    for txn_id in range(committers):
        sim.process(committer(txn_id))
    return sim.run, count // committers * committers


def _btree(count, lookups):
    sim, db = _tiny_db(buffer_capacity=512)
    index = sim.run_process(db.create_index("micro"))
    keys = random.Random(0).sample(range(1 << 40), count)
    txn = db.begin()

    def fill():
        for key in keys:
            yield from index.insert(txn, key, key & 0xFFFF)

    def probe():
        for key in keys:
            yield from index.lookup(txn, key)

    if lookups:
        sim.run_process(fill())
        sim.process(probe())
    else:
        sim.process(fill())
    return sim.run, count


def _btree_insert(count):
    return _btree(count, lookups=False)


def _btree_lookup(count):
    return _btree(count, lookups=True)


def _page_roundtrip(count):
    page = SlottedPage(7, PAGE_BYTES)
    record = bytes(range(100))
    for __ in range(12):
        page.insert(record)
    raw = page.to_bytes()

    def hot():
        for __ in range(count):
            # The insert invalidates the cached image: to_bytes encodes.
            decoded = SlottedPage.from_bytes(raw)
            decoded.insert(record)
            decoded.to_bytes()

    return hot, count


def _frontend_admit(count):
    sim = Simulator()
    ram = RAMStorageAdapter(sim, logical_pages=4096, latency_us=1.0)
    frontend = DeviceFrontend(sim, ram, FrontendConfig(),
                              telemetry=MetricsRegistry())

    def submitter():
        for index in range(count):
            lpn = index % 1024
            if index % 4 == 3:
                yield from frontend.read(lpn)
            else:
                yield from frontend.write(lpn, data=index)
        yield from frontend.flush_barrier()

    sim.process(submitter())
    return sim.run, count


def _counter_inc(count):
    inc = MetricsRegistry().counter("micro.counter", layer="micro").inc

    def hot():
        for __ in range(count):
            inc()

    return hot, count


def _histogram_observe(count):
    observe = MetricsRegistry().histogram("micro.histogram",
                                          layer="micro").observe

    def hot():
        for index in range(count):
            observe(index)

    return hot, count


#: metric name -> (prepare(count) -> (hot, calls), count at scale 1)
MICROS = {
    "micro.sim.dispatch_ns": (_sim_dispatch, 60_000),
    "micro.sim.timeout_ns": (_sim_timeout, 40_000),
    "micro.flash.array_cmd_ns": (_flash_array_cmd, 12_000),
    "micro.ftl.pagespace_write_gc_ns": (_pagespace_write_gc, 3_000),
    "micro.core.manager_write_ns": (_manager_write, 1_500),
    "micro.core.manager_read_ns": (_manager_read, 6_000),
    "micro.core.manager_trim_ns": (_manager_trim, 20_000),
    "micro.device.frontend_admit_ns": (_frontend_admit, 4_000),
    "micro.db.buffer_hit_ns": (_buffer_hit, 40_000),
    "micro.db.buffer_miss_ns": (_buffer_miss, 3_000),
    "micro.db.wal_group_commit_ns": (_wal_group_commit, 16_000),
    "micro.db.btree_lookup_ns": (_btree_lookup, 4_000),
    "micro.db.btree_insert_ns": (_btree_insert, 3_000),
    "micro.db.page_roundtrip_ns": (_page_roundtrip, 3_000),
    "micro.telemetry.counter_inc_ns": (_counter_inc, 300_000),
    "micro.telemetry.histogram_observe_ns": (_histogram_observe, 100_000),
}


def run_all(scale: float = 1.0) -> dict:
    """``{metric name: host ns per call}``, best of :data:`ROUNDS`."""
    out = {}
    for name, (prepare, count) in MICROS.items():
        best = None
        for __ in range(ROUNDS):
            hot, calls = prepare(max(16, int(count * scale)))
            started = time.perf_counter()
            hot()
            per_call = (time.perf_counter() - started) * 1e9 / calls
            best = per_call if best is None else min(best, per_call)
        out[name] = best
    return out
