#!/usr/bin/env python3
"""Quickstart: a transactional database on NoFTL-managed native flash.

Builds the full stack of the paper's Figure 1.c in a few lines:

    NAND array  ->  native flash device  ->  NoFTL storage manager
                ->  buffer pool / WAL / locks (mini Shore-MT)
                ->  your transactions

and shows the flash-level effects of running a small update workload:
garbage collection with copybacks, erase counts, write amplification.

Run:  python examples/quickstart.py
"""

import random

from repro.core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from repro.db import Database
from repro.flash import (
    FlashArray,
    Geometry,
    MLC_TIMING,
    SimExecutor,
    SimFlashDevice,
)
from repro.sim import Simulator


def main():
    # --- 1. the flash device: 4 dies x 2 planes, 2 KiB pages -------------
    geometry = Geometry(
        channels=2,
        chips_per_channel=1,
        dies_per_chip=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=16,
        page_bytes=2048,
    )
    sim = Simulator()
    array = FlashArray(geometry, MLC_TIMING)
    flash = SimFlashDevice(sim, array)

    # --- 2. NoFTL: flash management inside the DBMS ----------------------
    manager = NoFTLStorageManager(
        geometry,
        NoFTLConfig(op_ratio=0.15),  # one region per die by default
    )
    storage = NoFTLStorage(sim, manager, SimExecutor(flash))

    # --- 3. the storage engine on top ------------------------------------
    db = Database(
        sim,
        storage,
        page_bytes=geometry.page_bytes,
        buffer_capacity=16,
        cpu_us_per_op=2.0,
    )
    db.start_writers(manager.num_regions, policy="region")  # flash-aware!
    accounts = db.create_heap("accounts")

    # --- 4. run transactions ---------------------------------------------
    def workload():
        rng = random.Random(7)
        txn = db.begin()
        rids = []
        for account in range(6000):
            rid = yield from accounts.insert(
                txn, f"account-{account:05d}:balance=000000".encode()
            )
            rids.append(rid)
        yield from db.commit(txn)

        for round_no in range(40):
            txn = db.begin()
            for __ in range(200):
                # 80/20 skew: a hot quarter takes most updates, the rest
                # stay valid-but-cold in the same blocks — so GC has real
                # relocation work (the realistic OLTP case)
                if rng.random() < 0.8:
                    victim = rng.randrange(len(rids) // 4)
                else:
                    victim = rng.randrange(len(rids))
                yield from accounts.update(
                    txn, rids[victim],
                    f"account-{victim:05d}:balance={round_no:06d}".encode(),
                )
            yield from db.commit(txn)
        yield from db.checkpoint()

        txn = db.begin()
        rows = yield from accounts.scan(txn)
        yield from db.commit(txn)
        return rows

    rows = sim.run_process(workload())

    # --- 5. what happened under the hood ----------------------------------
    print(f"simulated time        : {sim.now / 1e6:.2f} s")
    print(f"committed transactions: {db.txn_manager.commits}")
    print(f"rows intact           : {len(rows)}")
    print()
    stats = manager.stats
    print("NoFTL flash management")
    print(f"  host page writes    : {stats.host_writes}")
    print(f"  GC relocations      : {stats.gc_relocations} "
          f"(copybacks: {stats.gc_copybacks})")
    print(f"  GC erases           : {stats.gc_erases}")
    print(f"  write amplification : {stats.write_amplification:.3f}")
    print(f"  regions             : {manager.num_regions} (one per die)")
    wear = array.wear_summary()
    print(f"  wear (erases/block) : min={wear['min']} max={wear['max']}")
    print()
    print("buffer pool           :", db.buffer.snapshot())


if __name__ == "__main__":
    main()
