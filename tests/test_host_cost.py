"""Deterministic host-cost witnesses: Python calls per op on a replay rig
and per commit on the golden DES rig.

Wall-clock throughput of a pure-Python simulator is noisy, but the number
of Python function calls a deterministic run makes is exact: a fixed
seed gives a fixed command stream and a fixed call count.  This test
counts, under :mod:`cProfile`, the calls into functions defined under
``src/repro`` over a steady-state window of a replay-shaped NoFTL rig —
the ``replay_gc_noftl`` shape: 80/20-skewed 70/25/5 write/read/trim
ops at 85 % fill with GC running — and divides by the ops.

Comprehension frames (``<listcomp>``, ``<genexpr>``, …) are left out:
Python 3.12 inlines some of them, and they are not calls in the source.
Every generator resume is a call here, so an extra ``yield from`` layer
on the per-command path shows up at once.

The second witness counts the same calls per commit over the measured
window of :mod:`tests.test_golden_rig`'s TPC-B rig: the whole
DBMS-on-NoFTL path (kernel, buffer pool, db-writers, NoFTL, flash).

The third counts them per commit on a cached TPC-C rig, shaped like the
stack benchmark's ``tpcc_cached``: the buffer pool holds every page, so
the window never reads the device and its calls are the record path
(heap, B-tree, locks, WAL appends, CPU charges) and the kernel.

:data:`CALLS_PER_OP`, :data:`CALLS_PER_COMMIT` and
:data:`CALLS_PER_CACHED_COMMIT` are the recorded values; the bound allows
2 % above each.  A change that lowers a count should lower its record
with it.  If an interpreter changes the count, skip the test on that
version rather than loosen the bound.
"""

import cProfile
import gc
import os
import pstats
import random

import repro
from repro.bench.rigs import (
    attach_database,
    build_noftl_rig,
    build_sync_noftl,
    geometry_for_footprint,
    measure_workload_footprint,
    sized_geometry,
)
from repro.core import NoFTLConfig
from repro.workloads import TPCC, run_workload
from tests.test_golden_rig import load_golden_rig, run_golden_window

PAGES = 6000
WARM_OPS = 10_000
WINDOW_OPS = 4_000
#: Recorded calls per op over the window.
CALLS_PER_OP = 41.1245
#: Recorded calls per commit over the golden rig's window (600.29 before
#: tracing became opt-in and the db-writers counted their own dirty
#: frames; 561.38 before buffer hits and lock grants stopped yielding).
CALLS_PER_COMMIT = 450.7595
#: Recorded calls per commit over the cached TPC-C rig's window (1,379.64
#: before buffer hits and lock grants stopped yielding, CPU charges built
#: their timeouts directly and a lock release sorted only queued keys).
CALLS_PER_CACHED_COMMIT = 924.7939
TOLERANCE = 0.02

CACHED_DIES = 4
CACHED_WINDOW_US = 40_000.0

_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_REPRO_ROOT = os.path.join(os.path.dirname(repro.__file__), "")


def _rig_and_ops(seed: int = 6):
    geometry = geometry_for_footprint(PAGES, utilization=0.85, op_ratio=0.12, dies=2)
    storage, __ = build_sync_noftl(geometry, config=NoFTLConfig(op_ratio=0.12), seed=11)
    rng = random.Random(seed)
    order = list(range(PAGES))
    rng.shuffle(order)
    hot = PAGES // 5
    hint = {lpn: "hot" for lpn in order[:hot]}
    for lpn in range(PAGES):
        storage.write(lpn, hint=hint.get(lpn, "cold"))
    ops = []
    for __ in range(WARM_OPS + WINDOW_OPS):
        if rng.random() < 0.8:
            lpn = order[rng.randrange(hot)]
        else:
            lpn = order[hot + rng.randrange(PAGES - hot)]
        draw = rng.random()
        kind = "read" if draw < 0.25 else "write" if draw < 0.95 else "trim"
        ops.append((kind, lpn, hint.get(lpn, "cold")))
    return storage, ops


def _replay(storage, ops):
    for kind, lpn, hint in ops:
        if kind == "write":
            storage.write(lpn, hint=hint)
        elif kind == "read":
            storage.read(lpn)
        else:
            storage.trim(lpn)


def _repro_calls(profile: cProfile.Profile) -> int:
    calls = 0
    for (path, __, name), stat in pstats.Stats(profile).stats.items():
        if path.startswith(_REPRO_ROOT) and name not in _COMPREHENSIONS:
            calls += stat[1]  # total calls, recursive ones included
    return calls


def _profiled(window):
    """Run ``window()`` under cProfile; return its result and the repro
    calls it made.  Earlier rigs' garbage is collected first, so none of
    their generators is finalised, and counted, inside the window."""
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    result = window()
    profile.disable()
    return result, _repro_calls(profile)


def _calls_per_op() -> float:
    storage, ops = _rig_and_ops()
    _replay(storage, ops[:WARM_OPS])
    __, calls = _profiled(lambda: _replay(storage, ops[WARM_OPS:]))
    return calls / WINDOW_OPS


def _calls_per_commit() -> float:
    rig, db, workload = load_golden_rig()
    stats, calls = _profiled(lambda: run_golden_window(rig, db, workload))
    return calls / stats.commits


def _calls_per_cached_commit() -> float:
    workload = TPCC(warehouses=1, customers_per_district=20, items=80)
    footprint = measure_workload_footprint(workload)
    headroom = footprint  # what the window inserts fits several times
    geometry = sized_geometry(footprint, CACHED_DIES, utilization=0.85,
                              headroom_pages=headroom)
    rig = build_noftl_rig(
        geometry=geometry,
        config=NoFTLConfig(num_regions=CACHED_DIES, op_ratio=0.12),
        seed=11,
    )
    # Eight times the loaded data plus the headroom, as ``tpcc_cached``
    # sizes it: every page the window touches or inserts stays resident.
    db = attach_database(rig, buffer_capacity=8 * footprint + headroom,
                         foreground_flush=False)
    db.start_writers(CACHED_DIES, policy="region")
    rig.sim.run_process(workload.load(db))
    misses = db.buffer.misses
    stats, calls = _profiled(lambda: run_workload(
        rig.sim, db, workload, duration_us=CACHED_WINDOW_US,
        num_terminals=8, rng=random.Random(3), preloaded=True))
    assert db.buffer.misses == misses, "the cached rig read the device"
    return calls / stats.commits


def test_calls_per_op_is_exact_and_within_the_record():
    first, second = _calls_per_op(), _calls_per_op()
    assert first == second, "the call count is not deterministic"
    assert first <= CALLS_PER_OP * (1 + TOLERANCE), (
        f"{first:.4f} calls per op, recorded {CALLS_PER_OP}"
    )


def test_calls_per_commit_is_exact_and_within_the_record():
    first, second = _calls_per_commit(), _calls_per_commit()
    assert first == second, "the call count is not deterministic"
    assert first <= CALLS_PER_COMMIT * (1 + TOLERANCE), (
        f"{first:.4f} calls per commit, recorded {CALLS_PER_COMMIT}"
    )


def test_calls_per_cached_commit_is_exact_and_within_the_record():
    first, second = _calls_per_cached_commit(), _calls_per_cached_commit()
    assert first == second, "the call count is not deterministic"
    assert first <= CALLS_PER_CACHED_COMMIT * (1 + TOLERANCE), (
        f"{first:.4f} calls per commit, recorded {CALLS_PER_CACHED_COMMIT}"
    )
