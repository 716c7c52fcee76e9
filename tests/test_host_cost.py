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

:data:`CALLS_PER_OP` and :data:`CALLS_PER_COMMIT` are the recorded
values; the bound allows 2 % above each.  A change that lowers a count
should lower its record with it.  If an interpreter changes the count,
skip the test on that version rather than loosen the bound.
"""

import cProfile
import os
import pstats
import random

import repro
from repro.bench.rigs import build_sync_noftl, geometry_for_footprint
from repro.core import NoFTLConfig
from tests.test_golden_rig import load_golden_rig, run_golden_window

PAGES = 6000
WARM_OPS = 10_000
WINDOW_OPS = 4_000
#: Recorded calls per op over the window.
CALLS_PER_OP = 41.1245
#: Recorded calls per commit over the golden rig's window (600.29 before
#: tracing became opt-in and the db-writers counted their own dirty
#: frames).
CALLS_PER_COMMIT = 562.3761
TOLERANCE = 0.02

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


def _calls_per_op() -> float:
    storage, ops = _rig_and_ops()
    _replay(storage, ops[:WARM_OPS])
    profile = cProfile.Profile()
    profile.enable()
    _replay(storage, ops[WARM_OPS:])
    profile.disable()
    return _repro_calls(profile) / WINDOW_OPS


def _calls_per_commit() -> float:
    rig, db, workload = load_golden_rig()
    profile = cProfile.Profile()
    profile.enable()
    stats = run_golden_window(rig, db, workload)
    profile.disable()
    return _repro_calls(profile) / stats.commits


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
