"""Concurrency stress tests: FTLs under overlapping DES operations.

Black-box devices run several FTL operations in flight at once
(controller slots); these tests hammer each FTL with concurrent
writers/readers over disjoint key ranges (so the oracle is exact) and
assert linearizable behaviour: a committed write is never lost and never
shadowed by an older version.

These exact tests caught real interleaving bugs during development
(merge/log-entry retirement ordering, in-place invalidation ordering),
so they guard the trickiest part of the FTL implementations.
"""

import random

import pytest

from repro.device import BlockDevice
from repro.flash import (
    FaultPlan,
    FaultSpec,
    FlashArray,
    Geometry,
    MLC_TIMING,
    SimExecutor,
    SimFlashDevice,
)
from repro.ftl import DFTL, FASTer, PageMapFTL
from repro.sim import Simulator

GEO = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=16,
    pages_per_block=8,
    page_bytes=512,
)

WORKERS = 8
STEPS = 350


def _stress(make_ftl, seed, controller_slots=4, fault_plan=None):
    sim = Simulator()
    array = FlashArray(GEO, MLC_TIMING, fault_plan=fault_plan)
    executor = SimExecutor(SimFlashDevice(sim, array))
    ftl = make_ftl()
    device = BlockDevice(sim, ftl, executor,
                         controller_slots=controller_slots)
    span = int(ftl.logical_pages * 0.85)
    problems = []

    def worker(wid):
        rng = random.Random(seed * 100 + wid)
        mine = {}
        count = span // WORKERS
        for step in range(STEPS):
            key = rng.randrange(count)
            lpn = key * WORKERS + wid  # disjoint ranges: exact oracle
            if lpn >= span:
                continue
            if rng.random() < 0.4 and lpn in mine:
                got = yield from device.read(lpn)
                if got is None or got[1] != mine[lpn]:
                    problems.append((wid, lpn, got, mine[lpn]))
            else:
                version = (wid << 20) | step
                yield from device.write(lpn, data=(lpn, version))
                mine[lpn] = version

    for wid in range(WORKERS):
        sim.process(worker(wid))
    sim.run()
    return problems


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_faster_linearizable_under_concurrency(seed):
    problems = _stress(
        lambda: FASTer(GEO, op_ratio=0.12),
        seed,
    )
    assert problems == []


@pytest.mark.parametrize("seed,die,window", [
    (0, 3, (327, 629)),
    (1, 2, (7883, 8076)),
    (2, 0, (5094, 5429)),
    (3, 3, (2409, 2539)),
])
def test_faster_linearizable_through_a_die_outage(seed, die, window):
    """Concurrent operations on one die outlive a rejected program: a
    later page of its block may be programmed, or the page itself read,
    before the retry.  FASTer must neither program its log or data
    blocks out of order nor read the page it never programmed."""
    plan = FaultPlan([FaultSpec(kind="die_outage", die=die, window=window)], seed=0)
    problems = _stress(lambda: FASTer(GEO, op_ratio=0.12), seed, fault_plan=plan)
    assert problems == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pagemap_linearizable_under_concurrency(seed):
    problems = _stress(
        lambda: PageMapFTL(GEO, op_ratio=0.12),
        seed,
    )
    assert problems == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dftl_linearizable_under_concurrency(seed):
    problems = _stress(
        lambda: DFTL(GEO, op_ratio=0.12, cmt_entries=32,
                     entries_per_translation_page=64),
        seed,
    )
    assert problems == []
