"""Synthetic storage-level workloads (the FIO of Demo Scenario 1).

These bypass the DBMS and drive a storage front-end directly — random or
sequential reads/writes at a configurable queue depth — for the
experiments that characterise devices rather than databases: emulator
validation (E7), latency distributions (E6) and the SATA-vs-native
concurrency comparison (E8).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..sim import LatencyRecorder, Simulator

__all__ = ["SyntheticSpec", "SyntheticResult", "run_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """One FIO-style job description.

    ``pattern`` is ``"random"`` or ``"sequential"``; ``read_fraction`` in
    [0, 1]; ``queue_depth`` concurrent submitters; ``span`` the logical
    page range touched (defaults to the whole device); ``ops`` total
    operations across all submitters.
    """

    pattern: str = "random"
    read_fraction: float = 0.0
    queue_depth: int = 1
    ops: int = 1000
    span: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in ("random", "sequential"):
            raise ValueError("pattern must be 'random' or 'sequential'")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.queue_depth < 1 or self.ops < 1:
            raise ValueError("queue_depth and ops must be >= 1")


@dataclass
class SyntheticResult:
    """Measured outcome of one job."""

    spec: SyntheticSpec
    duration_us: float
    read_latency: LatencyRecorder
    write_latency: LatencyRecorder

    @property
    def iops(self) -> float:
        total = self.read_latency.count + self.write_latency.count
        if self.duration_us <= 0:
            return 0.0
        return total / (self.duration_us / 1_000_000.0)

    def summary(self) -> dict:
        return {
            "pattern": self.spec.pattern,
            "queue_depth": self.spec.queue_depth,
            "iops": self.iops,
            "reads": self.read_latency.summary(),
            "writes": self.write_latency.summary(),
        }


def run_synthetic(sim: Simulator, storage, spec: SyntheticSpec) -> SyntheticResult:
    """Run one synthetic job against a storage front-end.

    ``storage`` needs generator methods ``read(lpn)`` / ``write(lpn,
    data)`` and a ``logical_pages`` attribute (block device, NoFTL
    storage, or an adapter).  The touched span is written once first so
    reads always hit programmed pages.
    """
    span = spec.span or storage.logical_pages
    if span > storage.logical_pages:
        raise ValueError("span exceeds device capacity")
    rng = random.Random(spec.seed)
    read_latency = LatencyRecorder("synthetic-read")
    write_latency = LatencyRecorder("synthetic-write")

    def fill():
        for lpn in range(span):
            yield from storage.write(lpn, data=("prefill", lpn))

    sim.run_process(fill())

    started = sim.now
    remaining = [spec.ops]
    cursor = [0]

    def submitter(job_rng: random.Random):
        while remaining[0] > 0:
            remaining[0] -= 1
            if spec.pattern == "random":
                lpn = job_rng.randrange(span)
            else:
                lpn = cursor[0] % span
                cursor[0] += 1
            is_read = job_rng.random() < spec.read_fraction
            begin = sim.now
            if is_read:
                yield from storage.read(lpn)
                read_latency.record(sim.now - begin)
            else:
                yield from storage.write(lpn, data=("op", lpn))
                write_latency.record(sim.now - begin)

    for index in range(spec.queue_depth):
        sim.process(submitter(random.Random(rng.randrange(2 ** 62))))
    sim.run()
    return SyntheticResult(
        spec=spec,
        duration_us=sim.now - started,
        read_latency=read_latency,
        write_latency=write_latency,
    )
