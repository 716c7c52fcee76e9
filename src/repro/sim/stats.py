"""Light-weight statistics helpers used across the simulator and benches."""

from __future__ import annotations

import math
import random
import zlib
from typing import Iterable, List, Optional, Sequence

__all__ = [
    "RunningStats",
    "LatencyRecorder",
    "percentile",
    "percentiles",
    "TimeWeightedValue",
]


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``.

    Matches numpy's default ('linear') method, without the dependency.
    For several percentiles of the same series use :func:`percentiles`,
    which sorts once.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    return _percentile_of_sorted(sorted(values), q)


def percentiles(values: Sequence[float], qs: Sequence[float]) -> List[float]:
    """Like :func:`percentile` for several ``qs`` with a single sort."""
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    return [_percentile_of_sorted(ordered, q) for q in qs]


class RunningStats:
    """Welford's online mean/variance plus min/max."""

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    def __repr__(self) -> str:
        return (
            f"RunningStats(n={self.count}, mean={self.mean:.3f}, "
            f"min={self.minimum:.3f}, max={self.maximum:.3f})"
        )


class LatencyRecorder:
    """Records individual latency samples and summarises their distribution.

    By default keeps raw samples (the tier-1 experiments are small enough)
    so that exact percentiles and outlier counts can be reported, which is
    what the paper's latency-predictability argument needs.  Long chaos /
    synthetic runs can cap memory with ``max_samples``: once more than
    that many samples arrive, the recorder switches to uniform reservoir
    sampling (Vitter's Algorithm R, deterministically seeded from the
    recorder name), so percentiles become estimates over an unbiased
    subsample while ``count``/``mean``/``maximum`` stay exact via the
    running stats.
    """

    def __init__(self, name: str = "", max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.max_samples = max_samples
        self.samples: List[float] = []
        self.stats = RunningStats()
        self._rng = (
            random.Random(zlib.crc32(name.encode("utf-8")))
            if max_samples is not None else None
        )

    def record(self, latency: float) -> None:
        self.stats.add(latency)
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(latency)
        else:
            slot = self._rng.randrange(self.stats.count)
            if slot < self.max_samples:
                self.samples[slot] = latency

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> float:
        return self.stats.mean

    @property
    def maximum(self) -> float:
        return self.stats.maximum if self.samples else 0.0

    def pct(self, q: float) -> float:
        return percentile(self.samples, q)

    def outliers_over(self, threshold: float) -> int:
        """Number of samples strictly above ``threshold``."""
        return sum(1 for sample in self.samples if sample > threshold)

    def summary(self) -> dict:
        if not self.samples:
            return {"name": self.name, "count": 0}
        p50, p95, p99, p999 = percentiles(self.samples, (50, 95, 99, 99.9))
        out = {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
            "max": self.maximum,
        }
        if self.max_samples is not None and self.count > len(self.samples):
            out["retained"] = len(self.samples)
        return out


class TimeWeightedValue:
    """Tracks the time-weighted average of a piecewise-constant value.

    Used e.g. for average queue depth or buffer-pool dirty ratio over a run.
    """

    def __init__(self, now: float = 0.0, value: float = 0.0):
        self._last_time = now
        self._value = value
        self._area = 0.0
        self._start = now

    def update(self, now: float, value: float) -> None:
        if now < self._last_time:
            raise ValueError("time went backwards")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value

    def average(self, now: float) -> float:
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span
