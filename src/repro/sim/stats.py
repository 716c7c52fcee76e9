"""Light-weight statistics helpers used across the simulator and benches."""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = [
    "LatencyRecorder",
    "percentile",
    "percentiles",
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


class LatencyRecorder:
    """Records individual latency samples and summarises their distribution.

    Keeps every raw sample (the experiments here are small enough), so
    percentiles and outlier counts are exact, which is what the paper's
    latency-predictability argument needs.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.samples: List[float] = []
        #: Running mean, updated per sample (Welford's recurrence).
        self.mean = 0.0

    def record(self, latency: float) -> None:
        self.samples.append(latency)
        self.mean += (latency - self.mean) / len(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples) if self.samples else 0.0

    def pct(self, q: float) -> float:
        return percentile(self.samples, q)

    def outliers_over(self, threshold: float) -> int:
        """Number of samples strictly above ``threshold``."""
        return sum(1 for sample in self.samples if sample > threshold)

    def summary(self) -> dict:
        if not self.samples:
            return {"name": self.name, "count": 0}
        p50, p95, p99, p999 = percentiles(self.samples, (50, 95, 99, 99.9))
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "p999": p999,
            "max": self.maximum,
        }
