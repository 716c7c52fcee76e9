"""Discrete-event simulation kernel (virtual microsecond clock).

Stands in for the paper's real-time Linux-kernel flash emulator: same role
(precise, configurable I/O timing), but deterministic and host-independent.
"""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
    WaitQueue,
)
from .resources import Resource, Store
from .stats import (
    LatencyRecorder,
    RunningStats,
    percentile,
    percentiles,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "WaitQueue",
    "Resource",
    "Store",
    "LatencyRecorder",
    "RunningStats",
    "percentile",
    "percentiles",
]
