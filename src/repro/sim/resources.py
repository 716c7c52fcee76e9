"""Shared resources for DES processes.

:class:`Resource` models a counted resource with a FIFO wait queue (a NAND
die, a channel bus, a SATA NCQ slot).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .core import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        yield resource.request()
        try:
            ...  # critical section
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users = 0
        self._waiters: Deque[Event] = deque()
        # contention statistics
        self.total_requests = 0
        self.total_waits = 0
        self._wait_time = 0.0
        self._request_times: dict = {}

    @property
    def total_wait_time(self) -> float:
        """Cumulative time requests spent queued before being granted."""
        return self._wait_time

    def request(self) -> Event:
        """Return an event that fires when one unit is granted."""
        self.total_requests += 1
        event = self.sim.event()
        if self._users < self.capacity and not self._waiters:
            self._users += 1
            event.succeed()
        else:
            self.total_waits += 1
            self._request_times[event] = self.sim.now
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; wakes the oldest waiter if any."""
        if self._users <= 0:
            raise RuntimeError("release() without matching request()")
        if self._waiters:
            waiter = self._waiters.popleft()
            self._wait_time += self.sim.now - self._request_times.pop(waiter)
            waiter.succeed()
        else:
            self._users -= 1

    def acquire(self):
        """Generator helper: ``yield from resource.acquire()``."""
        yield self.request()
