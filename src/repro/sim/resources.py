"""Shared resources for DES processes.

:class:`Resource` models a counted resource with a FIFO wait queue (a NAND
die, a channel bus, a SATA NCQ slot).  :class:`Store` is an unbounded FIFO
message queue used e.g. to hand dirty pages to background db-writers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .core import Event, Simulator

__all__ = ["Resource", "Store"]


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


class Store:
    """Unbounded FIFO queue: ``put`` never blocks, ``get`` blocks when empty."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0
        self.total_gets = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (immediately if available)."""
        self.total_gets += 1
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
