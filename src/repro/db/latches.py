"""Reader-writer latch for DES processes (B+-tree latching)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim import Event, Simulator

__all__ = ["RWLock"]


class RWLock:
    """Fair reader-writer lock: FIFO queue, contiguous readers batch."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._active_readers = 0
        self._writer_active = False
        self._queue: Deque[Tuple[Event, str]] = deque()
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.waits = 0

    def acquire_read(self):
        """``yield from`` target: uncontended grants suspend nothing."""
        self.read_acquisitions += 1
        if not self._writer_active and not self._queue:
            self._active_readers += 1
            return ()
        return self._wait("r")

    def acquire_write(self):
        """``yield from`` target: uncontended grants suspend nothing."""
        self.write_acquisitions += 1
        if not self._writer_active and self._active_readers == 0 \
                and not self._queue:
            self._writer_active = True
            return ()
        return self._wait("w")

    def _wait(self, kind: str):
        """Generator: queue behind the current holders."""
        self.waits += 1
        event = self.sim.event()
        self._queue.append((event, kind))
        yield event

    def release_read(self) -> None:
        if self._active_readers <= 0:
            raise RuntimeError("release_read without acquire_read")
        self._active_readers -= 1
        if self._queue:
            self._grant()

    def release_write(self) -> None:
        if not self._writer_active:
            raise RuntimeError("release_write without acquire_write")
        self._writer_active = False
        if self._queue:
            self._grant()

    def _grant(self) -> None:
        """Wake the queue's head (and the readers right behind it)."""
        if self._writer_active:
            return
        event, kind = self._queue[0]
        if kind == "w":
            if self._active_readers == 0:
                self._queue.popleft()
                self._writer_active = True
                event.succeed()
        else:
            while self._queue and self._queue[0][1] == "r":
                reader_event, __ = self._queue.popleft()
                self._active_readers += 1
                reader_event.succeed()
