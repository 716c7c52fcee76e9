"""Temp / spill area: the ``temp`` data class's producer.

The write-stream taxonomy reserved a ``temp`` class for sort runs and
hash-spill partitions from day one, but nothing in the stack ever wrote
one — the class existed only as a zero row in the WA ledger (the ledger
now flags exactly that as *producer-less*).  This module closes the gap
with the smallest honest model of an external-sort spill:

* ``spill(pages)`` allocates page ids from the database's free-space
  manager and programs one sequential run, every write stamped
  ``data_class="temp"`` so placement routes it into the temp stream;
* ``drain()`` reads the oldest run back (the merge pass) and releases
  its pages through :meth:`~repro.db.database.Database.release_page`,
  whose trim both frees the flash and makes the ledger *forget* the
  lpn→class binding — recycled page ids must re-learn their class from
  whoever writes them next, which ``tests/test_streams.py`` pins.

Temp data is the shortest-lived traffic the database produces; mixing it
into heap/btree blocks is the classic write-amplification own-goal the
stream split exists to prevent.
"""

from __future__ import annotations

from typing import List, Optional

from ..telemetry import OpContext

__all__ = ["TempArea"]

#: Spill runs :meth:`TempArea.process` leaves live after each drain.
KEEP_RUNS = 2


class TempArea:
    """Sequential spill runs over the database's page allocator."""

    def __init__(self, db):
        self.db = db
        self.spills = 0
        self.pages_spilled = 0
        self.pages_reclaimed = 0
        self._runs: List[List[int]] = []

    @property
    def live_runs(self) -> int:
        return len(self._runs)

    def spill(self, pages: int):
        """Generator: write one ``pages``-long spill run."""
        if pages < 1:
            raise ValueError("pages must be >= 1")
        run = [self.db.allocate_page() for _ in range(pages)]
        for page_id in run:
            ctx = OpContext("txn", data_class="temp")
            yield from self.db.storage.write(page_id, None, "cold", ctx=ctx)
            self.pages_spilled += 1
        self._runs.append(run)
        self.spills += 1

    def drain(self):
        """Generator: merge-read the oldest run and release its pages."""
        if not self._runs:
            return
        run = self._runs.pop(0)
        for page_id in run:
            ctx = OpContext("txn", data_class="temp")
            yield from self.db.storage.read(page_id, ctx=ctx)
            yield from self.db.release_page(page_id)
            self.pages_reclaimed += 1

    def process(self, interval_us: float, pages: int,
                until_us: Optional[float] = None):
        """Generator process: periodic spill with bounded live runs.

        Spawned by benches as a steady temp producer: every
        ``interval_us`` it spills one run, then drains until at most
        :data:`KEEP_RUNS` runs stay live — so temp traffic continuously cycles
        allocate → program → trim, exactly the churn profile that makes
        class segregation measurable.  ``until_us`` bounds the producer
        (closed-loop rigs end by draining the event queue, so an
        unbounded producer would keep the simulation alive forever);
        at the horizon it drains every live run and exits.
        """
        sim = self.db.sim
        while until_us is None or sim.now < until_us:
            yield sim.timeout(interval_us)
            yield from self.spill(pages)
            while len(self._runs) > KEEP_RUNS:
                yield from self.drain()
        while self._runs:
            yield from self.drain()

    def snapshot(self) -> dict:
        return {
            "spills": self.spills,
            "pages_spilled": self.pages_spilled,
            "pages_reclaimed": self.pages_reclaimed,
            "live_runs": self.live_runs,
        }
