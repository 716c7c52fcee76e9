"""Storage adapters: one page-granular interface over every backend.

The mini-DBMS reads and writes *database pages* through the
:class:`StorageAdapter` interface.  NoFTL needs no adapter:
:class:`repro.core.storage.NoFTLStorage` implements the interface itself
(Figure 1.c: database page number == LPN, hints and trims go straight to
the storage manager).  The other backends are mapped here:

* :class:`BlockDeviceAdapter` — Figure 1.a/b: the black-box SSD.  Hints
  are dropped and trims are swallowed (the legacy write path of the
  paper's era carries neither), and there is exactly one "region";
* :class:`RAMStorageAdapter` — an in-memory volume used to record
  I/O traces from a live run (the paper's Figure 3 methodology: "traces
  were recorded on in-memory database running the benchmarks").

All I/O entry points are DES generators.
"""

from __future__ import annotations

from typing import Dict

from ..device.blockdev import BlockDevice
from ..sim import Simulator

__all__ = [
    "StorageAdapter",
    "BlockDeviceAdapter",
    "RAMStorageAdapter",
]


class StorageAdapter:
    """Interface: page-granular storage with optional flash awareness.

    ``ctx`` on the I/O methods is an optional
    :class:`~repro.telemetry.OpContext` naming the root cause of the
    operation (transaction, db-writer, recovery, ...); adapters whose
    backend understands causal attribution pass it down, the others
    ignore it.
    """

    logical_pages: int
    num_regions: int = 1
    #: The backend's :class:`~repro.telemetry.MetricsRegistry`, when it
    #: has one — lets the DBMS layer share a single registry with the
    #: flash stack below it instead of keeping disjoint counters.
    telemetry = None

    def read(self, page_id: int, ctx=None):  # pragma: no cover - interface
        raise NotImplementedError

    def write(self, page_id: int, data, hint: str = "hot",
              ctx=None):  # pragma: no cover - interface
        raise NotImplementedError

    def trim(self, page_id: int, ctx=None):  # pragma: no cover - interface
        raise NotImplementedError

    def flush_barrier(self, ctx=None):
        """Generator: durability barrier.

        When this generator completes, every write acknowledged *before*
        it was called is durable across a power cut.  Plain adapters ack
        only after media program, so the default barrier is a no-op that
        schedules no events (digest-neutral); a write-back front end
        (:class:`~repro.device.frontend.DeviceFrontend`) overrides it to
        destage its volatile cache.
        """
        return
        yield  # pragma: no cover - generator form

    def region_of_page(self, page_id: int) -> int:
        return 0

    @property
    def maintenance_active(self) -> bool:
        """True while the backend is running GC/wear-leveling *right now*.

        Sampled (not awaited) by schedulers that want to classify queue
        time or throttle background traffic while maintenance holds the
        media.  Backends without the signal report False.
        """
        return False


class BlockDeviceAdapter(StorageAdapter):
    """Legacy block device: no hints, no deallocation, one opaque region."""

    def __init__(self, device: BlockDevice):
        self.device = device
        self.logical_pages = device.logical_pages
        self.num_regions = 1
        self.telemetry = getattr(device.ftl, "telemetry", None)

    def read(self, page_id: int, ctx=None):
        data = yield from self.device.read(page_id, ctx=ctx)
        return data

    def write(self, page_id: int, data, hint: str = "hot", ctx=None):
        # The block interface has no temperature channel: hint dropped.
        yield from self.device.write(page_id, data, ctx=ctx)

    def trim(self, page_id: int, ctx=None):
        # The legacy write path of the paper's era carries no TRIM either;
        # the FTL keeps treating the page as live.  Intentional no-op.
        return
        yield  # pragma: no cover - generator form

    @property
    def maintenance_active(self) -> bool:
        return bool(getattr(self.device.ftl, "maintenance_active", False))


class RAMStorageAdapter(StorageAdapter):
    """In-memory volume with a token fixed latency (trace-recording runs)."""

    def __init__(self, sim: Simulator, logical_pages: int,
                 latency_us: float = 1.0, num_regions: int = 1):
        self.sim = sim
        self.logical_pages = logical_pages
        self.latency_us = latency_us
        self.num_regions = num_regions
        self._pages: Dict[int, object] = {}

    def read(self, page_id: int, ctx=None):
        self._check(page_id)
        yield self.sim.timeout(self.latency_us)
        return self._pages.get(page_id)

    def write(self, page_id: int, data, hint: str = "hot", ctx=None):
        self._check(page_id)
        yield self.sim.timeout(self.latency_us)
        self._pages[page_id] = data

    def trim(self, page_id: int, ctx=None):
        self._check(page_id)
        yield self.sim.timeout(0)
        self._pages.pop(page_id, None)

    def region_of_page(self, page_id: int) -> int:
        return page_id % self.num_regions

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self.logical_pages:
            raise ValueError(f"page {page_id} out of range")
