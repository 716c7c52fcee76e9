"""I/O trace recording and off-line replay — the Figure 3 methodology.

The paper: *"Off-line trace-driven testing.  Traces were recorded on
in-memory database running the benchmarks for 60 minutes."*  Here:

1. run any workload on a :class:`TraceRecordingAdapter` wrapped around a
   RAM volume (the in-memory database);
2. the adapter captures the page-granular I/O stream the buffer manager
   and db-writers emitted;
3. :func:`replay_trace` feeds that identical stream into each candidate
   (FASTer, DFTL, page-map FTL, or the NoFTL storage manager) through a
   synchronous executor and reads back the command counters that the
   Figure 3 table reports (copybacks, erases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.storage import SyncNoFTLStorage
from ..db.storage import StorageAdapter
from ..device.blockdev import SyncBlockDevice
from ..telemetry import sum_per_die
from .base import Workload  # noqa: F401  (re-exported context)

__all__ = ["TraceOp", "IOTrace", "TraceRecordingAdapter", "replay_trace",
           "ReplayReport"]

READ, WRITE, TRIM = "r", "w", "t"


@dataclass(frozen=True)
class TraceOp:
    kind: str       # 'r' | 'w' | 't'
    page_id: int
    hint: str = "hot"


@dataclass
class IOTrace:
    """An ordered page-granular I/O stream."""

    ops: List[TraceOp] = field(default_factory=list)

    def append(self, kind: str, page_id: int, hint: str = "hot") -> None:
        self.ops.append(TraceOp(kind, page_id, hint))

    def __len__(self) -> int:
        return len(self.ops)

    def counts(self) -> dict:
        result = {READ: 0, WRITE: 0, TRIM: 0}
        for op in self.ops:
            result[op.kind] += 1
        return {"reads": result[READ], "writes": result[WRITE],
                "trims": result[TRIM]}

    def max_page(self) -> int:
        return max((op.page_id for op in self.ops), default=-1)


class TraceRecordingAdapter(StorageAdapter):
    """Wraps any storage adapter, recording every page I/O it carries."""

    def __init__(self, inner: StorageAdapter):
        self.inner = inner
        self.trace = IOTrace()
        self.logical_pages = inner.logical_pages
        self.num_regions = inner.num_regions

    def read(self, page_id: int, ctx=None):
        self.trace.append(READ, page_id)
        data = yield from self.inner.read(page_id, ctx=ctx)
        return data

    def write(self, page_id: int, data, hint: str = "hot", ctx=None):
        self.trace.append(WRITE, page_id, hint)
        yield from self.inner.write(page_id, data, hint, ctx=ctx)

    def trim(self, page_id: int, ctx=None):
        self.trace.append(TRIM, page_id)
        yield from self.inner.trim(page_id, ctx=ctx)

    def region_of_page(self, page_id: int) -> int:
        return self.inner.region_of_page(page_id)


@dataclass
class ReplayReport:
    """Command-level outcome of replaying one trace against one target —
    a row of the Figure 3 table."""

    target: str
    host_reads: int
    host_writes: int
    host_trims: int
    copybacks: int
    relocations: int
    erases: int
    flash_reads: int
    flash_programs: int
    write_amplification: float
    #: ``{"erase": {die: n}, "copyback": {die: n}, "program": {die: n}}``
    #: — per-die breakdown from the telemetry registry.
    per_die: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return self.__dict__.copy()


def replay_trace(trace: IOTrace, target) -> ReplayReport:
    """Feed a recorded trace into a storage target and report GC traffic.

    ``target`` is a :class:`~repro.device.blockdev.SyncBlockDevice`
    (FTL behind the legacy interface — trims dropped, as on the paper's
    black-box devices) or a
    :class:`~repro.core.storage.SyncNoFTLStorage` (full integration).
    An op kind other than read / write / trim raises :class:`ValueError`.
    """
    if isinstance(target, SyncBlockDevice):
        array = target.executor.device.array
        stats = target.ftl.stats
        ftl_registry = target.ftl.telemetry
        name = type(target.ftl).__name__
        for op in trace.ops:
            if op.kind == WRITE:
                target.write(op.page_id, data=None)
            elif op.kind == READ:
                target.read(op.page_id)
            elif op.kind == TRIM:
                target.trim(op.page_id)
            else:
                raise ValueError(f"unknown trace op kind: {op.kind!r}")
    elif isinstance(target, SyncNoFTLStorage):
        array = target.executor.device.array
        stats = target.manager.stats
        ftl_registry = target.manager.telemetry
        name = "NoFTL"
        for op in trace.ops:
            if op.kind == WRITE:
                target.write(op.page_id, data=None, hint=op.hint)
            elif op.kind == READ:
                target.read(op.page_id)
            elif op.kind == TRIM:
                target.trim(op.page_id)
            else:
                raise ValueError(f"unknown trace op kind: {op.kind!r}")
    else:
        raise TypeError(f"unsupported replay target: {target!r}")
    # Flash command totals come from the telemetry registry (which is
    # what the array's ``counters`` view reads too).
    registry = array.telemetry
    return ReplayReport(
        target=name,
        host_reads=stats.host_reads,
        host_writes=stats.host_writes,
        host_trims=stats.host_trims,
        copybacks=int(registry.value("flash.commands", op="copyback")),
        relocations=int(ftl_registry.value("ftl.relocations")),
        erases=int(registry.value("flash.commands", op="erase")),
        flash_reads=int(registry.value("flash.commands", op="read")),
        flash_programs=int(registry.value("flash.commands", op="program")),
        write_amplification=stats.write_amplification,
        per_die={
            op: sum_per_die(registry, op)
            for op in ("erase", "copyback", "program")
        },
    )
