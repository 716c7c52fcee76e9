"""Request-scoped causal context.

Every I/O entering the stack gets an :class:`OpContext` naming its root
cause (a transaction commit, a background db-writer, GC, wear leveling,
...).  The context rides on the flash command objects themselves — there
is deliberately **no** ambient "current context" stack, because the DES
interleaves many generator processes and a global stack would mis-blame
whichever process happened to run last.

Two things hang off a context:

* **identity** — ``origin`` (one of :data:`ORIGINS`), optional txn id /
  writer id, a process-unique ``ctx_id`` and a ``parent`` link, so
  a flash command can be traced back through ``gc`` -> ``db-writer`` to
  the host request that ultimately caused it;
* **costs** — a bucket dict the executors charge observed time into
  (``media_us``, ``queue_gc_us``, ``queue_other_us``, ``gc_us``,
  ``retry_us``, ``wal_us``), which the host layers snapshot into
  ``host.op`` trace events.  The blame decomposition in
  :mod:`repro.telemetry.attribution` is built entirely from those
  events, so a saved JSONL trace reproduces the same numbers.
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = [
    "ORIGINS",
    "MAINTENANCE_ORIGINS",
    "COST_BUCKETS",
    "DATA_CLASSES",
    "OpContext",
    "data_class_of",
]

#: Root-cause taxonomy.  ``txn`` is foreground transaction work (buffer
#: misses, foreground flushes), ``txn-commit`` the commit path itself,
#: ``db-writer`` the background flusher pool, ``host`` any other host
#: entry point (checkpoints, raw device benches), ``frontend`` the device
#: front end's own background destage traffic.  The rest are
#: device-management origins raised inside the FTL / NoFTL layers.
ORIGINS = (
    "txn",
    "txn-commit",
    "db-writer",
    "host",
    "frontend",
    "gc",
    "merge",
    "wear-level",
    "scrub",
    "evacuation",
    "recovery",
)

#: Frozen view of ORIGINS for the per-construction membership check.
_ORIGIN_SET = frozenset(ORIGINS)

#: Origins whose work exists only to manage the media.  Time spent in
#: (or queued behind) these is the "GC-blamed" share of a latency.
MAINTENANCE_ORIGINS = frozenset(
    {"gc", "merge", "wear-level", "scrub", "evacuation"}
)

#: Host data classes a write may belong to (the WA ledger's second
#: axis).  Host layers stamp them on the contexts they create (the
#: buffer pool knows a heap page from a B-tree node; DFTL marks its own
#: translation-page traffic ``map``); anything unstamped resolves via
#: :func:`data_class_of`'s origin fallback.  ``temp`` is spill/sort
#: traffic, produced by :class:`~repro.db.temp.TempArea`; the WA
#: ledger's report flags any declared class that never writes.
DATA_CLASSES = ("wal", "heap", "btree", "map", "temp", "recovery", "unknown")

#: Origin -> data-class fallback for contexts with no explicit stamp.
_ORIGIN_DATA_CLASS = {"txn-commit": "wal", "recovery": "recovery"}


def data_class_of(ctx: Optional["OpContext"]) -> Optional[str]:
    """Resolve the host data class of a context chain, or None.

    Walks from the leaf toward the root, returning the first explicit
    ``data_class``.  A maintenance leaf (GC, merge, ...) returns None
    immediately: the chain only says *which request adopted the work*,
    not which logical page is being moved — the WA ledger classifies
    those by the OOB lpn instead.  Host-class chains with no stamp fall
    back on the origin (commit traffic is WAL, recovery is recovery).
    """
    node = ctx
    fallback = None
    while node is not None:
        if node.origin in MAINTENANCE_ORIGINS:
            return None
        if node.data_class is not None:
            return node.data_class
        if fallback is None:
            fallback = _ORIGIN_DATA_CLASS.get(node.origin)
        node = node.parent
    return fallback


#: Buckets the executors / host layers charge into (always microseconds).
COST_BUCKETS = (
    "media_us",      # this op's own commands on the die / channel
    "queue_gc_us",   # waiting behind maintenance work (die queue, locks)
    "queue_other_us",  # waiting behind other foreground work
    "queue_hazard_us",  # stalled on a RAW/WAW/WAR hazard in the front end
    "cache_flush_us",  # waiting for write-back cache destage / barrier
    "gc_us",         # maintenance commands run inline inside this op
    "retry_us",      # error-recovery backoff (ECC retries, outages)
    "wal_us",        # WAL flush time (commit path only)
)


class OpContext:
    """One causal origin, linkable into a chain via ``parent``."""

    __slots__ = (
        "origin", "txn_id", "writer_id", "parent", "ctx_id", "costs", "data_class",
    )

    _ids = itertools.count(1)

    def __init__(
        self,
        origin: str,
        txn_id: Optional[int] = None,
        writer_id: Optional[int] = None,
        parent: Optional["OpContext"] = None,
        data_class: Optional[str] = None,
    ):
        if origin not in _ORIGIN_SET:
            raise ValueError(f"unknown origin {origin!r}")
        if data_class is not None and data_class not in DATA_CLASSES:
            raise ValueError(f"unknown data class {data_class!r}")
        self.origin = origin
        self.txn_id = txn_id
        self.writer_id = writer_id
        self.parent = parent
        self.data_class = data_class
        self.ctx_id = next(OpContext._ids)
        self.costs: dict = {}

    # -- lineage -------------------------------------------------------------

    def child(self, origin: str) -> "OpContext":
        """A sub-context caused by this one (e.g. a merge inside GC),
        inheriting its txn id, writer id and data class."""
        return OpContext(origin, self.txn_id, self.writer_id, parent=self,
                         data_class=self.data_class)

    def root(self) -> "OpContext":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def adopt(self, parent: "OpContext") -> None:
        """Attach an orphan chain under ``parent``.

        Maintenance work is created deep inside the FTL where the host
        context is not in scope; the executor adopts those chains under
        the request it is running, completing the causal path without
        any global state.  A chain that already has a root parent (or
        would create a cycle) is left alone.
        """
        root = self.root()
        if root is parent or root is parent.root():
            return
        if root.parent is None:
            root.parent = parent

    def path(self) -> str:
        """Origins from root to self, e.g. ``"db-writer/gc/merge"``."""
        parts = []
        node: Optional[OpContext] = self
        while node is not None:
            parts.append(node.origin)
            node = node.parent
        return "/".join(reversed(parts))

    # -- accounting ----------------------------------------------------------

    @property
    def is_maintenance(self) -> bool:
        return self.origin in MAINTENANCE_ORIGINS

    def charge(self, bucket: str, us: float) -> None:
        if us:
            self.costs[bucket] = self.costs.get(bucket, 0.0) + us

    def fields(self) -> dict:
        """Identity fields for trace events."""
        out = {"origin": self.origin, "ctx": self.ctx_id}
        if self.parent is not None:
            out["path"] = self.path()
        if self.txn_id is not None:
            out["txn"] = self.txn_id
        if self.writer_id is not None:
            out["writer"] = self.writer_id
        if self.data_class is not None:
            out["data_class"] = self.data_class
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OpContext({self.path()!r}, id={self.ctx_id})"
