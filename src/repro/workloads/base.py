"""Workload framework: transaction mixes, terminals and throughput metering.

A workload declares how to *load* a database and how to produce one
random transaction body according to its mix.  :func:`run_workload`
spawns the paper's testbed around it: N terminal processes (the "16 read
processes" of Figure 4) submitting transactions back-to-back for a fixed
span of simulated time, with abort-and-retry on lock timeouts, metering
TPS and per-transaction latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..db.database import Database
from ..db.locks import TxnAborted
from ..sim import LatencyRecorder, Simulator

__all__ = ["WorkloadStats", "Workload", "run_workload"]

#: Lock-timeout aborts a terminal retries one transaction for before it
#: gives the transaction up (counted as an abort).
MAX_RETRIES = 5


@dataclass
class WorkloadStats:
    """Outcome of one timed run."""

    duration_us: float = 0.0
    commits: int = 0
    aborts: int = 0
    retries: int = 0
    per_type: Dict[str, int] = field(default_factory=dict)
    latency: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder("txn")
    )

    @property
    def tps(self) -> float:
        """Committed transactions per simulated second."""
        if self.duration_us <= 0:
            return 0.0
        return self.commits / (self.duration_us / 1_000_000.0)

    def summary(self) -> dict:
        return {
            "tps": self.tps,
            "commits": self.commits,
            "aborts": self.aborts,
            "retries": self.retries,
            "per_type": dict(self.per_type),
            "latency": self.latency.summary(),
        }


class Workload:
    """Base class: subclasses define ``name``, :meth:`load` and
    :meth:`next_transaction`."""

    name = "workload"

    def load(self, db: Database):  # pragma: no cover - interface
        """Generator: create schema and populate the database."""
        raise NotImplementedError

    def declare_schema(self, db: Database):  # pragma: no cover - interface
        """Generator: create the catalog only (no rows).

        Crash recovery re-declares the schema on a fresh database before
        replaying the WAL; workloads that support the crash harness
        override this (and build :meth:`load` on top of it)."""
        raise NotImplementedError

    def next_transaction(
        self, db: Database, rng: random.Random
    ) -> Tuple[str, Callable]:  # pragma: no cover - interface
        """Pick one transaction from the mix.

        Returns ``(type_name, body)`` where ``body(txn)`` is a generator
        executing the transaction's logic (the framework handles begin /
        commit / abort / retry).
        """
        raise NotImplementedError


def run_workload(
    sim: Simulator,
    db: Database,
    workload: Workload,
    duration_us: float,
    num_terminals: int = 16,
    rng: Optional[random.Random] = None,
    preloaded: bool = False,
) -> WorkloadStats:
    """Load the database, run terminals for ``duration_us`` of simulated
    time, return the metered stats.

    ``preloaded=True`` skips the load phase — for callers (like the stack
    benchmark) that ran ``workload.load(db)`` themselves, e.g. to keep it
    out of a wall-clock measurement window.

    The caller is responsible for having started db-writers (or not) —
    that choice is the subject of Figure 4.
    """
    if duration_us <= 0:
        raise ValueError("duration_us must be positive")
    if num_terminals < 1:
        raise ValueError("num_terminals must be >= 1")
    rng = rng or random.Random(0)
    stats = WorkloadStats()

    if not preloaded:
        sim.run_process(workload.load(db))

    end_at = sim.now + duration_us

    def terminal(term_rng: random.Random):
        while sim.now < end_at:
            txn_name, body = workload.next_transaction(db, term_rng)
            began = sim.now
            committed = False
            for attempt in range(MAX_RETRIES + 1):
                txn = db.begin()
                try:
                    yield from body(txn)
                except TxnAborted:
                    if txn.is_active:
                        yield from db.abort(txn)
                    stats.retries += 1
                    continue
                except _VoluntaryRollback:
                    yield from db.abort(txn)
                    stats.aborts += 1
                    committed = True  # rolled back by design: not retried
                    break
                yield from db.commit(txn)
                committed = True
                stats.commits += 1
                stats.per_type[txn_name] = \
                    stats.per_type.get(txn_name, 0) + 1
                stats.latency.record(sim.now - began)
                break
            if not committed:
                stats.aborts += 1

    terminals = [
        sim.process(terminal(random.Random(rng.randrange(2 ** 62))))
        for __ in range(num_terminals)
    ]

    if db.writers is not None:
        def supervisor():
            # Writers poll forever; retire them once the terminals finish
            # (after a short drain window) so the event queue empties.
            yield sim.all_of(terminals)
            yield sim.timeout(5_000)
            db.writers.stop()

        sim.process(supervisor())
    sim.run()
    stats.duration_us = duration_us
    return stats


class _VoluntaryRollback(Exception):
    """Raised by transaction bodies that roll back by specification
    (e.g. 1% of TPC-C NewOrder)."""


# Exposed for workload implementations.
VoluntaryRollback = _VoluntaryRollback
__all__.append("VoluntaryRollback")
