"""Chaos rig — TPC workloads on NoFTL under an adversarial fault plan.

The robustness claim behind the paper's architecture is that moving flash
management into the DBMS does not trade away the reliability a black-box
FTL provides.  This rig puts that to the test: a full NoFTL stack (DES
flash device, storage manager, mini-DBMS) runs TPC-C or TPC-B while the
:class:`~repro.flash.faults.FaultInjector` fires transient and persistent
read faults, program failures, erase failures, a whole-die outage window
and latency spikes — then proves, via per-page checksums, that **no
acknowledged write was lost**.

Verification is two-layered:

* a :class:`ChecksumOracle` wraps the storage adapter and records the
  checksum of every page write the device *acknowledged*; after the run,
  every recorded page is read back and its checksum compared — a mismatch
  is lost-or-corrupted committed data;
* the workload's own ``verify_consistency`` audits the business
  invariants (TPC-C stock/order counts, TPC-B balance sheets).

Run from the command line (used by the CI ``chaos-smoke`` job)::

    python -m repro.bench.chaos --workload tpcc --duration-us 400000 \
        --seed 7 --export

The telemetry snapshot (fault counters, retry/scrub/remap counters,
degraded gauge) lands in ``$REPRO_METRICS_DIR/chaos_<workload>.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import NoFTLConfig
from ..core.badblock import DegradedModeError
from ..flash import FaultPlan, FaultSpec, UncorrectableError, page_checksum
from ..workloads import TPCB, TPCC, run_workload
from .reporting import export_metrics
from .rigs import attach_database, build_noftl_rig, sized_geometry, \
    measure_workload_footprint

__all__ = ["ChecksumOracle", "ChaosReport", "default_chaos_plan",
           "run_chaos"]

#: The chaos rig: terminals, region-bound db-writers, dies (one region
#: each) and over-provisioning.
NUM_TERMINALS = 8
NUM_WRITERS = 4
DIES = 8
OP_RATIO = 0.28


class ChecksumOracle:
    """Storage-adapter wrapper recording a checksum per acknowledged write.

    Only writes whose generator completed (the device acknowledged the
    program, after any remap/retry recovery) are recorded — exactly the
    set of pages the DBMS is entitled to read back.

    When the wrapped adapter is a write-back device front end, the oracle
    additionally tracks the **durability contract**: every acknowledged
    write appends to a per-page ``history``; :meth:`flush_barrier` (a
    passthrough to the adapter's barrier) advances ``durable_floor`` to
    the newest version acknowledged *before* the barrier was called.
    After a power cut the media must hold some version at or past the
    floor — acked-volatile versions (past the floor) may vanish,
    acked-durable ones (at the floor) may not.

    ``shadow_reads=True`` arms a live read-after-write hazard check:
    every read's result must checksum to the newest version acknowledged
    at issue time, or any version acknowledged while the read was in
    flight.  A stale read is appended to ``hazard_violations`` — the
    siege gate requires that list to stay empty.

    A trim's outcome is recorded only on acknowledged completion.  A
    trim that dies mid-flight (power cut after partial FTL invalidation)
    leaves the page *indeterminate*: the old content may or may not
    still be readable, so post-run audits must skip it rather than
    demand either outcome.
    """

    def __init__(self, adapter, shadow_reads: bool = False):
        self.adapter = adapter
        self.logical_pages = adapter.logical_pages
        self.num_regions = adapter.num_regions
        self.telemetry = getattr(adapter, "telemetry", None)
        self.checksums: Dict[int, int] = {}
        self.writes_acked = 0
        self.shadow_reads = shadow_reads
        #: Per-page append-only checksum history of acknowledged writes
        #: (newest last); restarted by an acknowledged trim.
        self.history: Dict[int, List[int]] = {}
        #: Per-page index into ``history``: the newest version covered by
        #: a completed barrier.  Versions past the floor are volatile.
        self.durable_floor: Dict[int, int] = {}
        #: Per-page checksums superseded by a trim.  A NoFTL trim only
        #: mutates the in-RAM mapping — nothing is journaled to flash —
        #: so a power cut legally *resurrects* pre-trim versions when the
        #: OOB mount scan finds their pages still programmed.  Post-cut
        #: audits must accept these as acked (never-garbage) content.
        self.retired: Dict[int, List[int]] = {}
        #: Pages whose newest acknowledged op is a trim.
        self.trimmed: set = set()
        #: Pages whose trim died mid-flight: content is unknowable.
        self.indeterminate: set = set()
        self.barriers_completed = 0
        self.reads_checked = 0
        self.hazard_violations: List[dict] = []

    @property
    def maintenance_active(self) -> bool:
        return bool(getattr(self.adapter, "maintenance_active", False))

    def read(self, page_id: int, ctx=None):
        issue_len = len(self.history.get(page_id, ()))
        data = yield from self.adapter.read(page_id, ctx=ctx)
        if self.shadow_reads:
            self.reads_checked += 1
            hist = self.history.get(page_id, ())
            if (data is not None and issue_len
                    and len(hist) >= issue_len
                    and page_id not in self.trimmed
                    and page_id not in self.indeterminate):
                # RAW shadow model: acceptable versions are the newest
                # acked at issue plus anything acked while in flight.  A
                # history shorter than at issue means a trim+rewrite
                # interleaved with this read — indeterminate, skipped.
                acceptable = hist[issue_len - 1:]
                got = page_checksum(data)
                if got not in acceptable:
                    self.hazard_violations.append({
                        "page": page_id,
                        "got": got,
                        "acceptable": list(acceptable),
                    })
        return data

    def write(self, page_id: int, data, hint: str = "hot", ctx=None):
        yield from self.adapter.write(page_id, data, hint, ctx=ctx)
        # Only reached when the write was acknowledged (no exception).
        self.checksums[page_id] = page_checksum(data)
        self.writes_acked += 1
        self.trimmed.discard(page_id)
        self.indeterminate.discard(page_id)
        self.history.setdefault(page_id, []).append(self.checksums[page_id])

    def trim(self, page_id: int, ctx=None):
        try:
            yield from self.adapter.trim(page_id, ctx=ctx)
        except DegradedModeError:
            # Shed / refused before any side effect: the trim never
            # happened, every recorded version still stands.
            raise
        except BaseException:
            # Mid-flight failure after (possibly partial) FTL
            # invalidation: neither "still holds the old data" nor
            # "deallocated" is a safe claim.  Drop the page from every
            # audited set and remember why.
            self._retire(page_id)
            self.indeterminate.add(page_id)
            raise
        # Acknowledged: the trim supersedes all recorded versions.
        self._retire(page_id)
        self.trimmed.add(page_id)
        self.indeterminate.discard(page_id)

    def _retire(self, page_id: int) -> None:
        """Move a page's recorded versions out of the live audit sets,
        keeping them in ``retired`` (an un-journaled trim is not
        crash-durable, so these may resurface after a power cut)."""
        self.checksums.pop(page_id, None)
        old = self.history.pop(page_id, None)
        if old:
            self.retired.setdefault(page_id, []).extend(old)
        self.durable_floor.pop(page_id, None)

    def flush_barrier(self, ctx=None):
        """Passthrough barrier; on return, the contract snapshot taken at
        the *call* is marked durable.  A barrier that raises advances no
        floors — no guarantee was given."""
        snap = {
            lpn: (len(self.history[lpn]) - 1, self.history[lpn][-1])
            for lpn in self.checksums
        }
        barrier = getattr(self.adapter, "flush_barrier", None)
        if barrier is not None:
            yield from barrier(ctx=ctx)
        for lpn, (idx, cks) in snap.items():
            hist = self.history.get(lpn)
            if hist is None or idx >= len(hist) or hist[idx] != cks:
                # A trim completed while flushing: the snapshotted
                # versions were superseded (history restarted), so the
                # barrier promises nothing for this page anymore.
                continue
            if idx > self.durable_floor.get(lpn, -1):
                self.durable_floor[lpn] = idx
        self.barriers_completed += 1

    def acceptable_after_cut(self, page_id: int) -> List[int]:
        """Every checksum a post-cut readback may legally return for a
        page with a durable floor: the floor version or anything acked
        after it."""
        floor = self.durable_floor.get(page_id)
        if floor is None:
            return []
        return list(self.history[page_id][floor:])

    def acked_versions(self, page_id: int) -> List[int]:
        """Every checksum ever acknowledged for a page, including
        versions a later trim superseded.  After a power cut, a page with
        no durable floor may legally read back as *any* of these (trims
        are in-RAM only, so the mount scan can resurrect pre-trim pages)
        — but never as something outside this set."""
        return (self.retired.get(page_id, [])
                + self.history.get(page_id, []))

    def region_of_page(self, page_id: int) -> int:
        return self.adapter.region_of_page(page_id)


@dataclass
class ChaosReport:
    """Everything the acceptance gate needs to judge one chaos run."""

    workload: str
    seed: int
    commits: int
    tps: float
    pages_checked: int
    pages_lost: List[int] = field(default_factory=list)
    pages_corrupted: List[int] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    read_retries: int = 0
    scrubs: int = 0
    program_remaps: int = 0
    relocation_skips: int = 0
    grown_bad_blocks: int = 0
    degraded: bool = False
    consistency_ok: bool = True
    #: The rig's registry, for exporting the full telemetry snapshot.
    telemetry: Optional[object] = None

    @property
    def data_ok(self) -> bool:
        return not self.pages_lost and not self.pages_corrupted

    @property
    def ok(self) -> bool:
        return self.data_ok and self.consistency_ok

    def snapshot(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "commits": self.commits,
            "tps": self.tps,
            "pages_checked": self.pages_checked,
            "pages_lost": len(self.pages_lost),
            "pages_corrupted": len(self.pages_corrupted),
            "injected": dict(self.injected),
            "read_retries": self.read_retries,
            "scrubs": self.scrubs,
            "program_remaps": self.program_remaps,
            "relocation_skips": self.relocation_skips,
            "grown_bad_blocks": self.grown_bad_blocks,
            "degraded": self.degraded,
            "consistency_ok": self.consistency_ok,
            "ok": self.ok,
        }


def default_chaos_plan(seed: int = 7) -> FaultPlan:
    """The standard adversary: every fault kind the injector knows.

    * transient reads at 1.5 % so the retry path runs constantly;
    * a dozen program failures (at a 2 % rate, spread so recovery
      programs are not themselves doomed) exercising remap + block
      retirement;
    * one whole-die outage window on die 1 (ops 1,200-1,440: op-count
      based, early enough that even short smoke runs reach it; narrower
      than the recovery paths' ``OUTAGE_RETRY_LIMIT`` so a stalled
      writer always outlives it);
    * a 4x latency spike window on die 0 (ops 600-1,000);
    * one deterministic erase failure growing a bad block through the
      erase path (the first BLOCK ERASE fails).
    """
    plan = FaultPlan(seed=seed)
    plan.add(FaultSpec(kind="transient_read", rate=0.015))
    plan.add(FaultSpec(kind="program_fail", rate=0.02, count=12))
    plan.add(FaultSpec(kind="die_outage", die=1, window=(1_200, 1_440)))
    plan.add(FaultSpec(kind="latency_spike", die=0, window=(600, 1_000),
                       factor=4.0))
    plan.add(FaultSpec(kind="erase_fail", count=1))
    return plan


def _make_workload(name: str):
    if name == "tpcc":
        return TPCC(warehouses=2, customers_per_district=20, items=60)
    if name == "tpcb":
        return TPCB(sf=4, accounts_per_branch=200)
    raise ValueError(f"unknown chaos workload {name!r}")


def run_chaos(
    workload_name: str = "tpcc",
    duration_us: float = 400_000.0,
    seed: int = 7,
    fault_plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """One chaos run: load + run the workload under faults (default
    :func:`default_chaos_plan`), then audit."""
    workload = _make_workload(workload_name)
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(footprint, DIES, utilization=0.8,
                              op_ratio=OP_RATIO,
                              headroom_pages=footprint // 2)
    rig = build_noftl_rig(
        geometry=geometry,
        config=NoFTLConfig(num_regions=DIES, op_ratio=OP_RATIO),
        seed=seed,
        fault_plan=(fault_plan if fault_plan is not None
                    else default_chaos_plan(seed=seed)),
        store_data=True,
    )
    oracle = ChecksumOracle(rig.adapter)
    rig.adapter = oracle
    db = attach_database(rig, buffer_capacity=max(64, footprint // 8),
                         foreground_flush=False)
    db.start_writers(NUM_WRITERS, policy="region")
    stats = run_workload(
        rig.sim, db, _make_workload(workload_name),
        duration_us=duration_us,
        num_terminals=NUM_TERMINALS,
        rng=random.Random(seed),
    )

    report = ChaosReport(
        workload=workload_name,
        seed=seed,
        commits=stats.commits,
        tps=stats.tps,
        pages_checked=len(oracle.checksums),
    )

    # -- audit 1: every acknowledged page reads back with its checksum ----
    def verify_pages():
        for lpn, expected in sorted(oracle.checksums.items()):
            try:
                data = yield from rig.storage.read(lpn)
            except UncorrectableError:
                report.pages_lost.append(lpn)
                continue
            if page_checksum(data) != expected:
                report.pages_corrupted.append(lpn)

    rig.sim.run_process(verify_pages())

    # -- audit 2: business-level invariants -------------------------------
    report.consistency_ok = bool(
        rig.sim.run_process(workload.verify_consistency(db))
    )

    manager_stats = rig.manager.stats
    report.injected = rig.array.fault_injector.injected_counts()
    report.read_retries = manager_stats.read_retries
    report.scrubs = manager_stats.scrubs
    report.program_remaps = manager_stats.program_remaps
    report.relocation_skips = manager_stats.relocation_skips
    report.grown_bad_blocks = manager_stats.grown_bad_blocks
    report.degraded = rig.manager.bad_blocks.degraded
    rig.telemetry.register_collector("chaos.report", report.snapshot)
    report.telemetry = rig.telemetry
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="TPC workload on NoFTL under an adversarial fault plan"
    )
    parser.add_argument("--workload", default="tpcc",
                        choices=("tpcc", "tpcb"))
    parser.add_argument("--duration-us", type=float, default=400_000.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--export", action="store_true",
                        help="write the telemetry snapshot to "
                             "$REPRO_METRICS_DIR")
    args = parser.parse_args(argv)

    report = run_chaos(workload_name=args.workload,
                       duration_us=args.duration_us, seed=args.seed)
    snap = report.snapshot()
    for key, value in snap.items():
        print(f"  {key}: {value}")
    if args.export:
        path = export_metrics(f"chaos_{args.workload}", report.telemetry,
                              extra=snap)
        print(f"telemetry snapshot: {path}")
    if not report.ok:
        print("CHAOS RUN FAILED: committed data lost or inconsistent")
        return 1
    print("chaos run ok: no acknowledged write lost")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
