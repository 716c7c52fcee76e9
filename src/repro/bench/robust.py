"""Robustness harness — NoFTL under flash faults, power cuts and overload.

NoFTL moves bad-block management, GC and recovery out of the device and
into the DBMS, so there is no FTL left to hide behind: the database
itself must lose no acknowledged write under flash faults and come back
from a power cut with every acknowledged commit intact.  Three seeded
scenarios prove it on one full NoFTL stack (DES flash device, storage
manager, mini-DBMS):

* ``chaos`` — TPC-C or TPC-B under every fault kind the injector knows,
  then a checksum readback of every acknowledged page
  (:func:`run_chaos`);
* ``crash`` — the same run replayed once per seeded power-cut point,
  each followed by a cold start and its audits (:func:`run_crash_sweep`);
* ``siege`` — the device front end's contracts under burst overload, a
  die outage and a power cut at once (:func:`run_siege`).

They share one pipeline: the rig (the ``"chaos"``, ``"cut"`` and
``"siege"`` shapes of :data:`~repro.bench.rigs.SHAPES`, built by
:func:`~repro.bench.rigs.build_closed_loop`), the cut and its WAL
snapshot (:func:`_run_to_cut`), recovery (:func:`_recover`: cold start,
integrity, consistency, resume, consistency), the process-pool fan-out
(:func:`_sweep`) and the report path (:func:`main`).  Command line (the
CI ``robustness-smoke`` job)::

    python -m repro.bench.robust chaos --workload tpcc --seed 7 --check --export
    python -m repro.bench.robust crash --workload all --cuts 10 --check
    python -m repro.bench.robust siege --seed 11 --check --export
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.badblock import DegradedModeError
from ..db import RID, cold_start
from ..db.recovery import mount_array
from ..device import FrontendConfig
from ..flash import (
    FaultPlan,
    FaultSpec,
    PowerCutError,
    ReadUnwrittenError,
    UncorrectableError,
    page_checksum,
)
from ..ftl.base import UNMAPPED
from ..telemetry import HealthMonitor, MetricsRegistry, OpContext
from ..workloads import run_workload
from .reporting import cli_verdict, emit, render_table
from .rigs import SHAPES, build_closed_loop
from .sweep import SweepTask, run_sweep

__all__ = ["ChecksumOracle", "ChaosReport", "CutReport", "CrashReport",
           "SiegeReport", "default_chaos_plan", "run_chaos",
           "run_crash_sweep", "run_siege"]

#: The siege's burst clients (their high-LPN range is the ``"siege"``
#: shape's reserved pages).
BURST_CLIENTS = 5
#: Where the siege pulls the plug: this share of the baseline's flash-op
#: span past the load.
SIEGE_CUT_FRACTION = 0.72
#: Siege fault windows (flash-op counts): die 1 out, die 0 4x slower.
SIEGE_OUTAGE_WINDOW = (2_000, 2_300)
SIEGE_SPIKE_WINDOW = (1_000, 1_600)
#: Front-end tuning for the siege.  The write deadline is short so burst
#: overload sheds within the run; the read deadline is generous so
#: foreground transactions (which do not catch DegradedModeError) are
#: starved, throttled, slowed — but never killed.  The cache is small
#: enough that burst arrivals structurally exceed destage throughput at
#: every burst peak.
SIEGE_FRONTEND = FrontendConfig(
    max_inflight=8,
    destage_workers=4,
    cache_pages=96,
    dirty_high_watermark=0.75,
    queue_limit=64,
    read_deadline_us=200_000.0,
    write_deadline_us=2_500.0,
    trim_deadline_us=200_000.0,
    gc_blame_threshold=0.5,
)

_HEAP_KINDS = ("insert", "update", "delete")


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


@dataclass(kw_only=True)
class _Recovery:
    """The verdicts every power-cut scenario shares."""

    fired: bool = False
    integrity_errors: List[str] = field(default_factory=list)
    consistency_ok: bool = False
    resumed_commits: int = 0
    resumed_consistent: bool = False
    error: str = ""
    #: The registry the run recorded into.
    telemetry: Optional[MetricsRegistry] = None

    @property
    def recovered(self) -> bool:
        return (self.fired and not self.error and not self.integrity_errors
                and self.consistency_ok
                and self.resumed_commits > 0 and self.resumed_consistent)


def _run_to_cut(report: _Recovery, loop, drive):
    """Run ``drive()`` until the power dies; return the durable LSN and
    the durable WAL records at the cut, or ``None`` if it never fired.

    The WAL is snapshotted at the instant the power dies — the log lives
    on a separate device, so nothing that happens while the doomed run
    unwinds may leak into what recovery gets to see.
    """
    at_cut: dict = {}
    db = loop.db

    def on_cut(command):
        at_cut["durable_lsn"] = db.wal.flushed_lsn
        at_cut["records"] = list(db.wal.records)

    loop.rig.array.on_power_cut = on_cut
    try:
        drive()
    except PowerCutError:
        pass
    if not at_cut:
        report.error = "cut point never reached"
        return None
    report.fired = True
    durable_lsn = at_cut["durable_lsn"]
    return durable_lsn, [r for r in at_cut["records"] if r.lsn <= durable_lsn]


def _recover(report: _Recovery, loop, cut, resume_us: float,
             resume_seed: int, telemetry=None, audit=None):
    """Cold start from the array and the durable WAL alone (the rig's
    configuration, buffer and kit), then ``verify_integrity`` →
    ``audit(boot)`` → consistency → resume new traffic on the shape's
    terminals → consistency again; a failure sets ``report.error``."""
    durable_lsn, durable = cut
    rig, shape, workload = loop.rig, loop.shape, loop.kit
    try:
        boot = cold_start(
            rig.array, rig.geometry, durable, durable_lsn,
            workload.declare_schema, config=rig.manager.config,
            buffer_capacity=shape.buffer_frames(loop.footprint),
            telemetry=telemetry,
            db_kwargs={"foreground_flush": False},
        )
    except Exception as exc:  # a crash here IS the bug being hunted
        report.error = f"cold start failed: {exc!r}"
        return
    report.integrity_errors = boot.manager.verify_integrity()
    if audit is not None:
        audit(boot)
    report.consistency_ok = bool(
        boot.sim.run_process(workload.verify_consistency(boot.db))
    )
    try:
        boot.db.start_writers(shape.writers, policy="region")
        stats = run_workload(boot.sim, boot.db, workload,
                             duration_us=resume_us,
                             num_terminals=shape.terminals,
                             rng=random.Random(resume_seed), preloaded=True)
        report.resumed_commits = stats.commits
        report.resumed_consistent = bool(
            boot.sim.run_process(workload.verify_consistency(boot.db))
        )
    except Exception as exc:
        report.error = f"resume failed: {exc!r}"


def _sweep(telemetry: MetricsRegistry, fn: str, runs, workers: int,
           progress) -> list:
    """Fan ``(label, kwargs)`` runs of ``fn`` out through
    :func:`~repro.bench.sweep.run_sweep` and return their reports.  Each
    run is a function of this module that records into a registry it
    creates itself (its report carries it); the parent folds those into
    ``telemetry`` in task order, so report and telemetry are
    byte-identical whatever ``workers`` is."""
    reports: list = []

    def on_result(index, task, report):
        telemetry.merge_from(report.telemetry)
        reports.append(report)
        emit(f"  {progress(report)} [{'ok' if report.ok else 'FAILED'}]")

    run_sweep([SweepTask(label, f"repro.bench.robust:{fn}", kwargs)
               for label, kwargs in runs],
              workers=workers, on_result=on_result)
    return reports


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
    def ok(self) -> bool:
        return (not self.pages_lost and not self.pages_corrupted
                and self.consistency_ok)

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


def run_chaos(
    workload_name: str = "tpcc",
    duration_us: float = 400_000.0,
    seed: int = 7,
    fault_plan: Optional[FaultPlan] = None,
) -> ChaosReport:
    """One chaos run: load + run the workload under faults (default
    :func:`default_chaos_plan`), then audit.

    A :class:`ChecksumOracle` wraps the storage and records the checksum
    of every write the device acknowledged; after the run every recorded
    page is read back and compared (a mismatch is lost-or-corrupted
    committed data), then the workload's own ``verify_consistency``
    audits the business invariants.
    """
    loop = build_closed_loop(
        SHAPES["chaos"], workload_name, "noftl", seed,
        fault_plan=fault_plan if fault_plan is not None
        else default_chaos_plan(seed=seed),
        wrap=ChecksumOracle)
    rig, db, oracle = loop.rig, loop.db, loop.rig.adapter
    stats = loop.drive(duration_us, seed, preloaded=False)

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
        rig.sim.run_process(loop.kit.verify_consistency(db))
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


@dataclass
class CutReport(_Recovery):
    """Verdict for one power-cut point."""

    cut_op: int
    durable_lsn: int = 0
    acked_commits: int = 0
    #: mount forensics (from the cold start's OOB scan)
    torn_pages: int = 0
    duplicate_ties: int = 0
    quarantined_blocks: int = 0
    mappings: int = 0
    #: recovery forensics
    redo_applied: int = 0
    undo_applied: int = 0
    #: violations — must stay empty, as must ``integrity_errors``
    torn_reads: List[int] = field(default_factory=list)
    lost_slots: List[Tuple[str, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.recovered and not self.torn_reads and not self.lost_slots

    def snapshot(self) -> dict:
        return {
            "cut_op": self.cut_op,
            "fired": self.fired,
            "durable_lsn": self.durable_lsn,
            "acked_commits": self.acked_commits,
            "torn_pages": self.torn_pages,
            "duplicate_ties": self.duplicate_ties,
            "quarantined_blocks": self.quarantined_blocks,
            "mappings": self.mappings,
            "redo_applied": self.redo_applied,
            "undo_applied": self.undo_applied,
            "integrity_errors": list(self.integrity_errors),
            "torn_reads": len(self.torn_reads),
            "lost_slots": [list(key) for key in self.lost_slots[:10]],
            "consistency_ok": self.consistency_ok,
            "resumed_commits": self.resumed_commits,
            "resumed_consistent": self.resumed_consistent,
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class CrashReport:
    """Outcome of one full sweep."""

    workload: str
    seed: int
    baseline_commits: int = 0
    baseline_ops: int = 0
    load_ops: int = 0
    cuts: List[CutReport] = field(default_factory=list)
    telemetry: Optional[MetricsRegistry] = None

    @property
    def ok(self) -> bool:
        return bool(self.cuts) and all(cut.ok for cut in self.cuts)

    def snapshot(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "baseline_commits": self.baseline_commits,
            "baseline_ops": self.baseline_ops,
            "load_ops": self.load_ops,
            "cuts": [cut.snapshot() for cut in self.cuts],
            "cuts_total": len(self.cuts),
            "cuts_failed": sum(1 for cut in self.cuts if not cut.ok),
            "ok": self.ok,
        }


def _committed_slot_image(durable, committed):
    """Fold the durable committed heap records into ``(heap, page, slot)
    -> expected bytes`` (``None`` = expected absent) plus the final
    committed owner heap of every page id.

    This is the harness's *independent* oracle: it never consults the
    recovery code under test, only the log semantics — insert/update set
    the slot to the after-image, delete clears it, last committed record
    wins.  Loser records are ignored on purpose: recovery must undo them
    back to exactly these committed values (before-image chains bottom
    out at the last committed write under strict 2PL).

    The owner map handles recycled page ids: a page one heap emptied,
    released and another heap re-grew holds the *new* owner's rows, so
    the old heap's expected-absent slots are vacuous there.
    """
    slots: Dict[tuple, object] = {}
    owner: Dict[int, str] = {}
    for record in durable:
        if record.kind not in _HEAP_KINDS:
            continue
        if record.txn_id not in committed:
            continue
        key = (record.payload[0], record.payload[1], record.payload[2])
        slots[key] = None if record.kind == "delete" else record.payload[3]
        owner[record.payload[1]] = record.payload[0]
    return slots, owner


def _run_one_cut(workload_name: str, footprint: int, seed: int,
                 cut_op: int, duration_us: float,
                 resume_us: float) -> CutReport:
    """One power-cut audit against a fresh registry (a sweep task)."""
    telemetry = MetricsRegistry()
    report = CutReport(cut_op=cut_op, telemetry=telemetry)
    loop = build_closed_loop(
        SHAPES["cut"], workload_name, "noftl", seed, telemetry=telemetry,
        fault_plan=FaultPlan.power_cut_at(cut_op, seed=seed), preload=True,
        footprint=footprint)
    cut = _run_to_cut(report, loop, lambda: loop.drive(duration_us, seed))
    if cut is None:
        return report
    report.durable_lsn, durable = cut
    committed = {r.txn_id for r in durable if r.kind == "commit"}
    report.acked_commits = len(committed)
    expected, page_owner = _committed_slot_image(durable, committed)

    def audit(boot):
        report.torn_pages = boot.mount.torn_pages
        report.duplicate_ties = boot.mount.duplicate_ties
        report.quarantined_blocks = len(boot.mount.quarantined_blocks)
        report.mappings = boot.mount.mappings
        report.redo_applied = boot.recovery.redo_applied
        report.undo_applied = boot.recovery.undo_applied

        # -- every mapped page is readable (no torn page surfaced) --------
        def readback():
            mapping = boot.manager.mapping
            for lpn in range(len(mapping.l2p)):
                if mapping.l2p[lpn] == UNMAPPED:
                    continue
                try:
                    yield from boot.storage.read(lpn)
                except UncorrectableError:
                    report.torn_reads.append(lpn)

        boot.sim.run_process(readback())

        # -- no acknowledged-committed slot lost --------------------------
        def check_slots():
            txn = boot.db.begin()
            for (heap_name, page_id, slot), want in sorted(expected.items()):
                if want is None and page_owner.get(page_id) != heap_name:
                    # The page moved to another heap after this slot's
                    # delete committed; absence here is vacuously true.
                    continue
                heap = boot.db.heaps.get(heap_name)
                if heap is None:
                    report.lost_slots.append((heap_name, page_id, slot))
                    continue
                try:
                    raw = yield from heap.read(txn, RID(page_id, slot),
                                               acquire_lock=False)
                except KeyError:
                    raw = None
                except UncorrectableError:
                    report.torn_reads.append(page_id)
                    continue
                if raw != want:
                    report.lost_slots.append((heap_name, page_id, slot))
            yield from boot.db.commit(txn)

        boot.sim.run_process(check_slots())

    _recover(report, loop, cut, resume_us, seed + cut_op,
             telemetry=telemetry, audit=audit)
    return report


def run_crash_sweep(
    workload_name: str = "tpcb",
    cuts: int = 10,
    seed: int = 7,
    duration_us: float = 120_000.0,
    resume_us: float = 40_000.0,
    workers: int = 1,
) -> CrashReport:
    """Baseline run → N seeded cut points → cold start + audits per cut.

    The baseline learns how many flash commands the run issues; each cut
    replays the identical run, pulls the plug at its command boundary
    (torn page or half-erased block included, courtesy of the injector's
    wreckage model) and cold-starts from nothing but the surviving array
    and the WAL prefix durable *at the instant of the cut*.  Per cut:
    mount integrity; every mapped page reads back (no torn page
    surfaced); every slot of the committed-slot image reads back (no
    acknowledged commit lost); consistency; and the database resumes.
    ``workers > 1`` fans the cut audits out over a process pool
    (:func:`_sweep`).
    """
    telemetry = MetricsRegistry()
    report = CrashReport(workload=workload_name, seed=seed,
                         telemetry=telemetry)

    # -- baseline: learn the run's flash-command span ---------------------
    loop = build_closed_loop(SHAPES["cut"], workload_name, "noftl", seed,
                             telemetry=telemetry, preload=True)
    footprint = loop.footprint
    injector = loop.rig.array.fault_injector
    load_ops = injector.ops
    stats = loop.drive(duration_us, seed)
    report.baseline_commits = stats.commits
    report.load_ops = load_ops
    report.baseline_ops = injector.ops
    if report.baseline_ops <= load_ops + 1:
        raise RuntimeError("workload issued no flash commands to cut")

    # Seeded sweep points, strictly after the initial load (a database
    # that never finished loading has no commits to lose — and no schema
    # for the terminals to resume against).
    span = range(load_ops + 1, report.baseline_ops)
    rng = random.Random(seed)
    if len(span) <= cuts:
        cut_ops = list(span)
    else:
        cut_ops = sorted(rng.sample(span, cuts))

    report.cuts = _sweep(telemetry, "_run_one_cut", [
        (f"{workload_name}@op{cut_op}", {
            "workload_name": workload_name,
            "footprint": footprint,
            "seed": seed,
            "cut_op": cut_op,
            "duration_us": duration_us,
            "resume_us": resume_us,
        })
        for cut_op in cut_ops
    ], workers, lambda cut: (
        f"cut @ op {cut.cut_op}: durable_lsn={cut.durable_lsn} "
        f"acked={cut.acked_commits} torn={cut.torn_pages} "
        f"resumed={cut.resumed_commits}"))

    telemetry.register_collector(f"crash.{workload_name}",
                                 report.snapshot)
    return report


@dataclass
class SiegeReport(_Recovery):
    """Everything the acceptance gate needs to judge one siege run."""

    seed: int
    cut_op: int = 0
    commits: int = 0
    baseline_ops: int = 0
    # front-end activity (from the cut run)
    acks: int = 0
    destages: int = 0
    barriers: int = 0
    coalesced: int = 0
    hazard_stalls: int = 0
    volatile_at_cut: int = 0
    # shed accounting: reported (raised by the front end) vs observed
    # (caught and counted by some caller) — must match exactly.
    sheds_reported: int = 0
    sheds_burst: int = 0
    sheds_writers: int = 0
    sheds_checkpoint: int = 0
    # durability audit (post-cut, pre-replay)
    durable_pages: int = 0
    volatile_pages: int = 0
    lost_durable: List[int] = field(default_factory=list)
    corrupt_durable: List[int] = field(default_factory=list)
    corrupt_volatile: List[int] = field(default_factory=list)
    hazard_violations: int = 0
    reads_checked: int = 0

    @property
    def sheds_observed(self) -> int:
        return self.sheds_burst + self.sheds_writers + self.sheds_checkpoint

    @property
    def ok(self) -> bool:
        return (
            self.recovered
            and not self.lost_durable and not self.corrupt_durable
            and not self.corrupt_volatile
            and self.hazard_violations == 0
            and self.sheds_reported > 0
            and self.sheds_reported == self.sheds_observed
            and self.barriers > 0 and self.durable_pages > 0
        )

    def snapshot(self) -> dict:
        return {
            "seed": self.seed,
            "cut_op": self.cut_op,
            "fired": self.fired,
            "commits": self.commits,
            "baseline_ops": self.baseline_ops,
            "acks": self.acks,
            "destages": self.destages,
            "barriers": self.barriers,
            "coalesced": self.coalesced,
            "hazard_stalls": self.hazard_stalls,
            "volatile_at_cut": self.volatile_at_cut,
            "sheds_reported": self.sheds_reported,
            "sheds_observed": self.sheds_observed,
            "sheds_burst": self.sheds_burst,
            "sheds_writers": self.sheds_writers,
            "sheds_checkpoint": self.sheds_checkpoint,
            "durable_pages": self.durable_pages,
            "volatile_pages": self.volatile_pages,
            "lost_durable": len(self.lost_durable),
            "corrupt_durable": len(self.corrupt_durable),
            "corrupt_volatile": len(self.corrupt_volatile),
            "hazard_violations": self.hazard_violations,
            "reads_checked": self.reads_checked,
            "integrity_errors": list(self.integrity_errors),
            "consistency_ok": self.consistency_ok,
            "resumed_commits": self.resumed_commits,
            "resumed_consistent": self.resumed_consistent,
            "error": self.error,
            "ok": self.ok,
        }


def _siege_plan(seed: int, cut_op: Optional[int] = None) -> FaultPlan:
    """Outage + latency spike; same plan both runs so the flash-command
    sequence matches, plus the power cut only on the second run."""
    plan = FaultPlan(seed=seed)
    plan.add(FaultSpec(kind="die_outage", die=1, window=SIEGE_OUTAGE_WINDOW))
    plan.add(FaultSpec(kind="latency_spike", die=0, window=SIEGE_SPIKE_WINDOW,
                       factor=4.0))
    if cut_op is not None:
        plan.add(FaultSpec(kind="power_cut", at_op=cut_op))
    return plan


def _one_burst_op(oracle, lpn: int, roll: float, seq: int,
                  counts: Dict[str, int]):
    """One fire-and-forget burst operation.  Every shed is *observed* —
    counted, not swallowed into oblivion — which is what the shed gate
    compares against the front end's raised-shed tally."""
    try:
        if roll < 0.15:
            yield from oracle.read(lpn, ctx=OpContext("host"))
        elif roll < 0.18:
            yield from oracle.trim(lpn, ctx=OpContext("host"))
        else:
            yield from oracle.write(lpn, ("burst", seq),
                                    ctx=OpContext("host"))
    except DegradedModeError:
        counts["sheds"] += 1
    except (PowerCutError, ReadUnwrittenError, UncorrectableError):
        # The power died, or a read found a never-written or freshly
        # trimmed burst page: an expected end, not a shed.
        pass


def _burst_client(sim, oracle, rng, base: int, span: int, end_at: float,
                  counts: Dict[str, int], burst_size: int,
                  gap_us: float):
    """Open-loop bursty submitter on the reserved LPN range.

    Arrivals are open-loop for real: each op is its own process, so a
    burst piles dozens of writes onto the watermark at once instead of
    politely queueing one at a time — that pile-up is what forces
    deadline sheds.
    """
    while sim.now < end_at:
        yield sim.timeout(gap_us * (0.5 + rng.random()))
        for _ in range(burst_size):
            if sim.now >= end_at:
                return
            lpn = base + rng.randrange(span)
            counts["seq"] += 1
            sim.process(_one_burst_op(oracle, lpn, rng.random(),
                                      counts["seq"], counts))
            yield sim.timeout(2.0)  # inter-arrival within the burst


def _checkpointer(sim, db, interval_us: float, counts: Dict[str, int],
                  end_at: float):
    """Periodic checkpoint: flush the pool, then the device barrier —
    this is what advances the oracle's durable floors mid-run."""
    while sim.now < end_at:
        yield sim.timeout(interval_us)
        try:
            yield from db.buffer.flush_all()
        except DegradedModeError:
            counts["sheds"] += 1
        except PowerCutError:
            return


def _siege_rig(seed: int, plan, telemetry=None, footprint=None):
    """The siege's rig, loaded; returns it, the oracle and the flash
    commands the load issued.  The DBMS mounts the oracle, which wraps
    the front end: every host-level ack/barrier is witnessed at the
    exact layer where the durability contract is spoken."""
    loop = build_closed_loop(
        SHAPES["siege"], "tpcb", "noftl", seed, telemetry=telemetry,
        fault_plan=plan, frontend_config=SIEGE_FRONTEND,
        wrap=lambda frontend: ChecksumOracle(frontend, shadow_reads=True),
        preload=True, footprint=footprint)
    return loop, loop.rig.frontend, loop.rig.array.fault_injector.ops


def _run_traffic(loop, oracle, seed: int, duration_us: float,
                 burst_counts: Dict[str, int],
                 ckpt_counts: Dict[str, int]):
    """Terminals + burst clients + checkpointer, one timed window; the
    terminals' stats, or ``None`` if the power died."""
    sim = loop.rig.sim
    end_at = sim.now + duration_us
    # Reserved high-LPN range, far above anything TPC-B allocates.
    base = oracle.logical_pages - 256
    rng = random.Random(seed + 17)
    for index in range(BURST_CLIENTS):
        sim.process(_burst_client(
            sim, oracle, random.Random(rng.randrange(2 ** 62)),
            base, 160, end_at, burst_counts,
            burst_size=120, gap_us=9_000.0,
        ))
    sim.process(_checkpointer(sim, loop.db, 15_000.0, ckpt_counts, end_at))
    try:
        return loop.drive(duration_us, seed)
    except PowerCutError:
        return None


def _mount_only_audit(rig, oracle, report: SiegeReport):
    """Post-cut, pre-replay: power-cycle, OOB-mount a fresh manager (the
    scan is read-only) and read back every oracle-tracked page."""
    sim, __, storage, __ = mount_array(rig.array, rig.geometry,
                                       config=rig.manager.config)

    durable = sorted(oracle.durable_floor)
    volatile = sorted(set(oracle.history) - set(oracle.durable_floor))
    report.durable_pages = len(durable)
    report.volatile_pages = len(volatile)

    def read_back(lpn):
        """The page's media content, or ``None`` when it is gone."""
        try:
            return (yield from storage.read(lpn))
        except (ReadUnwrittenError, UncorrectableError):
            return None

    def audit():
        for lpn in durable:
            data = yield from read_back(lpn)
            if data is None:
                # Unreadable or absent from the rebuilt mapping: a
                # barriered page whose media copy vanished — a
                # durability-contract breach.
                report.lost_durable.append(lpn)
            elif page_checksum(data) not in oracle.acceptable_after_cut(lpn):
                report.corrupt_durable.append(lpn)
        for lpn in volatile:
            # Un-barriered: may be gone entirely (absent is a legal fate),
            # but whatever *is* on media must be some acknowledged
            # version — never garbage.  Pre-trim versions count as acked:
            # a trim is in-RAM only, so the OOB mount scan can resurrect
            # them after the cut.
            data = yield from read_back(lpn)
            if data is not None \
                    and page_checksum(data) not in oracle.acked_versions(lpn):
                report.corrupt_volatile.append(lpn)

    sim.run_process(audit())


def run_siege(seed: int = 11, duration_us: float = 140_000.0,
              resume_us: float = 40_000.0) -> SiegeReport:
    """Baseline run (outage + spike, no cut) to learn the op span, then
    the identical run with the plug pulled, then the audits.

    TPC-B runs through ``oracle(frontend(storage))`` with shadow
    read-after-write checking armed, open-loop burst clients hammer a
    reserved LPN range far past the write-back cache's destage throughput
    (forcing deadline sheds), and periodic checkpoints advance the
    oracle's durable floors, so the cut lands on a mix of acked-durable
    and acked-volatile pages.  Audit order matters: a **mount-only** pass
    (the OOB scan is read-only, so mounting twice is safe) proves the
    durability contract *before* ARIES replay rewrites anything; then the
    cold start.  :attr:`SiegeReport.ok` lists the gates.
    """
    telemetry = MetricsRegistry()
    report = SiegeReport(seed=seed, telemetry=telemetry)

    # -- run 1: fault-identical baseline, no cut --------------------------
    loop, oracle, load_ops = _siege_rig(seed, _siege_plan(seed))
    _run_traffic(loop, oracle, seed, duration_us,
                 {"seq": 0, "sheds": 0}, {"sheds": 0})
    report.baseline_ops = loop.rig.array.fault_injector.ops
    if report.baseline_ops <= load_ops + 10:
        report.error = "baseline issued too few flash commands"
        return report

    # -- run 2: same scenario + the power cut -----------------------------
    span = report.baseline_ops - load_ops
    report.cut_op = load_ops + max(1, int(span * SIEGE_CUT_FRACTION))
    loop, oracle, __ = _siege_rig(seed, _siege_plan(seed, report.cut_op),
                                  telemetry, loop.footprint)
    rig, db, frontend = loop.rig, loop.db, oracle.adapter
    # Health telemetry rides on the instrumented (cut) run: the WA
    # ledger and windowed saturation series land in the exported
    # snapshot via the health.* collectors.
    monitor = HealthMonitor(window_us=10_000.0, clock=lambda: rig.sim.now)
    monitor.attach_array(rig.array)
    monitor.attach_frontend(frontend)
    monitor.install(telemetry)
    burst_counts, ckpt_counts = {"seq": 0, "sheds": 0}, {"sheds": 0}
    cut = _run_to_cut(report, loop, lambda: _run_traffic(
        loop, oracle, seed, duration_us, burst_counts, ckpt_counts))
    if cut is None:
        return report
    report.commits = db.txn_manager.commits
    report.acks = frontend.ack_count
    report.destages = frontend.destage_count
    report.barriers = frontend.barrier_count
    report.coalesced = frontend.coalesced_count
    report.hazard_stalls = frontend.hazard_stalls
    report.volatile_at_cut = frontend.volatile_lost
    report.sheds_reported = frontend.sheds_total
    report.sheds_burst = burst_counts["sheds"]
    report.sheds_checkpoint = ckpt_counts["sheds"]
    report.sheds_writers = sum(db.writers.pages_refused)
    report.hazard_violations = len(oracle.hazard_violations)
    report.reads_checked = oracle.reads_checked

    # -- audit 1: the durability contract, before replay touches media ----
    _mount_only_audit(rig, oracle, report)

    # -- audit 2: cold start, business invariants, resume -----------------
    _recover(report, loop, cut, resume_us, seed + 1)
    if not report.error:
        telemetry.register_collector("siege.report", report.snapshot)
    return report


def _one_run(args, name: str, report, passed: str,
             failed: str) -> List[bool]:
    snap = report.snapshot()
    for key, value in snap.items():
        emit(f"  {key}: {value}")
    return [cli_verdict(args, name, report.telemetry, snap, report.ok, passed,
                     failed)]


def _chaos(args) -> List[bool]:
    report = run_chaos(workload_name=args.workload,
                       duration_us=args.duration_us, seed=args.seed)
    return _one_run(args, f"chaos_{args.workload}", report,
                    "chaos run ok: no acknowledged write lost",
                    "CHAOS RUN FAILED: committed data lost or inconsistent")


def _crash(args) -> List[bool]:
    names = ("tpcb", "tpcc") if args.workload == "all" \
        else (args.workload,)
    verdicts = []
    for name in names:
        report = run_crash_sweep(
            workload_name=name, cuts=args.cuts, seed=args.seed,
            duration_us=args.duration_us, resume_us=args.resume_us,
            workers=args.workers,
        )
        emit(render_table(
            f"crash sweep — {report.workload} (seed {report.seed}, "
            f"baseline {report.baseline_commits} commits over "
            f"{report.baseline_ops} flash ops)",
            ["cut op", "durable lsn", "acked", "torn", "quar", "redo",
             "undo", "resumed", "verdict"],
            [(cut.cut_op, cut.durable_lsn, cut.acked_commits, cut.torn_pages,
              cut.quarantined_blocks, cut.redo_applied, cut.undo_applied,
              cut.resumed_commits, "ok" if cut.ok else "FAILED")
             for cut in report.cuts],
        ))
        bad = [c.cut_op for c in report.cuts if not c.ok]
        verdicts.append(cli_verdict(
            args, f"crash_{name}", report.telemetry, report.snapshot(),
            report.ok,
            f"{name}: {len(report.cuts)} cuts survived — no acknowledged "
            f"commit lost, no torn page surfaced",
            f"{name}: CRASH SWEEP FAILED at cut ops {bad}"))
    return verdicts


def _siege(args) -> List[bool]:
    if not args.seeds:
        report = run_siege(seed=args.seed, duration_us=args.duration_us,
                           resume_us=args.resume_us)
        return _one_run(args, f"siege-seed{args.seed}", report,
                        "siege ok: no barriered ack lost, no hazard "
                        f"violation, {report.sheds_reported} sheds all "
                        "reported", "SIEGE FAILED")
    # Collector-backed series (health ledger, siege.report) stay with
    # their source run and are not merged.
    telemetry = MetricsRegistry()
    reports = _sweep(telemetry, "run_siege", [
        (f"siege@seed{seed}", {"seed": seed, "duration_us": args.duration_us,
                               "resume_us": args.resume_us})
        for seed in args.seeds
    ], args.workers, lambda report: (
        f"seed {report.seed}: cut@{report.cut_op} commits={report.commits} "
        f"sheds={report.sheds_reported} resumed={report.resumed_commits}"))
    bad = [r.seed for r in reports if not r.ok]
    return [cli_verdict(args, "siege-sweep", telemetry,
                     {"seeds": {str(r.seed): r.snapshot() for r in reports}},
                     not bad, f"siege sweep ok: {len(reports)} seeds survived",
                     f"SIEGE SWEEP FAILED at seeds {bad}")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Robustness harness: NoFTL under flash faults, power "
                    "cuts and overload")
    gates = argparse.ArgumentParser(add_help=False)
    gates.add_argument("--check", action="store_true",
                       help="exit non-zero unless every gate holds")
    gates.add_argument("--export", action="store_true",
                       help="write telemetry snapshots to $REPRO_METRICS_DIR")
    scenarios = parser.add_subparsers(dest="scenario", required=True)
    chaos = scenarios.add_parser(
        "chaos", parents=[gates],
        help="TPC workload under an adversarial fault plan")
    crash = scenarios.add_parser(
        "crash", parents=[gates],
        help="power-cut sweep: cold-start recovery audit per cut")
    siege = scenarios.add_parser(
        "siege", parents=[gates],
        help="burst overload + die outage + power cut through the front end")
    for sub, run, seed, duration_us in ((chaos, _chaos, 7, 400_000.0),
                                         (crash, _crash, 7, 120_000.0),
                                         (siege, _siege, 11, 140_000.0)):
        sub.set_defaults(run=run)
        sub.add_argument("--seed", type=int, default=seed)
        sub.add_argument("--duration-us", type=float, default=duration_us)
    chaos.add_argument("--workload", default="tpcc", choices=("tpcc", "tpcb"))
    crash.add_argument("--workload", default="all",
                       choices=("tpcc", "tpcb", "all"))
    crash.add_argument("--cuts", type=int, default=10)
    siege.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="run one independent siege per seed and "
                            "merge their telemetry (overrides --seed)")
    for sweeping in (crash, siege):
        sweeping.add_argument("--resume-us", type=float, default=40_000.0)
        sweeping.add_argument("--workers", type=int, default=1,
                              help="process-pool width for the cuts or "
                                   "seeds (1 = in-process; output is "
                                   "byte-identical either way)")
    args = parser.parse_args(argv)
    verdicts = args.run(args)
    return 1 if args.check and not all(verdicts) else 0


if __name__ == "__main__":
    raise SystemExit(main())
