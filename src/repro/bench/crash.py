"""Crash sweep — power cuts at seeded flash-op boundaries, then cold start.

The durability claim behind the paper's architecture is the sharpest one
it makes: with flash management inside the DBMS there is no FTL left to
hide behind, so *the database itself* must come back from an arbitrary
power cut with every acknowledged commit intact.  This harness proves it
by brute force.  One baseline run learns how many flash commands a
workload issues; the sweep then replays the identical run N times, each
time pulling the plug at a different seeded command boundary (torn page
or half-erased block included, courtesy of the injector's wreckage
model), and cold-starts the database from nothing but the surviving
:class:`~repro.flash.FlashArray` and the WAL prefix that was durable *at
the instant of the cut*.

Per cut point the harness checks, in order:

1. **mount integrity** — the OOB scan's rebuilt mapping/allocation state
   passes :meth:`~repro.core.NoFTLStorageManager.verify_integrity`;
2. **no torn page surfaced** — every mapped logical page reads back
   without :class:`~repro.flash.UncorrectableError`;
3. **no acknowledged commit lost** — an independent interpreter folds
   the durable log's *committed* heap records into a per-slot expected
   image and reads every slot back through the recovered database;
4. **business invariants** — the workload's own ``verify_consistency``
   (TPC-B balance sheets, TPC-C order counts);
5. **the database resumes** — fresh terminals commit new transactions on
   the recovered state and the invariants still hold afterwards.

Run from the command line (used by the CI ``crash-smoke`` job)::

    python -m repro.bench.crash --cuts 25 --check

The telemetry snapshot (``flash.power_cuts``, ``noftl.mount.*``, per-cut
verdicts) lands in ``$REPRO_METRICS_DIR/crash_<workload>.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import NoFTLConfig
from ..db import RID, cold_start
from ..flash import FaultPlan, PowerCutError, UncorrectableError
from ..ftl.base import UNMAPPED
from ..telemetry import MetricsRegistry
from ..workloads import TPCB, TPCC, run_workload
from .reporting import emit, export_metrics, render_table
from .rigs import attach_database, build_noftl_rig, sized_geometry, \
    measure_workload_footprint
from .sweep import SweepTask, run_sweep

__all__ = ["CutReport", "CrashReport", "run_crash_sweep"]

_HEAP_KINDS = ("insert", "update", "delete")
#: Terminals of every baseline, cut and resumed run.
NUM_TERMINALS = 8


def _make_workload(name: str):
    # Deliberately smaller than the chaos sizes: a sweep replays the
    # whole run once per cut point, so the footprint is the multiplier.
    if name == "tpcc":
        return TPCC(warehouses=1, customers_per_district=12, items=48)
    if name == "tpcb":
        return TPCB(sf=2, accounts_per_branch=120)
    raise ValueError(f"unknown crash workload {name!r}")


@dataclass
class CutReport:
    """Verdict for one power-cut point."""

    cut_op: int
    fired: bool = False
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
    #: violations — all must stay empty / True
    integrity_errors: List[str] = field(default_factory=list)
    torn_reads: List[int] = field(default_factory=list)
    lost_slots: List[Tuple[str, int, int]] = field(default_factory=list)
    consistency_ok: bool = False
    resumed_commits: int = 0
    resumed_consistent: bool = False
    error: str = ""

    @property
    def ok(self) -> bool:
        return (self.fired and not self.error
                and not self.integrity_errors and not self.torn_reads
                and not self.lost_slots and self.consistency_ok
                and self.resumed_commits > 0 and self.resumed_consistent)

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


def _build_rig(workload_name: str, geometry, seed: int, telemetry,
               fault_plan=None, footprint: int = 0):
    """One deterministic testbed; identical construction order on every
    call so a cut run replays the baseline's flash-command sequence
    exactly until the plug is pulled."""
    rig = build_noftl_rig(
        geometry=geometry,
        config=NoFTLConfig(num_regions=8, op_ratio=0.28),
        seed=seed,
        telemetry=telemetry,
        fault_plan=fault_plan,
        store_data=True,
    )
    db = attach_database(rig, buffer_capacity=max(64, footprint // 8),
                         foreground_flush=False)
    db.wal.keep_records = True
    rig.sim.run_process(_make_workload(workload_name).load(db))
    load_ops = rig.array.fault_injector.ops
    db.start_writers(4, policy="region")
    return rig, db, load_ops


def _run_one_cut(workload_name: str, geometry, footprint: int, seed: int,
                 cut_op: int, duration_us: float, resume_us: float,
                 telemetry) -> CutReport:
    report = CutReport(cut_op=cut_op)
    plan = FaultPlan.power_cut_at(cut_op, seed=seed)
    rig, db, __ = _build_rig(workload_name, geometry, seed, telemetry,
                             fault_plan=plan, footprint=footprint)

    # Snapshot the durable WAL prefix at the instant the power dies —
    # the log lives on a separate device, so nothing that happens while
    # the doomed run unwinds may leak into what recovery gets to see.
    at_cut: dict = {}

    def on_cut(command):
        at_cut["durable_lsn"] = db.wal.flushed_lsn
        at_cut["records"] = list(db.wal.records)

    rig.array.on_power_cut = on_cut
    try:
        run_workload(rig.sim, db, _make_workload(workload_name),
                     duration_us=duration_us, num_terminals=NUM_TERMINALS,
                     rng=random.Random(seed), preloaded=True)
    except PowerCutError:
        pass
    if not at_cut:
        report.error = "cut point never reached"
        return report
    report.fired = True
    report.durable_lsn = at_cut["durable_lsn"]
    durable = [r for r in at_cut["records"]
               if r.lsn <= report.durable_lsn]
    committed = {r.txn_id for r in durable if r.kind == "commit"}
    report.acked_commits = len(committed)

    # -- cold start: array + durable WAL are the only inputs --------------
    workload = _make_workload(workload_name)
    try:
        boot = cold_start(
            rig.array, geometry, durable, report.durable_lsn,
            workload.declare_schema,
            config=NoFTLConfig(num_regions=8, op_ratio=0.28),
            buffer_capacity=max(64, footprint // 8),
            telemetry=telemetry,
            db_kwargs={"foreground_flush": False},
        )
    except Exception as exc:  # a crash here IS the bug being hunted
        report.error = f"cold start failed: {exc!r}"
        return report
    report.torn_pages = boot.mount.torn_pages
    report.duplicate_ties = boot.mount.duplicate_ties
    report.quarantined_blocks = len(boot.mount.quarantined_blocks)
    report.mappings = boot.mount.mappings
    report.redo_applied = boot.recovery.redo_applied
    report.undo_applied = boot.recovery.undo_applied

    # -- check 1: mapping/allocation invariants ---------------------------
    report.integrity_errors = boot.manager.verify_integrity()

    # -- check 2: every mapped page is readable (no torn page surfaced) ---
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

    # -- check 3: no acknowledged-committed slot lost ---------------------
    expected, page_owner = _committed_slot_image(durable, committed)

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

    # -- check 4: business invariants -------------------------------------
    report.consistency_ok = bool(
        boot.sim.run_process(workload.verify_consistency(boot.db))
    )

    # -- check 5: the recovered database takes new traffic ----------------
    try:
        boot.db.start_writers(4, policy="region")
        stats = run_workload(boot.sim, boot.db, workload,
                             duration_us=resume_us,
                             num_terminals=NUM_TERMINALS,
                             rng=random.Random(seed + cut_op),
                             preloaded=True)
        report.resumed_commits = stats.commits
        report.resumed_consistent = bool(
            boot.sim.run_process(workload.verify_consistency(boot.db))
        )
    except Exception as exc:
        report.error = f"resume failed: {exc!r}"
    return report


def _cut_task(workload_name: str, geometry, footprint: int, seed: int,
              cut_op: int, duration_us: float,
              resume_us: float) -> Tuple[MetricsRegistry, CutReport]:
    """One power-cut audit against a fresh registry (sweep task body).

    This is the unit :func:`~repro.bench.sweep.run_sweep` dispatches —
    in-process for ``workers=1``, in a pool worker otherwise.  The fresh
    registry is what makes the parallel merge byte-identical to a
    sequential sweep: both modes produce the same per-cut registries and
    the parent folds them into its master in the same cut order.
    """
    registry = MetricsRegistry()
    report = _run_one_cut(workload_name, geometry, footprint, seed, cut_op,
                          duration_us, resume_us, registry)
    return registry, report


def run_crash_sweep(
    workload_name: str = "tpcb",
    cuts: int = 10,
    seed: int = 7,
    duration_us: float = 120_000.0,
    resume_us: float = 40_000.0,
    workers: int = 1,
) -> CrashReport:
    """Baseline run → N seeded cut points → cold start + audits per cut.

    ``workers > 1`` fans the (fully independent) cut audits out over a
    process pool; per-cut telemetry merges back into the master registry
    in cut order, so report and telemetry are byte-identical to a
    ``workers=1`` sweep.
    """
    telemetry = MetricsRegistry()
    report = CrashReport(workload=workload_name, seed=seed,
                         telemetry=telemetry)

    workload = _make_workload(workload_name)
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(footprint, dies=8, utilization=0.8,
                              op_ratio=0.28,
                              headroom_pages=footprint // 2)

    # -- baseline: learn the run's flash-command span ---------------------
    rig, db, load_ops = _build_rig(workload_name, geometry, seed,
                                   telemetry, footprint=footprint)
    stats = run_workload(rig.sim, db, _make_workload(workload_name),
                         duration_us=duration_us,
                         num_terminals=NUM_TERMINALS,
                         rng=random.Random(seed), preloaded=True)
    report.baseline_commits = stats.commits
    report.load_ops = load_ops
    report.baseline_ops = rig.array.fault_injector.ops
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

    tasks = [
        SweepTask(
            label=f"{workload_name}@op{cut_op}",
            fn="repro.bench.crash:_cut_task",
            kwargs={
                "workload_name": workload_name,
                "geometry": geometry,
                "footprint": footprint,
                "seed": seed,
                "cut_op": cut_op,
                "duration_us": duration_us,
                "resume_us": resume_us,
            },
        )
        for cut_op in cut_ops
    ]

    def on_result(index, task, result):
        # Runs in the parent, in cut order, regardless of worker count:
        # the merge sequence (and the progress lines) are deterministic.
        cut_registry, cut = result
        telemetry.merge_from(cut_registry)
        report.cuts.append(cut)
        verdict = "ok" if cut.ok else "FAILED"
        emit(f"  cut @ op {cut.cut_op}: durable_lsn={cut.durable_lsn} "
             f"acked={cut.acked_commits} torn={cut.torn_pages} "
             f"resumed={cut.resumed_commits} [{verdict}]")

    run_sweep(tasks, workers=workers, on_result=on_result)

    telemetry.register_collector(f"crash.{workload_name}",
                                 report.snapshot)
    return report


def _print_report(report: CrashReport) -> None:
    rows = [
        (cut.cut_op, cut.durable_lsn, cut.acked_commits, cut.torn_pages,
         cut.quarantined_blocks, cut.redo_applied, cut.undo_applied,
         cut.resumed_commits, "ok" if cut.ok else "FAILED")
        for cut in report.cuts
    ]
    emit(render_table(
        f"crash sweep — {report.workload} (seed {report.seed}, "
        f"baseline {report.baseline_commits} commits over "
        f"{report.baseline_ops} flash ops)",
        ["cut op", "durable lsn", "acked", "torn", "quar", "redo",
         "undo", "resumed", "verdict"],
        rows,
    ))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Power-cut sweep: cold-start recovery audit on NoFTL"
    )
    parser.add_argument("--workload", default="all",
                        choices=("tpcc", "tpcb", "all"))
    parser.add_argument("--cuts", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration-us", type=float, default=120_000.0)
    parser.add_argument("--resume-us", type=float, default=40_000.0)
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for the cut audits "
                             "(1 = in-process; output is byte-identical "
                             "either way)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any cut point fails")
    parser.add_argument("--export", action="store_true",
                        help="write telemetry snapshots to "
                             "$REPRO_METRICS_DIR")
    args = parser.parse_args(argv)

    names = ("tpcb", "tpcc") if args.workload == "all" \
        else (args.workload,)
    failed = False
    for name in names:
        report = run_crash_sweep(
            workload_name=name, cuts=args.cuts, seed=args.seed,
            duration_us=args.duration_us, resume_us=args.resume_us,
            workers=args.workers,
        )
        _print_report(report)
        if args.export:
            path = export_metrics(f"crash_{name}", report.telemetry,
                                  extra=report.snapshot())
            print(f"telemetry snapshot: {path}")
        if report.ok:
            print(f"{name}: {len(report.cuts)} cuts survived — no "
                  f"acknowledged commit lost, no torn page surfaced")
        else:
            bad = [c.cut_op for c in report.cuts if not c.ok]
            print(f"{name}: CRASH SWEEP FAILED at cut ops {bad}")
            failed = True
    if args.check and failed:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
