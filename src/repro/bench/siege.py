"""Siege rig — the device front end's contracts under combined failure.

The front end (:class:`~repro.device.frontend.DeviceFrontend`) makes
three promises: acknowledged writes survive to exactly the extent the
durability contract says (barriered = on media, un-barriered = may
vanish with power), hazards never reorder (a read always observes the
newest acknowledged version), and overload is shed loudly (every refused
op surfaces as :class:`~repro.core.badblock.DegradedModeError` to its
caller, never silently dropped).  This rig attacks all three at once in
one seeded scenario:

* TPC-B runs through ``oracle(frontend(adapter))`` — every host-level
  ack and barrier lands in the :class:`~repro.bench.chaos.ChecksumOracle`
  with shadow read-after-write checking armed;
* open-loop **burst clients** hammer a reserved high-LPN range far past
  the write-back cache's destage throughput, forcing watermark
  backpressure into deadline sheds;
* the fault injector contributes a **whole-die outage** window, a
  **latency spike** window, and finally a **power cut** at a seeded
  command boundary (~72% of the baseline run's flash-op span, learned by
  a first fault-identical run without the cut);
* periodic **checkpoints** (buffer flush + ``flush_barrier``) advance
  the oracle's durable floors mid-flight, so the cut lands with a
  nontrivial mix of acked-durable and acked-volatile pages.

Post-cut audit order matters: power-cycle, then a **mount-only** pass
(the OOB scan is read-only, so mounting twice is safe) proves every
barriered page still reads back as an acceptable version *before* ARIES
replay rewrites anything; then the full
:func:`~repro.db.recovery.cold_start` proves transactional consistency
and that the database takes new traffic.

Gates (``--check``):

1. the cut fired;
2. **zero barriered-acknowledged writes lost** — every page with a
   durable floor reads back, post-cut pre-replay, as the floor version
   or a later acknowledged one;
3. volatile pages are *absent or an acked version* — never garbage
   (pre-trim versions count: a trim only mutates the in-RAM mapping, so
   the post-cut OOB scan may resurrect them);
4. **no hazard violation** — the oracle's shadow read model stayed clean
   for the whole run;
5. **sheds were reported, not dropped** — the front end's shed count
   equals the number of DegradedModeErrors observed by burst clients,
   db-writers (``pages_refused``) and the checkpointer, and is > 0;
6. cold start succeeds, TPC-B invariants hold, and the recovered
   database commits new transactions.

Run from the command line (used by the CI ``siege-smoke`` job)::

    python -m repro.bench.siege --check --export
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import NoFTLConfig, NoFTLStorage, NoFTLStorageManager
from ..db import cold_start
from ..device import FrontendConfig
from ..flash import (
    FaultPlan,
    FaultSpec,
    PowerCutError,
    ReadUnwrittenError,
    SimExecutor,
    SimFlashDevice,
    UncorrectableError,
    page_checksum,
)
from ..core.badblock import DegradedModeError
from ..sim import Simulator
from ..telemetry import HealthMonitor, MetricsRegistry, OpContext
from ..workloads import TPCB, run_workload
from .chaos import ChecksumOracle
from .reporting import emit, export_metrics
from .rigs import attach_database, build_noftl_rig, sized_geometry, \
    measure_workload_footprint

__all__ = ["SiegeReport", "run_siege", "siege_frontend_config"]

#: TPC-B terminals of every run, and the burst clients beside them.
NUM_TERMINALS = 6
BURST_CLIENTS = 5


def siege_frontend_config() -> FrontendConfig:
    """Front-end tuning for the siege.

    The write deadline is short so burst overload sheds within the run;
    the read deadline is generous so foreground transactions (which do
    not catch DegradedModeError) are starved, throttled, slowed — but
    never killed.  The cache is small enough that burst arrivals
    structurally exceed destage throughput at every burst peak.
    """
    return FrontendConfig(
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


def _make_workload():
    return TPCB(sf=2, accounts_per_branch=120)


@dataclass
class SiegeReport:
    """Everything the acceptance gate needs to judge one siege run."""

    seed: int
    cut_op: int = 0
    fired: bool = False
    commits: int = 0
    baseline_ops: int = 0
    load_ops: int = 0
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
    # recovery
    integrity_errors: List[str] = field(default_factory=list)
    consistency_ok: bool = False
    resumed_commits: int = 0
    resumed_consistent: bool = False
    error: str = ""
    telemetry: Optional[MetricsRegistry] = None

    @property
    def sheds_observed(self) -> int:
        return self.sheds_burst + self.sheds_writers + self.sheds_checkpoint

    @property
    def ok(self) -> bool:
        return (
            self.fired and not self.error
            and not self.lost_durable and not self.corrupt_durable
            and not self.corrupt_volatile
            and self.hazard_violations == 0
            and self.sheds_reported > 0
            and self.sheds_reported == self.sheds_observed
            and self.barriers > 0 and self.durable_pages > 0
            and not self.integrity_errors
            and self.consistency_ok
            and self.resumed_commits > 0 and self.resumed_consistent
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


def _siege_plan(seed: int, outage_window, spike_window,
                cut_op: Optional[int] = None) -> FaultPlan:
    """Outage + latency spike; same plan both runs so the flash-command
    sequence matches, plus the power cut only on the second run."""
    plan = FaultPlan(seed=seed)
    plan.add(FaultSpec(kind="die_outage", die=1, window=outage_window))
    plan.add(FaultSpec(kind="latency_spike", die=0, window=spike_window,
                       factor=4.0))
    if cut_op is not None:
        plan.add(FaultSpec(kind="power_cut", at_op=cut_op))
    return plan


def _one_burst_op(oracle, lpn: int, roll: float, seq: int,
                  counts: Dict[str, int]):
    """One fire-and-forget burst operation.  Every shed and every
    power-cut refusal is *observed* — counted, not swallowed into
    oblivion — which is what gate 5 compares against the front end's
    raised-shed tally."""
    counts["ops"] += 1
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
    except PowerCutError:
        counts["cut"] += 1
    except (ReadUnwrittenError, UncorrectableError):
        # Reading a never-written or freshly trimmed burst page.
        counts["unwritten"] += 1


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
            counts["checkpoints"] += 1
        except DegradedModeError:
            counts["sheds"] += 1
        except PowerCutError:
            return


def _build_siege_rig(geometry, footprint: int, seed: int, plan,
                     telemetry=None):
    """Identical construction order both runs, so the cut run replays the
    baseline's flash-command sequence up to the plug pull."""
    rig = build_noftl_rig(
        geometry=geometry,
        config=NoFTLConfig(num_regions=8, op_ratio=0.28),
        seed=seed,
        telemetry=telemetry,
        fault_plan=plan,
        store_data=True,
        frontend_config=siege_frontend_config(),
    )
    frontend = rig.frontend
    oracle = ChecksumOracle(frontend, shadow_reads=True)
    # The DBMS mounts the oracle, which wraps the front end: every
    # host-level ack/barrier is witnessed at the exact layer where the
    # durability contract is spoken.
    rig.frontend = oracle
    # The pool is sized past the footprint: foreground transactions never
    # evict (and so never meet a write shed they cannot catch); overload
    # pressure reaches them only as latency.
    db = attach_database(rig, buffer_capacity=footprint + 96,
                         foreground_flush=False)
    db.wal.keep_records = True
    rig.sim.run_process(_make_workload().load(db))
    load_ops = rig.array.fault_injector.ops
    db.start_writers(4, policy="region")
    return rig, db, oracle, frontend, load_ops


def _run_traffic(rig, db, oracle, seed: int, duration_us: float,
                 burst_counts: Dict[str, int],
                 ckpt_counts: Dict[str, int]):
    """Terminals + burst clients + checkpointer, one timed window."""
    sim = rig.sim
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
    sim.process(_checkpointer(sim, db, 15_000.0, ckpt_counts, end_at))
    try:
        stats = run_workload(sim, db, _make_workload(),
                             duration_us=duration_us,
                             num_terminals=NUM_TERMINALS,
                             rng=random.Random(seed), preloaded=True)
        return stats, False
    except PowerCutError:
        return None, True


def _mount_only_audit(array, geometry, oracle, report: SiegeReport):
    """Post-cut, pre-replay: power-cycle, OOB-mount a fresh manager (the
    scan is read-only) and read back every oracle-tracked page."""
    if array.powered_off:
        array.power_cycle()
    sim = Simulator()
    executor = SimExecutor(SimFlashDevice(sim, array))
    manager = NoFTLStorageManager(
        geometry, NoFTLConfig(num_regions=8, op_ratio=0.28),
        factory_bad_blocks=array.factory_bad_blocks(),
    )
    storage = NoFTLStorage(sim, manager, executor)
    sim.run_process(storage.mount())

    durable = sorted(oracle.durable_floor)
    volatile = sorted(set(oracle.history) - set(oracle.durable_floor))
    report.durable_pages = len(durable)
    report.volatile_pages = len(volatile)

    def audit():
        for lpn in durable:
            acceptable = oracle.acceptable_after_cut(lpn)
            try:
                data = yield from storage.read(lpn)
            except (ReadUnwrittenError, UncorrectableError):
                report.lost_durable.append(lpn)
                continue
            if data is None:
                # Absent from the rebuilt mapping: a barriered page whose
                # media copy vanished — a durability-contract breach.
                report.lost_durable.append(lpn)
                continue
            if page_checksum(data) not in acceptable:
                report.corrupt_durable.append(lpn)
        for lpn in volatile:
            # Un-barriered: may be gone entirely, but whatever *is* on
            # media must be some acknowledged version — never garbage.
            # Pre-trim versions count as acked: a trim is in-RAM only,
            # so the OOB mount scan can resurrect them after the cut.
            try:
                data = yield from storage.read(lpn)
            except (ReadUnwrittenError, UncorrectableError):
                continue
            if data is None:
                continue  # absent is a legal fate for a volatile page
            if page_checksum(data) not in oracle.acked_versions(lpn):
                report.corrupt_volatile.append(lpn)

    sim.run_process(audit())


def run_siege(
    seed: int = 11,
    duration_us: float = 140_000.0,
    resume_us: float = 40_000.0,
    cut_fraction: float = 0.72,
    telemetry: Optional[MetricsRegistry] = None,
) -> SiegeReport:
    """Baseline run (outage + spike, no cut) to learn the op span, then
    the identical run with the plug pulled, then the audits."""
    telemetry = telemetry or MetricsRegistry()
    report = SiegeReport(seed=seed, telemetry=telemetry)

    workload = _make_workload()
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(footprint, dies=8, utilization=0.8,
                              op_ratio=0.28,
                              headroom_pages=footprint // 2 + 512)
    outage_window = (2_000, 2_300)
    spike_window = (1_000, 1_600)

    # -- run 1: fault-identical baseline, no cut --------------------------
    plan = _siege_plan(seed, outage_window, spike_window)
    rig, db, oracle, frontend, load_ops = _build_siege_rig(
        geometry, footprint, seed, plan)
    stats, cut = _run_traffic(rig, db, oracle, seed, duration_us,
                              {"ops": 0, "seq": 0, "sheds": 0, "cut": 0,
                               "unwritten": 0},
                              {"checkpoints": 0, "sheds": 0})
    if cut or stats is None:
        report.error = "baseline run unexpectedly lost power"
        return report
    report.load_ops = load_ops
    report.baseline_ops = rig.array.fault_injector.ops
    if report.baseline_ops <= load_ops + 10:
        report.error = "baseline issued too few flash commands"
        return report

    # -- run 2: same scenario + the power cut -----------------------------
    span = report.baseline_ops - load_ops
    cut_op = load_ops + max(1, int(span * cut_fraction))
    report.cut_op = cut_op
    plan = _siege_plan(seed, outage_window, spike_window, cut_op=cut_op)
    rig, db, oracle, frontend, __ = _build_siege_rig(
        geometry, footprint, seed, plan, telemetry=telemetry)
    # Health telemetry rides on the instrumented (cut) run: the WA
    # ledger and windowed saturation series land in the exported
    # snapshot via the health.* collectors.
    monitor = HealthMonitor(window_us=10_000.0, clock=lambda: rig.sim.now)
    monitor.attach_array(rig.array)
    monitor.attach_frontend(frontend)
    monitor.install(telemetry)
    burst_counts = {"ops": 0, "seq": 0, "sheds": 0, "cut": 0,
                    "unwritten": 0}
    ckpt_counts = {"checkpoints": 0, "sheds": 0}

    at_cut: dict = {}

    def on_cut(command):
        # The WAL lives on a separate durable device: snapshot its
        # flushed prefix at the instant the power dies.
        at_cut["durable_lsn"] = db.wal.flushed_lsn
        at_cut["records"] = list(db.wal.records)

    rig.array.on_power_cut = on_cut
    __, cut = _run_traffic(rig, db, oracle, seed, duration_us,
                           burst_counts, ckpt_counts)
    if not at_cut:
        report.error = "cut point never reached"
        return report
    report.fired = True
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
    _mount_only_audit(rig.array, geometry, oracle, report)

    # -- audit 2: cold start, business invariants, resume -----------------
    durable_lsn = at_cut["durable_lsn"]
    durable = [r for r in at_cut["records"] if r.lsn <= durable_lsn]
    try:
        boot = cold_start(
            rig.array, geometry, durable, durable_lsn,
            workload.declare_schema,
            config=NoFTLConfig(num_regions=8, op_ratio=0.28),
            buffer_capacity=footprint + 96,
            db_kwargs={"foreground_flush": False},
        )
    except Exception as exc:
        report.error = f"cold start failed: {exc!r}"
        return report
    report.integrity_errors = boot.manager.verify_integrity()
    report.consistency_ok = bool(
        boot.sim.run_process(workload.verify_consistency(boot.db))
    )
    try:
        boot.db.start_writers(4, policy="region")
        resumed = run_workload(boot.sim, boot.db, workload,
                               duration_us=resume_us,
                               num_terminals=NUM_TERMINALS,
                               rng=random.Random(seed + 1),
                               preloaded=True)
        report.resumed_commits = resumed.commits
        report.resumed_consistent = bool(
            boot.sim.run_process(workload.verify_consistency(boot.db))
        )
    except Exception as exc:
        report.error = f"resume failed: {exc!r}"
        return report

    telemetry.register_collector("siege.report", report.snapshot)
    return report


def _siege_task(seed: int, duration_us: float, resume_us: float,
                cut_fraction: float):
    """One full siege against a fresh registry (sweep task body)."""
    registry = MetricsRegistry()
    report = run_siege(seed=seed, duration_us=duration_us,
                       resume_us=resume_us, cut_fraction=cut_fraction,
                       telemetry=registry)
    return registry, report


def run_siege_sweep(
    seeds,
    duration_us: float = 140_000.0,
    resume_us: float = 40_000.0,
    cut_fraction: float = 0.72,
    workers: int = 1,
):
    """One independent siege per seed, optionally across a process pool.

    Returns ``(reports, telemetry)``: the per-seed
    :class:`SiegeReport` list in seed order and the master registry the
    per-seed registries merged into (in seed order — so the merged
    counters/gauges/histograms are byte-identical whatever ``workers``
    was).  Collector-backed series (health ledger, siege.report) stay
    with their source run and are not merged.
    """
    from .sweep import SweepTask, run_sweep

    telemetry = MetricsRegistry()
    reports = []
    tasks = [
        SweepTask(
            label=f"siege@seed{seed}",
            fn="repro.bench.siege:_siege_task",
            kwargs={
                "seed": seed,
                "duration_us": duration_us,
                "resume_us": resume_us,
                "cut_fraction": cut_fraction,
            },
        )
        for seed in seeds
    ]

    def on_result(index, task, result):
        registry, report = result
        telemetry.merge_from(registry)
        reports.append(report)
        verdict = "ok" if report.ok else "FAILED"
        emit(f"  seed {report.seed}: cut@{report.cut_op} "
             f"commits={report.commits} sheds={report.sheds_reported} "
             f"resumed={report.resumed_commits} [{verdict}]")

    run_sweep(tasks, workers=workers, on_result=on_result)
    return reports, telemetry


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Combined-failure siege of the device front end: "
                    "burst overload + die outage + power cut"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="run one independent siege per seed and "
                             "merge their telemetry (overrides --seed)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool width for --seeds sweeps "
                             "(1 = in-process; merged output is "
                             "byte-identical either way)")
    parser.add_argument("--duration-us", type=float, default=140_000.0)
    parser.add_argument("--resume-us", type=float, default=40_000.0)
    parser.add_argument("--cut-fraction", type=float, default=0.72)
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless every gate holds")
    parser.add_argument("--export", action="store_true",
                        help="write the telemetry snapshot to "
                             "$REPRO_METRICS_DIR")
    args = parser.parse_args(argv)

    if args.seeds:
        reports, master = run_siege_sweep(
            args.seeds, duration_us=args.duration_us,
            resume_us=args.resume_us, cut_fraction=args.cut_fraction,
            workers=args.workers,
        )
        if args.export:
            path = export_metrics(
                "siege-sweep", master,
                extra={"seeds": {str(r.seed): r.snapshot()
                                 for r in reports}},
            )
            print(f"telemetry snapshot: {path}")
        bad = [r.seed for r in reports if not r.ok]
        if not bad:
            print(f"siege sweep ok: {len(reports)} seeds survived")
            return 0
        print(f"SIEGE SWEEP FAILED at seeds {bad}")
        return 1 if args.check else 0

    report = run_siege(seed=args.seed, duration_us=args.duration_us,
                       resume_us=args.resume_us,
                       cut_fraction=args.cut_fraction)
    snap = report.snapshot()
    for key, value in snap.items():
        emit(f"  {key}: {value}")
    if args.export and report.telemetry is not None:
        path = export_metrics(f"siege-seed{args.seed}", report.telemetry,
                              extra=snap)
        print(f"telemetry snapshot: {path}")
    if report.ok:
        print("siege ok: no barriered ack lost, no hazard violation, "
              f"{report.sheds_reported} sheds all reported")
        return 0
    print("SIEGE FAILED")
    return 1 if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
