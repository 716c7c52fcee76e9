"""Observability harness: three closed-loop scenarios, one report path.

``python -m repro.bench.observe {tail,health,streams}``:

* **tail** — causal tracing: where do the tail latencies come from?  A
  fixed-seed TPC-B rig per architecture (``--arch faster --arch noftl``)
  streams every host operation and flash command to a JSONL trace; the
  report is then built from the *file* alone — the same code path as
  ``--from-trace``, so every number is reproducible without re-running
  the rig.  Per architecture: the **origin mix** (flash commands by root
  cause, with a zero-missing-origin check), the **blame decomposition**
  (p99 and p99.9 write/commit latency split into media, queue-behind-GC,
  queue-other, inline GC, retry, WAL and residual time —
  :func:`repro.telemetry.blame_breakdown`), **windowed series** (per-die
  busy fraction over time) and a flamegraph-style **span rollup**.
* **health** — device health and load: on TPC-B / TPC-C, write
  amplification per host data class, wear skew and the
  remaining-lifetime projection from the :class:`HealthMonitor`; plus an
  open-loop ramp over the device front end, whose windowed engine must
  detect the saturation point (shed onset or latency knee).  The
  Figure 3 replay's WA and ledger checks live with Figure 3
  (``benchmarks/test_fig3_gc_overhead.py``).
* **streams** — object/stream-aware write placement vs the legacy
  hot/cold layout: two arms per workload, identical but for
  ``write_streams``, with *real* WAL traffic on flash (a circular
  :class:`~repro.db.wal.FlashLogVolume` window at the top of the logical
  space) and a periodic :class:`~repro.db.temp.TempArea` spill/merge
  producer, on a device sized tight enough that steady-state GC runs
  inside the arm.  The first stretch of every arm is a device-fill
  transient, so each arm records a **warmup mark** of the ledger
  counters and the gates compare the **steady tail** after it.

Every scenario runs on the one closed-loop rig (:func:`_mount`: a kit
from :data:`KITS`, sized and mounted per :data:`RIGS`, a health monitor
on the array).  ``--check`` turns a report into an exit code:

* tail: every flash command carries an origin, the NoFTL per-die series
  covers every die, and FASTer's p99 write tail carries a strictly
  larger GC-blamed component than NoFTL's;
* health: every workload classifies heap and btree traffic (nothing
  falls through to ``unknown``) and projects a remaining lifetime, and
  the ramp saturates;
* streams: the streams arm collects **zero mixed-class victim blocks**,
  and its steady-tail WA and GC erases per logical write both drop below
  the baseline's; every producing class (wal / heap / btree / temp)
  classifies traffic — only ``recovery`` may stay silent;
* health and streams: the first workload's rig (streams: its streams
  arm) runs twice and the two reports are byte-identical.

``--export`` writes the report as ``BENCH_<scenario>.json`` under
``REPRO_METRICS_DIR`` (default ``benchmarks/out``); the tail scenario
writes its traces there as ``observe-<arch>.trace.jsonl`` regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core import NoFTLConfig
from ..core.badblock import DegradedModeError
from ..db import FlashLogVolume, TempArea
from ..device import FrontendConfig
from ..telemetry import (
    EventTrace,
    HealthMonitor,
    blame_breakdown,
    load_jsonl,
    origin_mix,
    span_rollup,
    verify_origins,
    windowed_series,
)
from ..workloads import TPCB, TPCC, run_workload
from .reporting import (
    DEFAULT_METRICS_DIR,
    cli_verdict,
    emit,
    ratio,
    render_table,
)
from .rigs import (
    attach_database,
    build_blockdev_rig,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = [
    "run_arch",
    "analyze_trace",
    "render_report",
    "check_tail",
    "run_db_rig",
    "run_saturation_rig",
    "health_report",
    "check_health",
    "run_arm",
    "streams_report",
    "check_streams",
    "stream_stats_of",
    "main",
]

ARCHES = ("noftl", "faster", "pagemap", "dftl")
WORKLOADS = ("tpcb", "tpcc")

#: Kit sizes per (scenario, workload).  tail runs the Figure 4 bench's
#: scaled-down TPC-B.  health's kits are smaller than the stack
#: benchmark's (rigs plus a double run stay CI-smoke sized) but keep its
#: shapes and write mixes.  streams' kits are bigger: the placement
#: comparison needs the data footprint to fill the device.
KITS: Dict[tuple, Callable] = {
    ("tail", "tpcb"): lambda: TPCB(sf=16, accounts_per_branch=400),
    ("health", "tpcb"): lambda: TPCB(sf=4, accounts_per_branch=200),
    ("health", "tpcc"): lambda: TPCC(warehouses=1, customers_per_district=20,
                                     items=80),
    ("streams", "tpcb"): lambda: TPCB(sf=32, accounts_per_branch=2000),
    ("streams", "tpcc"): lambda: TPCC(warehouses=8,
                                      customers_per_district=500,
                                      items=1600),
}


@dataclass(frozen=True)
class _Rig:
    """One scenario's closed-loop rig: device sizing, FTL, database mount
    and load shape."""

    dies: int
    utilization: float
    #: Sizing headroom: ``footprint // headroom_divisor`` extra pages.
    headroom_divisor: int
    pages_per_block: int
    #: Logical pages kept out of the db allocator's reach (sized in).
    reserved_pages: int
    gc_low_water: int
    buffer_frames: Callable[[int], int]
    cpu_us_per_op: float
    wal_flush_latency_us: float
    dirty_throttle_fraction: Optional[float]
    writers: int
    terminals: int


#: Logical pages reserved at the top of the address space for the
#: streams rig's circular WAL segment window.
WAL_WINDOW_PAGES = 64

RIGS = {
    # Eight dies, one writer per die (NoFTL: die-wise), a buffer large
    # enough to hold the kit; cheap CPU so the device sets the pace.
    "tail": _Rig(dies=8, utilization=0.85, headroom_divisor=2,
                 pages_per_block=16, reserved_pages=0, gc_low_water=2,
                 buffer_frames=lambda footprint: footprint + footprint // 2,
                 cpu_us_per_op=1.0, wal_flush_latency_us=60.0,
                 dirty_throttle_fraction=0.10, writers=8, terminals=16),
    "health": _Rig(dies=4, utilization=0.85, headroom_divisor=2,
                   pages_per_block=32, reserved_pages=0, gc_low_water=2,
                   buffer_frames=lambda footprint: max(64, footprint // 4),
                   cpu_us_per_op=3.0, wal_flush_latency_us=120.0,
                   dirty_throttle_fraction=None, writers=4, terminals=8),
    # One die filled to 97 % with small blocks: placement only matters
    # once steady-state GC runs inside the arm, and each plane must hold
    # per-class open frontiers plus GC headroom.  gc_low_water is raised
    # (identically in both arms) because the streams arm keeps one open
    # block per class frontier: GC must start while there is slack left.
    "streams": _Rig(dies=1, utilization=0.97, headroom_divisor=20,
                    pages_per_block=16, reserved_pages=WAL_WINDOW_PAGES,
                    gc_low_water=4,
                    buffer_frames=lambda footprint: max(64, footprint // 4),
                    cpu_us_per_op=3.0, wal_flush_latency_us=120.0,
                    dirty_throttle_fraction=None, writers=4, terminals=8),
}


def _mount(scenario: str, workload_name: str, seed: int, arch: str,
           streams: bool, trace: Optional[EventTrace]):
    """Build one scenario's rig and mount the database on it.

    The kit is sized by its measured footprint; a :class:`HealthMonitor`
    feeds on the array (and, on NoFTL, on the manager's trims); the
    db-writers are started — die-wise on NoFTL, global on a black box,
    where one opaque region makes die-wise assignment impossible.
    ``streams`` turns on object-aware placement: per-class allocation
    points plus the buffer pool's reference-heat hints.  Returns the rig,
    the database, the monitor and the (not yet loaded) kit.
    """
    shape = RIGS[scenario]
    workload = KITS[scenario, workload_name]()
    footprint = measure_workload_footprint(workload)
    geometry = sized_geometry(
        footprint + shape.reserved_pages, shape.dies,
        utilization=shape.utilization,
        headroom_pages=footprint // shape.headroom_divisor,
        pages_per_block=shape.pages_per_block,
    )
    if arch == "noftl":
        rig = build_noftl_rig(
            geometry=geometry,
            config=NoFTLConfig(num_regions=shape.dies, op_ratio=0.12,
                               gc_low_water=shape.gc_low_water,
                               write_streams=streams),
            seed=seed,
            trace=trace,
        )
        policy = "region"
    else:
        rig = build_blockdev_rig(arch, geometry=geometry, seed=seed,
                                 trace=trace)
        policy = "global"
    monitor = HealthMonitor(clock=lambda: rig.sim.now)
    monitor.attach_array(rig.array)
    if arch == "noftl":
        monitor.attach_manager(rig.manager)
    monitor.install(rig.telemetry)
    db = attach_database(rig,
                         buffer_capacity=shape.buffer_frames(footprint),
                         cpu_us_per_op=shape.cpu_us_per_op,
                         wal_flush_latency_us=shape.wal_flush_latency_us,
                         foreground_flush=False,
                         dirty_throttle_fraction=shape.dirty_throttle_fraction,
                         heat_hints=streams)
    db.start_writers(shape.writers, policy=policy)
    return rig, db, monitor, workload


def _drive(scenario: str, workload_name: str, rig, db, seed: int,
           duration_us: float):
    """The timed window on a loaded rig: a fresh kit instance on the
    scenario's terminals, seeded."""
    return run_workload(rig.sim, db, KITS[scenario, workload_name](),
                        duration_us=duration_us,
                        num_terminals=RIGS[scenario].terminals,
                        rng=random.Random(seed), preloaded=True)


def _witness(workload_name: str, first: dict,
             rerun: Callable[[], dict]) -> dict:
    """Same-seed determinism witness: ``first`` against a fresh run."""
    return {
        "workload": workload_name,
        "checked": True,
        "identical": (json.dumps(first, sort_keys=True)
                      == json.dumps(rerun(), sort_keys=True)),
    }


# -- tail: causal tracing and tail-latency attribution -----------------------

#: Window of the tail report's time series.
TAIL_WINDOW_US = 100_000.0


def run_arch(arch: str, trace_path: str, seed: int,
             duration_us: float) -> dict:
    """Run one architecture's TPC-B rig, streaming the trace to JSONL.

    Returns run-level facts (tps, commits, dies) — the analysis itself
    is done from the trace file so it stays replayable.
    """
    with open(trace_path, "w", encoding="utf-8") as sink:
        trace = EventTrace(capacity=8192, sink=sink)
        rig, db, __, workload = _mount("tail", "tpcb", seed, arch,
                                       streams=False, trace=trace)
        rig.sim.run_process(workload.load(db))
        stats = _drive("tail", "tpcb", rig, db, seed, duration_us)
        # Detach before closing: DES processes parked mid-GC finalize
        # lazily and would otherwise emit span ends into a closed file.
        trace.enabled = False
        trace.sink = None
    return {
        "arch": arch,
        "policy": "region" if arch == "noftl" else "global",
        "seed": seed,
        "dies": RIGS["tail"].dies,
        "duration_us": duration_us,
        "tps": stats.tps,
        "commits": stats.commits,
        "trace_path": trace_path,
        "trace_events": trace.emitted,
    }


def analyze_trace(path: str) -> dict:
    """Build the full attribution report from a saved JSONL trace."""
    events = load_jsonl(path)
    return {
        "trace_path": path,
        "events": len(events),
        "origins": verify_origins(events),
        "origin_mix": origin_mix(events),
        "write_blame": blame_breakdown(events, op="write"),
        "commit_blame": blame_breakdown(events, op="commit"),
        "series": windowed_series(events, window_us=TAIL_WINDOW_US),
        "spans": span_rollup(events)[:12],
    }


def _fmt(value: float) -> str:
    return f"{value:,.1f}"


def render_report(arch: str, run: Optional[dict], report: dict) -> None:
    """Text dashboard for one architecture."""
    header = f"== {arch} =="
    if run is not None:
        header += (f"  tps={run['tps']:.1f} commits={run['commits']}"
                   f" policy={run['policy']} dies={run['dies']}")
    emit(header)
    origins = report["origins"]
    emit(f"flash commands: {origins['flash_cmds']}"
         f" (missing origin: {origins['missing_origin']})")
    mix = report["origin_mix"]
    if mix:
        emit(render_table(
            "origin mix (flash commands by root cause)",
            ["origin", "commands"],
            [[origin, str(count)]
             for origin, count in sorted(mix.items(),
                                         key=lambda kv: -kv[1])],
        ))
    for name in ("write_blame", "commit_blame"):
        blame = report[name]
        if not blame.get("count"):
            continue
        emit(f"{blame['op']}: n={blame['count']}"
             f" p50={_fmt(blame['p50_us'])}us"
             f" p99={_fmt(blame['p99_us'])}us"
             f" p99.9={_fmt(blame['p999_us'])}us"
             f" | tail GC-blamed {_fmt(blame['gc_blamed_us'])}us"
             f" ({blame['shares']['gc_us'] + blame['shares']['queue_gc_us']:.0%})")
        emit(render_table(
            f"p99 {blame['op']} blame (mean us over tail samples)",
            ["bucket", "all ops", "tail"],
            [[bucket, _fmt(blame["buckets"][bucket]),
              _fmt(blame["tail_buckets"][bucket])]
             for bucket in blame["tail_buckets"]],
        ))
    series = report["series"]
    if series["die_busy"]:
        rows = []
        for die, fractions in series["die_busy"].items():
            mean = sum(fractions) / len(fractions) if fractions else 0.0
            spark = "".join(
                " .:-=+*#"[min(7, int(f * 8))] for f in fractions[:48]
            )
            rows.append([str(die), f"{mean:.2f}", spark])
        emit(render_table(
            f"per-die busy fraction ({series['window_us']:.0f}us windows)",
            ["die", "mean", "timeline"],
            rows,
        ))
    if report["spans"]:
        emit(render_table(
            "span rollup (inclusive time by path)",
            ["path", "count", "total us", "mean us"],
            [[s["path"], str(s["count"]), _fmt(s["total_us"]),
              _fmt(s["mean_us"])] for s in report["spans"]],
        ))


def check_tail(reports: Dict[str, dict], dies: int) -> List[str]:
    """The tail gates; returns a list of failure strings."""
    failures = []
    for arch, report in reports.items():
        origins = report["origins"]
        if origins["flash_cmds"] == 0:
            failures.append(f"{arch}: trace carries no flash commands")
        if origins["missing_origin"]:
            failures.append(
                f"{arch}: {origins['missing_origin']} flash commands"
                " without an origin label"
            )
    if "noftl" in reports:
        die_series = reports["noftl"]["series"]["die_busy"]
        if len(die_series) != dies:
            failures.append(
                f"noftl: per-die series covers {len(die_series)} dies,"
                f" expected {dies}"
            )
    if "faster" in reports and "noftl" in reports:
        faster_gc = reports["faster"]["write_blame"].get("gc_blamed_us", 0.0)
        noftl_gc = reports["noftl"]["write_blame"].get("gc_blamed_us", 0.0)
        if not faster_gc > noftl_gc:
            failures.append(
                "FASTer's p99 write GC-blamed component"
                f" ({faster_gc:.1f}us) is not strictly larger than"
                f" NoFTL's ({noftl_gc:.1f}us)"
            )
        if faster_gc <= 0:
            failures.append("FASTer shows no GC-blamed write latency")
    return failures


# -- health: WA per class, wear, lifetime, saturation ------------------------

#: The saturation rig's open-loop ramp (see :func:`run_saturation_rig`)
#: and the health windows it is judged in.
SATURATION_PHASES = 10
SATURATION_PHASE_US = 8_000.0
SATURATION_BASE_INTERVAL_US = 220.0
SATURATION_RAMP = 1.6
SATURATION_PAGES = 512
SATURATION_WINDOW_US = 4_000.0
#: Deliberately small: the rig must saturate inside a short run.
SATURATION_FRONTEND = FrontendConfig(
    max_inflight=4,
    destage_workers=2,
    cache_pages=32,
    dirty_high_watermark=0.75,
    queue_limit=16,
    write_deadline_us=2_500.0,
    read_deadline_us=2_500.0,
    trim_deadline_us=2_500.0,
)


def run_db_rig(workload_name: str, seed: int, duration_us: float) -> dict:
    """TPC kit on the health rig, monitor attached.

    This is where the per-class WA decomposition comes from: WAL flushes
    arrive under ``txn-commit`` contexts, page write-backs are stamped
    ``heap`` / ``btree`` by the buffer pool, and the monitor's clock is
    wired to the simulator so die-busy windows are live, not replayed.
    """
    rig, db, monitor, workload = _mount("health", workload_name, seed,
                                        "noftl", streams=False, trace=None)
    rig.sim.run_process(workload.load(db))
    stats = _drive("health", workload_name, rig, db, seed, duration_us)
    return {
        "workload": workload_name,
        "arch": "noftl",
        "seed": seed,
        "duration_us": duration_us,
        "commits": stats.commits,
        "health": monitor.report(),
        "manager": rig.manager.health_snapshot(),
    }


def run_saturation_rig(seed: int) -> dict:
    """Open-loop arrival ramp over the device front end.

    ``SATURATION_PHASES`` phases of ``SATURATION_PHASE_US`` each write
    random pages among ``SATURATION_PAGES``; the first phase's
    inter-arrival time is ``SATURATION_BASE_INTERVAL_US`` and each later
    one shortens it by ``SATURATION_RAMP``x;
    arrivals are spawned fire-and-forget (open loop — offered load does
    not slow down when the device does), so once service capacity is
    exceeded the dirty watermark holds, deadlines pass, and the front
    end sheds.  The windowed engine must see it happen.
    """
    rig = build_noftl_rig(
        config=NoFTLConfig(num_regions=2, op_ratio=0.12),
        seed=seed,
        frontend_config=SATURATION_FRONTEND,
    )
    frontend = rig.frontend
    sim = rig.sim
    monitor = HealthMonitor(window_us=SATURATION_WINDOW_US,
                            clock=lambda: sim.now)
    monitor.attach_array(rig.array)
    monitor.attach_frontend(frontend)
    monitor.install(rig.telemetry)

    rng = random.Random(seed)
    outcomes = {"acked": 0, "shed": 0}

    def one_write(lpn: int):
        try:
            yield from frontend.write(lpn, data=("H", lpn))
        except DegradedModeError:
            outcomes["shed"] += 1  # counted by the front end too
        else:
            outcomes["acked"] += 1

    def driver():
        for phase in range(SATURATION_PHASES):
            interval = SATURATION_BASE_INTERVAL_US / (SATURATION_RAMP ** phase)
            end_at = sim.now + SATURATION_PHASE_US
            while sim.now < end_at:
                sim.process(one_write(rng.randrange(SATURATION_PAGES)))
                yield sim.timeout(interval)
        # Drain window: let in-flight writes and destages settle so the
        # final windows reflect service, not an abrupt stop.
        yield sim.timeout(4 * SATURATION_WINDOW_US)

    sim.run_process(driver())
    return {
        "seed": seed,
        "offered": dict(outcomes),
        "frontend": frontend.snapshot(),
        "windows": monitor.windows.series(),
        "saturation": monitor.saturation(),
    }


def health_report(seed: int, quick: bool, workloads) -> dict:
    duration = 150_000.0 if quick else 300_000.0
    closed_loop = {name: run_db_rig(name, seed, duration)
                   for name in workloads}
    first = workloads[0]
    return {
        "seed": seed,
        "quick": quick,
        "closed_loop": closed_loop,
        "saturation_rig": run_saturation_rig(seed),
        "determinism": _witness(
            first, closed_loop[first]["health"],
            lambda: run_db_rig(first, seed, duration)["health"]),
    }


def check_health(report: dict) -> List[str]:
    """Return human-readable gate failures (empty = all gates hold)."""
    failures: List[str] = []
    for name, rig in report["closed_loop"].items():
        per_class = rig["health"]["wa"]["per_class"]
        # The WAL lives on a dedicated log volume (a latency model, no
        # flash commands), so the classes visible here are the page
        # write-backs: heap and btree must both be present and nothing
        # may fall through to "unknown" on this rig.
        for cls in ("heap", "btree"):
            if per_class.get(cls, {}).get("logical", 0) <= 0:
                failures.append(f"{name}: no {cls} traffic classified")
        if per_class.get("unknown", {}).get("physical", 0) > 0:
            failures.append(
                f"{name}: {per_class['unknown']['physical']} physical "
                "writes fell through to the 'unknown' class"
            )
        lifetime = rig["health"]["wear"].get("lifetime") or {}
        if lifetime.get("remaining_host_writes") is None:
            failures.append(f"{name}: no remaining-lifetime projection")

    saturation = report["saturation_rig"]["saturation"]
    if not saturation["saturated"]:
        failures.append("saturation rig: no saturation point detected")
    if not report["determinism"]["identical"]:
        failures.append(
            "determinism: health reports differ between same-seed runs"
        )
    return failures


def _emit_health(report: dict) -> None:
    rows = []
    for name, rig in report["closed_loop"].items():
        wa = rig["health"]["wa"]
        wear = rig["health"]["wear"]
        lifetime = wear.get("lifetime") or {}
        rows.append([
            name.upper(),
            rig["commits"],
            wa["write_amplification"],
            wear.get("skew"),
            lifetime.get("life_used"),
            lifetime.get("remaining_host_writes"),
        ])
    emit(render_table(
        "Closed-loop NoFTL rigs — WA, wear skew, lifetime projection",
        ["workload", "commits", "WA", "wear skew", "life used",
         "writes left"],
        rows,
    ))

    for name, rig in report["closed_loop"].items():
        per_class = rig["health"]["wa"]["per_class"]
        parts = ", ".join(
            f"{cls}: {entry['wa']}" for cls, entry in per_class.items()
            if entry["wa"] is not None
        )
        emit(f"  {name} WA per class: {parts}")

    point = report["saturation_rig"]["saturation"]["point"]
    if point is not None:
        emit(f"  saturation: {point['kind']} at window {point['window']} "
             f"(t={point['at_us']:,.0f}us)")
    else:
        emit("  saturation: none detected")


# -- streams: class-aware placement vs the legacy hot/cold layout ------------

#: Periodic temp producer: one 4-page spill run every 4 ms, draining
#: down to 2 live runs — continuous allocate/program/trim churn.
TEMP_INTERVAL_US = 4_000.0
TEMP_RUN_PAGES = 4

#: Classes that may legitimately have no producer in this rig (nothing
#: crashes, so recovery never writes).
ALLOWED_PRODUCERLESS = {"recovery"}

#: Warmup before the steady-state mark: long enough for the free pool
#: to fill and GC to reach its steady regime on the bigger kit.
WARMUP_US = 300_000.0


def stream_stats_of(manager) -> dict:
    """Sum every region space's write-stream counters (streams mode)."""
    totals: dict = {}
    for region in manager.regions.regions:
        for key, value in region.space.stream_stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def run_arm(workload_name: str, streams: bool, seed: int,
            duration_us: float) -> dict:
    """One closed-loop arm: TPC kit + WAL-on-flash + temp producer.

    The two arms of a comparison differ only in ``streams``; geometry,
    seed, workload scale and the WAL/temp producers are shared, so every
    delta in the report is placement.

    ``WARMUP_US`` sets the steady-state mark: ledger counters are
    snapshotted that far into the run and the arm's ``steady`` section
    reports the post-mark deltas (clamped so at least a quarter of the
    run is tail even on short horizons).
    """
    warmup_us = min(WARMUP_US, duration_us * 0.75)
    trace = EventTrace(capacity=65536)
    rig, db, monitor, workload = _mount("streams", workload_name, seed,
                                        "noftl", streams=streams,
                                        trace=trace)

    # Real WAL traffic: circular segment window at the top of the
    # logical space, clear of the db allocator growing from 0.
    volume = FlashLogVolume(
        db.storage,
        base_page=rig.adapter.logical_pages - WAL_WINDOW_PAGES,
        window_pages=WAL_WINDOW_PAGES,
    )
    db.wal.segment_writer = volume.writer

    rig.sim.run_process(workload.load(db))

    # Real temp traffic: periodic spill/merge churn for the whole run
    # (bounded: the closed loop ends by draining the event queue).
    temp = TempArea(db)
    rig.sim.process(temp.process(TEMP_INTERVAL_US, TEMP_RUN_PAGES,
                                 until_us=rig.sim.now + duration_us))

    # Steady-state mark: snapshot the ledger and stream counters once
    # the fill transient is over, so the gates can compare tail deltas.
    ledger = monitor.ledger
    mark: dict = {}

    def _mark_steady():
        yield rig.sim.timeout(warmup_us)
        report = ledger.report()
        stream_stats = stream_stats_of(rig.manager)
        mark.update(
            logical=report["logical_writes"],
            physical=report["physical_writes"],
            erases=report["erases"]["total"],
            victims=stream_stats.get("victims", 0),
            mixed=stream_stats.get("mixed_class_victims", 0),
        )

    rig.sim.process(_mark_steady())

    stats = _drive("streams", workload_name, rig, db, seed, duration_us)
    trace.enabled = False

    events = [event.as_dict() for event in trace.events]
    final = ledger.report()
    final_streams = stream_stats_of(rig.manager)
    logical_tail = final["logical_writes"] - mark.get("logical", 0)
    physical_tail = final["physical_writes"] - mark.get("physical", 0)
    erases_tail = final["erases"]["total"] - mark.get("erases", 0)
    steady = {
        "warmup_us": warmup_us,
        "logical_writes": logical_tail,
        "physical_writes": physical_tail,
        "erases": erases_tail,
        "write_amplification": (
            round(physical_tail / logical_tail, 4) if logical_tail else None
        ),
        "erases_per_write": (
            round(erases_tail / logical_tail, 5) if logical_tail else None
        ),
        "victims": final_streams.get("victims", 0) - mark.get("victims", 0),
        "mixed_class_victims": (
            final_streams.get("mixed_class_victims", 0)
            - mark.get("mixed", 0)
        ),
    }
    return {
        "workload": workload_name,
        "streams": streams,
        "seed": seed,
        "duration_us": duration_us,
        "commits": stats.commits,
        "tps": stats.tps,
        "wa": final,
        "steady": steady,
        "stream_stats": final_streams,
        "wal_volume": volume.snapshot(),
        "temp": temp.snapshot(),
        "write_blame": blame_breakdown(events, op="write"),
        "commit_blame": blame_breakdown(events, op="commit"),
        "trace_events": trace.emitted,
    }


def _erases_per_write(arm: dict) -> float:
    """Steady-tail GC erases per logical host write (the wear cost of
    one unit of host work — comparable across arms with different
    throughput, and clear of the fill transient)."""
    steady = arm["steady"]
    if steady["logical_writes"] <= 0:
        return 0.0
    return steady["erases"] / steady["logical_writes"]


def _steady_wa(arm: dict) -> Optional[float]:
    return arm["steady"]["write_amplification"]


def streams_report(seed: int, quick: bool, workloads) -> dict:
    # Horizons leave a real steady tail past the warmup mark (quick is
    # the CI smoke; full doubles the tail for tighter margins).
    duration = 500_000.0 if quick else 900_000.0

    comparisons = {}
    for name in workloads:
        baseline = run_arm(name, False, seed, duration)
        streamed = run_arm(name, True, seed, duration)
        comparisons[name] = {
            "baseline": baseline,
            "streams": streamed,
            "relative": {
                # > 1.0 means the streams arm improved on the baseline.
                # Both metrics are steady-tail (post-warmup deltas).
                "wa": round(ratio(
                    _steady_wa(baseline) or 0.0,
                    _steady_wa(streamed) or 1.0), 4),
                # Erases normalised per logical write: the two arms are
                # closed loops, so the faster arm does more host work —
                # raw erase counts would penalise the winner for its own
                # extra throughput.
                "erases_per_write": round(ratio(
                    _erases_per_write(baseline),
                    _erases_per_write(streamed)), 4),
                "p99_write_us": round(ratio(
                    baseline["write_blame"].get("p99_us") or 0.0,
                    streamed["write_blame"].get("p99_us") or 1.0), 4),
            },
        }
    first = workloads[0]
    return {
        "seed": seed,
        "quick": quick,
        "comparisons": comparisons,
        "determinism": _witness(
            first, comparisons[first]["streams"],
            lambda: run_arm(first, True, seed, duration)),
    }


def check_streams(report: dict) -> List[str]:
    """Return human-readable gate failures (empty = all gates hold)."""
    failures: List[str] = []

    for name, compare in report["comparisons"].items():
        baseline = compare["baseline"]
        streamed = compare["streams"]

        # Segregation invariant: with class streams on, GC must never
        # pick a block holding more than one data class (whole run, not
        # just the tail — the invariant has no warmup exemption).
        mixed = streamed["stream_stats"].get("mixed_class_victims", 0)
        if mixed:
            failures.append(
                f"{name}: {mixed} mixed-class victim blocks under "
                "write streams (segregation invariant violated)"
            )
        if streamed["steady"]["victims"] <= 0:
            failures.append(
                f"{name}: streams arm never garbage-collected past the "
                "warmup mark — the rig is not in the steady-state "
                "regime the gate needs"
            )

        wa_off = _steady_wa(baseline)
        wa_on = _steady_wa(streamed)
        if wa_off is None or wa_on is None:
            failures.append(
                f"{name}: no logical writes in the steady tail"
            )
        elif not wa_on < wa_off:
            failures.append(
                f"{name}: steady WA(streams)={wa_on:.4f} not below "
                f"WA(baseline)={wa_off:.4f}"
            )
        erases_off = _erases_per_write(baseline)
        erases_on = _erases_per_write(streamed)
        if not erases_on < erases_off:
            failures.append(
                f"{name}: steady erases/write(streams)={erases_on:.5f} "
                f"not below erases/write(baseline)={erases_off:.5f}"
            )

        for arm_name, arm in (("baseline", baseline), ("streams", streamed)):
            per_class = arm["wa"]["per_class"]
            for cls in ("wal", "heap", "btree", "temp"):
                if per_class.get(cls, {}).get("logical", 0) <= 0:
                    failures.append(
                        f"{name}/{arm_name}: no {cls} traffic classified"
                    )
            if per_class.get("unknown", {}).get("physical", 0) > 0:
                failures.append(
                    f"{name}/{arm_name}: "
                    f"{per_class['unknown']['physical']} physical writes "
                    "fell through to the 'unknown' class"
                )
            stray = set(arm["wa"]["producerless_classes"]) \
                - ALLOWED_PRODUCERLESS
            if stray:
                failures.append(
                    f"{name}/{arm_name}: producer-less classes "
                    f"{sorted(stray)} (only {sorted(ALLOWED_PRODUCERLESS)} "
                    "may stay silent in this rig)"
                )

    if not report["determinism"]["identical"]:
        failures.append(
            "determinism: streams-arm reports differ between same-seed runs"
        )
    return failures


def _emit_streams(report: dict) -> None:
    rows = []
    for name, compare in report["comparisons"].items():
        baseline = compare["baseline"]
        streamed = compare["streams"]
        rows.append([
            name.upper(),
            _steady_wa(baseline),
            _steady_wa(streamed),
            round(1000 * _erases_per_write(baseline), 2),
            round(1000 * _erases_per_write(streamed), 2),
            streamed["stream_stats"].get("mixed_class_victims", 0),
        ])
    emit(render_table(
        "Write streams vs legacy hot/cold placement "
        "(closed loop, steady tail)",
        ["workload", "WA base", "WA streams", "erase/kw base",
         "erase/kw streams", "mixed victims"],
        rows,
    ))

    for name, compare in report["comparisons"].items():
        rows = []
        base_cls = compare["baseline"]["wa"]["per_class"]
        on_cls = compare["streams"]["wa"]["per_class"]
        for cls in sorted(set(base_cls) | set(on_cls)):
            rows.append([
                cls,
                base_cls.get(cls, {}).get("wa"),
                on_cls.get(cls, {}).get("wa"),
                on_cls.get(cls, {}).get("logical", 0),
            ])
        emit(render_table(
            f"{name.upper()} — per-class write amplification",
            ["class", "WA base", "WA streams", "logical (streams)"],
            rows,
        ))
        base_blame = compare["baseline"]["write_blame"]
        on_blame = compare["streams"]["write_blame"]
        if base_blame.get("count") and on_blame.get("count"):
            emit(
                f"  {name} p99 write: {base_blame['p99_us']:.0f}us -> "
                f"{on_blame['p99_us']:.0f}us "
                f"(x{compare['relative']['p99_write_us']:.2f})"
            )


# -- CLI ----------------------------------------------------------------------


def _report(args, report: dict, failures: List[str], passed: str) -> bool:
    scenario = args.scenario
    return cli_verdict(
        args, f"BENCH_{scenario}", report, None, not failures, passed,
        "\n".join(f"{scenario.upper()} GATE FAILURE: {failure}"
                  for failure in failures))


def _tail(args) -> bool:
    runs: Dict[str, Optional[dict]] = {}
    traces: Dict[str, str] = dict(args.from_trace)
    runs.update(dict.fromkeys(traces))
    arches = args.arch or (["faster", "noftl"] if not traces else [])
    trace_dir = os.environ.get("REPRO_METRICS_DIR", DEFAULT_METRICS_DIR)
    if arches:
        os.makedirs(trace_dir, exist_ok=True)
    for arch in arches:
        if arch in traces:
            continue
        path = os.path.join(trace_dir, f"observe-{arch}.trace.jsonl")
        emit(f"running {arch} rig (seed={args.seed},"
             f" {args.duration_us:.0f}us)...")
        runs[arch] = run_arch(arch, path, args.seed, args.duration_us)
        traces[arch] = path

    reports: Dict[str, dict] = {}
    for arch, path in traces.items():
        reports[arch] = analyze_trace(path)
        render_report(arch, runs.get(arch), reports[arch])

    failures = check_tail(reports, RIGS["tail"].dies)
    payload = {
        "runs": {arch: run for arch, run in runs.items() if run},
        "reports": reports,
        "checks": {"failures": failures, "passed": not failures},
    }
    return _report(args, payload, failures,
                   "tail check ok (origins, per-die series, GC-blamed "
                   "write tail FASTer > NoFTL)")


def _health(args) -> bool:
    report = health_report(args.seed, args.quick,
                           tuple(args.workload or WORKLOADS))
    _emit_health(report)
    return _report(args, report, check_health(report),
                   "health check ok (classification, lifetime "
                   "projection, saturation detection, determinism)")


def _streams(args) -> bool:
    report = streams_report(args.seed, args.quick,
                            tuple(args.workload or WORKLOADS))
    _emit_streams(report)
    return _report(args, report, check_streams(report),
                   "streams check ok (segregation invariant, WA and "
                   "erase reduction, full classification, determinism)")


def _arch_trace(item: str):
    arch, sep, path = item.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"wants ARCH=PATH, got {item!r}")
    return arch, path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.observe",
        description="Observability harness: tail-latency attribution, "
                    "device health and write-stream placement",
    )
    gates = argparse.ArgumentParser(add_help=False)
    gates.add_argument("--check", action="store_true",
                       help="exit nonzero unless every gate holds")
    gates.add_argument("--export", action="store_true",
                       help="write the report to $REPRO_METRICS_DIR as "
                            "BENCH_<scenario>.json")
    scenarios = parser.add_subparsers(dest="scenario", required=True)
    tail = scenarios.add_parser(
        "tail", parents=[gates],
        help="causal tracing and tail-latency attribution per architecture")
    health = scenarios.add_parser(
        "health", parents=[gates],
        help="WA per data class, wear and lifetime, saturation detection")
    streams = scenarios.add_parser(
        "streams", parents=[gates],
        help="class-aware write streams vs the legacy hot/cold layout")
    for sub, run, seed in ((tail, _tail, 23), (health, _health, 11),
                           (streams, _streams, 17)):
        sub.set_defaults(run=run)
        sub.add_argument("--seed", type=int, default=seed)
    tail.add_argument("--arch", action="append", choices=ARCHES,
                      help="architecture(s) to run (repeatable);"
                           " default: faster noftl")
    tail.add_argument("--duration-us", type=float, default=1_500_000.0)
    tail.add_argument("--from-trace", action="append", default=[],
                      type=_arch_trace, metavar="ARCH=PATH",
                      help="skip the rig: analyze a saved JSONL trace")
    for sub in (health, streams):
        sub.add_argument("--workload", action="append", choices=WORKLOADS,
                         help="workload(s) to run (default: tpcb and tpcc)")
        sub.add_argument("--quick", action="store_true",
                         help="shorter horizons for CI smoke")
    args = parser.parse_args(argv)
    ok = args.run(args)
    return 1 if args.check and not ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
