"""Bench E-S — object/stream-aware write placement vs the legacy layout.

Two arms per workload, identical in every respect except placement:

* **baseline** — the legacy two-temperature layout (``hot`` / ``cold``
  allocation points, GC relocations into ``cold``);
* **streams** — ``write_streams`` on: one allocation point per host data
  class (WAL / heap-hot / heap-cold / btree / temp / ...), buffer-pool
  reference heat driving the heap split, and class-segregated GC
  (victim pages relocate into their own class's GC frontier).

Both arms put *real* WAL traffic on the flash (a circular
:class:`~repro.db.wal.FlashLogVolume` window at the top of the logical
space) and run a periodic :class:`~repro.db.temp.TempArea` spill/merge
producer, so all the short-lived classes the split is supposed to
segregate actually exist.  The device is sized tight (higher utilization
than the health rigs) so steady-state GC happens inside the run.

Placement deltas only exist once GC runs; the first stretch of every
arm is a device-fill transient (the free pool absorbs all writes at
WA 1.0, and the streams arm pays a one-time erase offset for its
pinned per-class frontiers).  Each arm therefore records a **warmup
mark** of the ledger counters and the gates compare the *steady tail*
(counter deltas after the mark), where the comparison is physics
rather than start-up accounting.

``--check`` turns the report into a gate:

* the streams arm collects **zero mixed-class victim blocks** — the
  segregation invariant, observed rather than asserted;
* write amplification drops in steady state:
  WA(streams) < WA(baseline) over the post-warmup tail, per workload;
* wear drops: steady-tail GC erases *per logical write* are lower with
  streams on (normalised because the faster arm does more host work);
* every producing class (wal / heap / btree / temp) classifies traffic
  and nothing falls through to ``unknown``; the only class allowed to
  be producer-less is ``recovery`` (no crash in this rig);
* the streams arm of the first workload is run twice and the two
  reports must be byte-identical (the determinism witness).

The tail-latency effect is reported via the blame decomposition
(:func:`repro.telemetry.blame_breakdown` over the run's event trace):
per-arm p99 write/commit latency with its GC-blamed share.

Output lands as ``BENCH_streams.json`` in ``REPRO_METRICS_DIR``
(default ``benchmarks/out``); ``--export PATH`` additionally writes the
report to an explicit path for artifact upload.
"""

from __future__ import annotations

import argparse
import json
import random
from typing import List, Optional, Sequence

from ..core import NoFTLConfig
from ..db import FlashLogVolume, TempArea
from ..telemetry import EventTrace, HealthMonitor, blame_breakdown
from ..workloads import TPCB, TPCC, run_workload
from .health import WORKLOADS, stream_stats_of
from .reporting import emit, export_metrics, ratio, render_table
from .rigs import (
    attach_database,
    build_noftl_rig,
    measure_workload_footprint,
    sized_geometry,
)

__all__ = ["run_arm", "build_report", "check_report", "main"]

#: Logical pages reserved at the top of the address space for the
#: circular WAL segment window (out of the db page allocator's reach).
WAL_WINDOW_PAGES = 64

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

#: One die filled to 97 %: placement only matters once steady-state GC
#: runs inside the arm.
DIES = 1
UTILIZATION = 0.97


def _make_workload(name: str):
    """Bigger kits than bench.health: the placement comparison needs the
    data footprint to actually fill the device (high utilization with a
    sane number of blocks per plane), where the health rigs only need
    classified traffic to exist."""
    if name == "tpcb":
        return TPCB(sf=32, accounts_per_branch=2000)
    if name == "tpcc":
        return TPCC(warehouses=8, customers_per_district=500, items=1600)
    raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")


def run_arm(
    workload_name: str,
    streams: bool,
    seed: int = 17,
    duration_us: float = 700_000.0,
) -> dict:
    """One closed-loop arm: TPC kit + WAL-on-flash + temp producer.

    The two arms of a comparison differ only in ``streams`` (the
    ``write_streams`` config bit plus the buffer pool's heat hints);
    geometry, seed, workload scale and the WAL/temp producers are
    shared, so every delta in the report is placement.

    ``WARMUP_US`` sets the steady-state mark: ledger counters are
    snapshotted that far into the run and the arm's ``steady`` section
    reports the post-mark deltas (clamped so at least a quarter of the
    run is tail even on short horizons).
    """
    warmup_us = min(WARMUP_US, duration_us * 0.75)
    workload = _make_workload(workload_name)
    footprint = measure_workload_footprint(workload)
    # Tighter than the health rigs (steady-state GC must happen inside
    # the run for placement to matter at all) and with small blocks, so
    # each plane holds enough blocks for per-class open frontiers plus
    # GC headroom.
    geometry = sized_geometry(
        footprint + WAL_WINDOW_PAGES, DIES,
        utilization=UTILIZATION,
        headroom_pages=footprint // 20,
        pages_per_block=16,
    )
    trace = EventTrace(capacity=65536)
    rig = build_noftl_rig(
        geometry=geometry,
        # gc_low_water is raised (identically in both arms) because the
        # streams arm keeps one open block per class frontier: GC must
        # start while there is still slack for those allocation points.
        config=NoFTLConfig(num_regions=DIES, op_ratio=0.12,
                           gc_low_water=4, write_streams=streams),
        seed=seed,
        trace=trace,
    )
    monitor = HealthMonitor(clock=lambda: rig.sim.now)
    monitor.attach_array(rig.array)
    monitor.attach_manager(rig.manager)
    db = attach_database(rig, buffer_capacity=max(64, footprint // 4),
                         foreground_flush=False, heat_hints=streams)
    db.start_writers(4, policy="region")

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

    stats = run_workload(rig.sim, db, _make_workload(workload_name),
                         duration_us=duration_us, num_terminals=8,
                         rng=random.Random(seed), preloaded=True)
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


# -- report assembly + gate ---------------------------------------------------


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


def build_report(
    seed: int = 17,
    quick: bool = False,
    determinism: bool = True,
    workloads: Sequence[str] = WORKLOADS,
) -> dict:
    # Horizons leave a real steady tail past the warmup mark (quick is
    # the CI smoke; full doubles the tail for tighter margins).
    duration = 500_000.0 if quick else 900_000.0

    comparisons = {}
    for name in workloads:
        baseline = run_arm(name, streams=False, seed=seed,
                           duration_us=duration)
        streamed = run_arm(name, streams=True, seed=seed,
                           duration_us=duration)
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

    report = {
        "seed": seed,
        "quick": quick,
        "comparisons": comparisons,
    }

    if determinism and workloads:
        first = workloads[0]
        repeat = run_arm(first, streams=True, seed=seed,
                         duration_us=duration)
        baseline = json.dumps(comparisons[first]["streams"], sort_keys=True)
        echo = json.dumps(repeat, sort_keys=True)
        report["determinism"] = {
            "workload": first,
            "checked": True,
            "identical": baseline == echo,
        }
    else:
        report["determinism"] = {"checked": False, "identical": None}
    return report


def check_report(report: dict) -> List[str]:
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

    determinism = report["determinism"]
    if determinism["checked"] and not determinism["identical"]:
        failures.append(
            "determinism: streams-arm reports differ between same-seed runs"
        )
    return failures


# -- CLI ----------------------------------------------------------------------


def _emit_summary(report: dict) -> None:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.streams",
        description="Object/stream-aware write placement comparison",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        default=None,
                        help="workload(s) to run (default: tpcb and tpcc)")
    parser.add_argument("--quick", action="store_true",
                        help="shorter horizons for CI smoke")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--check", action="store_true",
                        help="gate the report (zero mixed-class victims, "
                             "WA and erase reduction, full classification, "
                             "double-run byte-identity) and exit nonzero "
                             "on any failure")
    parser.add_argument("--no-determinism", action="store_true",
                        help="skip the double-run byte-identity witness")
    parser.add_argument("--export", default=None, metavar="PATH",
                        help="also write the report JSON to PATH")
    args = parser.parse_args(argv)

    workloads = tuple(args.workload) if args.workload else WORKLOADS
    report = build_report(
        seed=args.seed,
        quick=args.quick,
        determinism=not args.no_determinism,
        workloads=workloads,
    )
    export_metrics("BENCH_streams", report)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    _emit_summary(report)

    if args.check:
        failures = check_report(report)
        if failures:
            for failure in failures:
                emit(f"STREAMS GATE FAILURE: {failure}")
            return 1
        emit("streams check ok (segregation invariant, WA and erase "
             "reduction, full classification, determinism)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
