#!/usr/bin/env python3
"""The layered two-clock benchmark of the NoFTL reproduction.

    python benchmarks/stack/run.py [--seed N] [--trace] [--json PATH]

runs five workloads, each in its own child interpreter, and prints every
metric ``BENCHMARK.json`` declares by name with its unit.  Two clocks:
*host* time is how fast the pure-Python simulator runs, *simulated* time
is what the modelled NoFTL / FTL design achieves; every unit says which
(``host-…`` / ``sim-…``).  See README.md beside this file.

The driver's form,

    run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and ends with one JSON line: the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).

Exit code is non-zero when any correctness or determinism check fails.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src"

DEFAULT_SEED = 11
REPEATS = 3
#: The traced repeat runs at this share of the horizon (cProfile makes
#: every call several times dearer).
TRACE_HORIZON_SHARE = 1.0 / 3.0
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 170
SHARE_SUFFIX = ".host_self_share"

#: Paper figures the TPC-B pair is set beside (EDBT 2015: TPS vs FASTer,
#: Figure 3 copybacks and erases).  The model is otherwise unvalidated
#: against hardware.
PAPER_RATIOS = {
    "paper.tps_ratio_noftl_over_faster": 2.25,
    "paper.wa_ratio_faster_over_noftl": 2.0,
    "paper.erase_ratio_faster_over_noftl": 1.7,
}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- child: one workload, measured ---------------------------------------------


def _end_to_end(outcome: dict, delta: dict) -> dict:
    """Simulated end-to-end metrics of one window (host ones are
    derived by the parent from ``host_s`` / ``setup_s`` / RSS)."""
    from layers import pct

    writes = delta["host_writes"]
    return {
        "sim_ops_per_s": outcome["sim_ops_per_s"],
        "sim_lat_p50_us": pct(outcome["lat"], 50),
        "sim_lat_p99_us": pct(outcome["lat"], 99),
        "sim_read_lat_p99_us": pct(outcome["read_lat"], 99),
        "sim_write_lat_p99_us": pct(outcome["write_lat"], 99),
        "sim_write_amp":
            (delta["flash.programs"] + delta["flash.copybacks"]) / writes,
        "sim_erases_per_kwrite": 1000.0 * delta["flash.erases"] / writes,
        "ok_op_share": 1.0 - outcome["failed"] / outcome["attempted"],
    }


def measure(load_class, seed: int, scale: float, profiler=None) -> dict:
    """Build one fresh rig (timed as ``setup_s``), run its window (timed
    as ``host_s``), read the probes, then verify.  A window that raises
    is a result — every op it planned counts as failed — not a crash."""
    from layers import Probe, layer_counts

    record = {"checks": []}
    load = None
    # Every repeat starts from the same heap: the rigs are cyclic
    # garbage, and when the collector gets to them moves the peak RSS.
    gc.collect()
    try:
        started = time.perf_counter()
        load = load_class(seed, scale)
        record["setup_s"] = time.perf_counter() - started
        probe = Probe(load)
        gc.collect()  # the set-up's garbage is not the window's to pay for
        if profiler is not None:
            profiler.enable()
        began = time.perf_counter()
        try:
            load.run()
        finally:
            host_s = time.perf_counter() - began
            if profiler is not None:
                profiler.disable()
        outcome = load.outcome()
        delta, samples = probe.window()
        record.update(
            host_s=host_s,
            ops=outcome["ops"],
            attempted=outcome["attempted"],
            failed=outcome["failed"],
            samples={"lat": len(outcome["lat"]),
                     "read_lat": len(outcome["read_lat"]),
                     "write_lat": len(outcome["write_lat"])},
            sim=_end_to_end(outcome, delta),
            layers=layer_counts(load, delta, samples, outcome, host_s),
        )
        record["checks"] = [list(check) for check in load.verify()]
    except Exception:  # boundary: report the failure, keep the runner alive
        planned = load.planned_ops if load is not None else 1
        record.update(error=traceback.format_exc(), attempted=planned,
                      failed=planned)
        record["checks"].append(
            ["no_exception", False,
             record["error"].strip().splitlines()[-1]])
    return record


def child_main(args) -> int:
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import layers
    import loads
    import micro

    spec = load_spec()
    load_class = loads.LOADS[args.workload]
    out = {"workload": args.workload, "repeats": []}
    for __ in range(args.repeats):
        out["repeats"].append(measure(load_class, args.seed, args.scale))
    # Before the traced pass, which is not part of what a user runs.
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    good = [r for r in out["repeats"] if "error" not in r]
    if args.trace and good:
        share_names = [m["name"] for m in spec["per_layer"]
                       if m["name"].endswith(SHARE_SUFFIX)]
        profiler = cProfile.Profile()
        traced = measure(load_class, args.seed,
                         args.scale * TRACE_HORIZON_SHARE, profiler)
        trace = {"repeat": traced}
        if "error" not in traced:
            trace["layers"] = layers.host_self_shares(profiler, share_names)
            untraced = statistics.median(r["host_s"] / r["ops"] for r in good)
            trace["layers"]["trace.overhead_ratio"] = \
                traced["host_s"] / traced["ops"] / untraced
            trace["layers"].update(micro.run_all(args.micro_scale))
            tax = {"device.frontend.host_tax_ratio": 0.0,
                   "device.frontend.sim_iops_ratio": 0.0}
            if load_class is loads.DevMixedFrontend:
                bypass = measure(loads.DevMixedBypass, args.seed, args.scale)
                trace["bypass"] = bypass
                if "error" not in bypass:
                    with_fe = good[0]
                    tax["device.frontend.host_tax_ratio"] = \
                        untraced / (bypass["host_s"] / bypass["ops"])
                    tax["device.frontend.sim_iops_ratio"] = \
                        with_fe["sim"]["sim_ops_per_s"] \
                        / bypass["sim"]["sim_ops_per_s"]
            trace["layers"].update(tax)
        out["trace"] = trace
    print(json.dumps(out))
    return 0


# -- parent: orchestrate, check, print -----------------------------------------


def run_child(name: str, seed: int, scale: float, repeats: int, trace: bool,
              micro_scale: float) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed), "--scale", repr(scale),
        "--repeats", str(repeats), "--trace", "1" if trace else "0",
        "--micro-scale", repr(micro_scale),
    ]
    # A fixed hash seed takes one source of process-to-process host-time
    # variation out (str hashing decides dict collisions and layout).
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=str(ROOT), env=env)
    except subprocess.TimeoutExpired:
        return _dead_child(name, f"no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return _dead_child(name, f"exit {done.returncode}: {tail}")
    return json.loads(lines[-1])


def _dead_child(name: str, why: str) -> dict:
    return {"workload": name, "peak_rss_mb": 0.0, "repeats": [{
        "error": why, "attempted": 1, "failed": 1,
        "checks": [["child_completed", False, why]],
    }]}


def summarise(raw: dict, spec: dict, trace: bool) -> dict:
    """Fold a child's repeats into the workload's result: medians of the
    host metrics, the (identical) simulated metrics, all checks."""
    repeats = raw["repeats"]
    good = [r for r in repeats if "error" not in r]
    checks = [check for r in repeats for check in r["checks"]]
    result = {
        "workload": raw["workload"],
        "end_to_end": {}, "per_layer": {}, "repeats": repeats,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
    }
    if good:
        first = good[0]
        identical = all(
            r["sim"] == first["sim"]
            and r["layers"]["sim.events"] == first["layers"]["sim.events"]
            for r in good)
        checks.append([
            "deterministic", identical,
            f"simulated metrics and sim.events over {len(good)} repeats"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

        def host(values):
            return {"value": statistics.median(values), "min": min(values),
                    "max": max(values), "n": len(values)}

        e2e = {
            "setup_s": host([r["setup_s"] for r in good]),
            "host_ops_per_s": host([r["ops"] / r["host_s"] for r in good]),
            "host_peak_rss_mb": {"value": raw["peak_rss_mb"], "n": 1},
        }
        sample_of = {"sim_lat_p50_us": "lat", "sim_lat_p99_us": "lat",
                     "sim_read_lat_p99_us": "read_lat",
                     "sim_write_lat_p99_us": "write_lat"}
        for name, value in first["sim"].items():
            e2e[name] = {"value": value, "n": first["samples"].get(
                sample_of.get(name), first["ops"])}
        for name, entry in e2e.items():
            entry["unit"] = units[name]
        result["end_to_end"] = {m["name"]: e2e[m["name"]]
                                for m in spec["end_to_end"]}
        result["per_layer"] = dict(first["layers"])
        if trace:
            traced = raw.get("trace", {})
            checks.extend(traced.get("repeat", {}).get("checks", []))
            checks.extend(traced.get("bypass", {}).get("checks", []))
            result["per_layer"].update(traced.get("layers", {}))
            shares = sum(v for k, v in result["per_layer"].items()
                         if k.endswith(SHARE_SUFFIX) and k.count(".") == 1)
            checks.append(["shares_sum_to_one", abs(shares - 1.0) <= 0.01,
                           f"package + builtins + other rows sum to "
                           f"{shares:.4f}"])
    result["checks"] = checks
    result["correct"] = bool(good) and len(good) == len(repeats) \
        and all(check[1] for check in checks)
    return result


def _fmt(value) -> str:
    if isinstance(value, int) or float(value).is_integer() \
            and abs(value) >= 1000:
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4f}"


def print_result(result: dict, spec: dict, trace: bool, seed: int) -> None:
    print(f"\n== workload: {result['workload']} (seed {seed}) ==")
    e2e = result["end_to_end"]
    for metric in spec["end_to_end"]:
        entry = e2e.get(metric["name"])
        if entry is None:
            continue
        note = f"n={entry['n']}"
        if "min" in entry:
            note = (f"median of {entry['n']} repeats, min "
                    f"{_fmt(entry['min'])} max {_fmt(entry['max'])}")
        elif metric["name"].endswith("p99_us") and entry["n"] < 1000:
            note += " (under 1000 samples: read as a spot value)"
        print(f"  {metric['name']:<44}{_fmt(entry['value']):>16} "
              f"{metric['unit']:<14} {note}")
    if trace:
        layers = result["per_layer"]
        for metric in spec["per_layer"]:
            if metric["name"] in layers:
                print(f"  {metric['name']:<44}"
                      f"{_fmt(layers[metric['name']]):>16} {metric['unit']}")
    for name, passed, detail in result["checks"]:
        print(f"  check {name:<22} {'PASS' if passed else 'FAIL'}  {detail}")
    print(f"  ops attempted {result['attempted']:,}, failed "
          f"{result['failed']:,}")


def paper_ratios(results: dict) -> dict:
    """The TPC-B pair's ratios beside the paper's, with signed error."""
    try:
        noftl = results["tpcb_noftl"]["end_to_end"]
        faster = results["tpcb_faster"]["end_to_end"]
        measured = {
            "paper.tps_ratio_noftl_over_faster":
                noftl["sim_ops_per_s"]["value"]
                / faster["sim_ops_per_s"]["value"],
            "paper.wa_ratio_faster_over_noftl":
                faster["sim_write_amp"]["value"]
                / noftl["sim_write_amp"]["value"],
            "paper.erase_ratio_faster_over_noftl":
                faster["sim_erases_per_kwrite"]["value"]
                / noftl["sim_erases_per_kwrite"]["value"],
        }
    except KeyError:
        return {}
    return {
        name: {"value": value, "unit": "ratio", "paper": PAPER_RATIOS[name],
               "error": value / PAPER_RATIOS[name] - 1.0}
        for name, value in measured.items()
    }


def print_paper(ratios: dict) -> None:
    if not ratios:
        return
    print("\n== accuracy: tpcb_noftl vs tpcb_faster beside the paper ==")
    for name, entry in ratios.items():
        print(f"  {name:<44}{entry['value']:>16.4f} ratio          "
              f"paper ~{entry['paper']}x, error {entry['error']:+.1%}")
    print("  (paper: 2.25x TPS, ~2x copybacks and ~1.7x erases against "
          "FASTer; the copyback figure\n   is set beside a write-"
          "amplification ratio here.  EXPERIMENTS.md documents the TPC-B\n"
          "   overshoot; the model is otherwise unvalidated against "
          "hardware.)")


def run_pass(spec: dict, names, seed: int, scale: float, repeats: int,
             trace: bool, micro_scale: float, quiet: bool = False) -> dict:
    results = {}
    for name in names:
        raw = run_child(name, seed, scale, repeats, trace, micro_scale)
        results[name] = summarise(raw, spec, trace)
        if not quiet:
            print_result(results[name], spec, trace, seed)
            sys.stdout.flush()
    return results


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record_of(results: dict, ratios: dict, seed: int, seconds: float) -> dict:
    return {
        "meta": {
            "commit": _commit(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "seconds": seconds,
        },
        "workloads": {
            name: {key: result[key] for key in
                   ("end_to_end", "per_layer", "repeats", "checks",
                    "attempted", "failed", "correct")}
            for name, result in results.items()
        },
        "paper": ratios,
    }


def driver_line(result: dict, spec: dict, trace: bool) -> str:
    """The one-line result the benchmark contract asks for."""
    if trace:
        metrics = {
            m["name"]: {"value": result["per_layer"].get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": metrics,
    })


def selfcheck(spec: dict, names, seed: int, scale: float) -> int:
    """Two default passes back to back: every end-to-end metric within
    its own bound (``setup_s``: its bound or 0.1 s, whichever is larger;
    simulated metrics: identical)."""
    passes = [run_pass(spec, names, seed, scale, REPEATS, False, 1.0,
                       quiet=True) for __ in range(2)]
    failures = 0
    print(f"\n== selfcheck: two passes of the same code, seed {seed} ==")
    print(f"  {'workload':<20}{'metric':<24}{'first':>14}{'second':>14}"
          f"{'gap':>9}  bound  verdict")
    for name in names:
        for result in passes:
            if not result[name]["correct"]:
                failures += 1
                print(f"  {name}: checks failed "
                      f"{[c for c in result[name]['checks'] if not c[1]]}")
        if not all(r[name]["end_to_end"] for r in passes):
            continue
        for metric in spec["end_to_end"]:
            a, b = (r[name]["end_to_end"][metric["name"]]["value"]
                    for r in passes)
            gap = abs(b - a) / abs(a)
            if metric["name"].startswith(("sim_", "ok_")):
                passed, bound = a == b, "exact"
            else:
                bound = f"{metric['bound']:.0%}"
                passed = gap <= metric["bound"] or (
                    metric["name"] == "setup_s" and abs(b - a) <= 0.1)
            failures += not passed
            print(f"  {name:<20}{metric['name']:<24}{_fmt(a):>14}"
                  f"{_fmt(b):>14}{gap:>9.2%}  {bound:<6} "
                  f"{'PASS' if passed else 'FAIL'}")
    return 1 if failures else 0


def print_list(spec: dict) -> None:
    print("workloads:")
    for workload in spec["workloads"]:
        print(f"  {workload['name']:<22}{workload['why']}")
    print("end_to_end:")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<44}{metric['unit']:<14}"
              f"{metric['better']:<8}bound {metric['bound']:.0%}")
    print("per_layer:")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<44}{metric['unit']:<14}{metric['better']}")
    print("derived (full pass only, beside the paper's figures):")
    for name, paper in PAPER_RATIOS.items():
        print(f"  {name:<44}{'ratio':<14}paper ~{paper}x")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default 11)")
    parser.add_argument("--seconds", type=float,
                        help="host seconds one workload measures for; "
                        "scales every horizon (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run the traced pass and "
                        "print every per-layer metric")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full record as JSON")
    parser.add_argument("--append", metavar="PATH",
                        help="append the record as one line (trajectory)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 horizon, one repeat (self-test)")
    parser.add_argument("--list", action="store_true",
                        help="print the declared names and exit")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the default pass twice, report the noise")
    parser.add_argument("--repeats", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--micro-scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"run.py: {SOURCE / 'repro'} is missing: the benchmark "
              "measures the program in src/, there is nothing to run",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; "
                  f"BENCHMARK.json declares {names}", file=sys.stderr)
            return 2
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    scale = seconds / spec["run_seconds"]
    trace = bool(args.trace)
    # The per-layer call of one workload needs one untraced window for
    # its counters, not three.
    repeats = args.repeats or (1 if trace and args.workload else REPEATS)
    micro_scale = 1.0
    if args.smoke:
        scale, repeats, micro_scale = SMOKE_SCALE, 1, 0.1

    if args.selfcheck:
        return selfcheck(spec, names, args.seed, scale)

    results = run_pass(spec, names, args.seed, scale, repeats, trace,
                       micro_scale)
    ratios = paper_ratios(results)
    print_paper(ratios)
    failed = [f"{name}:{check[0]}" for name, result in results.items()
              for check in result["checks"] if not check[1]]
    print("\nall checks passed" if not failed
          else f"\nFAILED checks: {', '.join(failed)}")
    if args.json or args.append:
        record = record_of(results, ratios, args.seed, seconds)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
                handle.write("\n")
        if args.append:
            with open(args.append, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
    correct = all(result["correct"] for result in results.values())
    if args.workload is not None and results[args.workload]["end_to_end"]:
        print(driver_line(results[args.workload], spec, trace))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
