"""Per-layer measurement, from outside the program.

Three instruments, none of which edits ``src/repro``:

* :class:`Probe` reads the rig's existing ``MetricsRegistry`` series and
  ``stats`` / ``snapshot()`` counters before and after the timed window
  and turns the deltas into the per-layer counts and simulated-time
  latencies;
* :func:`host_self_shares` rolls a cProfile of the window up by
  ``src/repro/<package>/<module>.py`` into ``*.host_self_share``;
* ``micro.py`` times fixed direct calls into each layer's public API.
"""

from __future__ import annotations

import os
import pstats

from repro.sim import percentiles

PACKAGES = ("sim", "flash", "ftl", "core", "device", "db", "telemetry",
            "workloads")

#: Registry histograms whose window samples feed a per-layer metric.
HISTOGRAMS = (
    "flash.queue_wait_us",
    "ftl.gc.collect_us",
    "ftl.gc.victim_valid",
    "noftl.read_us",
    "noftl.write_us",
    "frontend.barrier_us",
    "db.flusher.round_us",
    "db.flush_us",
    "db.txn_commit_us",
)


def pct(samples, q: float) -> float:
    """Percentile ``q`` of ``samples``; 0.0 when the layer saw none."""
    return percentiles(samples, (q,))[0] if samples else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counts(load) -> dict:
    """Cumulative counters of one rig, flat."""
    value = load.registry.value
    out = {
        "sim.events": load.sim.events_processed if load.sim else 0,
        "sim.clock_us": load.sim_clock(),
        "host_writes": load.host_writes(),
        "flash.cmds": value("flash.commands"),
        "flash.reads": value("flash.commands", op="read"),
        "flash.programs": value("flash.commands", op="program"),
        "flash.copybacks": value("flash.commands", op="copyback"),
        "flash.erases": value("flash.commands", op="erase"),
        "flash.busy_us": value("flash.busy_us"),
        "ftl.gc_collections": value("ftl.gc.collections"),
        "ftl.relocations": value("ftl.relocations"),
        "ftl.gc_backoff_waits": value("ftl.gc.backoff_waits"),
        "ftl.merges_full": value("ftl.merges", kind="full"),
        "ftl.merges_partial": value("ftl.merges", kind="partial"),
        "ftl.merges_switch": value("ftl.merges", kind="switch"),
        "core.region_lock_waits": value("noftl.region_lock_waits"),
        "core.retries": value("noftl.read_retries")
        + value("noftl.program_remaps"),
        "device.frontend.acks": value("frontend.acks"),
        "device.frontend.cache_hits": value("frontend.cache_hits"),
        "device.frontend.coalesced": value("frontend.coalesced"),
        "device.frontend.hazard_stalls": value("frontend.hazard_stalls"),
        "device.frontend.sheds": value("frontend.sheds"),
        "device.frontend.throttled": value("frontend.destage_throttled"),
        "db.buffer.hits": value("db.buffer.lookups", event="hit"),
        "db.buffer.misses": value("db.buffer.lookups", event="miss"),
        "db.buffer.evictions": value("db.buffer.evictions"),
        "db.buffer.dirty_eviction_stalls":
            value("db.buffer.dirty_eviction_stalls"),
        "db.flusher.pages": value("db.flusher.pages"),
    }
    for name in ("core.host_reads", "core.host_writes", "core.host_trims",
                 "db.wal.appends", "db.wal.flushes", "db.wal.bytes",
                 "db.locks.waits", "db.locks.timeouts"):
        out[name] = 0
    if load.manager is not None:
        stats = load.manager.stats
        out["core.host_reads"] = stats.host_reads
        out["core.host_writes"] = stats.host_writes
        out["core.host_trims"] = stats.host_trims
    if load.db is not None:
        wal = load.db.wal.snapshot()
        locks = load.db.locks.snapshot()
        out["db.wal.appends"] = wal["total_appends"]
        out["db.wal.flushes"] = wal["total_flushes"]
        out["db.wal.bytes"] = wal["bytes_flushed"]
        out["db.locks.waits"] = locks["waits"]
        out["db.locks.timeouts"] = locks["timeouts"]
    return out


class Probe:
    """Counter and histogram positions at the start of a window."""

    def __init__(self, load):
        self.load = load
        self.before = _counts(load)
        self.marks = {
            id(histogram): histogram.count
            for name in HISTOGRAMS
            for histogram in load.registry.histograms_named(name)
        }

    def window(self) -> tuple:
        """``(counter deltas, {histogram name: window samples})``."""
        after = _counts(self.load)
        delta = {name: after[name] - self.before[name] for name in after}
        # A series the window itself created (first GC, first barrier)
        # has no mark: all of it is the window's.
        samples = {
            name: [
                sample
                for histogram in self.load.registry.histograms_named(name)
                for sample in
                histogram.samples[self.marks.get(id(histogram), 0):]
            ]
            for name in HISTOGRAMS
        }
        return delta, samples


def series_count(registry) -> int:
    snapshot = registry.snapshot()
    return sum(len(snapshot[kind])
               for kind in ("counters", "gauges", "histograms"))


def layer_counts(load, delta: dict, samples: dict, outcome: dict,
                 host_s: float) -> dict:
    """The per-layer metrics that come from one untraced window."""
    ops = outcome["ops"]
    writes = delta["host_writes"]
    events = delta["sim.events"]
    cmds = delta["flash.cmds"]
    sim_us = delta["sim.clock_us"]
    dies = load.array.geometry.total_dies
    commits = ops if load.db is not None else 0
    lookups = delta["db.buffer.hits"] + delta["db.buffer.misses"]
    front = load.frontend is not None
    # Synchronous replay has no registry latency series: the timed
    # storage wrapper's samples are the manager-level latencies there.
    sync_replay = load.sim is None and load.manager is not None
    core_read = outcome["read_lat"] if sync_replay else samples["noftl.read_us"]
    core_write = (outcome["write_lat"] if sync_replay
                  else samples["noftl.write_us"])
    victim_valid = samples["ftl.gc.victim_valid"]
    reads_issued = len(outcome["read_lat"]) if front else 0

    out = {
        "sim.events": events,
        "sim.events_per_op": _ratio(events, ops),
        "sim.events_per_flash_cmd": _ratio(events, cmds),
        "sim.events_per_host_s": _ratio(events, host_s),
        "flash.cmds": cmds,
        "flash.cmds_per_op": _ratio(cmds, ops),
        "flash.reads": delta["flash.reads"],
        "flash.programs": delta["flash.programs"],
        "flash.copybacks": delta["flash.copybacks"],
        "flash.erases": delta["flash.erases"],
        "flash.die_busy_share": _ratio(delta["flash.busy_us"], dies * sim_us),
        "flash.queue_wait_p50_us": pct(samples["flash.queue_wait_us"], 50),
        "flash.queue_wait_p99_us": pct(samples["flash.queue_wait_us"], 99),
        "flash.host_us_per_cmd": _ratio(host_s * 1e6, cmds),
        "ftl.gc_collections": delta["ftl.gc_collections"],
        "ftl.relocations": delta["ftl.relocations"],
        "ftl.relocations_per_kwrite":
            _ratio(1000.0 * delta["ftl.relocations"], writes),
        "ftl.gc_victim_valid_mean":
            _ratio(sum(victim_valid), len(victim_valid)),
        "ftl.gc_collect_p99_us": pct(samples["ftl.gc.collect_us"], 99),
        "ftl.gc_backoff_waits": delta["ftl.gc_backoff_waits"],
        "ftl.merges_full": delta["ftl.merges_full"],
        "ftl.merges_partial": delta["ftl.merges_partial"],
        "ftl.merges_switch": delta["ftl.merges_switch"],
        "core.host_reads": delta["core.host_reads"],
        "core.host_writes": delta["core.host_writes"],
        "core.host_trims": delta["core.host_trims"],
        "core.read_p50_us": pct(core_read, 50),
        "core.read_p99_us": pct(core_read, 99),
        "core.write_p99_us": pct(core_write, 99),
        "core.region_lock_waits": delta["core.region_lock_waits"],
        "core.retries": delta["core.retries"],
        "device.frontend.acks": delta["device.frontend.acks"],
        "device.frontend.cache_hit_share":
            _ratio(delta["device.frontend.cache_hits"], reads_issued),
        "device.frontend.coalesced_share":
            _ratio(delta["device.frontend.coalesced"],
                   delta["device.frontend.acks"]),
        "device.frontend.hazard_stalls": delta["device.frontend.hazard_stalls"],
        "device.frontend.sheds": delta["device.frontend.sheds"],
        "device.frontend.throttled": delta["device.frontend.throttled"],
        "device.frontend.barrier_p99_us":
            pct(samples["frontend.barrier_us"], 99),
        "device.frontend.events_per_op": _ratio(events, ops) if front else 0.0,
        "db.buffer.lookups": lookups,
        "db.buffer.hit_ratio": _ratio(delta["db.buffer.hits"], lookups),
        "db.buffer.evictions": delta["db.buffer.evictions"],
        "db.buffer.dirty_eviction_stalls":
            delta["db.buffer.dirty_eviction_stalls"],
        "db.flusher.pages": delta["db.flusher.pages"],
        "db.flusher.round_p99_us": pct(samples["db.flusher.round_us"], 99),
        "db.flush_p99_us": pct(samples["db.flush_us"], 99),
        "db.wal.appends_per_commit": _ratio(delta["db.wal.appends"], commits),
        "db.wal.commits_per_flush": _ratio(commits, delta["db.wal.flushes"]),
        "db.wal.bytes_per_commit": _ratio(delta["db.wal.bytes"], commits),
        "db.txn_commit_p50_us": pct(samples["db.txn_commit_us"], 50),
        "db.txn_commit_p99_us": pct(samples["db.txn_commit_us"], 99),
        "db.locks.waits": delta["db.locks.waits"],
        "db.locks.timeouts": delta["db.locks.timeouts"],
        "db.retries": outcome.get("retries", 0),
        "telemetry.series": series_count(load.registry),
        "workloads.voluntary_rollbacks": outcome.get("voluntary_rollbacks", 0),
        "failed_op_share": _ratio(outcome["failed"], outcome["attempted"]),
    }
    return out


def host_self_shares(profile, share_names) -> dict:
    """Roll a cProfile's self time (``tottime``) up by package and by
    module of ``src/repro``; C builtins and everything else (stdlib, the
    benchmark's own driver code) get their own rows, so the package rows
    plus ``builtins`` plus ``other`` sum to 1.

    ``share_names`` are the ``*.host_self_share`` names to report; a
    name whose code never ran reads 0.
    """
    stats = pstats.Stats(profile).stats
    marker = os.sep + os.path.join("src", "repro") + os.sep
    seconds = {}
    total = 0.0
    for (filename, __, ___), (____, _____, tottime, ______, _______) \
            in stats.items():
        total += tottime
        if filename == "~":
            keys = ("builtins",)
        elif marker in filename:
            parts = filename.split(marker, 1)[1].split(os.sep)
            package = parts[0]
            if package not in PACKAGES:
                keys = ("other",)
            else:
                module = os.path.splitext(parts[-1])[0]
                keys = (package, f"{package}.{module}")
        else:
            keys = ("other",)
        for key in keys:
            seconds[key] = seconds.get(key, 0.0) + tottime
    suffix = ".host_self_share"
    return {
        name: _ratio(seconds.get(name[:-len(suffix)], 0.0), total)
        for name in share_names
    }
