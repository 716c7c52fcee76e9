"""Tail-latency attribution over trace events.

Everything here consumes plain event dicts (``{"ts", "kind", ...}``) —
either ``[e.as_dict() for e in trace.events]`` from a live
:class:`~repro.telemetry.trace.EventTrace` or a saved JSONL file loaded
with :func:`repro.telemetry.trace.load_jsonl` — so an analysis is
reproducible from a trace file without re-running the rig.

Event kinds the stack emits (see DESIGN.md, "Causal tracing"):

``host.op``
    One per host-visible storage/commit operation, emitted by
    ``NoFTLStorage`` / ``BlockDevice`` / the transaction manager.  Fields:
    ``op`` (read / write / commit), ``origin``, ``elapsed_us`` and the
    cost buckets of :data:`repro.telemetry.context.COST_BUCKETS` charged
    while the op ran.
``flash.cmd``
    One per flash command that occupies a die, emitted by ``FlashArray``.
    Fields: ``op``, ``die``, ``origin``, ``path``, ``latency_us``.
``<kind>:begin`` / ``<kind>:end``
    Span pairs with ``span`` / ``parent`` ids (GC runs, merges, flusher
    rounds); ``:end`` carries ``duration_us``.

The **blame decomposition** splits a host op's elapsed time into:
``media`` (its own commands' die/channel time), ``queue_gc`` (waiting
behind maintenance work — die queues, region locks, controller slots held
by GC/merges), ``queue_other`` (waiting behind other foreground work),
``gc`` (maintenance work executed inline within the op), ``retry``
(error-recovery backoff), ``wal`` (commit log flush) and ``other`` (the
unattributed residual: CPU, interface overhead, buffer-pool waits).  The
GC-blamed share of an op is ``gc + queue_gc``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

from ..sim.stats import percentiles
from .context import MAINTENANCE_ORIGINS

__all__ = [
    "host_ops",
    "blame_breakdown",
    "windowed_series",
    "credit_busy",
    "origin_mix",
    "span_rollup",
    "verify_origins",
    "LiveBlame",
]

#: Cost buckets a host.op event may carry, plus the residual.
BLAME_BUCKETS = (
    "media_us",
    "queue_gc_us",
    "queue_other_us",
    "queue_hazard_us",
    "cache_flush_us",
    "gc_us",
    "retry_us",
    "wal_us",
    "other_us",
)

#: Latency percentile from which :func:`blame_breakdown` counts the tail.
TAIL_PCT = 99.0
#: Relative float-rounding slack before charged buckets exceeding an op's
#: elapsed time count as double-charged blame.
OVERCHARGE_TOLERANCE = 1e-9


def host_ops(events: Iterable[dict], op: Optional[str] = None) -> List[dict]:
    """The ``host.op`` events, optionally filtered by op kind."""
    return [
        e for e in events
        if e.get("kind") == "host.op" and (op is None or e.get("op") == op)
    ]


def _bucket_values(event: dict) -> Dict[str, float]:
    """The event's charged buckets plus ``other_us``, the elapsed time
    nothing claimed.  Raises :class:`ValueError` when the buckets charge
    more than the op's elapsed time (beyond float rounding): that is
    blame counted twice, and a residual clamped at zero would hide it."""
    elapsed = float(event.get("elapsed_us", 0.0))
    out = {
        bucket: float(event.get(bucket, 0.0))
        for bucket in BLAME_BUCKETS if bucket != "other_us"
    }
    charged = sum(out.values())
    if charged - elapsed > OVERCHARGE_TOLERANCE * max(1.0, elapsed):
        raise ValueError(
            f"{event.get('op')} op charges {charged!r} us to its blame "
            f"buckets but took {elapsed!r} us: {out}"
        )
    out["other_us"] = max(0.0, elapsed - charged)
    return out


def blame_breakdown(events: Iterable[dict], op: str = "write") -> dict:
    """Decompose the latency of one host op kind, overall and at the tail.

    The *tail* set is every sample at or above the ``TAIL_PCT`` latency
    percentile; per-bucket means over that set say what a p99 ``write``
    (say) was actually spending its time on.  Returns a dict with
    ``count``, ``p50/p99/p999/max``, ``mean_us``, per-bucket means for
    all samples (``buckets``) and for the tail (``tail_buckets``), the
    tail's ``gc_blamed_us`` (= gc + queue_gc means) and its ``shares``
    (bucket / tail mean elapsed).
    """
    ops = host_ops(events, op)
    if not ops:
        return {"op": op, "count": 0}
    latencies = [float(e.get("elapsed_us", 0.0)) for e in ops]
    threshold, p50, p99, p999 = percentiles(
        latencies, (TAIL_PCT, 50, 99, 99.9)
    )
    tail = [e for e in ops if float(e.get("elapsed_us", 0.0)) >= threshold]

    def mean_buckets(group: List[dict]) -> Dict[str, float]:
        totals = {bucket: 0.0 for bucket in BLAME_BUCKETS}
        for event in group:
            for bucket, value in _bucket_values(event).items():
                totals[bucket] += value
        return {
            bucket: total / len(group) for bucket, total in totals.items()
        }

    buckets = mean_buckets(ops)
    tail_buckets = mean_buckets(tail)
    tail_mean = sum(tail_buckets.values())
    return {
        "op": op,
        "count": len(ops),
        "mean_us": sum(latencies) / len(latencies),
        "p50_us": p50,
        "p99_us": p99,
        "p999_us": p999,
        "max_us": max(latencies),
        "tail_pct": TAIL_PCT,
        "tail_threshold_us": threshold,
        "tail_count": len(tail),
        "buckets": buckets,
        "tail_buckets": tail_buckets,
        "gc_blamed_us": tail_buckets["gc_us"] + tail_buckets["queue_gc_us"],
        "shares": {
            bucket: (value / tail_mean if tail_mean > 0 else 0.0)
            for bucket, value in tail_buckets.items()
        },
    }


def credit_busy(
    series: List[float],
    t0: float,
    window_us: float,
    start: float,
    duration_us: float,
) -> None:
    """Credit ``duration_us`` of busy time onto fixed windows.

    The occupancy interval ``[start, start + duration_us)`` is split
    exactly across the windows it covers — a command straddling a window
    boundary credits each window only the time it actually spent there.
    Time falling before the first window is credited to the first, time
    past the last edge to the last, so the series total always equals the
    total busy time handed in.  Shared by the replay-path
    :func:`windowed_series` and the live
    :class:`repro.telemetry.health.LoadWindowEngine`, which keeps the two
    paths' numbers consistent by construction.
    """
    nwin = len(series)
    if nwin == 0 or duration_us <= 0.0:
        return
    last = nwin - 1
    idx = int((start - t0) // window_us)
    if idx < 0:
        idx = 0
        start = t0
    elif idx > last:
        idx = last
    remaining = float(duration_us)
    cursor = start
    while idx < last:
        edge = t0 + (idx + 1) * window_us
        take = edge - cursor
        if take >= remaining:
            break
        series[idx] += take
        remaining -= take
        cursor = edge
        idx += 1
    series[idx] += remaining


def windowed_series(
    events: Iterable[dict],
    window_us: float = 100_000.0,
) -> dict:
    """Time series over fixed windows: host-op throughput, per-die busy
    fraction and maintenance (GC/merge/WL/...) flash-command activity.

    Returns ``{"window_us", "windows": [t0, t1, ...], "ops": [...],
    "die_busy": {die: [fraction, ...]}, "maintenance_cmds": [...]}``.
    Die busy time treats each ``flash.cmd``'s timestamp as the start of
    its die occupancy and splits the latency exactly across the windows
    it covers (:func:`credit_busy`); op/maintenance *counts* still land
    in the window containing the command's timestamp.
    """
    if window_us <= 0:
        raise ValueError("window_us must be positive")
    events = list(events)
    stamped = [e for e in events if "ts" in e]
    if not stamped:
        return {"window_us": window_us, "windows": [], "ops": [],
                "die_busy": {}, "maintenance_cmds": []}
    t0 = min(float(e["ts"]) for e in stamped)
    t1 = max(float(e["ts"]) for e in stamped)
    nwin = max(1, int((t1 - t0) / window_us) + 1)
    ops = [0] * nwin
    maintenance = [0] * nwin
    die_busy: Dict[int, List[float]] = {}
    for event in events:
        kind = event.get("kind")
        if kind not in ("host.op", "flash.cmd"):
            continue
        ts = float(event["ts"])
        idx = min(nwin - 1, int((ts - t0) / window_us))
        if kind == "host.op":
            ops[idx] += 1
            continue
        die = event.get("die")
        if die is not None:
            per_die = die_busy.setdefault(int(die), [0.0] * nwin)
            credit_busy(per_die, t0, window_us, ts,
                        float(event.get("latency_us", 0.0)))
        if event.get("origin") in MAINTENANCE_ORIGINS:
            maintenance[idx] += 1
    return {
        "window_us": window_us,
        "windows": [t0 + i * window_us for i in range(nwin)],
        "ops": ops,
        "die_busy": {
            die: [busy / window_us for busy in series]
            for die, series in sorted(die_busy.items())
        },
        "maintenance_cmds": maintenance,
    }


def origin_mix(events: Iterable[dict]) -> Dict[str, int]:
    """Flash-command counts per origin label."""
    out: Dict[str, int] = {}
    for event in events:
        if event.get("kind") == "flash.cmd":
            origin = event.get("origin", "<missing>")
            out[origin] = out.get(origin, 0) + 1
    return out


def verify_origins(events: Iterable[dict]) -> dict:
    """Check that every flash command in the trace carries an origin."""
    total = missing = 0
    for event in events:
        if event.get("kind") == "flash.cmd":
            total += 1
            if not event.get("origin"):
                missing += 1
    return {"flash_cmds": total, "missing_origin": missing}


def span_rollup(events: Iterable[dict]) -> List[dict]:
    """Flamegraph-style rollup of span end events.

    Rebuilds parent chains from the ``span`` / ``parent`` ids on
    ``<kind>:end`` events and aggregates inclusive time by root-to-leaf
    kind path, e.g. ``log.reclaim;merge.full``.  Returns entries sorted
    by total time, each ``{"path", "count", "total_us", "mean_us"}``.
    """
    kind_of: Dict[int, str] = {}
    parent_of: Dict[int, Optional[int]] = {}
    ends: List[dict] = []
    for event in events:
        kind = event.get("kind", "")
        if not kind.endswith(":end") or "span" not in event:
            continue
        span_id = int(event["span"])
        kind_of[span_id] = kind[:-4]
        parent = event.get("parent")
        parent_of[span_id] = int(parent) if parent is not None else None
        ends.append(event)
    rollup: Dict[str, List[float]] = {}
    for event in ends:
        span_id = int(event["span"])
        parts = []
        seen = set()
        node: Optional[int] = span_id
        while node is not None and node not in seen:
            seen.add(node)
            parts.append(kind_of.get(node, "?"))
            node = parent_of.get(node)
        path = ";".join(reversed(parts))
        entry = rollup.setdefault(path, [0.0, 0.0])
        entry[0] += 1
        entry[1] += float(event.get("duration_us", 0.0))
    out = [
        {
            "path": path,
            "count": int(count),
            "total_us": total,
            "mean_us": total / count if count else 0.0,
        }
        for path, (count, total) in rollup.items()
    ]
    out.sort(key=lambda item: -item["total_us"])
    return out


class LiveBlame:
    """Sliding-window GC-blame share, fed *during* a run.

    The offline :func:`blame_breakdown` needs the full trace; admission
    control needs the same signal live.  Callers note each completed
    backing op's elapsed time and its GC-blamed component (``gc_us`` +
    ``queue_gc_us`` charged to the op's context); :meth:`gc_share`
    answers "what fraction of recent device time was spent on or behind
    maintenance?" over the trailing ``window_us``.  Entirely passive —
    no events are scheduled, so attaching one never perturbs a rig's
    digest.
    """

    __slots__ = ("window_us", "_samples", "_elapsed_sum", "_gc_sum")

    def __init__(self, window_us: float = 20_000.0):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        self._samples: deque = deque()  # (ts, elapsed_us, gc_blamed_us)
        self._elapsed_sum = 0.0
        self._gc_sum = 0.0

    def _prune(self, now: float) -> None:
        horizon = now - self.window_us
        samples = self._samples
        while samples and samples[0][0] < horizon:
            _, elapsed, gc = samples.popleft()
            self._elapsed_sum -= elapsed
            self._gc_sum -= gc

    def note(self, now: float, elapsed_us: float, gc_blamed_us: float) -> None:
        gc_blamed_us = min(float(gc_blamed_us), float(elapsed_us))
        self._samples.append((float(now), float(elapsed_us), gc_blamed_us))
        self._elapsed_sum += float(elapsed_us)
        self._gc_sum += gc_blamed_us
        self._prune(float(now))

    def gc_share(self, now: float) -> float:
        """GC-blamed fraction of device time in the trailing window."""
        self._prune(float(now))
        if self._elapsed_sum <= 0.0:
            return 0.0
        return min(1.0, self._gc_sum / self._elapsed_sum)
