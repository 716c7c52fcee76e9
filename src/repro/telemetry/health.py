"""Device health & load observability: WA ledger, wear, live windows.

Three instruments, all **strictly passive and opt-in** — nothing here
schedules simulator events or mutates device state, so attaching a
monitor never perturbs a rig's command sequence, and the golden-digest
rigs (which do not attach one) stay bit-identical.

:class:`WriteAmplificationLedger`
    Classifies every PROGRAM / COPYBACK / ERASE the flash array accounts
    by *cause* (the leaf origin of its causal context: host-class work vs
    gc / merge / wear-level / scrub / evacuation) and by *host data
    class* (WAL / heap / btree / map / temp / recovery / unknown).  Host
    data classes ride on the :class:`~repro.telemetry.context.OpContext`
    chain for host-cause writes; for device-cause moves — where the
    adopting request says nothing about which page is moved — the ledger
    resolves the class from the OOB ``lpn`` every FTL already stamps on
    its programs, using the class learned when the host last wrote that
    lpn.  Write amplification is then an honest per-class ratio:
    physical programs+copybacks touching a class's pages over the host's
    logical writes to it.

:func:`wear_report`
    Per-block wear accounting straight off the flash array's flat
    ``erase_counts`` state: distribution, skew (max/mean), coefficient
    of variation, and a remaining-lifetime projection — how many more
    host writes the device absorbs before its hottest block hits the
    endurance limit, assuming the observed write mix and skew persist.
    This turns the paper's "NoFTL effectively doubles device lifetime"
    claim (Figure 3) into a measured, gateable number.

:class:`LoadWindowEngine`
    Live fixed-window time series, fed during the run (no trace replay
    needed): per-op-class throughput and p50/p99, shed counts, queue
    depth and dirty-ratio highs from the device front end, and per-die
    busy time split exactly across window boundaries with
    :func:`~repro.telemetry.attribution.credit_busy` — the same helper
    the replay path uses, so live and replayed series agree by
    construction.  :meth:`LoadWindowEngine.saturation` finds the run's
    saturation point: the first window where the front end shed load
    (shed onset), else the first window whose p99 exceeds a multiple of
    the early-run baseline (latency knee).

:class:`HealthMonitor` composes the three, hooks into
:class:`~repro.flash.array.FlashArray` via its ``health`` attachment
point, and registers ``health.*`` collectors on the metrics registry so
one snapshot carries the full health report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..sim.stats import percentiles
from .attribution import credit_busy
from .context import DATA_CLASSES, MAINTENANCE_ORIGINS, data_class_of

__all__ = [
    "WriteAmplificationLedger",
    "LoadWindowEngine",
    "HealthMonitor",
    "wear_report",
    "DEFAULT_ENDURANCE_CYCLES",
]

#: Endurance assumed when the array has no explicit ``max_erase_cycles``
#: (MLC-class NAND; the projection reports which limit it used).
DEFAULT_ENDURANCE_CYCLES = 3_000
#: Latency knee of :meth:`LoadWindowEngine.saturation`: a window's write
#: p99 above ``KNEE_FACTOR`` times the mean p99 of the first
#: ``BASELINE_WINDOWS`` windows, counting windows of ``KNEE_MIN_OPS`` or
#: more writes only.
KNEE_FACTOR = 4.0
BASELINE_WINDOWS = 3
KNEE_MIN_OPS = 5


class WriteAmplificationLedger:
    """Per-class / per-cause / per-die write-amplification accounting.

    Fed one call per accounted flash command by the array hook.  A
    *logical* write is a host-cause program whose data class is not
    ``map`` (translation-page writes are device overhead even though
    they arrive under a host-class context).  Every program and copyback
    is *physical*.  WA = physical / logical, overall and per class.
    """

    __slots__ = (
        "class_of",
        "logical_by_class",
        "physical_by_class",
        "physical_by_cause",
        "physical_matrix",
        "physical_by_die",
        "erases_by_cause",
        "erases_by_die",
    )

    def __init__(self):
        #: lpn -> data class, learned at host-cause program time.
        self.class_of: Dict[int, str] = {}
        self.logical_by_class: Dict[str, int] = {}
        self.physical_by_class: Dict[str, int] = {}
        self.physical_by_cause: Dict[str, int] = {}
        #: (data class, cause) -> physical writes; the full decomposition.
        self.physical_matrix: Dict[Tuple[str, str], int] = {}
        self.physical_by_die: Dict[int, int] = {}
        self.erases_by_cause: Dict[str, int] = {}
        self.erases_by_die: Dict[int, int] = {}

    # -- feeding ---------------------------------------------------------

    def record(self, op: str, die: int, ctx, oob) -> None:
        """Account one flash command (called from the array hook)."""
        origin = ctx.origin if ctx is not None else "host"
        if op == "erase":
            self.erases_by_cause[origin] = (
                self.erases_by_cause.get(origin, 0) + 1
            )
            self.erases_by_die[die] = self.erases_by_die.get(die, 0) + 1
            return
        if op not in ("program", "copyback"):
            return
        lpn = oob.get("lpn") if isinstance(oob, dict) else None
        if origin in MAINTENANCE_ORIGINS:
            # Device-initiated move: the adopting request's class says
            # nothing about the *moved* page — classify by its lpn.
            cls = "unknown" if lpn is None else self.class_of.get(
                lpn, "unknown"
            )
        else:
            cls = data_class_of(ctx) or "unknown"
            if lpn is not None:
                self.class_of[lpn] = cls
            if cls != "map":
                self.logical_by_class[cls] = (
                    self.logical_by_class.get(cls, 0) + 1
                )
        self.physical_by_class[cls] = self.physical_by_class.get(cls, 0) + 1
        self.physical_by_cause[origin] = (
            self.physical_by_cause.get(origin, 0) + 1
        )
        key = (cls, origin)
        self.physical_matrix[key] = self.physical_matrix.get(key, 0) + 1
        self.physical_by_die[die] = self.physical_by_die.get(die, 0) + 1

    def forget(self, lpn: int) -> None:
        """Drop a learned class (host trim of the lpn)."""
        self.class_of.pop(lpn, None)

    # -- totals ----------------------------------------------------------

    @property
    def logical_writes(self) -> int:
        return sum(self.logical_by_class.values())

    @property
    def physical_writes(self) -> int:
        return sum(self.physical_by_class.values())

    @property
    def total_erases(self) -> int:
        return sum(self.erases_by_cause.values())

    @property
    def maintenance_writes(self) -> int:
        """Physical writes caused by device management (GC, merges, ...)."""
        return sum(
            count for cause, count in self.physical_by_cause.items()
            if cause in MAINTENANCE_ORIGINS
        )

    def write_amplification(self, cls: Optional[str] = None):
        """WA overall, or for one data class (None when it has no
        logical writes — e.g. ``map``, which is pure overhead)."""
        if cls is None:
            logical = self.logical_writes
            physical = self.physical_writes
        else:
            logical = self.logical_by_class.get(cls, 0)
            physical = self.physical_by_class.get(cls, 0)
        if logical <= 0:
            return None
        return physical / logical

    # -- reporting -------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready, deterministically ordered ledger summary."""
        classes = sorted(
            set(DATA_CLASSES)
            | set(self.physical_by_class)
            | set(self.logical_by_class)
        )
        per_class = {}
        for cls in classes:
            logical = self.logical_by_class.get(cls, 0)
            physical = self.physical_by_class.get(cls, 0)
            if logical == 0 and physical == 0:
                continue
            wa = self.write_amplification(cls)
            per_class[cls] = {
                "logical": logical,
                "physical": physical,
                "wa": None if wa is None else round(wa, 4),
            }
        wa = self.write_amplification()
        # Declared classes that never produced a logical write.  A class
        # with no producer is a silent taxonomy hole (``temp`` was one
        # for several releases): the stream split can't segregate traffic
        # nobody stamps, so the report names the holes loudly instead of
        # letting an all-zero row vanish from ``per_class``.  ``unknown``
        # is the absence of a class, and ``map`` is device overhead with
        # no host-side producer by construction — neither is a hole.
        producerless = sorted(
            cls for cls in DATA_CLASSES
            if cls not in ("unknown", "map")
            and self.logical_by_class.get(cls, 0) == 0
        )
        return {
            "logical_writes": self.logical_writes,
            "physical_writes": self.physical_writes,
            "maintenance_writes": self.maintenance_writes,
            "write_amplification": None if wa is None else round(wa, 4),
            "producerless_classes": producerless,
            "per_class": per_class,
            "per_cause": {
                cause: self.physical_by_cause[cause]
                for cause in sorted(self.physical_by_cause)
            },
            "matrix": {
                f"{cls}/{cause}": count
                for (cls, cause), count in sorted(self.physical_matrix.items())
            },
            "per_die": {
                die: self.physical_by_die[die]
                for die in sorted(self.physical_by_die)
            },
            "erases": {
                "total": self.total_erases,
                "per_cause": {
                    cause: self.erases_by_cause[cause]
                    for cause in sorted(self.erases_by_cause)
                },
                "per_die": {
                    die: self.erases_by_die[die]
                    for die in sorted(self.erases_by_die)
                },
            },
        }


def wear_report(array, logical_writes: Optional[int] = None) -> dict:
    """Wear/endurance accounting from the array's authoritative state.

    ``logical_writes`` (usually the ledger's total) scales the
    remaining-lifetime projection: with the observed host-writes-per-
    hottest-block-cycle ratio held constant, how many more host writes
    until the hottest alive block crosses the endurance limit.  Skew is
    max/mean over alive blocks (1.0 = perfectly even wear); ``cv`` is
    the coefficient of variation of the erase-count distribution.
    """
    counts = array.erase_counts
    bad = [array.is_bad(pbn) for pbn in range(len(counts))]
    alive = [count for count, is_bad in zip(counts, bad) if not is_bad]
    total = sum(counts)
    out: dict = {
        "blocks": len(counts),
        "bad_blocks": sum(bad),
        "total_erases": total,
    }
    if not alive:
        out.update({"min": 0, "max": 0, "mean": 0.0, "skew": None,
                    "cv": None, "lifetime": None})
        return out
    mean = sum(alive) / len(alive)
    peak = max(alive)
    if mean > 0:
        variance = sum((c - mean) ** 2 for c in alive) / len(alive)
        cv = (variance ** 0.5) / mean
        skew = peak / mean
    else:
        cv = None
        skew = None
    out.update({
        "min": min(alive),
        "max": peak,
        "mean": round(mean, 4),
        "skew": None if skew is None else round(skew, 4),
        "cv": None if cv is None else round(cv, 4),
    })
    limit = array.max_erase_cycles or DEFAULT_ENDURANCE_CYCLES
    lifetime: dict = {
        "endurance_cycles": limit,
        "endurance_assumed": array.max_erase_cycles is None,
        "life_used": round(peak / limit, 6),
    }
    if logical_writes is not None and peak > 0:
        # Host writes absorbed per cycle of the hottest block so far;
        # the projection holds that rate (write mix + skew) constant.
        lifetime["remaining_host_writes"] = int(
            logical_writes * (limit - peak) / peak
        )
        lifetime["projected_total_host_writes"] = int(
            logical_writes * limit / peak
        )
    else:
        lifetime["remaining_host_writes"] = None
        lifetime["projected_total_host_writes"] = None
    out["lifetime"] = lifetime
    return out


class _Window:
    """Accumulators for one fixed time window."""

    __slots__ = ("latencies", "sheds", "queue_max", "dirty_max")

    def __init__(self):
        self.latencies: Dict[str, List[float]] = {}
        self.sheds: Dict[str, int] = {}
        self.queue_max = 0
        self.dirty_max = 0.0


class LoadWindowEngine:
    """Live fixed-window series: throughput, tails, sheds, pressure.

    Windows are ``[i * window_us, (i+1) * window_us)`` on the simulated
    clock (anchored at t=0 so two same-seed runs bucket identically).
    Entirely passive: callers *note* completions, sheds and gauge
    readings as they happen; nothing is scheduled.
    """

    def __init__(self, window_us: float = 10_000.0):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        self._windows: Dict[int, _Window] = {}
        #: die -> window index -> busy microseconds.
        self._busy: Dict[int, Dict[int, float]] = {}

    # -- feeding ---------------------------------------------------------

    def _window(self, now: float) -> _Window:
        idx = int(now // self.window_us)
        window = self._windows.get(idx)
        if window is None:
            window = self._windows[idx] = _Window()
        return window

    def note_op(
        self,
        now: float,
        cls: str,
        latency_us: float,
        queued: Optional[int] = None,
        dirty_ratio: Optional[float] = None,
    ) -> None:
        """One completed host op of class ``cls`` (window = completion
        time), optionally with the current queue/dirty gauge readings."""
        window = self._window(now)
        window.latencies.setdefault(cls, []).append(float(latency_us))
        if queued is not None and queued > window.queue_max:
            window.queue_max = queued
        if dirty_ratio is not None and dirty_ratio > window.dirty_max:
            window.dirty_max = dirty_ratio

    def note_shed(self, now: float, cls: str) -> None:
        window = self._window(now)
        window.sheds[cls] = window.sheds.get(cls, 0) + 1

    def note_busy(self, now: float, die: int, latency_us: float) -> None:
        """Die occupancy starting at ``now``; split across windows."""
        if latency_us <= 0:
            return
        per_die = self._busy.setdefault(die, {})
        window_us = self.window_us
        idx = int(now // window_us)
        remaining = float(latency_us)
        cursor = now
        while True:
            edge = (idx + 1) * window_us
            take = edge - cursor
            if take >= remaining:
                per_die[idx] = per_die.get(idx, 0.0) + remaining
                return
            per_die[idx] = per_die.get(idx, 0.0) + take
            remaining -= take
            cursor = edge
            idx += 1

    # -- series ----------------------------------------------------------

    def _index_range(self) -> Optional[Tuple[int, int]]:
        indices = set(self._windows)
        for per_die in self._busy.values():
            indices.update(per_die)
        if not indices:
            return None
        return min(indices), max(indices)

    def series(self) -> dict:
        """Contiguous JSON-ready series over the observed window span.

        Same shape family as the replay path's
        :func:`~repro.telemetry.attribution.windowed_series`: die busy is
        a fraction of the window, counts are per window.
        """
        span = self._index_range()
        if span is None:
            return {
                "window_us": self.window_us,
                "windows": [],
                "per_class": {},
                "sheds": [],
                "queue_depth": [],
                "dirty_ratio": [],
                "die_busy": {},
            }
        lo, hi = span
        nwin = hi - lo + 1
        indices = range(lo, hi + 1)
        classes = sorted(
            {cls for w in self._windows.values() for cls in w.latencies}
        )
        per_class: Dict[str, dict] = {}
        for cls in classes:
            count: List[int] = []
            p50: List[float] = []
            p99: List[float] = []
            for idx in indices:
                window = self._windows.get(idx)
                samples = (
                    window.latencies.get(cls) if window is not None else None
                )
                if not samples:
                    count.append(0)
                    p50.append(0.0)
                    p99.append(0.0)
                    continue
                count.append(len(samples))
                lo50, hi99 = percentiles(samples, (50, 99))
                p50.append(round(lo50, 3))
                p99.append(round(hi99, 3))
            per_class[cls] = {"count": count, "p50_us": p50, "p99_us": p99}
        sheds = []
        queue_depth = []
        dirty_ratio = []
        for idx in indices:
            window = self._windows.get(idx)
            if window is None:
                sheds.append(0)
                queue_depth.append(0)
                dirty_ratio.append(0.0)
            else:
                sheds.append(sum(window.sheds.values()))
                queue_depth.append(window.queue_max)
                dirty_ratio.append(round(window.dirty_max, 4))
        die_busy = {
            die: [
                round(per_die.get(idx, 0.0) / self.window_us, 6)
                for idx in indices
            ]
            for die, per_die in sorted(self._busy.items())
        }
        return {
            "window_us": self.window_us,
            "windows": [idx * self.window_us for idx in indices],
            "per_class": per_class,
            "sheds": sheds,
            "queue_depth": queue_depth,
            "dirty_ratio": dirty_ratio,
            "die_busy": die_busy,
        }

    # -- saturation ------------------------------------------------------

    def saturation(self) -> Optional[dict]:
        """The run's saturation point, or None if it never saturated.

        Definition (see DESIGN.md §12): the first window in which the
        front end shed load (*shed onset*) — overload made explicit —
        or, failing that, the first window whose write p99 exceeds
        ``KNEE_FACTOR`` times the baseline p99 (*latency knee*), where
        the baseline is the mean p99 over the first ``BASELINE_WINDOWS``
        windows with at least ``KNEE_MIN_OPS`` samples.
        """
        span = self._index_range()
        if span is None:
            return None
        lo, hi = span
        for idx in range(lo, hi + 1):
            window = self._windows.get(idx)
            if window is not None and sum(window.sheds.values()) > 0:
                return {
                    "kind": "shed-onset",
                    "window": idx - lo,
                    "at_us": idx * self.window_us,
                    "sheds": sum(window.sheds.values()),
                }
        baseline: List[float] = []
        baseline_through = lo - 1
        for idx in range(lo, hi + 1):
            window = self._windows.get(idx)
            samples = window.latencies.get("write") if window is not None else None
            if samples and len(samples) >= KNEE_MIN_OPS:
                (p99,) = percentiles(samples, (99,))
                baseline.append(p99)
                baseline_through = idx
                if len(baseline) >= BASELINE_WINDOWS:
                    break
        if not baseline:
            return None
        baseline_p99 = sum(baseline) / len(baseline)
        threshold = baseline_p99 * KNEE_FACTOR
        for idx in range(baseline_through + 1, hi + 1):
            window = self._windows.get(idx)
            samples = window.latencies.get("write") if window is not None else None
            if not samples or len(samples) < KNEE_MIN_OPS:
                continue
            (p99,) = percentiles(samples, (99,))
            if p99 > threshold:
                return {
                    "kind": "latency-knee",
                    "window": idx - lo,
                    "at_us": idx * self.window_us,
                    "p99_us": round(p99, 3),
                    "baseline_p99_us": round(baseline_p99, 3),
                    "knee_factor": KNEE_FACTOR,
                }
        return None


class HealthMonitor:
    """Composes ledger + wear + live windows for one device.

    Attach with :meth:`attach_array` (flash-command feed via the array's
    ``health`` hook), :meth:`attach_frontend` (host-op feed via the
    front end's ``load_monitor`` hook), :meth:`attach_manager` (trim
    feed for the ledger's class forgetting) and :meth:`install`
    (``health.*`` registry collectors).  ``clock`` (usually ``lambda: sim.now``)
    timestamps the die-busy window feed; without one, command-level
    window series are skipped (trace-replay rigs are timeless here).
    """

    def __init__(
        self,
        window_us: float = 10_000.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.ledger = WriteAmplificationLedger()
        self.windows = LoadWindowEngine(window_us)
        self.clock = clock
        self.arrays: list = []

    # -- wiring ----------------------------------------------------------

    def attach_array(self, array) -> None:
        array.health = self
        if array not in self.arrays:
            self.arrays.append(array)

    def attach_frontend(self, frontend) -> None:
        frontend.load_monitor = self.windows

    def attach_manager(self, manager) -> None:
        """Wire the storage manager's trim hook to the ledger.

        Trims are RAM-only (no flash command), so the array hook never
        sees them; without this the ledger would keep classifying a
        recycled lpn by whoever wrote it *before* the trim."""
        manager.on_trim = self.ledger.forget

    def install(self, registry) -> None:
        """Register ``health.*`` collectors so any snapshot/export of
        the registry carries the full health report."""
        registry.register_collector("health.wa", self.ledger.report)
        registry.register_collector("health.wear", self.wear)
        registry.register_collector("health.windows", self.windows.series)
        registry.register_collector("health.saturation", self.saturation)

    # -- array hook ------------------------------------------------------

    def record(self, op: str, die: int, latency_us: float, ctx, oob) -> None:
        """Called by :meth:`FlashArray._account` for every command."""
        self.ledger.record(op, die, ctx, oob)
        clock = self.clock
        if clock is not None:
            self.windows.note_busy(clock(), die, latency_us)

    # -- reporting -------------------------------------------------------

    def wear(self) -> dict:
        logical = self.ledger.logical_writes
        reports = [
            wear_report(array, logical)
            for array in self.arrays
        ]
        if not reports:
            return {}
        if len(reports) == 1:
            return reports[0]
        return {f"array{i}": report for i, report in enumerate(reports)}

    def saturation(self) -> dict:
        point = self.windows.saturation()
        return {"saturated": point is not None, "point": point}

    def report(self) -> dict:
        """The one machine-checkable health report (JSON-ready)."""
        return {
            "wa": self.ledger.report(),
            "wear": self.wear(),
            "windows": self.windows.series(),
            "saturation": self.saturation(),
        }
