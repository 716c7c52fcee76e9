"""Label-aware metrics registry shared by every layer of the stack.

One :class:`MetricsRegistry` instance is threaded through a whole rig —
flash array, FTL / NoFTL storage manager, buffer pool, db-writers — so a
single ``snapshot()`` (or ``to_json()``) captures the complete cross-layer
state of a run.  The design follows the usual counter/gauge/histogram
trio, with two project-specific twists:

* **hierarchical labels** — every instrument carries a frozen label set
  (``layer``, ``die``, ``ftl``, ``op``, ...); :meth:`MetricsRegistry.value`
  and :meth:`MetricsRegistry.series` aggregate over any label subset, which
  is how the Figure 3/4 reproductions pull "copybacks per die" or "erases,
  all dies" out of one family of counters;
* **simulated-time awareness** — histograms and spans take their clock
  from the owning :class:`~repro.sim.Simulator` (``set_clock``), so
  latency numbers are in simulated microseconds, not wall time.

A histogram *is* a :class:`~repro.sim.stats.LatencyRecorder` with labels,
keeping one percentile implementation for the whole repo.  Each event is
tallied once, here: objects that expose a per-object count read it
through a :class:`CounterView` instead of keeping a second counter.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.stats import LatencyRecorder

__all__ = [
    "Counter",
    "CounterVec",
    "CounterView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LabelSet",
]

#: Canonical (sorted) label representation used as part of instrument keys.
LabelSet = Tuple[Tuple[str, object], ...]

#: Gauge merge policies for :meth:`MetricsRegistry.merge_from`.
#: ``sum`` for additive state (queue depths, dirty pages: the fleet's
#: total backlog is the sum over shards), ``max`` for indicator/level
#: gauges (a fleet is degraded if *any* shard is), ``last`` for the old
#: last-write-wins behaviour where a true point value is wanted.
GAUGE_MERGE_POLICIES = ("sum", "max", "last")

#: Per-name defaults for the gauges the stack registers today.  Anything
#: unlisted merges with ``sum`` — the right default for the additive
#: occupancy/backlog gauges that dominate, and loudly wrong (instead of
#: silently wrong) for a level gauge someone forgets to classify.
GAUGE_MERGE_DEFAULTS = {
    "noftl.degraded": "max",
}


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count (float-valued for busy-time sums)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down (queue depth, dirty ratio, ...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def as_dict(self) -> dict:
        return {"name": self.name, "labels": dict(self.labels), "value": self.value}


class Histogram(LatencyRecorder):
    """Latency/size distribution: a :class:`LatencyRecorder` with labels.

    Keeps raw samples, so ``pct`` is exact and matches
    :func:`repro.sim.stats.percentile` by construction.
    """

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name)
        self.labels = labels

    observe = LatencyRecorder.record

    def as_dict(self) -> dict:
        summary = self.summary()
        summary.pop("name", None)
        return {"name": self.name, "labels": dict(self.labels), **summary}


class CounterView:
    """Read-only per-object count over a registry instrument.

    ``hits = CounterView("_tm_hits.value")`` on a class makes ``obj.hits``
    read ``obj._tm_hits.value`` (a dotted path, so ``"_tm_flush_us.count"``
    counts a histogram's samples) minus its reading when :meth:`start`
    ran for ``obj``.  The instrument is the one tally of the event; the
    view only scopes it to its object.  Instruments are per registry,
    and a cold start builds a new owner on the same registry, so an
    owner's count is the growth since the owner started counting.
    """

    __slots__ = ("_read", "_base")

    def __init__(self, path: str):
        self._read = attrgetter(path)

    def __set_name__(self, owner, name: str) -> None:
        self._base = f"_{name}_base"

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return self._read(obj) - getattr(obj, self._base)

    def start(self, obj) -> None:
        """Count ``obj``'s events from the instrument's reading now."""
        setattr(obj, self._base, self._read(obj))

    @staticmethod
    def start_all(obj) -> None:
        """:meth:`start` every view declared on ``obj``'s class."""
        for klass in type(obj).__mro__:
            for view in vars(klass).values():
                if isinstance(view, CounterView):
                    view.start(obj)


class CounterVec:
    """Pre-resolved counter family handle for one instrument name.

    The per-command hot paths (flash accounting, fault bookkeeping,
    executor cost charging) used to call ``registry.counter(name,
    **labels)`` per event, paying keyword packing + ``sorted(...)`` label
    canonicalisation every time.  A vec binds the variable label *names*
    once at wiring time; :meth:`labels` then takes the label *values*
    positionally and caches the resolved counter under that value tuple,
    so the steady-state cost is one dict lookup.

    Counters come from the owning registry's get-or-create table, so
    vec-resolved and keyword-resolved handles for the same (name, labels)
    are the same object — snapshots and aggregation queries see no
    difference.
    """

    __slots__ = ("_registry", "_name", "_label_names", "_static", "_cache")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 label_names: Tuple[str, ...], static: Dict[str, object]):
        self._registry = registry
        self._name = name
        self._label_names = label_names
        self._static = static
        self._cache: dict = {}

    def labels(self, *values) -> Counter:
        """Resolve the counter for these positional label values."""
        instrument = self._cache.get(values)
        if instrument is None:
            if len(values) != len(self._label_names):
                raise ValueError(
                    f"{self._name}: expected {len(self._label_names)} label "
                    f"values {self._label_names}, got {len(values)}"
                )
            labels = dict(zip(self._label_names, values))
            labels.update(self._static)
            instrument = self._cache[values] = self._registry.counter(
                self._name, **labels)
        return instrument

    def inc(self, *values) -> None:
        self.labels(*values).inc()


class MetricsRegistry:
    """Get-or-create registry of labelled counters, gauges and histograms.

    Instruments are identified by ``(kind, name, labels)``: asking twice
    for the same triple returns the same object, so hot paths can resolve
    their counters once at construction time and bump plain attributes
    afterwards.

    Internally each kind is a two-level table ``name -> labelset ->
    instrument``, so aggregation queries (:meth:`value`, :meth:`series`)
    only scan their own instrument family instead of every instrument in
    the registry — the dashboards refresh these in a loop.
    """

    def __init__(self):
        self._counters: Dict[str, Dict[LabelSet, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelSet, Gauge]] = {}
        self._histograms: Dict[str, Dict[LabelSet, Histogram]] = {}
        self._collectors: Dict[str, Callable[[], dict]] = {}
        self._gauge_merge: Dict[str, str] = dict(GAUGE_MERGE_DEFAULTS)
        self._seq = 0
        self._clock: Optional[Callable[[], float]] = None

    # -- clock ----------------------------------------------------------------

    def set_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Attach a simulated-time source (e.g. ``lambda: sim.now``)."""
        self._clock = clock

    def now(self) -> float:
        """Simulated time when a clock is attached, else a logical sequence."""
        if self._clock is not None:
            return self._clock()
        self._seq += 1
        return float(self._seq)

    # -- instruments ----------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        family = self._counters.setdefault(name, {})
        key = _labelset(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = Counter(name, key)
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        family = self._gauges.setdefault(name, {})
        key = _labelset(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = Gauge(name, key)
        return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        family = self._histograms.setdefault(name, {})
        key = _labelset(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = Histogram(name, key)
        return instrument

    def counter_vec(self, name: str, label_names: Iterable[str],
                    **static) -> CounterVec:
        """Pre-resolved counter family: bind ``label_names`` (and any
        constant ``static`` labels) once, then ``vec.labels(v1, v2)``
        resolves with a single tuple-keyed dict lookup.  See :class:`CounterVec`."""
        return CounterVec(self, name, tuple(label_names), static)

    # -- aggregation ----------------------------------------------------------

    def _matching(self, table: dict, name: str, labels: Dict[str, object]):
        family = table.get(name)
        if not family:
            return
        want = labels.items()
        for labelset, instrument in family.items():
            if all(pair in labelset for pair in want):
                yield instrument

    def value(self, name: str, **labels) -> float:
        """Sum of every counter named ``name`` whose labels are a superset
        of the given ones — e.g. ``value("flash.commands", op="erase")``
        totals erases across all dies."""
        return sum(c.value for c in self._matching(self._counters, name, labels))

    def series(self, name: str, by: str, **labels) -> Dict[object, float]:
        """Counter totals grouped by one label — e.g.
        ``series("flash.commands", "die", op="copyback")`` gives the
        per-die copyback counts of Figure 3/4."""
        out: Dict[object, float] = {}
        for counter in self._matching(self._counters, name, labels):
            key = dict(counter.labels).get(by)
            if key is None:
                continue
            out[key] = out.get(key, 0) + counter.value
        return out

    def histograms_named(self, name: str, **labels) -> List[Histogram]:
        return list(self._matching(self._histograms, name, labels))

    # -- collectors -----------------------------------------------------------

    def register_collector(self, name: str, fn: Callable[[], dict]) -> None:
        """Attach a lazy snapshot source (e.g. an FTLStats.snapshot bound
        method); its dict appears under ``collectors.<name>`` in snapshots.
        Re-registering a name replaces the previous collector."""
        self._collectors[name] = fn

    # -- export ---------------------------------------------------------------

    @staticmethod
    def _instruments(table: dict):
        for family in table.values():
            yield from family.values()

    def snapshot(self) -> dict:
        """One nested, JSON-ready dict of everything the registry knows."""
        return {
            "counters": [c.as_dict() for c in self._instruments(self._counters)],
            "gauges": [g.as_dict() for g in self._instruments(self._gauges)],
            "histograms": [
                h.as_dict() for h in self._instruments(self._histograms)
            ],
            "collectors": {name: fn() for name, fn in self._collectors.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, default=str, sort_keys=True)

    def set_gauge_merge(self, name: str, policy: str) -> None:
        """Declare how gauges named ``name`` combine in :meth:`merge_from`.

        ``sum`` (default) adds shard readings — right for queue depths,
        dirty pages and any other additive backlog; ``max`` keeps the
        largest — right for 0/1 indicator and level gauges; ``last`` is
        the legacy last-write-wins for true point-in-time values.
        """
        if policy not in GAUGE_MERGE_POLICIES:
            raise ValueError(
                f"unknown gauge merge policy {policy!r}; "
                f"expected one of {GAUGE_MERGE_POLICIES}"
            )
        self._gauge_merge[name] = policy

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters, gauges *and* histograms into
        this one (multi-device benches building one fleet artifact).

        Counters sum; histogram samples are re-observed into the local
        instrument; gauges
        combine under their declared :meth:`set_gauge_merge` policy —
        ``sum`` unless overridden, so queue-depth/dirty gauges report the
        fleet total instead of whichever shard merged last.  Merge each
        source once into a fresh rollup registry: re-merging a shard
        double-counts its counters and summed gauges by design.
        Collectors are not merged — they are bound to live objects owned
        by the source rig and must not outlive it.  This registry's own
        collectors are read once, before the fold: their objects count
        through the instruments the fold adds to (see
        :class:`CounterView`), so from then on they report their objects
        as of the first merge.
        """
        self._collectors = {
            name: (lambda frozen=fn(): frozen) for name, fn in self._collectors.items()
        }
        for name, family in other._counters.items():
            for labelset, counter in family.items():
                self.counter(name, **dict(labelset)).inc(counter.value)
        for name, family in other._gauges.items():
            policy = self._gauge_merge.get(
                name, other._gauge_merge.get(name, "sum")
            )
            for labelset, gauge in family.items():
                mine = self.gauge(name, **dict(labelset))
                if policy == "sum":
                    mine.inc(gauge.value)
                elif policy == "max":
                    if gauge.value > mine.value:
                        mine.set(gauge.value)
                else:  # "last"
                    mine.set(gauge.value)
        for name, family in other._histograms.items():
            for labelset, histogram in family.items():
                mine = self.histogram(name, **dict(labelset))
                for sample in histogram.samples:
                    mine.observe(sample)

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Sweep workers ship their registries back over a process pipe.

        Collectors are bound methods of live rig objects and the clock
        closes over a Simulator — neither survives (or should survive)
        the trip, so both are dropped; everything mergeable (counters,
        gauges, histograms, gauge-merge policies) crosses intact.
        """
        state = self.__dict__.copy()
        state["_collectors"] = {}
        state["_clock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


#: Flash command types accounted per die by the flash layer.
FLASH_OPS = ("read", "program", "erase", "copyback", "oob_read")


def sum_per_die(registry: MetricsRegistry, op: str) -> Dict[int, float]:
    """Convenience: per-die totals of one flash command type."""
    return registry.series("flash.commands", "die", op=op)
