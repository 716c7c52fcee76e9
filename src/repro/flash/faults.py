"""Deterministic fault injection for the NAND array.

The paper's safety argument — "the database system is the single owner of
the flash device" — only holds if the storage manager absorbs the ways
real NAND misbehaves.  This module is the adversary: a seeded, scriptable
fault model wired into :class:`~repro.flash.array.FlashArray`.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries plus a seed.
Each spec describes one fault source:

* ``transient_read`` — a read raises
  :class:`~repro.flash.errors.UncorrectableError`; a retry re-rolls (rate
  based) or succeeds once the firing budget (``count``) is exhausted;
* ``persistent_read`` — every matching read fails (grown media defect);
* ``program_fail`` — a PAGE PROGRAM consumes its page but leaves it
  corrupt and raises :class:`~repro.flash.errors.ProgramError`;
* ``erase_fail`` — a BLOCK ERASE fails; the block is marked bad and
  :class:`~repro.flash.errors.EraseError` is raised;
* ``die_outage`` — during an operation-count window, every command to the
  die is rejected with :class:`~repro.flash.errors.DieOutageError`
  (no state change, retryable);
* ``latency_spike`` — commands on the die take ``factor`` times longer
  during the window (no error raised);
* ``power_cut`` — at a deterministically chosen flash-command boundary
  (``at_op`` operation count, or an arbitrary ``predicate`` over
  ``(op, command)``) the whole device loses power: the in-flight command
  leaves realistic wreckage (torn page / half-erased block) and the
  array raises :class:`~repro.flash.errors.PowerCutError` for it and
  every command after it until ``power_cycle()``.  Host-side volatile
  state dies with the device: every callable in the array's
  ``power_cut_listeners`` list runs at the instant of the cut, *before*
  the PowerCutError propagates — the device front end
  (:class:`~repro.device.frontend.DeviceFrontend`) registers there so
  its un-barriered write-back cache contents vanish exactly like DRAM
  behind a capacitor-less controller.  Listeners must be synchronous,
  idempotent, and must not raise.

Faults are addressable by ``ppn`` and/or ``die`` (AND-ed; both ``None``
matches everything), and can be gated by an operation-count
``window`` — the injector counts every command the array executes
(including Pause), so windows are deterministic in both sync and DES
mode.  Probability draws come from one ``random.Random(plan.seed)``:
the same plan against the same command sequence injects the identical
fault sequence, which the determinism tests assert.

Every firing is recorded in ``FaultInjector.events`` and counted in the
telemetry family ``flash.faults.injected{kind, die}``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .errors import DieOutageError, UncorrectableError

__all__ = ["FaultSpec", "FaultPlan", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = (
    "transient_read",
    "persistent_read",
    "program_fail",
    "erase_fail",
    "die_outage",
    "latency_spike",
    "power_cut",
)

_READ_KINDS = ("transient_read", "persistent_read")


@dataclass
class FaultSpec:
    """One fault source.

    Attributes
    ----------
    kind
        One of :data:`FAULT_KINDS`.
    ppn, die
        Address filters (AND-ed); ``None`` matches any.
    rate
        Firing probability per matching operation; ``None`` (default)
        means the spec fires deterministically on every match (subject to
        ``count``), ``0.0`` means it never fires.
    count
        Maximum number of firings; ``None`` is unlimited.  A
        ``transient_read`` with ``count=2`` fails twice, then reads
        cleanly — the "succeeds after retries" case the scrub path needs.
    window
        ``(start_op, end_op)`` half-open operation-count window outside
        which the spec is dormant.  Required for ``die_outage`` and
        ``latency_spike``.
    factor
        Latency multiplier for ``latency_spike``.
    at_op
        ``power_cut`` only: the exact operation count at which the cut
        fires (the injector's ``ops`` counter as the array advances it, i.e.
        1 for the first command the array ever executes).
    predicate
        ``power_cut`` only: alternative trigger — a callable
        ``(op, command) -> bool`` evaluated at every command boundary.
        The cut fires on the first command for which it returns True.
    """

    kind: str
    ppn: Optional[int] = None
    die: Optional[int] = None
    rate: Optional[float] = None
    count: Optional[int] = None
    window: Optional[Tuple[int, int]] = None
    factor: float = 1.0
    at_op: Optional[int] = None
    predicate: Optional[Callable[[int, object], bool]] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.kind in ("die_outage", "latency_spike") and self.window is None:
            raise ValueError(f"{self.kind} requires a window=(start, end)")
        if self.kind == "latency_spike" and self.factor <= 0:
            raise ValueError("latency_spike factor must be > 0")
        if self.kind == "power_cut":
            if self.at_op is None and self.predicate is None:
                raise ValueError("power_cut requires at_op or predicate")
            if self.count is None:
                self.count = 1  # a device loses power once per run
        elif self.at_op is not None or self.predicate is not None:
            raise ValueError("at_op/predicate are power_cut-only triggers")


@dataclass
class FaultPlan:
    """A seeded script of fault sources for one device."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    @classmethod
    def power_cut_at(cls, at_op: int, seed: int = 0) -> "FaultPlan":
        """A plan whose only fault is a power cut at flash op ``at_op``."""
        return cls([FaultSpec(kind="power_cut", at_op=at_op)], seed=seed)


class _LiveSpec:
    """Runtime state of one spec (remaining firing budget)."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.remaining = spec.count

    def matches(self, op: int, ppn: Optional[int], die: Optional[int]) -> bool:
        spec = self.spec
        if self.remaining is not None and self.remaining <= 0:
            return False
        if spec.window is not None and not (spec.window[0] <= op < spec.window[1]):
            return False
        if spec.ppn is not None and spec.ppn != ppn:
            return False
        if spec.die is not None and spec.die != die:
            return False
        return True


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the array's command stream.

    The array advances :attr:`ops` once per command, then calls the
    per-command check hooks.  With no specs every hook is a no-op, and the
    array skips the power-cut and latency hooks outright.  All decisions
    are functions of (plan, seed, command sequence) only — no wall clock,
    no global state — so a run is exactly reproducible from its seed.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, telemetry=None):
        self.plan = plan or FaultPlan()
        self._live = [_LiveSpec(spec) for spec in self.plan.specs]
        self._rng = random.Random(self.plan.seed)
        self.telemetry = telemetry
        self.ops = 0
        #: (op_index, kind, detail) per firing — the determinism witness.
        self.events: List[Tuple[int, str, tuple]] = []
        self._tm_fired = (
            telemetry.counter_vec(
                "flash.faults.injected", ("kind", "die"), layer="flash"
            )
            if telemetry is not None else None
        )

    # -- plan maintenance -------------------------------------------------------

    def add_spec(self, spec: FaultSpec) -> None:
        self.plan.specs.append(spec)
        self._live.append(_LiveSpec(spec))

    # -- command hooks ----------------------------------------------------------

    def _fire(self, live: _LiveSpec, detail: tuple) -> None:
        if live.remaining is not None:
            live.remaining -= 1
        kind = live.spec.kind
        die = detail[0] if detail else None
        self.events.append((self.ops, kind, detail))
        if self._tm_fired is not None:
            self._tm_fired.labels(kind, die).inc()

    def _roll(self, live: _LiveSpec) -> bool:
        if live.spec.rate is None:
            return True  # deterministic spec: fires on every match
        return self._rng.random() < live.spec.rate

    def _check_outage(self, die: Optional[int]) -> None:
        for live in self._live:
            if live.spec.kind != "die_outage":
                continue
            if live.matches(self.ops, None, die) and self._roll(live):
                self._fire(live, (die,))
                raise DieOutageError(die)

    def check_read(self, ppn: int, die: int, op: str = "read") -> None:
        """Raise for a read-class access (READ PAGE, OOB read, the read
        leg of COPYBACK).  Outage first — the die never saw the command —
        then media faults."""
        if not self._live:
            return
        self._check_outage(die)
        for live in self._live:
            if live.spec.kind not in _READ_KINDS:
                continue
            if live.matches(self.ops, ppn, die) and self._roll(live):
                self._fire(live, (die, op, ppn))
                raise UncorrectableError(f"injected {live.spec.kind} at ppn={ppn} ({op})")

    def check_program(self, ppn: int, die: int) -> bool:
        """True when this PAGE PROGRAM must fail (page consumed, corrupt).
        Raises :class:`DieOutageError` first when the die is out."""
        if not self._live:
            return False
        self._check_outage(die)
        for live in self._live:
            if live.spec.kind != "program_fail":
                continue
            if live.matches(self.ops, ppn, die) and self._roll(live):
                self._fire(live, (die, "program", ppn))
                return True
        return False

    def check_erase(self, pbn: int, die: int) -> bool:
        """True when this BLOCK ERASE must fail (block goes bad)."""
        if not self._live:
            return False
        self._check_outage(die)
        for live in self._live:
            if live.spec.kind != "erase_fail":
                continue
            if live.matches(self.ops, None, die) and self._roll(live):
                self._fire(live, (die, "erase", pbn))
                return True
        return False

    def check_power_cut(self, command) -> bool:
        """True when power is lost at this command boundary.

        Called once per command right after ``ops`` advances; the array then
        applies the in-flight command's wreckage and powers itself off.
        The trigger is purely deterministic — an exact operation count
        (``at_op``) or a caller-supplied predicate — never a rate roll,
        so a sweep of cut points is exactly reproducible.
        """
        if not self._live:
            return False
        for live in self._live:
            spec = live.spec
            if spec.kind != "power_cut":
                continue
            if live.remaining is not None and live.remaining <= 0:
                continue
            if spec.at_op is not None and self.ops != spec.at_op:
                continue
            if spec.predicate is not None and not spec.predicate(self.ops, command):
                continue
            self._fire(live, (None, "power_cut", self.ops))
            return True
        return False

    def latency_factor(self, die: Optional[int]) -> float:
        """Combined latency multiplier for a command on ``die`` now.

        Each slowed command is recorded as a ``latency_spike`` firing so
        the event log and telemetry show the window actually hit."""
        if not self._live:
            return 1.0
        factor = 1.0
        for live in self._live:
            if live.spec.kind != "latency_spike":
                continue
            if live.matches(self.ops, None, die):
                factor *= live.spec.factor
                self._fire(live, (die, "latency", live.spec.factor))
        return factor

    # -- introspection ----------------------------------------------------------

    def injected_counts(self) -> dict:
        """Firings per kind (from the event log; registry-independent)."""
        out: dict = {}
        for __, kind, __detail in self.events:
            out[kind] = out.get(kind, 0) + 1
        return out
