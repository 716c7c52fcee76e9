"""Flash device front-ends.

Two ways of driving one :class:`~repro.flash.array.FlashArray`:

* :class:`SyncFlashDevice` executes commands immediately.  Used for
  off-line trace replay (the paper's Figure 3 methodology) and for unit
  tests, where only command *counts* and summed latency matter.

* :class:`SimFlashDevice` executes commands inside the DES: each global
  die is a capacity-1 resource (dies execute one command at a time) and
  each channel bus is a capacity-1 resource held only during data
  transfer.  This is what exposes native flash parallelism — commands to
  different dies overlap, commands to one die queue up — the effect the
  paper's die-wise db-writer experiment (Figure 4) lives on.
"""

from __future__ import annotations

from typing import List

from ..sim import Resource, Simulator
from ..telemetry import MAINTENANCE_ORIGINS
from .array import FlashArray
from .commands import (
    CommandResult,
    Copyback,
    EraseBlock,
    FlashCommand,
    Identify,
    Pause,
    ProgramPage,
    ReadOob,
    ReadPage,
)

__all__ = ["SyncFlashDevice", "SimFlashDevice"]

# Phase-model kinds, resolved once per command type (exact-type dict hit
# on the hot path, isinstance walk only for subclasses).
_INSTANT, _READ, _PROGRAM, _LATENCY = range(4)
_PHASE_OF_TYPE = {
    ReadPage: _READ,
    ProgramPage: _PROGRAM,
    EraseBlock: _LATENCY,
    Copyback: _LATENCY,
    ReadOob: _LATENCY,
    Identify: _INSTANT,
    Pause: _INSTANT,
}


def _phase_of(command) -> int:
    kind = _PHASE_OF_TYPE.get(type(command))
    if kind is not None:
        return kind
    if isinstance(command, (Identify, Pause)):
        return _INSTANT
    if isinstance(command, ReadPage):
        return _READ
    if isinstance(command, ProgramPage):
        return _PROGRAM
    return _LATENCY


class SyncFlashDevice:
    """Zero-wait command execution.

    ``elapsed_us`` approximates wall-clock time of the replayed command
    stream under perfect die pipelining: the busiest die's busy time, as
    the array's ``flash.busy_us{die}`` series hold it.  ``serial_us`` is
    the fully serialized time.  Real throughput lies in between; the DES
    front-end is authoritative when timing matters.
    """

    def __init__(self, array: FlashArray):
        self.array = array
        self.geometry = array.geometry
        self.telemetry = array.telemetry
        self.serial_us = 0.0

    def execute(self, command: FlashCommand) -> CommandResult:
        result = self.array.apply(command)
        self.serial_us += result.latency_us
        return result

    @property
    def elapsed_us(self) -> float:
        return max(self.telemetry.series("flash.busy_us", "die").values())


class SimFlashDevice:
    """DES command execution with die and channel contention.

    ``execute`` is a generator to be driven from inside a DES process
    (``result = yield from device.execute(cmd)``).

    Phase model per command (die held throughout; channel held only for
    the transfer leg, concurrently with the die):

    * READ:    die busy tR, then channel busy for the page transfer;
    * PROGRAM: channel busy for the transfer, then die busy tPROG;
    * ERASE / COPYBACK: die busy only (no user-data transfer — exactly why
      the paper's GC prefers copyback);
    * OOB read: die busy, negligible transfer folded in.
    """

    def __init__(self, sim: Simulator, array: FlashArray):
        self.sim = sim
        self.array = array
        self.geometry = array.geometry
        self.die_resources: List[Resource] = [
            Resource(sim, capacity=1) for __ in range(self.geometry.total_dies)
        ]
        self.channel_resources: List[Resource] = [
            Resource(sim, capacity=1) for __ in range(self.geometry.channels)
        ]
        # Each die's channel bus, resolved once: indexed by global die.
        self._channel_of_die: List[Resource] = [
            self.channel_resources[self.geometry.channel_of_die(die)]
            for die in range(self.geometry.total_dies)
        ]
        # Cumulative die-held time split by who held it (host work vs
        # maintenance origins).  A waiter samples the maintenance column
        # before and after its queue wait: the delta is the part of its
        # wait spent behind GC/merges/wear-leveling — the paper's "blocked
        # behind garbage collection" effect, measured per command.
        self._die_busy_by_class: List[dict] = [
            {"host": 0.0, "maintenance": 0.0}
            for __ in range(self.geometry.total_dies)
        ]
        # Telemetry shares the array's registry; simulated time becomes the
        # clock for every span/histogram downstream of this device.
        self.telemetry = array.telemetry
        self.telemetry.set_clock(lambda: sim.now)
        self._tm_queue_wait = [
            self.telemetry.histogram("flash.queue_wait_us", layer="flash", die=die)
            for die in range(self.geometry.total_dies)
        ]
        self._tm_service = self.telemetry.histogram("flash.service_us", layer="flash")
        # TimingSpec is frozen, so the per-phase delays are constants of
        # this device; computing them per command showed up in profiles.
        timing = array.timing
        page_bytes = self.geometry.page_bytes
        self._read_sense_us = timing.cmd_overhead_us + timing.read_us
        self._page_transfer_us = timing.transfer_us(page_bytes)
        self._program_transfer_us = (timing.cmd_overhead_us + self._page_transfer_us)
        self._program_cell_us = timing.program_us

    def die_utilization(self) -> List[float]:
        """Per-die busy fraction of elapsed simulated time."""
        now = self.sim.now
        if now <= 0:
            return [0.0] * len(self._die_busy_by_class)
        return [(busy["host"] + busy["maintenance"]) / now for busy in self._die_busy_by_class]

    def execute(self, command: FlashCommand):
        """DES generator executing one command with resource contention."""
        kind = _phase_of(command)
        if kind == _INSTANT:
            result = self.array.apply(command)
            yield self.sim.timeout(result.latency_us)
            return result

        die = self.array.die_of_command(command)
        start = self.sim.now
        die_resource = self.die_resources[die]
        busy_by_class = self._die_busy_by_class[die]
        maintenance_before = busy_by_class["maintenance"]
        ctx = command.ctx
        is_maintenance = ctx is not None and ctx.origin in MAINTENANCE_ORIGINS
        yield die_resource.request()
        acquired = self.sim.now
        wait = acquired - start
        self._tm_queue_wait[die].observe(wait)
        behind_gc = 0.0
        if wait > 0:
            behind_gc = min(wait, busy_by_class["maintenance"] - maintenance_before)
        try:
            # State transition happens when the die starts the command;
            # per-die FIFO queuing makes this consistent with issue order.
            result = self.array.apply(command)
            channel = self._channel_of_die[die]
            if kind == _READ:
                yield self.sim.timeout(self._read_sense_us)
                yield channel.request()
                try:
                    yield self.sim.timeout(self._page_transfer_us)
                finally:
                    channel.release()
            elif kind == _PROGRAM:
                yield channel.request()
                try:
                    yield self.sim.timeout(self._program_transfer_us)
                finally:
                    channel.release()
                yield self.sim.timeout(self._program_cell_us)
            else:  # erase / copyback / OOB: die busy, no user-data transfer
                yield self.sim.timeout(result.latency_us)
            # Injected latency spikes: the array reports the extra service
            # time; the die stays busy for it in simulated time too.
            fault_extra = result.extra.get("fault_extra_us", 0.0)
            if fault_extra:
                yield self.sim.timeout(fault_extra)
        finally:
            die_resource.release()
            held = self.sim.now - acquired
            busy_by_class["maintenance" if is_maintenance else "host"] += held
        total = self.sim.now - start
        self._tm_service.observe(total)
        result.extra["observed_us"] = total
        if wait > 0:
            result.extra["queue_wait_us"] = wait
            if behind_gc > 0:
                result.extra["queue_gc_us"] = behind_gc
        return result
