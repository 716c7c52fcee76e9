"""The NAND array state machine.

:class:`FlashArray` is *pure state + rules*, with no notion of simulated
time beyond computing each command's latency from the
:class:`~repro.flash.timing.TimingSpec`.  The two device front-ends
(:class:`~repro.flash.device.SyncFlashDevice` for trace replay and
:class:`~repro.flash.device.SimFlashDevice` for contention-aware DES runs)
share this one implementation, so command accounting — the paper's Figure 3
currency — is identical on both paths.

Enforced NAND rules:

* pages within a block are programmed strictly in ascending order;
* a programmed page cannot be reprogrammed before a block erase;
* COPYBACK moves a page only within one plane of one die;
* erases beyond the endurance limit grow a bad block
  (:class:`~repro.flash.errors.BlockWornOut`);
* factory-bad blocks reject program/erase.

State layout: per-page state is flat, indexed by ppn — ``bytearray``
bitmaps for programmed/poisoned flags and dense Python lists for the
payload/OOB slots.  Page payloads never mutate in host RAM, so a stored
checksum can only mismatch its recomputation when the page was explicitly
damaged (torn program, interrupted erase, failed program, injected
corruption); the ``_poisoned`` bitmap records exactly that bit and
replaces a per-page CRC dict — no pickling or CRC arithmetic on the hot
program/read path, with identical observable semantics.
"""

from __future__ import annotations

import pickle
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, List, Optional

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
from .errors import (
    BadBlockError,
    BlockWornOut,
    CopybackPlaneError,
    EraseError,
    FlashError,
    OverwriteError,
    PowerCutError,
    ProgramError,
    ProgramSequenceError,
    ReadUnwrittenError,
    UncorrectableError,
)
from .faults import FaultInjector, FaultPlan
from .geometry import Geometry
from .timing import MLC_TIMING, TimingSpec
from ..telemetry import FLASH_OPS, EventTrace, MetricsRegistry

__all__ = ["FlashArray", "ArrayCounters", "page_checksum"]

# Die-addressing field of each die-occupying command type and the
# geometry helper that maps it to a global die: an exact-type dict hit in
# die_of_command, an isinstance walk only for subclasses (the same scheme
# as device._PHASE_OF_TYPE).
_DIE_ADDRESS_OF_TYPE = {
    ReadPage: ("ppn", Geometry.die_of_ppn),
    ProgramPage: ("ppn", Geometry.die_of_ppn),
    EraseBlock: ("pbn", Geometry.die_of_block),
    Copyback: ("src_ppn", Geometry.die_of_ppn),
    ReadOob: ("ppn", Geometry.die_of_ppn),
}


def page_checksum(data: Any) -> Optional[int]:
    """Cheap CRC32 of an arbitrary page payload (None for empty pages).

    Used by the chaos rig's oracle to compare what was written with what
    came back; the array itself tracks page damage with the poisoned
    bitmap instead of recomputing checksums per command.
    """
    if data is None:
        return None
    if isinstance(data, (bytes, bytearray, memoryview)):
        payload = bytes(data)
    else:
        try:
            payload = pickle.dumps(data, protocol=4)
        except Exception:
            payload = repr(data).encode()
    return zlib.crc32(payload)


@dataclass
class ArrayCounters:
    """Command totals — the raw material of the paper's Figure 3 table.

    A value, built on demand by :attr:`FlashArray.counters` from the
    registry counters the array bumps; nothing updates it.
    """

    reads: int = 0
    programs: int = 0
    erases: int = 0
    copybacks: int = 0
    oob_reads: int = 0
    per_die_ops: List[int] = field(default_factory=list)
    busy_us: float = 0.0  # sum of all command latencies (no overlap model)

    def snapshot(self) -> dict:
        return {
            "reads": self.reads,
            "programs": self.programs,
            "erases": self.erases,
            "copybacks": self.copybacks,
            "oob_reads": self.oob_reads,
            "busy_us": self.busy_us,
        }


class FlashArray:
    """State of every page and block of one flash device.

    Parameters
    ----------
    geometry, timing
        Shape and latency model.
    store_data
        When False, page payloads are discarded (pure command-counting
        runs such as trace replay); reads then return None.  When True,
        per-page damage is tracked and verified on every read, so
        torn/corrupted pages surface as :class:`UncorrectableError`
        instead of silently wrong data.
    max_erase_cycles
        Endurance limit; ``None`` disables wear-out.
    initial_bad_block_rate
        Fraction of factory-bad blocks, drawn with ``rng``.
    fault_plan
        A :class:`~repro.flash.faults.FaultPlan` of scripted faults
        (transient/persistent uncorrectable reads, program and erase
        failures, die outage windows, latency spikes).  The injector is
        exposed as ``self.fault_injector``.  A uniform read error rate
        is one address-free ``transient_read`` spec with that ``rate``.
    telemetry
        Shared :class:`~repro.telemetry.MetricsRegistry`; a private one is
        created when omitted.  The array owns the per-die command counters
        (``flash.commands{op, die, origin}``) and busy-time sums
        (``flash.busy_us{die}``) — the authoritative source of the
        Figure 3 quantities.  The ``origin`` label comes from the causal
        context stamped on each command (``"host"`` when untagged);
        aggregations over ``{op, die}`` are unaffected, since
        :meth:`MetricsRegistry.value`/:meth:`~MetricsRegistry.series`
        match label supersets.
    trace
        Optional :class:`~repro.telemetry.EventTrace`; when present, every
        die-occupying command emits one ``flash.cmd`` event carrying op,
        die, model latency and its causal origin/path — the raw material
        of the attribution dashboards.
    """

    def __init__(
        self,
        geometry: Geometry,
        timing: TimingSpec = MLC_TIMING,
        store_data: bool = True,
        max_erase_cycles: Optional[int] = None,
        initial_bad_block_rate: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        rng: Optional[random.Random] = None,
        telemetry: Optional[MetricsRegistry] = None,
        trace: Optional[EventTrace] = None,
    ):
        if not 0.0 <= initial_bad_block_rate < 1.0:
            raise ValueError("initial_bad_block_rate must be in [0, 1)")
        self.geometry = geometry
        self.timing = timing
        self.store_data = store_data
        self.max_erase_cycles = max_erase_cycles
        self._rng = rng or random.Random(0)

        nblocks = geometry.total_blocks
        npages = geometry.total_pages
        self._npages = npages
        self.erase_counts: List[int] = [0] * nblocks
        self._next_page: List[int] = [0] * nblocks
        self._bad = bytearray(nblocks)
        # Flat per-page state (see module docstring).
        self._programmed = bytearray(npages)
        self._poisoned = bytearray(npages)
        self._data: List[Any] = [None] * npages
        self._oob: List[Any] = [None] * npages
        # Pause time occupies no die, so no flash.busy_us series sees it.
        self._pause_us = 0.0

        # Hot-path constants: address divisors and the per-command-class
        # latencies, which are pure functions of geometry + timing.
        self._pages_per_block = geometry.pages_per_block
        self._blocks_per_die = geometry.blocks_per_die
        self._pages_per_plane = geometry.pages_per_plane
        self._nblocks = nblocks
        self._read_latency_us = timing.read_latency_us(geometry.page_bytes)
        self._program_latency_us = timing.program_latency_us(geometry.page_bytes)
        self._erase_latency_us = timing.erase_latency_us()
        self._copyback_latency_us = timing.copyback_latency_us()
        self._oob_latency_us = (
            timing.cmd_overhead_us
            + timing.read_us
            + timing.transfer_us(geometry.oob_bytes)
        )

        # Power state: after a scripted power cut every command raises
        # PowerCutError until power_cycle().  The hook fires synchronously
        # at the cut instant (before anything else in the rig can run), so
        # a crash harness can snapshot "what the outside world had seen"
        # at exactly the moment power died.
        self._powered_off = False
        self.power_cut_op: Optional[int] = None
        self.on_power_cut = None
        #: Opt-in health attachment point (see
        #: :class:`repro.telemetry.health.HealthMonitor`): when set, its
        #: ``record(op, die, latency_us, ctx, oob)`` is called for every
        #: accounted command.  Strictly passive — the golden-digest rigs
        #: leave it None and pay one attribute load + None check.
        self.health = None
        #: Additional cut-instant hooks (e.g. a device front end wiping
        #: its volatile write-back cache).  Called after ``on_power_cut``
        #: in registration order, still before PowerCutError propagates.
        self.power_cut_listeners: list = []

        # Telemetry: command counters carry an origin label from the causal
        # context; the vec handle keeps the hot path at one dict probe on
        # the (op, die, origin) value tuple.  The "host" column is
        # pre-materialized for every (op, die) so per-die aggregations
        # always see all dies, zeros included (further origins appear
        # lazily as they occur).
        self.telemetry = telemetry or MetricsRegistry()
        self.trace = trace
        dies = geometry.total_dies
        self._tm_ops = self.telemetry.counter_vec(
            "flash.commands", ("op", "die", "origin"), layer="flash"
        )
        for op in FLASH_OPS:
            for die in range(dies):
                self._tm_ops.labels(op, die, "host")
        #: (op, die, origin) -> resolved counter: one tuple-keyed probe per
        #: command instead of a variadic ``labels()`` call.
        self._tm_ops_of: dict = {}
        self._tm_busy = [
            self.telemetry.counter("flash.busy_us", layer="flash", die=die)
            for die in range(dies)
        ]
        self._tm_power_cuts = self.telemetry.counter("flash.power_cuts", layer="flash")

        self._dispatch = {
            ReadPage: self._read,
            ProgramPage: self._program,
            EraseBlock: self._erase,
            Copyback: self._copyback,
            ReadOob: self._read_oob,
            Identify: self._identify,
            Pause: self._pause,
        }

        self.fault_injector = FaultInjector(fault_plan, telemetry=self.telemetry)

        if initial_bad_block_rate > 0:
            for pbn in range(nblocks):
                if self._rng.random() < initial_bad_block_rate:
                    self._bad[pbn] = True

    # -- inspection ------------------------------------------------------------

    def is_bad(self, pbn: int) -> bool:
        return bool(self._bad[pbn])

    def factory_bad_blocks(self) -> List[int]:
        return [pbn for pbn, bad in enumerate(self._bad) if bad]

    def is_programmed(self, ppn: int) -> bool:
        return 0 <= ppn < self._npages and self._programmed[ppn] != 0

    def next_free_page(self, pbn: int) -> int:
        """Lowest page offset still programmable in ascending order
        (== pages_per_block when the block's high-water mark is full).
        NAND allows *skipping* pages but never going back, so this is the
        high-water mark, not a count."""
        return self._next_page[pbn]

    def erase_count(self, pbn: int) -> int:
        return self.erase_counts[pbn]

    def wear_summary(self) -> dict:
        alive = [count for count, bad in zip(self.erase_counts, self._bad) if not bad]
        if not alive:
            return {"min": 0, "max": 0, "mean": 0.0, "total": 0}
        return {
            "min": min(alive),
            "max": max(alive),
            "mean": sum(alive) / len(alive),
            "total": sum(self.erase_counts),
        }

    def peek_oob(self, ppn: int) -> Any:
        return self._oob[ppn]

    @property
    def powered_off(self) -> bool:
        return self._powered_off

    def power_cycle(self) -> None:
        """Bring the device back after a power cut.

        Only the power state resets — every bit of wreckage the cut left
        (torn pages, half-erased blocks, command counters) persists, which
        is precisely what a cold-start mount has to cope with.
        """
        self._powered_off = False

    @property
    def counters(self) -> ArrayCounters:
        """Command totals read from this array's ``flash.commands`` and
        ``flash.busy_us`` counters, plus Pause time.

        The counters are per registry: arrays that share one registry
        share them, and each reads the combined totals."""
        totals = dict.fromkeys(FLASH_OPS, 0)
        per_die_ops = [0] * len(self._tm_busy)
        for (op, die, __), counter in self._tm_ops_of.items():
            totals[op] += counter.value
            per_die_ops[die] += counter.value
        return ArrayCounters(
            reads=totals["read"],
            programs=totals["program"],
            erases=totals["erase"],
            copybacks=totals["copyback"],
            oob_reads=totals["oob_read"],
            per_die_ops=per_die_ops,
            busy_us=sum(counter.value for counter in self._tm_busy) + self._pause_us,
        )

    # -- accounting ----------------------------------------------------------------

    def _account(
        self,
        command: FlashCommand,
        op: str,
        die: int,
        latency: float,
        oob: Any = None,
    ) -> None:
        """Per-command telemetry: origin-labelled counter, busy time, and
        (when tracing) one ``flash.cmd`` event.  Called before a failed
        program or copyback raises, so attempted-but-failed commands are
        counted.  ``oob`` is the
        *effective* OOB of a program/copyback (after the copyback source
        fallback), handed to the health hook so the WA ledger can resolve
        the lpn being written."""
        ctx = command.ctx
        origin = ctx.origin if ctx is not None else "host"
        key = (op, die, origin)
        counter = self._tm_ops_of.get(key)
        if counter is None:
            counter = self._tm_ops_of[key] = self._tm_ops.labels(op, die, origin)
        # Both amounts are non-negative: bump the values directly.
        counter.value += 1
        self._tm_busy[die].value += latency
        health = self.health
        if health is not None:
            health.record(op, die, latency, ctx, oob)
        trace = self.trace
        if trace is not None and trace.enabled:
            if ctx is not None:
                trace.emit("flash.cmd", op=op, die=die, latency_us=latency,
                           origin=origin, path=ctx.path(), ctx=ctx.ctx_id)
            else:
                trace.emit("flash.cmd", op=op, die=die, latency_us=latency, origin=origin)

    # -- command execution -------------------------------------------------------

    def apply(self, command: FlashCommand) -> CommandResult:
        """Validate + execute one command, returning data and latency.

        Every command — including Pause — advances the fault injector's
        operation counter, so outage/latency windows expire even while a
        lone operation is backing off with Pauses.  Dispatch is an
        exact-type table probe (with an isinstance walk as the fallback
        for command subclasses).  The injector's hooks run only while its
        plan has live specs; with none they are all no-ops.
        """
        injector = self.fault_injector
        if self._powered_off:
            raise PowerCutError(self.power_cut_op or injector.ops)
        injector.ops += 1
        live = injector._live
        if live and injector.check_power_cut(command):
            self._apply_power_cut(command)
        handler = self._dispatch.get(type(command))
        if handler is None:
            for cls, candidate in self._dispatch.items():
                if isinstance(command, cls):
                    handler = candidate
                    break
            else:
                raise TypeError(f"unknown flash command: {command!r}")
        result = handler(command)
        if live and result.die is not None:
            factor = injector.latency_factor(result.die)
            if factor != 1.0:
                extra = result.latency_us * (factor - 1.0)
                result.latency_us += extra
                result.extra["fault_extra_us"] = extra
                self._tm_busy[result.die].inc(extra)
        return result

    def die_of_command(self, command: FlashCommand) -> Optional[int]:
        """Global die a command will occupy (None for Identify / Pause)."""
        address = _DIE_ADDRESS_OF_TYPE.get(type(command))
        if address is None:
            for cls, candidate in _DIE_ADDRESS_OF_TYPE.items():
                if isinstance(command, cls):
                    address = candidate
                    break
            else:
                return None
        field_name, die_of = address
        return die_of(self.geometry, getattr(command, field_name))

    # -- individual commands ------------------------------------------------------

    def _read(self, command: ReadPage) -> CommandResult:
        ppn = command.ppn
        if not self.is_programmed(ppn):
            raise ReadUnwrittenError(f"read of unwritten page ppn={ppn}")
        pbn = ppn // self._pages_per_block
        die = pbn // self._blocks_per_die
        self.fault_injector.check_read(ppn, die)
        self._verify_checksum(ppn)
        latency = self._read_latency_us
        self._account(command, "read", die, latency)
        return CommandResult(
            command,
            latency_us=latency,
            die=die,
            data=self._data[ppn],
            oob=self._oob[ppn],
        )

    def _program(self, command: ProgramPage) -> CommandResult:
        ppn = command.ppn
        if not 0 <= ppn < self._npages:
            self.geometry._check_ppn(ppn)
        pbn = ppn // self._pages_per_block
        offset = ppn - pbn * self._pages_per_block
        die = pbn // self._blocks_per_die
        # Outage check first: the die never saw the command, nothing is
        # consumed, the caller may retry the identical program.
        failed = self.fault_injector.check_program(ppn, die)
        self._check_programmable(ppn, pbn, offset)
        self._next_page[pbn] = offset + 1
        self._programmed[ppn] = 1
        if self.store_data:
            self._data[ppn] = command.data
            # A failed program leaves indeterminate bits behind: keep the
            # payload but poison the page so any later read of the
            # consumed slot surfaces as an uncorrectable (torn) page.
            if failed and command.data is not None:
                self._poisoned[ppn] = 1
        self._oob[ppn] = command.oob
        latency = self._program_latency_us
        self._account(command, "program", die, latency, oob=command.oob)
        if failed:
            raise ProgramError(ppn, pbn)
        return CommandResult(command, latency_us=latency, die=die)

    def _erase(self, command: EraseBlock) -> CommandResult:
        pbn = command.pbn
        if not 0 <= pbn < self._nblocks:
            self.geometry._check_block(pbn)
        if self._bad[pbn]:
            raise BadBlockError(f"erase of bad block pbn={pbn}")
        die = pbn // self._blocks_per_die
        failed = self.fault_injector.check_erase(pbn, die)
        if failed:
            # The erase pulse failed; the block is retired on the spot
            # (same contract as BlockWornOut: marked bad before raising).
            self._bad[pbn] = True
            raise EraseError(pbn, self.erase_counts[pbn])
        self.erase_counts[pbn] += 1
        self._wipe_block(pbn)
        latency = self._erase_latency_us
        self._account(command, "erase", die, latency)
        if (self.max_erase_cycles is not None and self.erase_counts[pbn] > self.max_erase_cycles):
            self._bad[pbn] = True
            raise BlockWornOut(pbn, self.erase_counts[pbn])
        return CommandResult(command, latency_us=latency, die=die)

    def _copyback(self, command: Copyback) -> CommandResult:
        src, dst = command.src_ppn, command.dst_ppn
        npages = self._npages
        if not (0 <= src < npages and 0 <= dst < npages):
            self.geometry._check_ppn(src)
            self.geometry._check_ppn(dst)
        per_plane = self._pages_per_plane
        if src // per_plane != dst // per_plane:
            raise CopybackPlaneError(
                f"copyback crosses planes: {self.geometry.decompose(src)} -> "
                f"{self.geometry.decompose(dst)}"
            )
        if not self._programmed[src]:
            raise ReadUnwrittenError(f"copyback from unwritten page ppn={src}")
        src_pbn = src // self._pages_per_block
        die = src_pbn // self._blocks_per_die
        # Copyback internally reads the source page: read faults and
        # checksum damage surface here, *before* the destination slot is
        # consumed, so the caller can fall back to read-retry + program
        # against the very same destination page.
        self.fault_injector.check_read(src, die, op="copyback")
        self._verify_checksum(src)
        dst_pbn = dst // self._pages_per_block
        dst_offset = dst - dst_pbn * self._pages_per_block
        failed = self.fault_injector.check_program(dst, die)
        self._check_programmable(dst, dst_pbn, dst_offset)
        self._next_page[dst_pbn] = dst_offset + 1
        self._programmed[dst] = 1
        if self.store_data:
            self._data[dst] = self._data[src]
            # The source passed verification above, so its poison bit is
            # clear; only a failed program of real payload taints the copy.
            if failed and self._data[src] is not None:
                self._poisoned[dst] = 1
        oob = command.oob if command.oob is not None else self._oob[src]
        self._oob[dst] = oob
        latency = self._copyback_latency_us
        self._account(command, "copyback", die, latency, oob=oob)
        if failed:
            raise ProgramError(dst, dst_pbn)
        return CommandResult(command, latency_us=latency, die=die)

    def _identify(self, command: Identify) -> CommandResult:
        return CommandResult(command, latency_us=self.timing.cmd_overhead_us,
                             data=self.geometry.describe())

    def _pause(self, command: Pause) -> CommandResult:
        self._pause_us += command.duration_us
        return CommandResult(command, latency_us=command.duration_us)

    def _read_oob(self, command: ReadOob) -> CommandResult:
        ppn = command.ppn
        if not self.is_programmed(ppn):
            raise ReadUnwrittenError(f"OOB read of unwritten page ppn={ppn}")
        pbn = ppn // self._pages_per_block
        die = pbn // self._blocks_per_die
        self.fault_injector.check_read(ppn, die, op="oob_read")
        # OOB is covered by the page's ECC: a torn/corrupted page must
        # fail its OOB read too, or a cold-start scan would happily adopt
        # the mapping of a page whose payload is garbage.
        self._verify_checksum(ppn)
        latency = self._oob_latency_us
        self._account(command, "oob_read", die, latency)
        return CommandResult(command, latency_us=latency, die=die, oob=self._oob[ppn])

    # -- power loss -----------------------------------------------------------------

    def _apply_power_cut(self, command: FlashCommand) -> None:
        """Power dies at this command boundary: leave realistic wreckage
        for the in-flight command, switch the device off, and unwind.

        * in-flight PROGRAM / COPYBACK — the destination page is consumed
          (high-water mark advanced, payload partially latched) but it is
          poisoned: a torn page that fails checksum on both data and OOB
          reads;
        * in-flight ERASE — a half-erased block: every still-programmed
          page's charge is disturbed (poisoned), the erase count is *not*
          advanced and the block is not wiped;
        * read-class commands and Pause/Identify — no device state to
          tear; the command simply never completes.
        """
        if isinstance(command, ProgramPage):
            self._tear_program(command.ppn, command.data, command.oob)
        elif isinstance(command, Copyback):
            src, dst = command.src_ppn, command.dst_ppn
            if self.geometry.same_plane(src, dst) and self.is_programmed(src):
                oob = command.oob if command.oob is not None else self._oob[src]
                self._tear_program(dst, self._data[src], oob)
        elif isinstance(command, EraseBlock):
            self._tear_erase(command.pbn)
        self._powered_off = True
        self.power_cut_op = self.fault_injector.ops
        self._tm_power_cuts.inc()
        if self.on_power_cut is not None:
            self.on_power_cut(command)
        for listener in self.power_cut_listeners:
            listener(command)
        raise PowerCutError(self.power_cut_op)

    def _tear_program(self, ppn: int, data: Any, oob: Any) -> None:
        """Consume ``ppn`` as a torn page (only when the program would
        have been legal — an illegal command leaves no wreckage)."""
        if not 0 <= ppn < self._npages:
            return
        pbn = ppn // self._pages_per_block
        offset = ppn - pbn * self._pages_per_block
        try:
            self._check_programmable(ppn, pbn, offset)
        except FlashError:
            return
        self._next_page[pbn] = offset + 1
        self._programmed[ppn] = 1
        if self.store_data:
            self._data[ppn] = data
            self._poisoned[ppn] = 1
        self._oob[ppn] = oob

    def _tear_erase(self, pbn: int) -> None:
        """Interrupted erase pulse: pages keep their programmed status but
        every one of them now fails its checksum (half-erased charge)."""
        if self._bad[pbn] or not self.store_data:
            return
        base = pbn * self._pages_per_block
        programmed = self._programmed
        poisoned = self._poisoned
        for ppn in range(base, base + self._next_page[pbn]):
            if programmed[ppn]:
                poisoned[ppn] = 1

    # -- helpers --------------------------------------------------------------------

    def mark_bad(self, pbn: int) -> None:
        """Administratively mark a block bad (used by bad-block managers)."""
        self.geometry._check_block(pbn)
        self._bad[pbn] = True

    def corrupt_page(self, ppn: int) -> None:
        """Test/chaos hook: poison a programmed page so the next read
        fails its checksum (a silent-corruption event)."""
        if not self.is_programmed(ppn):
            raise ReadUnwrittenError(f"cannot corrupt unwritten page ppn={ppn}")
        self._poisoned[ppn] = 1

    def _verify_checksum(self, ppn: int) -> None:
        if self._poisoned[ppn] and self.store_data:
            raise UncorrectableError(f"checksum mismatch at ppn={ppn} (torn/corrupted page)")

    def _check_programmable(self, ppn: int, pbn: int, offset: int) -> None:
        if self._bad[pbn]:
            raise BadBlockError(f"program into bad block pbn={pbn}")
        if self._programmed[ppn]:
            raise OverwriteError(f"page {offset} of block {pbn} already programmed")
        if offset < self._next_page[pbn]:
            raise ProgramSequenceError(
                f"block {pbn}: programming page {offset} after page "
                f"{self._next_page[pbn] - 1} (NAND requires ascending order)"
            )

    def _wipe_block(self, pbn: int) -> None:
        base = pbn * self._pages_per_block
        top = base + self._next_page[pbn]
        if top > base:
            count = top - base
            self._data[base:top] = [None] * count
            self._oob[base:top] = [None] * count
            self._programmed[base:top] = bytes(count)
            self._poisoned[base:top] = bytes(count)
        self._next_page[pbn] = 0
