"""Executors: drive command-yielding operations against a device.

FTLs and the NoFTL storage manager are written as *generators of flash
commands*: host-side work (map lookups in host RAM) is plain code, every
flash touch is a ``yield <FlashCommand>`` whose value is the
:class:`~repro.flash.commands.CommandResult`.  The same operation code then
runs

* synchronously for trace replay / unit tests (:class:`SyncExecutor`), or
* inside the DES with die/channel contention (:class:`SimExecutor`).

Flash errors raised by the array are thrown *into* the operation generator
so FTL-level recovery (bad-block remapping) happens at the right place in
either mode.

When given an :class:`~repro.telemetry.OpContext`, an executor also does
the **blame accounting**: it stamps the context onto untagged commands,
adopts orphan maintenance chains (contexts created deep inside an FTL)
under the request's context, and charges each command's observed time into
the context's cost buckets — media time for the request's own commands,
``gc_us`` for inline maintenance, ``queue_gc_us``/``queue_other_us`` for
die-queue waits (classified by the device), ``retry_us`` for recovery
backoff pauses.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..telemetry import MAINTENANCE_ORIGINS, OpContext
from .commands import FlashCommand, Pause, stamp_context
from .device import SimFlashDevice, SyncFlashDevice
from .errors import FlashError

__all__ = ["SyncExecutor", "SimExecutor", "FlashOp"]

#: Type alias for documentation: a generator yielding FlashCommand and
#: returning the operation's result.
FlashOp = Generator


def _check_command(command: Any) -> FlashCommand:
    if not isinstance(command, FlashCommand):
        raise TypeError(f"flash operation yielded {command!r}, expected FlashCommand")
    return command


def _prepare(command: FlashCommand, ctx: Optional[OpContext]):
    """Stamp / adopt the command's context; returns its effective origin."""
    cmd_ctx = command.ctx
    if cmd_ctx is None:
        if ctx is not None:
            stamp_context(command, ctx)
            cmd_ctx = ctx
    elif ctx is not None:
        cmd_ctx.adopt(ctx)
    return cmd_ctx.origin if cmd_ctx is not None else "host"


def _charge(ctx: OpContext, command: FlashCommand, origin: str, result):
    observed = result.extra.get("observed_us", result.latency_us)
    if isinstance(command, Pause):
        # Backpressure / backoff time: blamed on GC when the pause exists
        # to let maintenance catch up, on retry/recovery otherwise.
        bucket = "gc_us" if origin in MAINTENANCE_ORIGINS else "retry_us"
        ctx.charge(bucket, observed)
        return
    if origin in MAINTENANCE_ORIGINS:
        # Inline maintenance (GC, merges, scrubs...) executed within this
        # request, queue waits included — it is all foreign work.
        ctx.charge("gc_us", observed)
        return
    wait = result.extra.get("queue_wait_us", 0.0)
    behind_gc = result.extra.get("queue_gc_us", 0.0)
    ctx.charge("media_us", observed - wait)
    ctx.charge("queue_gc_us", behind_gc)
    ctx.charge("queue_other_us", max(0.0, wait - behind_gc))


class SyncExecutor:
    """Runs a flash operation to completion immediately."""

    def __init__(self, device: SyncFlashDevice):
        self.device = device

    def run(self, operation: FlashOp, ctx: Optional[OpContext] = None) -> Any:
        """Drive ``operation``; returns its ``return`` value."""
        # This loop runs once per flash command and dominates trace replay:
        # bound methods are hoisted, and the command check and context
        # stamping are inlined (blame accounting only runs with a ctx).
        send = operation.send
        throw = operation.throw
        execute = self.device.execute
        origin = None
        try:
            command = send(None)
            while True:
                if not isinstance(command, FlashCommand):
                    _check_command(command)
                if ctx is not None:
                    origin = _prepare(command, ctx)
                try:
                    result = execute(command)
                except FlashError as exc:
                    # Let the operation handle (or re-raise) the failure;
                    # throw() resumes it and returns its next command.
                    command = throw(exc)
                else:
                    if ctx is not None:
                        _charge(ctx, command, origin, result)
                    command = send(result)
        except StopIteration as stop:
            return stop.value


class SimExecutor:
    """Runs a flash operation inside the DES.

    ``run`` is itself a generator: use it from a DES process as
    ``value = yield from executor.run(op)``.
    """

    def __init__(self, device: SimFlashDevice):
        self.device = device
        self.sim = device.sim

    def run(self, operation: FlashOp, ctx: Optional[OpContext] = None):
        send = operation.send
        throw = operation.throw
        execute = self.device.execute
        try:
            command = _check_command(send(None))
            while True:
                origin = _prepare(command, ctx)
                try:
                    result = yield from execute(command)
                except FlashError as exc:
                    command = _check_command(throw(exc))
                else:
                    if ctx is not None:
                        _charge(ctx, command, origin, result)
                    command = _check_command(send(result))
        except StopIteration as stop:
            return stop.value
