"""The native flash command set.

Section 3 of the paper defines the minimal native interface: PAGE READ and
PAGE PROGRAM with data transfer, COPYBACK PROGRAM and BLOCK ERASE without
user-data transfer, plus an identify command and page-metadata (OOB)
handling.  These classes are that wire protocol; FTLs and the NoFTL
storage manager *yield* them, and an executor (sync or DES) carries them
out against a :class:`~repro.flash.array.FlashArray`.

One command object is built per flash touch, so the classes are written
by hand rather than as frozen dataclasses: ``__slots__``, a constructor
that stores each field through its slot descriptor's ``__set__`` (bound
once, at import), and ``__setattr__`` / ``__delattr__`` that raise
:class:`dataclasses.FrozenInstanceError`.  Equality, hashing and ``repr``
cover the physical fields (``_fields``) only.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Optional

__all__ = [
    "FlashCommand",
    "ReadPage",
    "ProgramPage",
    "EraseBlock",
    "Copyback",
    "ReadOob",
    "Identify",
    "Pause",
    "CommandResult",
    "stamp_context",
    "tag_commands",
]


class FlashCommand:
    """Base class of all native flash commands: immutable once built.

    ``ctx`` is the causal context (an OpContext), ``None`` until an
    executor or :func:`tag_commands` stamps it with :func:`stamp_context`.
    It is not one of ``_fields``, so equality and hashing stay purely
    physical.
    """

    __slots__ = ("ctx",)
    _fields: tuple = ()

    def __init__(self):
        _set_ctx(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self, self._fields) == _values(other, self._fields)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self, self._fields))

    def __repr__(self):
        return _repr(self, self._fields)


def _values(obj, names) -> tuple:
    return tuple([getattr(obj, name) for name in names])


def _repr(obj, names) -> str:
    args = ", ".join([f"{name}={getattr(obj, name)!r}" for name in names])
    return f"{type(obj).__qualname__}({args})"


_set_ctx = FlashCommand.ctx.__set__


class ReadPage(FlashCommand):
    """PAGE READ: sense page ``ppn`` and transfer it over the channel."""

    __slots__ = _fields = ("ppn",)

    def __init__(self, ppn: int):
        _set_read_ppn(self, ppn)
        _set_ctx(self, None)


_set_read_ppn = ReadPage.ppn.__set__


class ProgramPage(FlashCommand):
    """PAGE PROGRAM: transfer ``data`` and program page ``ppn``.

    ``oob`` carries out-of-band page metadata (the paper's "handle Page
    Metadata"); by convention the layers above store the logical page
    number and a write timestamp there so a cold scan can rebuild mappings.
    """

    __slots__ = _fields = ("ppn", "data", "oob")

    def __init__(self, ppn: int, data: Any = None, oob: Any = None):
        _set_program_ppn(self, ppn)
        _set_program_data(self, data)
        _set_program_oob(self, oob)
        _set_ctx(self, None)


_set_program_ppn = ProgramPage.ppn.__set__
_set_program_data = ProgramPage.data.__set__
_set_program_oob = ProgramPage.oob.__set__


class EraseBlock(FlashCommand):
    """BLOCK ERASE of flat physical block ``pbn`` (no data transfer)."""

    __slots__ = _fields = ("pbn",)

    def __init__(self, pbn: int):
        _set_erase_pbn(self, pbn)
        _set_ctx(self, None)


_set_erase_pbn = EraseBlock.pbn.__set__


class Copyback(FlashCommand):
    """COPYBACK PROGRAM: on-die move ``src_ppn`` -> ``dst_ppn``.

    Valid only within one plane of one die; the array enforces this the
    way real NAND does.  ``oob`` optionally rewrites the destination's
    metadata (real copyback preserves OOB; NoFTL updates the mapping in
    host RAM instead, so either convention works — we keep OOB unless
    overridden).
    """

    __slots__ = _fields = ("src_ppn", "dst_ppn", "oob")

    def __init__(self, src_ppn: int, dst_ppn: int, oob: Any = None):
        _set_copyback_src(self, src_ppn)
        _set_copyback_dst(self, dst_ppn)
        _set_copyback_oob(self, oob)
        _set_ctx(self, None)


_set_copyback_src = Copyback.src_ppn.__set__
_set_copyback_dst = Copyback.dst_ppn.__set__
_set_copyback_oob = Copyback.oob.__set__


class ReadOob(FlashCommand):
    """Read only the OOB metadata of ``ppn`` (spare-area read).

    Much cheaper than a full page read; used by recovery scans.
    """

    __slots__ = _fields = ("ppn",)

    def __init__(self, ppn: int):
        _set_oob_ppn(self, ppn)
        _set_ctx(self, None)


_set_oob_ppn = ReadOob.ppn.__set__


class Identify(FlashCommand):
    """Device identification (the HDIO_GETGEO analogue of Section 3):
    returns the :class:`~repro.flash.geometry.Geometry` description."""

    __slots__ = ()


class Pause(FlashCommand):
    """Controller-side busy-wait: occupies no die, just time.

    FTL firmware yields this when it must let background maintenance
    catch up (e.g. FASTer's log area is saturated while a reclaim is in
    flight) — the backpressure real devices express as command latency.
    """

    __slots__ = _fields = ("duration_us",)

    def __init__(self, duration_us: float = 100.0):
        _set_pause_duration(self, duration_us)
        _set_ctx(self, None)


_set_pause_duration = Pause.duration_us.__set__


def stamp_context(command: FlashCommand, ctx) -> FlashCommand:
    """Set a command's causal context in place and return it — the one
    way to write the ``ctx`` of an otherwise immutable command."""
    _set_ctx(command, ctx)
    return command


def tag_commands(operation, ctx):
    """Wrap a flash-command generator so every yielded command carries
    ``ctx`` (commands already tagged by a nested wrapper keep their more
    specific context).  Transparent to the executor protocol: results are
    sent back in and flash errors thrown through.

    This is how maintenance work deep inside an FTL gets its origin —
    e.g. ``tag_commands(self._erase_into_pool(...), OpContext("gc"))`` —
    without any global "current context" state, which the interleaved DES
    processes could not share safely.
    """
    try:
        item = operation.send(None)
    except StopIteration as stop:
        return stop.value
    while True:
        if isinstance(item, FlashCommand) and item.ctx is None:
            stamp_context(item, ctx)
        try:
            result = yield item
        except BaseException as exc:  # noqa: BLE001 - executor protocol
            try:
                item = operation.throw(exc)
            except StopIteration as stop:
                return stop.value
        else:
            try:
                item = operation.send(result)
            except StopIteration as stop:
                return stop.value


class CommandResult:
    """Outcome of one executed command (mutable: the device layers add
    fault latency and queue timings to it, the timings in the fresh
    ``extra`` dict each result carries)."""

    __slots__ = ("command", "latency_us", "die", "data", "oob", "extra")

    def __init__(
        self,
        command: FlashCommand,
        latency_us: float,
        die: Optional[int] = None,
        data: Any = None,
        oob: Any = None,
    ):
        self.command = command
        self.latency_us = latency_us
        self.die = die  # global die index the command occupied
        self.data = data  # page payload (reads) / geometry (identify)
        self.oob = oob  # page metadata (reads)
        self.extra = {}

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self, self.__slots__) == _values(other, self.__slots__)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return _repr(self, self.__slots__)
