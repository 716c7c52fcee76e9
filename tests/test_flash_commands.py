"""API pin for the native flash command set and its results.

Commands are value objects on the hottest path of the simulator: every
flash touch builds one.  Whatever form the classes take, these properties
must hold: immutability, equality and hashing over the physical fields
only (never the causal context), a dataclass-style ``repr``, the
positional/keyword constructor signatures with their defaults, context
stamping, and one fresh ``extra`` dict per result.
"""

import dataclasses

import pytest

from repro.flash import (
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
from repro.flash.commands import stamp_context
from repro.telemetry import OpContext

#: (class, positional args, the same command by keyword, fields in order)
CASES = [
    (ReadPage, (7,), dict(ppn=7), ("ppn",)),
    (ProgramPage, (7, b"x", {"lpn": 3}), dict(ppn=7, data=b"x", oob={"lpn": 3}),
     ("ppn", "data", "oob")),
    (EraseBlock, (4,), dict(pbn=4), ("pbn",)),
    (Copyback, (7, 9, {"lpn": 3}), dict(src_ppn=7, dst_ppn=9, oob={"lpn": 3}),
     ("src_ppn", "dst_ppn", "oob")),
    (ReadOob, (7,), dict(ppn=7), ("ppn",)),
    (Identify, (), {}, ()),
    (Pause, (25.0,), dict(duration_us=25.0), ("duration_us",)),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, kwargs, fields", CASES, ids=IDS)
class TestCommand:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, fields):
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword
        assert tuple(getattr(by_position, name) for name in fields) == args
        assert isinstance(by_position, FlashCommand)
        assert by_position.ctx is None

    def test_fields_are_immutable(self, cls, args, kwargs, fields):
        command = cls(*args)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(command, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(command, name)
        assert command == cls(*args)

    def test_ctx_is_written_only_by_stamp_context(self, cls, args, kwargs, fields):
        command = cls(*args)
        # Plain assignment is refused: FrozenInstanceError, or TypeError
        # from a frozen dataclass with slots.
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            command.ctx = OpContext("gc")
        assert command.ctx is None
        ctx = OpContext("gc")
        assert stamp_context(command, ctx) is command
        assert command.ctx is ctx

    def test_equality_and_hash_ignore_ctx(self, cls, args, kwargs, fields):
        plain = cls(*args)
        stamped = stamp_context(cls(*args), OpContext("gc"))
        other = stamp_context(cls(*args), OpContext("host"))
        assert plain == stamped == other
        assert not plain != stamped
        if not any(isinstance(arg, dict) for arg in args):  # a dict oob is unhashable
            assert hash(plain) == hash(stamped) == hash(other) == hash(tuple(args))

    def test_equality_is_per_class(self, cls, args, kwargs, fields):
        command = cls(*args)
        assert command != object()
        for other_cls, other_args, __, __ in CASES:
            if other_cls is not cls:
                assert command != other_cls(*other_args)

    def test_repr(self, cls, args, kwargs, fields):
        command = stamp_context(cls(*args), OpContext("gc"))
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, args))
        assert repr(command) == f"{cls.__name__}({inner})"


class TestDefaults:
    def test_program_page_defaults(self):
        command = ProgramPage(3)
        assert (command.data, command.oob) == (None, None)
        assert repr(command) == "ProgramPage(ppn=3, data=None, oob=None)"

    def test_copyback_default_oob(self):
        assert Copyback(1, 2).oob is None
        assert Copyback(1, 2) == Copyback(src_ppn=1, dst_ppn=2, oob=None)
        assert hash(Copyback(1, 2)) == hash((1, 2, None))

    def test_pause_default_duration(self):
        assert Pause().duration_us == 100.0
        assert repr(Pause()) == "Pause(duration_us=100.0)"

    def test_fields_differ_means_unequal(self):
        assert ReadPage(1) != ReadPage(2)
        assert Copyback(1, 2) != Copyback(1, 3)
        assert Pause(1.0) != Pause(2.0)

    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            ReadPage(ppn=1, ctx=None)
        with pytest.raises(TypeError):
            Copyback(1)


class TestCommandResult:
    def test_positional_and_keyword_construction(self):
        command = ReadPage(5)
        by_position = CommandResult(command, 50.0, 1, b"d", {"lpn": 5})
        by_keyword = CommandResult(command=command, latency_us=50.0, die=1,
                                   data=b"d", oob={"lpn": 5})
        assert by_position == by_keyword
        assert (by_position.command, by_position.latency_us, by_position.die,
                by_position.data, by_position.oob, by_position.extra) == (
            command, 50.0, 1, b"d", {"lpn": 5}, {})

    def test_defaults_and_fresh_extra_per_result(self):
        first = CommandResult(ReadPage(5), 50.0)
        second = CommandResult(ReadPage(5), 50.0)
        assert (first.die, first.data, first.oob, first.extra) == (None, None, None, {})
        assert first.extra is not second.extra
        first.extra["observed_us"] = 1.0
        assert second.extra == {}

    def test_mutable_and_unhashable(self):
        result = CommandResult(ReadPage(5), 50.0, die=0)
        result.latency_us += 10.0  # the array adds injected latency in place
        assert result.latency_us == 60.0
        assert result != CommandResult(ReadPage(5), 50.0, die=0)
        with pytest.raises(TypeError):
            hash(result)

    def test_repr(self):
        result = CommandResult(ReadPage(5), 50.0, die=1)
        assert repr(result) == (
            "CommandResult(command=ReadPage(ppn=5), latency_us=50.0, die=1, "
            "data=None, oob=None, extra={})"
        )
