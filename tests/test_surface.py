"""Surface checks: the program itself — the library, ``benchmarks/`` or
``examples/``, not only its tests — must use what ``src/repro`` offers.

**Dead surface.** Every public function, class and method under
``src/repro`` must be referenced by the program.

A *reference* is any ``ast.Name`` id, ``ast.Attribute`` attr, import
alias, or identifier-shaped string constant (which covers ``getattr``
and registry names) in those trees.  Package ``__init__`` re-exports and
``__all__`` lists do not count; uses inside the defining module do.  The
match is by bare name, so it can only miss dead code, never flag live
code that is reached by its name.  Dunders and ``main`` are exempt;
every other exemption is an entry of :data:`ALLOWLIST` with its reason,
and an entry that stops being needed fails the check too.

**Knobs nobody turns.** Every defaulted parameter of a function or method
under ``src/repro``, and every field of a ``*Config`` / ``*Spec``
dataclass, must be passed — by name or by position — by some call in
those same trees; a value no caller varies belongs in a constant.  A
call matches by the callee's bare name (for a constructor: the class or
a subclass that inherits its ``__init__``; ``super().__init__`` reaches
the enclosing class's bases); ``**mapping`` passes every keyword and
``*args`` every position; a call through a local alias (``f =
obj.method``, ``getattr(obj, "method")``) counts as a call of the
method; and a function handed out as a value (a callback) counts as
called with every position.  So this match, too, errs toward missing a
knob.  ``main`` and dunders other than ``__init__`` are exempt; every
other exemption is an entry of :data:`KNOB_ALLOWLIST` with its reason,
and an entry that stops being needed fails the check.
"""

from __future__ import annotations

import ast
import functools
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLERS = (SOURCE, ROOT / "benchmarks", ROOT / "examples")

#: Public names nothing outside ``tests/`` references, kept on purpose.
ALLOWLIST: Dict[str, str] = {
    "FlashArray.corrupt_page": "fault-injection seam: poisons a "
    "programmed page so its next read fails the checksum",
    "FlashArray.mark_bad": "fault-injection seam: grows a bad block "
    "without an erase failure",
    "FlashArray.peek_oob": "inspection seam: spare-area state without "
    "issuing a command (no timing, no counters)",
    "FlashArray.next_free_page": "inspection seam: a block's write "
    "pointer, the NAND ascending-program rule's state",
    "Geometry.compose": "inverse of decompose; the round-trip property "
    "test is what validates the address arithmetic",
    "Geometry.plane_of_ppn": "address helper of the die_of_ppn / "
    "plane_of_block family the geometry property tests cross-check",
    "SimFlashDevice.die_utilization": "per-die busy share of the DES "
    "device, the unit-level form of flash.die_busy_share",
    "MetricsRegistry.to_json": "canonical (sorted-key) snapshot the "
    "golden-rig digest and the sweep determinism tests hash",
    "MetricsRegistry.set_gauge_merge": "declares a merge_from policy "
    "beside GAUGE_MERGE_DEFAULTS; the only way to pick max/last",
    "Gauge.dec": "the decrement of the gauge's set/inc/dec contract",
    "BufferPool.set_dirty_listener": "subscription API of the pool's "
    "dirtying hook, whose fire-once contract is unit-tested",
    "Store": "the DES kernel's blocking FIFO queue, the message-passing "
    "counterpart of Resource",
    "Store.put": "Store's producer side",
    "FaultInjector.add_spec": "fault-injection seam: arms a fault at an "
    "address a test learns only after writing it",
}

#: Knobs nothing outside ``tests/`` passes, kept on purpose:
#: ``"Qualname(param=)"`` (a constructor's qualname is its class's) ->
#: reason.
KNOB_ALLOWLIST: Dict[str, str] = {
    "BlockDevice(controller_slots=)": "test seam: the device tests run one "
    "controller slot so queueing order is fixed",
    "FaultSpec(ppn=)": "fault address filter: tests aim a read or program "
    "fault at one page",
    "FaultSpec(predicate=)": "power-cut trigger: a crash test cuts power at "
    "the command a predicate picks",
    "FlashArray(initial_bad_block_rate=)": "factory-bad blocks: the "
    "bad-block tests' only source of blocks bad from birth",
    "FlashArray(max_erase_cycles=)": "endurance limit: the wear-out tests, "
    "and ROADMAP item 3's wear-out rig, need a finite one",
    "Gauge.dec(amount=)": "the decrement of the gauge's set/inc/dec "
    "contract, mirroring inc(amount)",
    "RAMStorageAdapter(num_regions=)": "test seam: gives the RAM adapter "
    "regions, so the writer-policy tests run without flash",
    "Simulator.timeout(value=)": "DES kernel API: the value a timeout "
    "resumes its waiter with, which the kernel tests pin",
    "TPCC(initial_orders_per_district=)": "test seam: a three-order load "
    "keeps the TPC-C consistency test quick",
    "run_chaos(fault_plan=)": "the README's scripted chaos run passes its "
    "own fault plan",
    "run_db_rig(dies=)": "test seam: the streams test runs the health rig "
    "on two dies to stay quick",
}


def _python_files(root: Path) -> Iterable[Path]:
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_public(name: str) -> bool:
    return not name.startswith("_") and name != "main"


def definitions(source: Path) -> Dict[str, str]:
    """``{qualname: module path}`` of every public top-level function and
    class, and every public method of a public class."""
    found: Dict[str, str] = {}
    for path in _python_files(source):
        where = str(path.relative_to(source))
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or not _is_public(node.name):
                continue
            found[node.name] = where
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and _is_public(item.name)):
                        found[f"{node.name}.{item.name}"] = where
    return found


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def references(roots: Iterable[Path]) -> Set[str]:
    """Every name the files under ``roots`` use."""
    names: Set[str] = set()
    for root in roots:
        for path in _python_files(root):
            package_init = path.name == "__init__.py"
            skip: Set[int] = set()
            for node in ast.walk(_parse(path)):
                if id(node) in skip:
                    continue
                if _is_all_assignment(node) or (
                        package_init and isinstance(node, ast.ImportFrom)):
                    skip.update(id(child) for child in ast.walk(node))
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                    if node.asname:
                        names.add(node.asname)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def unreferenced(source: Path, callers: Iterable[Path],
                 allowlist: Dict[str, str]) -> List[str]:
    """Qualnames defined under ``source`` that nothing under ``callers``
    references and ``allowlist`` does not excuse."""
    used = references(callers)
    return sorted(
        f"{qualname} ({where})"
        for qualname, where in definitions(source).items()
        if qualname.rpartition(".")[2] not in used
        and qualname not in allowlist
    )


# -- knobs nobody turns -------------------------------------------------------


class Knob(NamedTuple):
    """A defaulted parameter or config field and the calls that reach it."""

    where: str
    callees: FrozenSet[str]
    position: Optional[int]  # positional index; None when keyword-only
    function: bool  # a function may be handed out as a callback


def _name_of(node: ast.AST) -> Optional[str]:
    """The bare name a call target or value goes by (``getattr`` with a
    literal attribute included)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (isinstance(node, ast.Call) and _name_of(node.func) == "getattr"
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _is_config(node: ast.ClassDef) -> bool:
    return node.name.endswith(("Config", "Spec")) and any(
        _name_of(getattr(decorator, "func", decorator)) == "dataclass"
        for decorator in node.decorator_list)


def _defaulted(function: ast.FunctionDef, method: bool):
    """``(name, position)`` of each defaulted parameter; ``position`` is
    the index a caller passes it at (``self`` excluded), ``None`` for a
    keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    bound = int(method and not any(_name_of(decorator) == "staticmethod"
                                   for decorator in function.decorator_list))
    first = max(len(positional) - len(args.defaults), bound)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def knobs(source: Path) -> Dict[str, Knob]:
    """``{"Qualname(param=)": knob}`` of every defaulted parameter of a
    function or method under ``source`` and every field of a ``*Config``
    / ``*Spec`` dataclass; a constructor's qualname is its class's."""
    modules = {str(path.relative_to(source)): _parse(path)
               for path in _python_files(source)}
    subclasses: Dict[Optional[str], Set[str]] = defaultdict(set)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    subclasses[_name_of(base)].add(node.name)

    def constructors(cls: str) -> FrozenSet[str]:
        names, todo = {cls}, [cls]
        while todo:
            for sub in subclasses[todo.pop()] - names:
                names.add(sub)
                todo.append(sub)
        return frozenset(names)

    found: Dict[str, Knob] = {}

    def visit(body, where: str, owner: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if _is_config(node):
                    callees = constructors(node.name) | {"replace"}
                    fields = [item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name)]
                    for position, name in enumerate(fields):
                        found[f"{node.name}({name}=)"] = Knob(
                            where, callees, position, False)
                visit(node.body, where, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name == "main" or (name.startswith("__")
                                      and name != "__init__"):
                    continue
                constructor = name == "__init__" and owner is not None
                qualname = owner if constructor else (
                    f"{owner}.{name}" if owner else name)
                callees = constructors(owner) if constructor \
                    else frozenset([name])
                for param, position in _defaulted(node, owner is not None):
                    found[f"{qualname}({param}=)"] = Knob(
                        where, callees, position, not constructor)
                visit(node.body, where, None)

    for where, tree in modules.items():
        visit(tree.body, where, None)
    return found


class Calls:
    """What the calls under some roots pass, keyed by callee bare name."""

    def __init__(self) -> None:
        self.keywords: Dict[str, Set[str]] = defaultdict(set)
        self.positional: Dict[str, int] = defaultdict(int)
        self.spread: Set[str] = set()  # called with **mapping
        self.handed_out: Set[str] = set()  # referenced as a value
        self.aliases: Dict[str, Set[str]] = defaultdict(set)

    def record(self, callee: str, call: ast.Call) -> None:
        for keyword in call.keywords:
            if keyword.arg is None:
                self.spread.add(callee)
            else:
                self.keywords[callee].add(keyword.arg)
        count = len(call.args)
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            count = 1 << 30
        self.positional[callee] = max(self.positional[callee], count)

    def passes(self, knob: Knob, param: str) -> bool:
        for name in knob.callees:
            for callee in {name} | self.aliases[name]:
                if (param in self.keywords[callee] or callee in self.spread
                        or knob.position is not None and (
                            self.positional[callee] > knob.position
                            or knob.function and callee in self.handed_out)):
                    return True
        return False


def _is_super_init(func: ast.AST) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _name_of(func.value.func) == "super")


def calls(roots: Iterable[Path]) -> Calls:
    """Every call (and alias and handed-out function) under ``roots``."""
    found = Calls()
    for root in roots:
        for path in _python_files(root):
            stack = [(_parse(path), None)]
            while stack:
                node, cls = stack.pop()
                values: List[ast.AST] = []
                if isinstance(node, ast.ClassDef):
                    cls = node
                elif isinstance(node, ast.Call):
                    values = node.args + [kw.value for kw in node.keywords]
                    if cls is not None and _is_super_init(node.func):
                        targets = [_name_of(base) for base in cls.bases]
                    else:
                        targets = [_name_of(node.func)]
                    for target in targets:
                        if target is not None:
                            found.record(target, node)
                elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                    values = node.elts
                elif isinstance(node, ast.Dict):
                    values = node.values
                elif isinstance(node, (ast.Assign, ast.Return)):
                    values = [node.value]
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target = _name_of(node.targets[0])
                        value = _name_of(node.value)
                        if target and value and target != value:
                            found.aliases[value].add(target)
                for value in values:
                    if isinstance(value, (ast.Name, ast.Attribute)):
                        found.handed_out.add(_name_of(value))
                stack.extend((child, cls)
                             for child in ast.iter_child_nodes(node))
    return found


def _param_of(key: str) -> str:
    return key.partition("(")[2][:-2]  # "Qualname(param=)" -> "param"


def unpassed(source: Path, callers: Iterable[Path],
             allowlist: Dict[str, str]) -> List[str]:
    """Knobs defined under ``source`` that no call under ``callers``
    passes and ``allowlist`` does not excuse."""
    passed = calls(callers)
    return sorted(
        f"{key} ({knob.where})"
        for key, knob in knobs(source).items()
        if key not in allowlist and not passed.passes(knob, _param_of(key))
    )


def test_no_unreferenced_public_surface():
    dead = unreferenced(SOURCE, CALLERS, ALLOWLIST)
    assert not dead, (
        "public names only tests (or nothing) reference — delete them, "
        "give them a caller, or allowlist them with a reason:\n  "
        + "\n  ".join(dead))


def test_no_unpassed_knobs():
    unturned = unpassed(SOURCE, CALLERS, KNOB_ALLOWLIST)
    assert not unturned, (
        "parameters and config fields no caller outside tests/ passes — "
        "make each a constant, delete it, or allowlist it with a "
        "reason:\n  " + "\n  ".join(unturned))


def test_both_checks_stay_fast():
    _parse.cache_clear()
    started = time.perf_counter()
    unreferenced(SOURCE, CALLERS, ALLOWLIST)
    unpassed(SOURCE, CALLERS, KNOB_ALLOWLIST)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"surface checks took {elapsed:.2f} s"


def test_allowlist_entries_are_live_and_explained():
    defined = definitions(SOURCE)
    used = references(CALLERS)
    for qualname, reason in ALLOWLIST.items():
        assert reason.strip(), f"{qualname}: allowlist entry has no reason"
        assert qualname in defined, f"{qualname}: no longer defined"
        assert qualname.rpartition(".")[2] not in used, (
            f"{qualname}: now referenced; drop it from the allowlist")


def test_knob_allowlist_entries_are_live_and_explained():
    defined = knobs(SOURCE)
    passed = calls(CALLERS)
    for key, reason in KNOB_ALLOWLIST.items():
        assert reason.strip(), f"{key}: allowlist entry has no reason"
        assert key in defined, f"{key}: no longer defined"
        assert not passed.passes(defined[key], _param_of(key)), (
            f"{key}: now passed by a caller; drop it from the allowlist")


def test_check_flags_an_unreferenced_function(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import used, unused\n__all__ = ['used', 'unused']\n")
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text("from pkg.mod import used\nused()\n")
    assert unreferenced(package, [package, caller], {}) == [
        "unused (mod.py)"]


def test_check_flags_an_unpassed_knob(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "\n\n"
        "class Base:\n"
        "    def __init__(self, size=4, mode='a'):\n"
        "        self.size, self.mode = size, mode\n"
        "\n\n"
        "class Child(Base):\n"
        "    def __init__(self, extra=1):\n"
        "        super().__init__(8)\n"
        "\n\n"
        "def by_position(a, value=2):\n"
        "    return a + value\n"
        "\n\n"
        "def by_name(a, value=1, unpassed=3):\n"
        "    return a + value + unpassed\n"
        "\n\n"
        "@dataclass\n"
        "class TinyConfig:\n"
        "    used: int = 1\n"
        "    unused: int = 2\n")
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text(
        "from pkg.mod import Child, TinyConfig, by_name, by_position\n"
        "by_position(0, 7)\n"
        "by_name(0, value=2)\n"
        "Child(extra=3)\n"
        "TinyConfig(used=3)\n")
    assert unpassed(package, [package, caller], {}) == [
        "Base(mode=) (mod.py)",
        "TinyConfig(unused=) (mod.py)",
        "by_name(unpassed=) (mod.py)",
    ]
