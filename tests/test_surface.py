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
the enclosing class's bases).  A ``**mapping`` passes the keys it can
be shown to carry: those of a dict display or ``dict(k=...)``; those of
a local name bound only to such values and changed only by constant-key
``name[k] = ...`` or ``name.setdefault(k, ...)``; and, for the enclosing
function's own ``**kwargs``, the keywords that function's callers pass.
Any other ``**mapping`` passes every keyword, and ``*args`` every
position.  A call through a local alias (``f = obj.method``,
``getattr(obj, "method")``) counts as a call of the method.  A function
handed out as a value (a callback) counts as called with every
position: a bare name only when a module-level ``def`` or an import
binds it, ``self.method`` only for the enclosing class's hierarchy, and
any other ``obj.method`` by its bare name.  So this match, too, errs
toward missing a knob.  ``main`` and dunders other than ``__init__`` are exempt; every
other exemption is an entry of :data:`KNOB_ALLOWLIST` with its reason,
and an entry that stops being needed fails the check.
"""

from __future__ import annotations

import ast
import functools
import time
from collections import defaultdict
from pathlib import Path
from typing import (
    Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple, Union)

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
    family: FrozenSet[str]  # a method's class, its bases and subclasses


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
    bases: Dict[Optional[str], Set[str]] = defaultdict(set)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    subclasses[_name_of(base)].add(node.name)
                    bases[node.name].add(_name_of(base))

    def closure(cls: str, edges) -> Set[str]:
        names, todo = {cls}, [cls]
        while todo:
            for other in edges[todo.pop()] - names:
                names.add(other)
                todo.append(other)
        return names

    def constructors(cls: str) -> FrozenSet[str]:
        return frozenset(closure(cls, subclasses))

    def family(cls: Optional[str]) -> FrozenSet[str]:
        if cls is None:
            return frozenset()
        return frozenset(closure(cls, subclasses) | closure(cls, bases))

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
                            where, callees, position, False, frozenset())
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
                        where, callees, position, not constructor,
                        family(owner))
                visit(node.body, where, None)

    for where, tree in modules.items():
        visit(tree.body, where, None)
    return found


#: What a ``**mapping`` is known to carry: constant keys, or everything.
Keys = Optional[Set[str]]


class Calls:
    """What the calls under some roots pass, keyed by callee bare name."""

    def __init__(self) -> None:
        self.keywords: Dict[str, Set[str]] = defaultdict(set)
        self.positional: Dict[str, int] = defaultdict(int)
        self.spread: Set[str] = set()  # called with a **mapping of any keys
        #: callee -> functions whose own ``**kwargs`` it is handed on.
        self.forwards: Dict[str, Set[str]] = defaultdict(set)
        #: Bare names of functions referenced as values: a name a
        #: module-level ``def`` or an import binds, or ``obj.method``.
        self.handed_out: Set[str] = set()
        #: ``(class, method)`` of each ``self.method`` referenced as a value.
        self.handed_out_methods: Set[Tuple[str, str]] = set()
        self.aliases: Dict[str, Set[str]] = defaultdict(set)

    def record(self, callee: str, call: ast.Call, scope) -> None:
        for keyword in call.keywords:
            if keyword.arg is not None:
                self.keywords[callee].add(keyword.arg)
                continue
            keys, forwarded_from = _spread_keys(scope, keyword.value)
            if keys is None:
                self.spread.add(callee)
            else:
                self.keywords[callee] |= keys
            if forwarded_from is not None:
                self.forwards[callee].add(forwarded_from)
        count = len(call.args)
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            count = 1 << 30
        self.positional[callee] = max(self.positional[callee], count)

    def _callers_of(self, name: str) -> Set[str]:
        return {name} | self.aliases[name]

    def resolve_forwards(self) -> None:
        """Hand each forwarded ``**kwargs`` the keywords its function's
        callers pass, to a fixpoint (forwards chain)."""
        changed = True
        while changed:
            changed = False
            for callee, sources in self.forwards.items():
                for source in sources:
                    callers = self._callers_of(source)
                    if callee not in self.spread and callers & self.spread:
                        self.spread.add(callee)
                        changed = True
                    for caller in callers:
                        if not self.keywords[caller] <= self.keywords[callee]:
                            self.keywords[callee] |= self.keywords[caller]
                            changed = True

    def passes(self, knob: Knob, param: str) -> bool:
        for name in knob.callees:
            for callee in self._callers_of(name):
                if (param in self.keywords[callee] or callee in self.spread
                        or knob.position is not None and (
                            self.positional[callee] > knob.position
                            or knob.function and self._handed_out(knob, callee))):
                    return True
        return False

    def _handed_out(self, knob: Knob, callee: str) -> bool:
        return callee in self.handed_out or any(
            (cls, callee) in self.handed_out_methods for cls in knob.family)


def _is_super_init(func: ast.AST) -> bool:
    return (isinstance(func, ast.Attribute) and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and _name_of(func.value.func) == "super")


def _constant_key(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _display_keys(node: ast.AST) -> Keys:
    """The keys of a dict display or ``dict(k=...)`` call; None when
    ``node`` is neither or a key is not a constant."""
    if isinstance(node, ast.Dict):
        keys = [None if key is None else _constant_key(key)
                for key in node.keys]
        return None if None in keys else set(keys)
    if (isinstance(node, ast.Call) and _name_of(node.func) == "dict"
            and not node.args
            and all(keyword.arg is not None for keyword in node.keywords)):
        return {keyword.arg for keyword in node.keywords}
    return None


FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]


def _local_keys(function: FunctionNode, name: str) -> Tuple[Keys, bool]:
    """``(keys, forwarded)`` of local ``name`` spread inside ``function``:
    the constant keys it is bound to or given, and whether it is the
    function's own ``**kwargs``.  ``keys`` is None unless every use of
    ``name`` is one :func:`_spread_keys` can follow."""
    args = function.args
    forwarded = args.kwarg is not None and args.kwarg.arg == name
    other_params = {arg.arg for arg in (args.posonlyargs + args.args
                                        + args.kwonlyargs)}
    if args.vararg is not None:
        other_params.add(args.vararg.arg)
    if name in other_params:
        return None, False
    keys: Set[str] = set()
    bound = forwarded
    uses = followed = 0
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id == name:
            uses += 1
        elif (isinstance(node, ast.keyword) and node.arg is None
              and isinstance(node.value, ast.Name) and node.value.id == name):
            followed += 1
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id == name:
                value_keys = _display_keys(node.value)
                if value_keys is None:
                    return None, False
                keys |= value_keys
                bound = True
                followed += 1
            elif (isinstance(target, ast.Subscript)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == name
                  and _constant_key(target.slice) is not None):
                keys.add(_constant_key(target.slice))
                followed += 1
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setdefault"
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == name
              and node.args and _constant_key(node.args[0]) is not None):
            keys.add(_constant_key(node.args[0]))
            followed += 1
    if not bound or uses != followed:
        return None, False
    return keys, forwarded


def _callee_key(function: FunctionNode, cls: Optional[ast.ClassDef]) -> str:
    """The bare name calls of ``function`` go by (a constructor's is its
    class's)."""
    name = getattr(function, "name", "<lambda>")
    if name == "__init__" and cls is not None:
        return cls.name
    return name


def calls(roots: Iterable[Path]) -> Calls:
    """Every call (and alias and handed-out function) under ``roots``."""
    found = Calls()
    for root in roots:
        for path in _python_files(root):
            tree = _parse(path)
            # Names a module-level ``def`` or an import binds, and the
            # bare names handed out as values (kept when so bound).
            bindings = {node.name for node in tree.body if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            named: Set[str] = set()
            stack: List[tuple] = [(tree, None, None)]
            while stack:
                node, cls, scope = stack.pop()
                values: List[ast.AST] = []
                if isinstance(node, ast.ClassDef):
                    cls = node
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda)):
                    scope = (node, cls)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    bindings.update(alias.asname or alias.name.split(".")[0]
                                    for alias in node.names)
                elif isinstance(node, ast.Call):
                    values = node.args + [kw.value for kw in node.keywords]
                    if cls is not None and _is_super_init(node.func):
                        targets = [_name_of(base) for base in cls.bases]
                    else:
                        targets = [_name_of(node.func)]
                    for target in targets:
                        if target is not None:
                            found.record(target, node, scope)
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
                    if isinstance(value, ast.Name):
                        named.add(value.id)
                    elif isinstance(value, ast.Attribute):
                        if (isinstance(value.value, ast.Name)
                                and value.value.id == "self"):
                            if cls is not None:
                                found.handed_out_methods.add(
                                    (cls.name, value.attr))
                        else:
                            found.handed_out.add(value.attr)
                stack.extend((child, cls, scope)
                             for child in ast.iter_child_nodes(node))
            found.handed_out |= named & bindings
    found.resolve_forwards()
    return found


def _spread_keys(scope, value: ast.AST) -> Tuple[Keys, Optional[str]]:
    """``(keys, forwarded_from)`` of a ``**value`` spread in ``scope``
    (``(function, class)``, or None at module level): the keys it can be
    shown to carry (None: any), and the callee name whose callers'
    keywords it forwards, if it is that function's own ``**kwargs``."""
    keys = _display_keys(value)
    if keys is not None:
        return keys, None
    if not isinstance(value, ast.Name) or scope is None:
        return None, None
    function, cls = scope
    keys, forwarded = _local_keys(function, value.id)
    if keys is None:
        return None, None
    return keys, _callee_key(function, cls) if forwarded else None


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
        "def hook(a, tick=1):\n"
        "    return a + tick\n"
        "\n\n"
        "class Worker:\n"
        "    def step(self, a, keep=2):\n"
        "        return a + keep\n"
        "\n"
        "    def run(self, a, beat=1):\n"
        "        return a + beat\n"
        "\n"
        "    def start(self, register):\n"
        "        register(self.run)\n"
        "\n\n"
        "class Other:\n"
        "    def go(self, a, fast=False):\n"
        "        return a\n"
        "\n\n"
        "class Stranger:\n"
        "    def trigger(self, register):\n"
        "        register(self.go)\n"
        "\n\n"
        "@dataclass\n"
        "class TinyConfig:\n"
        "    used: int = 1\n"
        "    unused: int = 2\n")
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text(
        "from pkg.mod import Child, TinyConfig, by_name, by_position, hook\n"
        "by_position(0, 7)\n"
        "by_name(0, value=2)\n"
        "Child(extra=3)\n"
        "TinyConfig(used=3)\n"
        "callbacks = [hook]\n"
        "step = 4\n"
        "queue = [step, 5]\n")
    # Handed out as values: ``hook`` (an import) and ``self.run`` (its
    # own class) count as called; the local variable ``step`` and another
    # class's ``self.go`` do not.
    assert unpassed(package, [package, caller], {}) == [
        "Base(mode=) (mod.py)",
        "Other.go(fast=) (mod.py)",
        "TinyConfig(unused=) (mod.py)",
        "Worker.step(keep=) (mod.py)",
        "by_name(unpassed=) (mod.py)",
    ]


def test_check_counts_only_the_keys_a_spread_carries(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def target(a, display=1, built=2, local=3, defaulted=4,\n"
        "           forwarded=5, unpassed=6):\n"
        "    return a\n"
        "\n\n"
        "def relay(a, **kwargs):\n"
        "    kwargs.setdefault('defaulted', 0)\n"
        "    return target(a, **kwargs)\n"
        "\n\n"
        "def loose(a, first=1, second=2):\n"
        "    return a\n")
    caller = tmp_path / "caller"
    caller.mkdir()
    (caller / "run.py").write_text(
        "from pkg.mod import loose, relay, target\n"
        "\n\n"
        "def drive(extra):\n"
        "    target(0, **{'display': 1})\n"
        "    target(0, **dict(built=2))\n"
        "    options = {}\n"
        "    options['local'] = 3\n"
        "    target(0, **options)\n"
        "    relay(0, forwarded=5)\n"
        "    changed = {'first': 1}\n"
        "    changed.update(extra)\n"
        "    loose(0, **changed)\n")
    # ``changed`` is changed by other means, so it may carry any key.
    assert unpassed(package, [package, caller], {}) == [
        "target(unpassed=) (mod.py)",
    ]
