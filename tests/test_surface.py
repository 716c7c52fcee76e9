"""Dead-surface check: every public function, class and method under
``src/repro`` must be referenced by the program itself — the library,
``benchmarks/`` or ``examples/`` — not only by its tests.

A *reference* is any ``ast.Name`` id, ``ast.Attribute`` attr, import
alias, or identifier-shaped string constant (which covers ``getattr``
and registry names) in those trees.  Package ``__init__`` re-exports and
``__all__`` lists do not count; uses inside the defining module do.  The
match is by bare name, so it can only miss dead code, never flag live
code that is reached by its name.  Dunders and ``main`` are exempt;
every other exemption is an entry of :data:`ALLOWLIST` with its reason,
and an entry that stops being needed fails the check too.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path
from typing import Dict, Iterable, List, Set

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
}


def _python_files(root: Path) -> Iterable[Path]:
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


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


def test_no_unreferenced_public_surface():
    started = time.perf_counter()
    dead = unreferenced(SOURCE, CALLERS, ALLOWLIST)
    elapsed = time.perf_counter() - started
    assert not dead, (
        "public names only tests (or nothing) reference — delete them, "
        "give them a caller, or allowlist them with a reason:\n  "
        + "\n  ".join(dead))
    assert elapsed < 2.0, f"surface check took {elapsed:.2f} s"


def test_allowlist_entries_are_live_and_explained():
    defined = definitions(SOURCE)
    used = references(CALLERS)
    for qualname, reason in ALLOWLIST.items():
        assert reason.strip(), f"{qualname}: allowlist entry has no reason"
        assert qualname in defined, f"{qualname}: no longer defined"
        assert qualname.rpartition(".")[2] not in used, (
            f"{qualname}: now referenced; drop it from the allowlist")


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
