"""Every bench front door README.md quotes (``python -m repro.bench.X``,
and each subcommand of the two harnesses, ``python -m
repro.bench.robust <rig>`` and ``python -m repro.bench.observe
<scenario>``) imports and answers ``--help`` with exit status 0 — a
wiring check for the argument parsers, not a run of the rigs behind
them — and every bench module with a ``main`` runs under ``python -m``
without runpy's "found in sys.modules" warning (the package
``__init__`` must not import it first)."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCH = ROOT / "src" / "repro" / "bench"
README_TEXT = README.read_text(encoding="utf-8")
FRONT_DOORS = sorted(set(re.findall(
    r"python -m (repro\.bench\.\w+)", README_TEXT)))
#: ``(harness, subcommand)``: the robustness rigs and the observability
#: scenarios.  A subcommand's help check is named for it,
#: ``repro.bench.<subcommand>``.
SUBCOMMANDS = sorted(set(re.findall(
    r"python -m (repro\.bench\.(?:robust|observe)) (\w+)", README_TEXT)))
HELP_CALLS = [
    pytest.param(module, ["--help"], id=module) for module in FRONT_DOORS
] + [
    pytest.param(module, [sub, "--help"], id=f"repro.bench.{sub}")
    for module, sub in SUBCOMMANDS
]
WITH_MAIN = sorted(
    f"repro.bench.{path.stem}" for path in BENCH.glob("*.py")
    if any(isinstance(node, ast.FunctionDef) and node.name == "main"
           for node in ast.parse(path.read_text(encoding="utf-8")).body))


def test_readme_quotes_the_front_doors():
    assert [name.rpartition(".")[2] for name in FRONT_DOORS] == [
        "fig3", "observe", "robust"]
    assert [(module.rpartition(".")[2], sub)
            for module, sub in SUBCOMMANDS] == [
        ("observe", "health"), ("observe", "streams"), ("observe", "tail"),
        ("robust", "chaos"), ("robust", "crash"), ("robust", "siege")]


@pytest.mark.parametrize("module, argv", HELP_CALLS)
def test_help_exits_zero(module, argv, capsys):
    main = importlib.import_module(module).main
    try:
        status = main(argv)
    except SystemExit as done:
        status = done.code
    assert status == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("module", WITH_MAIN)
def test_runs_as_main_without_runpy_warning(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
