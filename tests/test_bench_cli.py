"""Every bench front door README.md quotes (``python -m repro.bench.X``)
imports and answers ``--help`` with exit status 0 — a wiring check for
the argument parsers, not a run of the rigs behind them."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
FRONT_DOORS = sorted(set(re.findall(
    r"python -m (repro\.bench\.\w+)", README.read_text(encoding="utf-8"))))


def test_readme_quotes_the_front_doors():
    assert [name.rpartition(".")[2] for name in FRONT_DOORS] == [
        "chaos", "crash", "health", "observe", "siege", "streams", "sweep"]


@pytest.mark.parametrize("module", FRONT_DOORS)
def test_help_exits_zero(module, capsys):
    main = importlib.import_module(module).main
    try:
        status = main(["--help"])
    except SystemExit as done:
        status = done.code
    assert status == 0
    assert "usage:" in capsys.readouterr().out
