"""Lets ``python -m pytest benchmarks/stack -q`` run without
``PYTHONPATH=src``: the suite-wide fixture in ``benchmarks/conftest.py``
imports ``repro`` for every test below ``benchmarks/``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
