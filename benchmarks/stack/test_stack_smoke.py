"""Self-test of the stack benchmark (outside tier-1 ``testpaths``):

    python -m pytest benchmarks/stack -q

Drives ``run.py --smoke --trace`` (every workload at 1/20 horizon, one
repeat, plus the traced pass) once and checks what it printed against
``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
ROW = re.compile(r"^  (?!check |ops )(\S+)\s+(-?[\d,]+(?:\.\d+)?)\s+(\S+)")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    record = tmp_path_factory.mktemp("stack") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--json", str(record)],
        capture_output=True, text=True, timeout=600, cwd=str(ROOT))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    sections = {}
    current = None
    for line in done.stdout.splitlines():
        header = re.match(r"^== workload: (\S+) ", line)
        if header:
            current = sections.setdefault(header.group(1), [])
        elif line.startswith("== "):
            current = None
        elif current is not None:
            row = ROW.match(line)
            if row:
                current.append(row.groups())
    return sections, json.loads(record.read_text(encoding="utf-8"))


def test_declared_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_every_metric_printed_once_with_its_unit(smoke):
    sections, __ = smoke
    declared = {m["name"]: m["unit"]
                for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    assert sorted(sections) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, rows in sections.items():
        printed = [name for name, __, ___ in rows]
        assert sorted(printed) == sorted(declared), workload
        for name, __, unit in rows:
            assert unit == declared[name], (workload, name)


def test_bypassed_layers_read_zero(smoke):
    __, record = smoke
    layers = {name: result["per_layer"]
              for name, result in record["workloads"].items()}
    faster = layers["tpcb_faster"]
    assert faster["core.manager.host_self_share"] == 0
    assert faster["core.host_writes"] == 0
    assert faster["ftl.faster.host_self_share"] > 0
    for name, value in layers["replay_gc_noftl"].items():
        if name.startswith("db."):
            assert value == 0, name
    assert layers["replay_gc_noftl"]["sim.events"] == 0
    for name, value in layers["tpcb_noftl"].items():
        if name.startswith("device.frontend."):
            assert value == 0, name
    assert layers["dev_mixed_frontend"]["device.frontend.host_self_share"] > 0


def test_results_are_sane(smoke):
    __, record = smoke
    for workload, result in record["workloads"].items():
        assert result["correct"], (workload, result["checks"])
        assert 0.0 <= result["per_layer"]["failed_op_share"] <= 1.0
        for name, entry in result["end_to_end"].items():
            # At 1/20 horizon the roomier devices never start to collect.
            if name != "sim_erases_per_kwrite":
                assert entry["value"] > 0, (workload, name)
        shares = sum(
            value for name, value in result["per_layer"].items()
            if name.endswith(".host_self_share") and name.count(".") == 1)
        assert abs(shares - 1.0) <= 0.01, workload
    assert set(record["paper"]) == {
        "paper.tps_ratio_noftl_over_faster",
        "paper.wa_ratio_faster_over_noftl",
        "paper.erase_ratio_faster_over_noftl",
    }
