"""Self-test of the benchmark at reduced size.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
For every workload it runs the driver untraced and traced with ``--smoke``
and checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that the output check passes, and that the traced pass reconciles:
layer self times plus unattributed time account for the traced wall time
within 5% (on ``store_sweep``, for the parent's timeline, pool wait
included).  It also checks which layers each workload bypasses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Layers a workload must not touch during its timed pass.
BYPASSED = {
    "iss_platform": ("partition", "core", "batch", "trace", "memory", "reconfig"),
    "e1_flow": ("isa", "cache", "bus", "compress", "encoding", "platforms", "batch"),
    "store_sweep": ("isa", "cache", "bus", "compress", "encoding", "platforms"),
}


def drive(workload: str, trace: int) -> list:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return completed.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_checks_outputs(workload, trace):
    lines = drive(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in wanted}
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert any(line.split()[:2] == [entry["name"], entry["unit"]] for line in lines), entry
    assert any(line.split()[:2] == ["error_rate", "fraction"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reconciles(workload):
    lines = drive(workload, 1)
    ledger = json.loads(next(line for line in lines if line.startswith("# ledger "))[9:])
    wall = ledger["wall_s"]
    parent = ledger["parent"]
    accounted = parent["wait_s"] + parent["gauge_s"] + parent["unattributed_s"]
    if workload == "store_sweep":
        accounted += sum(parent["layer_self_s"].values())
    else:
        accounted += sum(ledger["layer_self_s"].values())
    assert abs(accounted / wall - 1) <= 0.05, ledger
    for layer in BYPASSED[workload]:
        assert ledger["layer_self_s"][layer] == 0.0, (layer, ledger["layer_self_s"])
