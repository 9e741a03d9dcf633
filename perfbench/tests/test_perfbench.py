"""Self-test: every workload at a tiny size, untraced and traced.

    python3 -m pytest perfbench/tests -q

Runs perfbench/run.py from the source root, as the benchmark is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    record, result = bench(workload, trace)
    assert result["correct"], record["checks"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if trace:
        shares = sum(v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share"))
        assert shares == pytest.approx(1.0, abs=0.01)
        assert result["metrics"]["solver.rejections_per_step"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_mms_never_reaches_cfl_record_or_output():
    record, result = bench("mms-trig", 1)
    calls = record["samples"]["calls"]
    assert calls.get("solver.step", 0) > 0
    assert calls.get("solver.cfl_dt", 0) == 0
    assert calls.get("diagnostics.record", 0) == 0
    assert not [name for name in calls if name.startswith("output.")]
    metrics = result["metrics"]
    for name in ("solver.cfl_dt.us_per_step", "diagnostics.record.us_per_step",
                 "output.snapshot_calls", "output.share_of_wall"):
        assert metrics[name]["value"] == 0, name
