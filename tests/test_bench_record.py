"""scripts/bench_record.py's Tier-1 record, on a stand-in command."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tier1_records_each_run(bench_record, monkeypatch, tmp_path):
    # A command that prints a pytest-like summary and exits 1 on its
    # second run (a file it leaves in its --basetemp counts the runs).
    script = ("import sys, pathlib; base = pathlib.Path(sys.argv[-1]).parent; "
              "n = len(list(base.glob('ran*'))); (base / f'ran{n}').touch(); "
              "print('noise'); print(f'{n + 1} passed in 0.01s'); sys.exit(n == 1)")
    monkeypatch.setattr(bench_record, "TIER1", ["-c", script])
    monkeypatch.setattr(bench_record, "TIER1_REPEATS", 3)
    record = bench_record.tier1(tmp_path)
    assert record["command"] == ["python3", "-c", script]
    assert record["repeats"] == 3
    assert record["returncodes"] == [0, 1, 0]
    assert record["summaries"] == ["1 passed in 0.01s", "2 passed in 0.01s", "3 passed in 0.01s"]
    assert len(record["wall_s_samples"]) == 3
    assert record["wall_s"] == sorted(record["wall_s_samples"])[1]
    assert record["cpu_s"] >= 0.0
