"""Sweep manifests: expansion order, execution, summary format."""

import struct

import numpy as np
import pytest

import rrgas.driver
import rrgas.sweep
from rrgas.cli import EXIT_CONFIG, main
from rrgas.driver import run_simulation
from rrgas.mesh import ConfigurationError
from rrgas.sweep import expand, load_manifest, run_one, run_sweep

BASE = """\
[run]
n_cells = 16
t_end = 0.02

[physics]
a_rad = 0.5
p_ext = 0.5
k_rate = 5.0
a_act = 4.0
beta = 1.0
q_cond = 2.0
kappa1 = 0.5
kappa2 = 0.5
g_grav = 0.1

[initial]
theta = gaussian-bump base=1.0 amplitude=0.5 center=0.5 width=0.1
z = constant value=1.0
"""


def write_manifest(tmp_path, sweep_block):
    path = tmp_path / "manifest.ini"
    path.write_text(sweep_block + BASE)
    return path


def test_manifest_without_sweep_section_is_single_run(tmp_path):
    base, items = load_manifest(write_manifest(tmp_path, ""))
    assert items == []
    combos = expand(base, items)
    assert len(combos) == 1
    assert combos[0][0] == {}


def test_expand_product_in_manifest_order(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\np_ext = 0.1, 0.2\nbeta = 1.0, 2.0, 3.0\n\n")
    base, items = load_manifest(path)
    assert [k for k, _ in items] == ["p_ext", "beta"]
    combos = expand(base, items)
    assert len(combos) == 6
    # first key varies slowest
    assert [c[0]["p_ext"] for c in combos] == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
    assert [c[0]["beta"] for c in combos] == [1.0, 2.0, 3.0] * 2
    assert combos[3][1].params.p_ext == 0.2
    assert combos[3][1].params.beta == 1.0


def test_manifest_rejects_unknown_sweep_key(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\nn_cells = 8, 16\n\n")
    with pytest.raises(ConfigurationError, match="cannot sweep"):
        load_manifest(path)


def test_manifest_rejects_non_numeric_values(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\np_ext = 0.1, fast\n\n")
    with pytest.raises(ConfigurationError, match="comma-separated"):
        load_manifest(path)


def bits(x):
    return struct.pack("<d", x)


def assert_summary_is_last_record(row, direct):
    last = direct.records[-1]
    for name in ("width", "min_v", "min_theta", "min_z", "max_z"):
        assert bits(getattr(row, name)) == bits(getattr(last, name)), name
    assert bits(row.final_t) == bits(last.t)


def test_run_one_matches_direct_simulation(tmp_path):
    # bitwise: the same deterministic path, and the summary of the final
    # state equals the last record, for a completed and a failed member
    base, items = load_manifest(write_manifest(tmp_path, ""))
    row = run_one(0, {}, base)
    direct = run_simulation(base)
    assert row.classification == "quiescent"
    assert row.final_t == base.t_end
    assert row.error == ""
    assert_summary_is_last_record(row, direct)

    base.v_floor = 2.0  # forces rejection of every step
    row = run_one(0, {}, base)
    direct = run_simulation(base)
    assert row.classification == "failed"
    assert row.final_t == 0.0
    assert row.error == direct.error
    assert_summary_is_last_record(row, direct)


def test_run_one_builds_no_per_step_record(tmp_path, monkeypatch):
    calls = []
    real_record = rrgas.driver.record

    def counting_record(*args, **kwargs):
        calls.append(None)
        return real_record(*args, **kwargs)

    monkeypatch.setattr(rrgas.driver, "record", counting_record)
    base, _ = load_manifest(write_manifest(tmp_path, ""))
    direct = run_simulation(base)
    assert len(calls) == direct.n_steps + 1  # the counter sees the driver's records
    calls.clear()
    row = run_one(0, {}, base)
    assert row.classification == "quiescent"
    assert calls == []


def test_run_sweep_builds_each_initial_state_once(tmp_path, monkeypatch):
    calls = []
    real_init_state = rrgas.sweep.init_state

    def counting_init_state(config):
        calls.append(None)
        return real_init_state(config)

    for module in (rrgas.sweep, rrgas.driver):
        monkeypatch.setattr(module, "init_state", counting_init_state)
    rows, _ = run_sweep(write_manifest(tmp_path, "[sweep]\nbeta = 1.0, 12.0\n\n"), tmp_path)
    assert len(rows) == 2
    assert len(calls) == 2


def test_expand_names_the_member_out_of_range(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\nkappa1 = 0.5, 2.0\n\n")
    base, items = load_manifest(path)
    with pytest.raises(ConfigurationError) as info:
        expand(base, items)
    message = str(info.value)
    assert message.startswith("sweep member 1 (kappa1=2.0): ")
    assert "kappa1 <= kappa2" in message


def test_sweep_cli_rejects_member_out_of_range(tmp_path, capsys):
    path = write_manifest(tmp_path, "[sweep]\np_ext = 0.5, 1.0\nkappa1 = 0.5, 2.0\n\n")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "sweep member 1 (p_ext=0.5, kappa1=2.0)" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_run_one_flags_unsupported_exponent(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\nbeta = 1.0, 12.0\n\n")
    base, items = load_manifest(path)
    combos = expand(base, items)
    rows = [run_one(i, values, cfg) for i, (values, cfg) in enumerate(combos)]
    assert rows[0].rate_exponent_supported is True
    assert rows[1].rate_exponent_supported is False


def test_run_one_reports_failure_without_raising(tmp_path):
    base, _ = load_manifest(write_manifest(tmp_path, ""))
    base.v_floor = 2.0  # forces rejection of every step
    row = run_one(0, {}, base)
    assert row.classification == "failed"
    assert "rejected" in row.error


def test_run_sweep_summary_layout(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\np_ext = -0.1, 0.5\n\n")
    out = tmp_path / "out"
    out.mkdir()
    rows, summary = run_sweep(path, out, jobs=1)
    assert len(rows) == 2
    lines = summary.read_text().splitlines()
    assert lines[0].startswith("index,p_ext,rate_exponent_supported,classification,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


def test_run_sweep_parallel_output_identical(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\np_ext = -0.1, 0.5\nbeta = 1.0, 2.0\n\n")
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    out1.mkdir()
    out2.mkdir()
    run_sweep(path, out1, jobs=1)
    run_sweep(path, out2, jobs=2)
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "sweep_block, jobs, expected_sizes",
    [
        ("[sweep]\np_ext = -0.1, 0.5\n\n", 500, [2]),  # capped at the run count
        ("[sweep]\np_ext = -0.1, 0.0, 0.5\nbeta = 1.0, 12.0\n\n", 2, [2]),
        ("", 4, []),  # a single run never starts a pool
    ],
    ids=["capped", "jobs2", "single-run"],
)
def test_run_sweep_pool_size(tmp_path, monkeypatch, sweep_block, jobs, expected_sizes):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(rrgas.sweep, "ProcessPoolExecutor", RecordingPool)
    path = write_manifest(tmp_path, sweep_block)
    out = tmp_path / "out"
    out.mkdir()
    rows, _ = run_sweep(path, out, jobs=jobs)
    assert RecordingPool.sizes == expected_sizes
    assert [row.index for row in rows] == list(range(len(rows)))


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_sweep_rejects_jobs_below_one(tmp_path, jobs):
    path = write_manifest(tmp_path, "[sweep]\np_ext = -0.1, 0.5\n\n")
    with pytest.raises(ConfigurationError, match="jobs must be at least 1"):
        run_sweep(path, tmp_path, jobs=jobs)
    assert not (tmp_path / "summary.csv").exists()


def test_burned_classification(tmp_path):
    # A hot fast-burning setup: most of the reactant is consumed, the
    # halving threshold classifies it as burned.
    text = BASE.replace("k_rate = 5.0", "k_rate = 60.0").replace(
        "a_act = 4.0", "a_act = 1.0"
    ).replace("t_end = 0.02", "t_end = 0.3")
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    base, _ = load_manifest(path)
    row = run_one(0, {}, base)
    assert row.classification == "burned"
    assert row.min_z < 0.5
