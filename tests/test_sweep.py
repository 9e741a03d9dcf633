"""Sweep manifests: expansion order, execution, summary format."""

import multiprocessing
import os
import pathlib
import pickle
import struct
from functools import partial

import numpy as np
import pytest
from conftest import cpus, within

import rrgas.driver
import rrgas.sweep
from rrgas.cli import EXIT_CONFIG, EXIT_IO, main
from rrgas.config import PHYS_FLOAT_KEYS, init_state, load_config
from rrgas.driver import run_simulation
from rrgas.mesh import ConfigurationError
from rrgas.sweep import expand, load_manifest, run_one, run_sweep

CONFIGS_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

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


@pytest.mark.parametrize(
    "path",
    sorted(p for p in CONFIGS_DIR.glob("*.ini") if "[sweep]" not in p.read_text()),
    ids=lambda p: p.stem,
)
def test_plain_config_loads_as_single_run_manifest(path):
    assert load_manifest(path) == (load_config(path), [])  # dataclass equality


@pytest.mark.parametrize("text,match", [
    ("[sweep]\nbeta = 1.0\n[run\n", "config parse error"),
    ("[sweep]\nbeta = 1.0\n\n[outputs]\nevery = 2\n", "outputs"),
], ids=["syntax", "unknown-section"])
def test_manifest_rejects_what_a_config_rejects(tmp_path, text, match):
    path = tmp_path / "manifest.ini"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=match):
        load_manifest(path)


def bits(x):
    return struct.pack("<d", x)


def assert_summary_is_last_record(row, direct):
    last = direct.records[-1]
    for name in ("width", "min_v", "min_theta", "min_z", "max_z"):
        assert bits(getattr(row, name)) == bits(getattr(last, name)), name
    assert bits(row.final_t) == bits(last.t)


def test_run_one_matches_direct_simulation(tmp_path, reject_every_step):
    # bitwise: the same deterministic path, and the summary of the final
    # state equals the last record, for a completed and a failed member
    base, items = load_manifest(write_manifest(tmp_path, ""))
    [row] = run_one([(0, {}, base)], init_state(base))
    direct = run_simulation(base)
    assert row.classification == "quiescent"
    assert row.final_t == base.t_end
    assert row.error == ""
    assert_summary_is_last_record(row, direct)

    reject_every_step()
    [row] = run_one([(0, {}, base)], init_state(base))
    direct = run_simulation(base)
    assert row.classification == "failed"
    assert row.final_t == 0.0
    assert row.error == direct.error
    assert_summary_is_last_record(row, direct)


def test_run_one_builds_no_per_step_record(tmp_path, monkeypatch):
    calls = []  # one entry per row built, summed over blocks
    real_record = rrgas.driver.record

    def counting_record(*args, **kwargs):
        rows = real_record(*args, **kwargs)
        calls.extend(None for _ in rows)
        return rows

    monkeypatch.setattr(rrgas.driver, "record", counting_record)
    base, _ = load_manifest(write_manifest(tmp_path, ""))
    direct = run_simulation(base)
    assert len(calls) == direct.n_steps + 1  # the counter sees the driver's rows
    calls.clear()
    [row] = run_one([(0, {}, base)], init_state(base))
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
    assert len(calls) == 1  # no [sweep] key reaches the initial state


def test_sweep_cli_rejects_initial_data_at_its_floor(tmp_path, capsys):
    # As `rrgas run` does: exit 1 with no summary, not two failed rows.
    path = write_manifest(tmp_path, "[sweep]\nbeta = 1.0, 12.0\n\n")
    path.write_text(path.read_text().replace("t_end = 0.02", "t_end = 0.02\nv_floor = 0.5")
                    + "v = constant value=0.4\n")
    out = tmp_path / "out"
    assert main(["sweep", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "error: v must be > 0.5; violated at cell 0" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_expand_names_the_member_out_of_range(tmp_path):
    path = write_manifest(tmp_path, "[sweep]\nkappa1 = 0.5, 2.0\n\n")
    base, items = load_manifest(path)
    with pytest.raises(ConfigurationError) as info:
        expand(base, items)
    message = str(info.value)
    assert message.startswith("sweep member 1 (kappa1=2.0): ")
    assert "kappa1 <= kappa2" in message


def test_expand_names_the_member_with_a_nonfinite_value(tmp_path):
    base, items = load_manifest(write_manifest(tmp_path, "[sweep]\nbeta = 1.0, inf\n\n"))
    with pytest.raises(ConfigurationError) as info:
        expand(base, items)
    message = str(info.value)
    assert message.startswith("sweep member 1 (beta=inf): ")
    assert "beta must be finite, got inf" in message


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
    rows = run_one([(i, values, cfg) for i, (values, cfg) in enumerate(combos)], init_state(base))
    assert rows[0].rate_exponent_supported is True
    assert rows[1].rate_exponent_supported is False


def test_run_one_reports_failure_without_raising(tmp_path, reject_every_step):
    base, _ = load_manifest(write_manifest(tmp_path, ""))
    reject_every_step()
    [row] = run_one([(0, {}, base)], init_state(base))
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


class ProcessLog:
    """Items appended in the calling process or in a forked worker, read
    back in the calling process: its own first, then the workers', each
    in the order appended."""

    def __init__(self, directory):
        directory.mkdir()
        self.directory, self.caller = directory, os.getpid()

    def append(self, item):
        with open(self.directory / f"{os.getpid()}.pickle", "ab") as fh:
            pickle.dump(item, fh)

    def items(self):
        pids = sorted((int(path.stem) for path in self.directory.iterdir()),
                      key=lambda pid: (pid != self.caller, pid))
        out = []
        for pid in pids:
            with open(self.directory / f"{pid}.pickle", "rb") as fh:
                while fh.peek(1):
                    out.append(pickle.load(fh))
        return out


@pytest.mark.parametrize(
    "sweep_block, jobs, n_chunks",
    [
        ("[sweep]\np_ext = -0.1, 0.5\n\n", 500, 2),  # capped at the run count
        ("[sweep]\np_ext = -0.1, 0.0, 0.5\nbeta = 1.0, 12.0\n\n", 2, 2),
        ("[sweep]\np_ext = -0.1, 0.0, 0.5\nbeta = 1.0, 12.0\n\n", 3, 3),
        ("", 4, 1),  # a single run never forks
    ],
    ids=["capped", "jobs2", "jobs3", "single-run"],
)
def test_run_sweep_pool_size(tmp_path, monkeypatch, forks, sweep_block, jobs, n_chunks):
    # The first chunk runs in this process, each other one in a worker.
    cpus(monkeypatch, 2)
    path = write_manifest(tmp_path, sweep_block)
    out = tmp_path / "out"
    out.mkdir()
    with within(60):
        rows, _ = run_sweep(path, out, jobs=jobs)
    assert len(forks) == n_chunks - 1
    assert all(worker.exitcode is not None for worker in forks)  # joined
    assert [row.index for row in rows] == list(range(len(rows)))


@pytest.mark.parametrize("jobs, chunk_sizes", [(1, [6]), (2, [3, 3])], ids=["jobs1", "jobs2"])
def test_run_sweep_reaches_run_one_through_the_module_once_per_chunk(
        tmp_path, monkeypatch, forks, jobs, chunk_sizes):
    # perfbench probes sweep members by wrapping the module attribute
    # rrgas.sweep.run_one; its samples are the only ones of a sweep.
    # The worker is forked, so it runs the wrapper too.
    cpus(monkeypatch, 2)
    calls = ProcessLog(tmp_path / "calls")
    real_run_one = rrgas.sweep.run_one

    def counting_run_one(chunk, first):
        calls.append(len(chunk))
        return real_run_one(chunk, first)

    monkeypatch.setattr(rrgas.sweep, "run_one", counting_run_one)
    path = write_manifest(tmp_path, "[sweep]\np_ext = -0.1, 0.0, 0.5\nbeta = 1.0, 12.0\n\n")
    with within(60):
        rows, _ = run_sweep(path, tmp_path, jobs=jobs)
    assert calls.items() == chunk_sizes
    assert len(forks) == len(chunk_sizes) - 1
    assert [row.index for row in rows] == list(range(6))


def run_one_dying_outside(caller, chunk, first):
    """run_one in the process caller; elsewhere the process exits at once
    with code 7, reporting nothing.  Module-level, so it pickles."""
    if os.getpid() != caller:
        os._exit(7)
    return run_one(chunk, first)


def test_a_sweep_worker_that_dies_without_reporting_is_an_io_error(tmp_path, monkeypatch,
                                                                   capsys, forks):
    cpus(monkeypatch, 2)
    monkeypatch.setattr(rrgas.sweep, "run_one", partial(run_one_dying_outside, os.getpid()))
    path = write_manifest(tmp_path, "[sweep]\np_ext = -0.1, 0.5\n\n")
    out = tmp_path / "out"
    with within(60):
        code = main(["sweep", str(path), "--out", str(out), "--jobs", "2"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err == "io error: sweep worker exited with code 7 before reporting\n"
    assert "Traceback" not in err
    assert not (out / "summary.csv").exists()
    assert [worker.exitcode for worker in forks] == [7]
    assert multiprocessing.active_children() == []


# Two valid values of every constant a manifest can sweep.
SWEPT_VALUES = {
    "mu": "0.1, 0.3", "d_diff": "0.1, 0.02", "lambda_heat": "1.0, 3.0", "cv": "1.0, 0.6",
    "r_gas": "1.0, 1.8", "a_rad": "0.5, 0.1", "g_grav": "0.1, 0.0", "p_ext": "0.5, -0.1",
    "k_rate": "5.0, 0.0", "a_act": "4.0, 1.5", "m_order": "1.0, 2.5", "beta": "1.0, 12.0",
    "q_cond": "2.0, 0.0", "kappa1": "0.5, 0.2", "kappa2": "0.5, 1.5",
}


def test_every_sweepable_constant_has_swept_values():
    assert sorted(SWEPT_VALUES) == sorted(PHYS_FLOAT_KEYS)


def run_state_bits(state):
    return (b"".join(getattr(state, name).tobytes() for name in ("v", "u", "theta", "z")),
            bits(state.t), bits(state.a_pos))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", list(SWEPT_VALUES) + ["failing", "budget"])
def test_sweep_members_match_their_serial_runs(tmp_path, monkeypatch, forks, case, jobs):
    # Each member's final state, completed, error and n_steps are bitwise
    # its serial run's.  The swept key varies fastest, so it differs
    # inside each chunk at both job counts.  "failing": at v_floor = 0.99
    # the p_ext = 2.0 members are rejected, recover at half the dt, and
    # run out of retries after a few steps, while the others complete.
    # "budget": the p_ext = 20.0 members need 7 steps and the others 4,
    # so at MAX_STEPS = 5 two members meet the budget inside the batch
    # at --jobs 1, and at --jobs 2 each meets it alone, after the
    # member of its chunk has left at t_end.
    cross, key, values = "g_grav", case, SWEPT_VALUES.get(case)
    if case == "g_grav":
        cross = "p_ext"
    elif case == "failing":
        key, values = "p_ext", "0.5, 2.0"
    elif case == "budget":
        key, values = "p_ext", "0.5, 20.0"
        monkeypatch.setattr(rrgas.driver, "MAX_STEPS", 5)
    path = write_manifest(tmp_path, f"[sweep]\n{cross} = 0.1, 0.2\n{key} = {values}\n\n")
    if case == "failing":
        path.write_text(path.read_text().replace("t_end = 0.02", "t_end = 0.02\nv_floor = 0.99"))
    log = ProcessLog(tmp_path / "batches")
    real_run_batch = rrgas.sweep.run_batch

    def recording_run_batch(configs, state):
        results = real_run_batch(configs, state)
        for pair in zip(configs, results):
            log.append(pair)
        return results

    monkeypatch.setattr(rrgas.sweep, "run_batch", recording_run_batch)
    cpus(monkeypatch, 2)
    with within(60):
        rows, _ = run_sweep(path, tmp_path, jobs=jobs)
    batches = log.items()
    assert len(forks) == jobs - 1
    assert len(batches) == len(rows) == 4
    base, _ = load_manifest(path)
    for config, result in batches:
        serial = run_simulation(config, state=init_state(base))
        assert run_state_bits(result.state) == run_state_bits(serial.state)
        assert (result.completed, result.error, result.n_steps) == (
            serial.completed, serial.error, serial.n_steps)
    completed = [result.completed for _, result in batches]
    if case == "failing":
        assert completed == [True, False] * 2
        assert all("rejected 10 times" in result.error for _, result in batches[1::2])
    elif case == "budget":
        assert completed == [True, False] * 2
        assert {result.error for _, result in batches[1::2]} == {"step budget exhausted"}


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
    [row] = run_one([(0, {}, base)], init_state(base))
    assert row.classification == "burned"
    assert row.min_z < 0.5
