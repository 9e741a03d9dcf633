"""Command-line interface: subcommands, exit codes, emitted files."""

import json
import multiprocessing
import os

import numpy as np
import pytest

import rrgas.cli
import rrgas.driver
import rrgas.output
import rrgas.solver
from rrgas.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIMULATION, main
from rrgas.config import load_config
from rrgas.output import _OFFLOAD_ROWS, read_diagnostics, read_snapshot, run_id

REST_INI = """\
[run]
n_cells = 16
t_end = 0.05

[physics]
a_rad = 3.0
p_ext = 2.0
kappa1 = 0.5
kappa2 = 0.5
q_cond = 2.0
k_rate = 0.0
"""


@pytest.fixture
def rest_ini(tmp_path):
    path = tmp_path / "rest.ini"
    path.write_text(REST_INI)
    return path


# ----------------------------------------------------------------- run

def test_run_writes_outputs(rest_ini, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(rest_ini), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "config.ini").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "snapshot_000000.csv").exists()
    assert not (out / "failure.json").exists()
    assert "steps to t=0.05" in capsys.readouterr().out

    records = read_diagnostics(out / "diagnostics.csv")
    assert records[0].t == 0.0
    assert records[-1].t == 0.05
    # final snapshot is always written
    final = out / f"snapshot_{len(records) - 1:06d}.csv"
    assert final.exists()
    state, meta = read_snapshot(final)
    np.testing.assert_array_equal(state.theta, 1.0)
    assert float(meta["t"]) == 0.05


def test_run_rest_state_rows_are_static(rest_ini, tmp_path):
    out = tmp_path / "out"
    main(["run", str(rest_ini), "--out", str(out)])
    records = read_diagnostics(out / "diagnostics.csv")
    first = records[0]
    for rec in records[1:]:
        # everything but the clock is frozen at the fixed point
        assert rec.e_total == first.e_total
        assert rec.u_entropy == first.u_entropy
        assert rec.width == first.width
        assert rec.momentum == first.momentum


def test_run_is_deterministic(rest_ini, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", str(rest_ini), "--out", str(out1)])
    main(["run", str(rest_ini), "--out", str(out2)])
    assert (out1 / "diagnostics.csv").read_bytes() == (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "snapshot_000000.csv").read_bytes() == (out2 / "snapshot_000000.csv").read_bytes()


def test_run_reports_simulation_failure(tmp_path, capsys):
    ini = tmp_path / "stuck.ini"
    ini.write_text(REST_INI.replace("t_end = 0.05", "t_end = 0.05\nv_floor = 2.0"))
    out = tmp_path / "out"
    code = main(["run", str(ini), "--out", str(out)])
    assert code == EXIT_SIMULATION
    assert "simulation failed" in capsys.readouterr().err
    payload = json.loads((out / "failure.json").read_text())
    assert payload["status"] == "failed"
    assert payload["t_last"] == 0.0
    # diagnostics for the partial trajectory still exist
    assert (out / "diagnostics.csv").exists()


def test_run_reports_invariant_violation(rest_ini, tmp_path, capsys, monkeypatch):
    # Fault injection: the species update breaks its maximum principle
    # on the third step.  The run must end like any failed run: exit 2,
    # diagnostics for the steps taken, and a failure manifest.
    real_species_step = rrgas.solver.species_step
    calls = []

    def faulty_species_step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise rrgas.solver.InvariantViolation("species exceeded its initial maximum")
        return real_species_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "species_step", faulty_species_step)
    out = tmp_path / "out"
    code = main(["run", str(rest_ini), "--out", str(out)])
    assert code == EXIT_SIMULATION
    assert "scheme invariant violated" in capsys.readouterr().err

    records = read_diagnostics(out / "diagnostics.csv")
    assert len(records) == 3  # the initial row and two accepted steps
    payload = json.loads((out / "failure.json").read_text())
    assert payload["status"] == "failed"
    assert payload["run_id"] == run_id(load_config(rest_ini))
    assert payload["t_last"] == records[-1].t
    assert "species exceeded its initial maximum" in payload["error"]
    assert "scheme invariant violated" in payload["error"]
    # the last valid state is also written as the final snapshot
    state, _ = read_snapshot(out / "snapshot_000002.csv")
    assert state.t == records[-1].t


def test_run_rejects_invalid_config(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[physics]\nkappa1 = 2.0\nkappa2 = 1.0\n")
    out = tmp_path / "out"
    code = main(["run", str(ini), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "kappa" in capsys.readouterr().err
    assert not out.exists()  # rejected before any file was created


@pytest.mark.parametrize("section,key", [
    ("run", "t_end"), ("run", "newton_tol"), ("physics", "mu"), ("physics", "k_rate"),
    ("physics", "d_diff"),
])
def test_run_rejects_nonfinite_constant(section, key, tmp_path, capsys):
    ini = tmp_path / "inf.ini"
    ini.write_text(f"[{section}]\n{key} = inf\n")
    out = tmp_path / "out"
    code = main(["run", str(ini), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"{key} must be finite, got inf" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("field,value,where", [
    ("z", "nan", "cell 0"), ("u", "inf", "edge 0"), ("v", "inf", "cell 0"),
])
def test_nonfinite_initial_field_is_config_error(command, field, value, where, tmp_path, capsys):
    ini = tmp_path / "nonfinite.ini"
    ini.write_text(REST_INI + f"\n[initial]\n{field} = constant value={value}\n")
    args = [command, str(ini)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert (f"[initial] {field}: parameter 'value' of profile 'constant' must be finite, "
            f"got {value}") in err
    # rejected at the parameter, before any cell or edge of the field is built
    assert where not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("field,profile,message", [
    ("u", "sine amplitude=inf", "parameter 'amplitude' of profile 'sine' must be finite, got inf"),
    ("theta", "gaussian-bump base=1.0 center=nan",
     "parameter 'center' of profile 'gaussian-bump' must be finite, got nan"),
    ("theta", "tanh-layer base=1.0 amplitude=0.5 width=0",
     "parameter 'width' of profile 'tanh-layer' must be > 0, got 0.0"),
    ("v", "gaussian-bump base=1.0 amplitude=0.1 width=-0.1",
     "parameter 'width' of profile 'gaussian-bump' must be > 0, got -0.1"),
], ids=["amplitude-inf", "center-nan", "width-zero", "width-negative"])
def test_bad_profile_parameter_is_config_error(command, field, profile, message, tmp_path,
                                               capsys):
    ini = tmp_path / "profile.ini"
    ini.write_text(REST_INI + f"\n[initial]\n{field} = {profile}\n")
    out = tmp_path / "out"
    args = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
    assert main(args) == EXIT_CONFIG
    assert f"[initial] {field}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_file_is_io_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


# ------------------------------------------------------ snapshot writer

LARGE = 4096  # cells: every snapshot goes to the helper process
assert LARGE > _OFFLOAD_ROWS


def reacting_ini(configs_dir, tmp_path, n_cells, t_end, extra=""):
    """configs/reacting.ini at another size and end time, plus `extra` [run] keys."""
    text = (configs_dir / "reacting.ini").read_text()
    text = text.replace("n_cells = 128", f"n_cells = {n_cells}")
    text = text.replace("t_end = 0.2", f"t_end = {t_end}{extra}")
    path = tmp_path / f"reacting_{n_cells}.ini"
    path.write_text(text)
    return path


@pytest.fixture
def forks(monkeypatch):
    """The processes started through the fork context during the test."""
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return started


def test_run_small_grid_starts_no_process(configs_dir, tmp_path, forks):
    ini = reacting_ini(configs_dir, tmp_path, 128, 0.05)
    assert main(["run", str(ini), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert forks == []


@pytest.mark.parametrize("outcome", ["completed", "failed"])
def test_run_large_grid_joins_its_writer(outcome, configs_dir, tmp_path, forks):
    # 4096 cells, about 15 steps: snapshots 0, 10 and the last one go to
    # one helper, which is joined, with every file complete, on return.
    extra = "\nv_floor = 2.0" if outcome == "failed" else ""
    ini = reacting_ini(configs_dir, tmp_path, LARGE, 0.0006, extra)
    out = tmp_path / "out"
    code = main(["run", str(ini), "--out", str(out)])
    assert code == (EXIT_OK if outcome == "completed" else EXIT_SIMULATION)
    assert len(forks) == 1
    assert multiprocessing.active_children() == []
    records = read_diagnostics(out / "diagnostics.csv")
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert len(snapshots) == (3 if outcome == "completed" else 1)
    for path in snapshots:
        state, _ = read_snapshot(path)
        assert state.grid.n_cells == LARGE
    assert state.t == records[-1].t
    assert (out / "failure.json").exists() == (outcome == "failed")


@pytest.mark.parametrize("n_cells", [128, LARGE])
def test_run_snapshot_path_taken_is_io_error(n_cells, configs_dir, tmp_path, forks, capsys):
    # Fault injection: a directory sits where snapshot 10 goes.  Inline
    # and in the helper process alike, the run ends with exit 3 and an
    # io error naming that file.
    ini = reacting_ini(configs_dir, tmp_path, n_cells, 0.05 if n_cells == 128 else 0.0006)
    out = tmp_path / "out"
    (out / "snapshot_000010.csv").mkdir(parents=True)
    code = main(["run", str(ini), "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "io error:" in err
    assert str(out / "snapshot_000010.csv") in err
    assert len(forks) == (n_cells > _OFFLOAD_ROWS)
    assert multiprocessing.active_children() == []


def test_run_writer_dying_unreported_is_io_error(configs_dir, tmp_path, monkeypatch, capsys):
    # Fault injection: the helper process dies on its first table
    # without sending a status.  That is an io error, not an EOFError.
    monkeypatch.setattr(rrgas.output, "_write_table", lambda *args: os._exit(1))
    ini = reacting_ini(configs_dir, tmp_path, LARGE, 0.0006)
    code = main(["run", str(ini), "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "io error:" in err
    assert "exited with code 1" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_run_builds_the_initial_state_once(rest_ini, tmp_path, monkeypatch):
    calls = []
    real_init_state = rrgas.cli.init_state

    def counting_init_state(config):
        calls.append(None)
        return real_init_state(config)

    for module in (rrgas.cli, rrgas.driver):
        monkeypatch.setattr(module, "init_state", counting_init_state)
    assert main(["run", str(rest_ini), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(calls) == 1


# ---------------------------------------------------------------- check

def test_check_passes_rest_state(rest_ini, capsys):
    code = main(["check", str(rest_ini)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_check_failing_run_exits_2(tmp_path, capsys):
    ini = tmp_path / "stuck.ini"
    ini.write_text(REST_INI.replace("t_end = 0.05", "t_end = 0.05\nv_floor = 2.0"))
    code = main(["check", str(ini)])
    out = capsys.readouterr().out
    assert code == EXIT_SIMULATION
    assert "FAIL  run completed" in out


# ---------------------------------------------------------------- sweep

def test_sweep_runs_shipped_example(configs_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", str(configs_dir / "sweep_example.ini"), "--out", str(out)])
    assert code == EXIT_OK
    assert "6 runs (0 failed)" in capsys.readouterr().out
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 7
    header = lines[0].split(",")
    assert header[:3] == ["index", "p_ext", "beta"]
    flags = [line.split(",")[3] for line in lines[1:]]
    assert flags == ["True", "False"] * 3  # beta=12 rows are flagged


def test_sweep_rejects_bad_manifest(tmp_path, capsys):
    ini = tmp_path / "manifest.ini"
    ini.write_text("[sweep]\nn_cells = 8, 16\n" + REST_INI)
    code = main(["sweep", str(ini), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "cannot sweep" in capsys.readouterr().err


def test_sweep_rejects_zero_jobs(configs_dir, tmp_path, capsys):
    code = main(["sweep", str(configs_dir / "sweep_example.ini"),
                 "--out", str(tmp_path / "out"), "--jobs", "0"])
    assert code == EXIT_CONFIG
    assert "jobs must be at least 1" in capsys.readouterr().err


# ------------------------------------------------------------------ mms

def test_mms_table_layout(mms_table):
    code, out = mms_table("trig")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "study,case,field,level,n_cells,n_steps,error_l2,error_linf,order"
    spatial = [ln for ln in lines[1:] if ln.startswith("spatial,")]
    temporal = [ln for ln in lines[1:] if ln.startswith("temporal,")]
    assert len(spatial) == 8  # 2 levels x 4 fields
    assert len(temporal) == 8
    # level-1 spatial rows carry an order estimate near 2
    for ln in spatial:
        parts = ln.split(",")
        if parts[3] == "1":
            assert 1.5 <= float(parts[8]) <= 2.5
    # with 2 temporal levels there is one difference, no order column yet
    assert all(ln.endswith(",") for ln in temporal)


def test_mms_unknown_case(capsys):
    code = main(["mms", "cubic"])
    assert code == EXIT_CONFIG
    assert "unknown case" in capsys.readouterr().err


def test_mms_needs_two_levels(capsys):
    code = main(["mms", "trig", "--levels", "1"])
    assert code == EXIT_CONFIG


# ------------------------------------------------------------ bad usage

def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == EXIT_CONFIG


def test_no_subcommand_exits_1():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == EXIT_CONFIG
