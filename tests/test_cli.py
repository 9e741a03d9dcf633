"""Command-line interface: subcommands, exit codes, emitted files."""

import json
import multiprocessing
import os

import numpy as np
import pytest
from conftest import cpus

import rrgas.cli
import rrgas.driver
import rrgas.mesh
import rrgas.output
import rrgas.solver
import rrgas.sweep
from rrgas.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIMULATION, main
from rrgas.config import load_config
from rrgas.driver import run_simulation
from rrgas.output import read_diagnostics, read_snapshot, run_id, write_diagnostics

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


def test_run_reports_simulation_failure(rest_ini, tmp_path, capsys, reject_every_step):
    reject_every_step()
    out = tmp_path / "out"
    code = main(["run", str(rest_ini), "--out", str(out)])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation failed" in err
    assert "(last reason: volume_floor)" in err
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
    # the initial snapshot and the last accepted state's
    assert sorted(p.name for p in out.glob("snapshot_*.csv")) == [
        "snapshot_000000.csv", "snapshot_000002.csv"]
    assert read_snapshot(out / "snapshot_000002.csv")[0].t == records[-1].t
    payload = json.loads((out / "failure.json").read_text())
    assert payload["status"] == "failed"
    assert payload["run_id"] == run_id(load_config(rest_ini))
    assert payload["t_last"] == records[-1].t
    assert "species exceeded its initial maximum" in payload["error"]
    assert "scheme invariant violated" in payload["error"]
    # the last valid state is also written as the final snapshot
    state, _ = read_snapshot(out / "snapshot_000002.csv")
    assert state.t == records[-1].t


def test_run_reports_a_non_positive_pivot(rest_ini, tmp_path, capsys, monkeypatch):
    # Fault injection: LAPACK reports a non-positive pivot in the first
    # tridiagonal solve.  That ends the run like any invariant violation,
    # not with a traceback.
    monkeypatch.setattr(rrgas.solver, "dptsv", lambda d, e, b: (d, e, b, 1))
    out = tmp_path / "out"
    code = main(["run", str(rest_ini), "--out", str(out)])
    assert code == EXIT_SIMULATION
    assert "scheme invariant violated" in capsys.readouterr().err
    payload = json.loads((out / "failure.json").read_text())
    assert payload["status"] == "failed"
    assert payload["t_last"] == 0.0
    assert "scheme invariant violated" in payload["error"]
    assert "not positive definite (leading minor 1)" in payload["error"]


def test_run_reports_an_illegal_lapack_argument(rest_ini, tmp_path, capsys, monkeypatch):
    # Fault injection: LAPACK rejects an argument of the first tridiagonal
    # solve.  rrgas passes those arguments itself, so this is a scheme
    # fault (exit 2 and a failure manifest), not a configuration error.
    monkeypatch.setattr(rrgas.solver, "dptsv", lambda d, e, b: (d, e, b, -3))
    out = tmp_path / "out"
    code = main(["run", str(rest_ini), "--out", str(out)])
    assert code == EXIT_SIMULATION
    assert "scheme invariant violated" in capsys.readouterr().err
    payload = json.loads((out / "failure.json").read_text())
    assert payload["status"] == "failed"
    assert payload["error"].startswith("scheme invariant violated")
    assert "illegal value in argument 3 of dptsv" in payload["error"]


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


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("field", ["v", "theta"])
def test_initial_field_at_its_floor_is_config_error(command, field, tmp_path, capsys):
    # Initial data the first step would reject at once is a configuration
    # error, not a failed run.
    ini = tmp_path / "floor.ini"
    ini.write_text(REST_INI.replace("t_end = 0.05", f"t_end = 0.05\n{field}_floor = 0.5")
                   + f"\n[initial]\n{field} = constant value=0.4\n")
    out = tmp_path / "out"
    args = [command, str(ini)] + (["--out", str(out)] if command == "run" else [])
    assert main(args) == EXIT_CONFIG
    assert f"error: {field} must be > 0.5; violated at cell 0" in capsys.readouterr().err
    assert not out.exists()  # checked before `run` writes anything


def test_run_missing_file_is_io_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.ini"), "--out", str(tmp_path / "out")])
    assert code == EXIT_IO
    assert "io error" in capsys.readouterr().err


# ------------------------------------------------------ snapshot writer

LARGE = 4096  # cells, as the golden large run
T_END = {128: 0.05, LARGE: 0.0006}  # past snapshot 10, ending between output steps


def reacting_ini(configs_dir, tmp_path, n_cells):
    """configs/reacting.ini at n_cells to T_END[n_cells]."""
    text = (configs_dir / "reacting.ini").read_text()
    text = text.replace("n_cells = 128", f"n_cells = {n_cells}")
    text = text.replace("t_end = 0.2", f"t_end = {T_END[n_cells]}")
    path = tmp_path / f"reacting_{n_cells}.ini"
    path.write_text(text)
    return path


def check_run_joins_one_writer(n_cells, outcome, configs_dir, tmp_path, forks,
                               reject_every_step):
    """`rrgas run` of the reacting scenario at n_cells, completed or failed:
    every snapshot (0, every 10th step, the last state) goes to one
    helper, which is joined, with every file complete, on return."""
    if outcome == "failed":
        reject_every_step()
    ini = reacting_ini(configs_dir, tmp_path, n_cells)
    out = tmp_path / "out"
    code = main(["run", str(ini), "--out", str(out)])
    assert code == (EXIT_OK if outcome == "completed" else EXIT_SIMULATION)
    assert len(forks) == 1
    assert multiprocessing.active_children() == []
    records = read_diagnostics(out / "diagnostics.csv")
    n_steps = len(records) - 1
    # a completed run ends between two output steps, so its last state
    # has a snapshot of its own; a failed one stops at step 0
    assert (n_steps % 10 != 0) == (outcome == "completed")
    snapshots = sorted(out.glob("snapshot_*.csv"))
    assert [path.name for path in snapshots] == [
        f"snapshot_{i:06d}.csv" for i in sorted({*range(0, n_steps + 1, 10), n_steps})
    ]
    for path in snapshots:
        state, _ = read_snapshot(path)
        assert state.grid.n_cells == n_cells
    assert state.t == records[-1].t
    assert (out / "failure.json").exists() == (outcome == "failed")


@pytest.mark.parametrize("outcome", ["completed", "failed"])
def test_run_small_grid_joins_its_writer(outcome, configs_dir, tmp_path, forks,
                                        reject_every_step, monkeypatch):
    cpus(monkeypatch, 2)
    check_run_joins_one_writer(128, outcome, configs_dir, tmp_path, forks, reject_every_step)


@pytest.mark.parametrize("outcome", ["completed", "failed"])
def test_run_large_grid_joins_its_writer(outcome, configs_dir, tmp_path, forks,
                                        reject_every_step, monkeypatch):
    cpus(monkeypatch, 2)
    check_run_joins_one_writer(LARGE, outcome, configs_dir, tmp_path, forks, reject_every_step)


@pytest.mark.parametrize("n_cells", [128, LARGE])
def test_run_snapshot_path_taken_is_io_error(n_cells, configs_dir, tmp_path, forks, capsys,
                                             monkeypatch):
    # Fault injection: a directory sits where snapshot 10 goes.  The
    # helper process fails to write it, and the run ends with exit 3 and
    # an io error naming that file.
    cpus(monkeypatch, 2)
    ini = reacting_ini(configs_dir, tmp_path, n_cells)
    out = tmp_path / "out"
    (out / "snapshot_000010.csv").mkdir(parents=True)
    code = main(["run", str(ini), "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "io error:" in err
    assert str(out / "snapshot_000010.csv") in err
    assert len(forks) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_cells", [128, LARGE])
def test_run_writer_dying_unreported_is_io_error(n_cells, configs_dir, tmp_path, monkeypatch,
                                                 capsys):
    # Fault injection: the helper process dies on its first table
    # without sending a status.  That is an io error, not an EOFError.
    cpus(monkeypatch, 2)
    monkeypatch.setattr(rrgas.output, "_write_table", lambda *args: os._exit(1))
    ini = reacting_ini(configs_dir, tmp_path, n_cells)
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


# -------------------------------------------------- diagnostics stream

def library_diagnostics(ini, path):
    """The bytes write_diagnostics writes to path of the rows
    run_simulation keeps for the config at ini."""
    write_diagnostics(path, run_simulation(load_config(ini)).records)
    return path.read_bytes()


def counted_row_writes(monkeypatch):
    """The `append` flag of each output.write_rows call made in this
    process; a forked helper's calls are its own."""
    appends = []
    write_rows = rrgas.output.write_rows

    def counted(path, columns, template, rows, *append):
        appends.append(bool(append and append[0]))
        write_rows(path, columns, template, rows, *append)

    monkeypatch.setattr(rrgas.output, "write_rows", counted)
    return appends


@pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "inline"])
def test_run_streams_the_rows_the_library_keeps(n_cpus, configs_dir, tmp_path, forks,
                                                monkeypatch):
    # rrgas run's diagnostics.csv has the bytes of write_diagnostics of
    # the rows run_simulation keeps.  Forked, the stepping process
    # formats no row; inline, it appends the rows a message at a time.
    ini = configs_dir / "reacting.ini"
    expected = library_diagnostics(ini, tmp_path / "library.csv")
    cpus(monkeypatch, n_cpus)
    appends = counted_row_writes(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out", str(out)]) == EXIT_OK
    assert (out / "diagnostics.csv").read_bytes() == expected
    assert len(forks) == n_cpus - 1
    if n_cpus == 2:
        assert appends == []
    else:
        assert appends[0] is False and len(appends) > 1 and all(appends[1:])


@pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "inline"])
def test_run_rows_in_many_small_blocks_arrive_whole_and_in_order(n_cpus, configs_dir, tmp_path,
                                                                 monkeypatch):
    # Three rows per block, and a message at every table or ten blocks:
    # the rows still arrive complete and in order, with the bytes of the
    # library's rows at the default block size.
    ini = configs_dir / "reacting.ini"
    expected = library_diagnostics(ini, tmp_path / "library.csv")
    cpus(monkeypatch, n_cpus)
    monkeypatch.setattr(rrgas.mesh, "BLOCK_VALUES", 3 * 128)
    appends = counted_row_writes(monkeypatch)
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out", str(out)]) == EXIT_OK
    assert (out / "diagnostics.csv").read_bytes() == expected
    if n_cpus == 1:
        assert len(appends) > 10  # 117 rows over more than ten messages


def reject_from(monkeypatch, t_first):
    """Every volume update of a step from t >= t_first is rejected at
    the volume floor, as at an impossible v_floor (say 2): the run
    fails there, after its accepted steps."""
    volume_step = rrgas.solver.volume_step

    def volume_floor(state, dt, config, s_v=None):
        if state.t >= t_first:
            raise rrgas.solver.StepRejection("volume_floor")
        return volume_step(state, dt, config, s_v)

    monkeypatch.setattr(rrgas.solver, "volume_step", volume_floor)


@pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "inline"])
def test_failed_run_streams_every_row_and_writes_failure(n_cpus, configs_dir, tmp_path,
                                                         monkeypatch, capsys):
    ini = configs_dir / "reacting.ini"
    reject_from(monkeypatch, 0.1)
    expected = library_diagnostics(ini, tmp_path / "library.csv")
    cpus(monkeypatch, n_cpus)
    out = tmp_path / "out"
    assert main(["run", str(ini), "--out", str(out)]) == EXIT_SIMULATION
    assert "simulation failed" in capsys.readouterr().err
    assert (out / "diagnostics.csv").read_bytes() == expected
    records = read_diagnostics(out / "diagnostics.csv")
    assert len(records) > 32  # more than one block of rows
    payload = json.loads((out / "failure.json").read_text())
    assert payload["t_last"] == records[-1].t >= 0.1


@pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "inline"])
def test_run_diagnostics_path_taken_is_io_error_mid_run(n_cpus, configs_dir, tmp_path, capsys,
                                                        monkeypatch):
    # Fault injection: a directory sits where diagnostics.csv goes.  The
    # writer meets it at its first message, and the run ends there:
    # exit 3 and one line naming the file, and no later snapshot.
    cpus(monkeypatch, n_cpus)
    out = tmp_path / "out"
    (out / "diagnostics.csv").mkdir(parents=True)
    code = main(["run", str(configs_dir / "reacting.ini"), "--out", str(out)])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("io error:") and err.count("\n") == 1
    assert str(out / "diagnostics.csv") in err
    assert "Traceback" not in err
    assert not (out / "snapshot_000110.csv").exists()  # the last one sent from on_step
    assert not (out / "failure.json").exists()


# ---------------------------------------------------------------- check

def test_check_passes_rest_state(rest_ini, capsys):
    code = main(["check", str(rest_ini)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_check_failing_run_exits_2(rest_ini, capsys, reject_every_step):
    reject_every_step()
    code = main(["check", str(rest_ini)])
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
    out = tmp_path / "out"
    code = main(["sweep", str(ini), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "cannot sweep" in capsys.readouterr().err
    assert not out.exists()  # rejected before any file was created


def test_sweep_rejects_zero_jobs(configs_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sweep", str(configs_dir / "sweep_example.ini"),
                 "--out", str(out), "--jobs", "0"])
    assert code == EXIT_CONFIG
    assert "jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_into_an_unwritable_out_fails_before_any_member_runs(configs_dir, tmp_path,
                                                                   capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(rrgas.sweep, "run_one", None)  # a member run would fail on the call
    code = main(["sweep", str(configs_dir / "sweep_example.ini"),
                 "--out", str(blocker / "out")])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("io error: ")


# ------------------------------------------------------------------ mms

def test_mms_table_layout(capsys):
    # The one end-to-end `rrgas mms` run; the golden hashes pin the bytes
    # of the table formatted from the acceptance studies.
    code = main(["mms", "trig", "--levels", "2"])
    out = capsys.readouterr().out
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


def test_mms_with_a_rejected_step_exits_2(monkeypatch, capsys):
    # A fixed-dt study run that loses a step would be graded short of
    # t_end; the command fails instead, with no partial table.
    energy_step = rrgas.solver.energy_step
    calls = []

    def rejects_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise rrgas.solver.StepRejection("newton_stall")
        return energy_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", rejects_once)
    code = main(["mms", "trig", "--levels", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_SIMULATION
    assert "simulation failed" in captured.err
    assert "run of 160 steps" in captured.err
    assert captured.out == ""


def test_mms_with_an_invariant_violation_exits_2(monkeypatch, capsys):
    # Fault injection: every tridiagonal system loses its positive
    # diagonal, so the first solve is not positive definite.  `mms`
    # steps outside run_simulation, and still ends with exit 2, not a
    # traceback, naming the run.
    solveh_banded = rrgas.solver.solveh_banded
    monkeypatch.setattr(rrgas.solver, "solveh_banded",
                        lambda diag, upper, rhs: solveh_banded(-abs(diag), upper, rhs))
    code = main(["mms", "trig", "--levels", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_SIMULATION
    assert "simulation failed: scheme invariant violated" in captured.err
    assert "not positive definite" in captured.err
    assert "160 steps" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


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
