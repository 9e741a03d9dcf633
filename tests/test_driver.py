"""Simulation loop and scenario grading."""

import dataclasses

import numpy as np
import pytest

import rrgas.driver
import rrgas.solver
from rrgas.config import Profile, RunConfig, init_state, load_config
from rrgas.constitutive import PhysParams
from rrgas.driver import check_scenario, run_simulation


def rest_config(t_end=0.05, n_cells=16):
    # Uniform v = theta = 1 against p_ext = 2 with a_rad = 3: exact rest.
    cfg = RunConfig()
    cfg.n_cells = n_cells
    cfg.t_end = t_end
    cfg.params = PhysParams(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=3.0,
        g_grav=0.0, p_ext=2.0, k_rate=0.0, a_act=1.0, m_order=1.0,
        beta=0.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    return cfg


def bump_config(t_end=0.05, n_cells=32, **params):
    cfg = RunConfig()
    cfg.n_cells = n_cells
    cfg.t_end = t_end
    base = dict(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=0.5,
        g_grav=0.1, p_ext=0.5, k_rate=5.0, a_act=4.0, m_order=1.0,
        beta=1.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    base.update(params)
    cfg.params = PhysParams(**base)
    cfg.theta_profile = Profile(
        "gaussian-bump", {"base": 1.0, "amplitude": 0.5, "center": 0.5, "width": 0.1}
    )
    cfg.z_profile = Profile("constant", {"value": 1.0})
    return cfg


def test_run_lands_exactly_on_t_end():
    result = run_simulation(rest_config())
    assert result.completed
    assert result.error is None
    assert result.state.t == 0.05  # bit-exact landing
    assert result.n_steps == len(result.records) - 1


def test_record_times_are_strictly_increasing():
    result = run_simulation(bump_config())
    ts = [r.t for r in result.records]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert result.records[0].dt == 0.0
    assert all(r.dt > 0.0 for r in result.records[1:])


def test_failed_run_returns_partial_result():
    cfg = bump_config()
    cfg.v_floor = 2.0  # impossible bound, every attempt is rejected
    result = run_simulation(cfg)
    assert not result.completed
    assert "rejected" in (result.error or "")
    assert result.state.t == 0.0
    assert len(result.records) == 1


def test_step_budget():
    result = run_simulation(bump_config(t_end=10.0), max_steps=3)
    assert not result.completed
    assert result.error == "step budget exhausted"
    assert result.n_steps == 3


def state_bits(state):
    return (state.t, state.v.tobytes(), state.u.tobytes(),
            state.theta.tobytes(), state.z.tobytes())


def observing_hook(calls):
    def hook(state, report, index):
        calls.append((index, report.dt, state_bits(state)))

    return hook


def faulty_species_step(real, calls):
    # the species update breaks its maximum principle on the third step
    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise rrgas.solver.InvariantViolation("species exceeded its initial maximum")
        return real(*args, **kwargs)

    return step


@pytest.mark.parametrize("case", ["completed", "rejected", "budget", "hook", "invariant"])
def test_run_without_diagnostics_takes_the_same_path(case, monkeypatch):
    cfg = bump_config()
    kwargs = {}
    if case == "rejected":
        cfg.v_floor = 2.0
    elif case == "budget":
        kwargs["max_steps"] = 3

    def run(diagnostics):
        calls = []
        if case == "hook":
            kwargs["on_step"] = observing_hook(calls)
        elif case == "invariant":
            monkeypatch.setattr(
                rrgas.solver, "species_step",
                faulty_species_step(real_species_step, calls),
            )
        return run_simulation(cfg, diagnostics=diagnostics, **kwargs), calls

    real_species_step = rrgas.solver.species_step
    recorded, recorded_calls = run(True)
    bare, bare_calls = run(False)
    assert bare.records == []
    assert (bare.completed, bare.error, bare.n_steps) == (
        recorded.completed, recorded.error, recorded.n_steps
    )
    assert bare_calls == recorded_calls
    assert state_bits(bare.state) == state_bits(recorded.state)
    # the returned state is the one the last record was built from
    assert recorded.records[-1].t == recorded.state.t
    assert recorded.completed == (case in ("completed", "hook"))


def bits(rec):
    return np.array(dataclasses.astuple(rec), dtype=float).tobytes()


@pytest.mark.parametrize("case", ["completed", "budget", "rejected", "invariant"])
def test_rows_come_in_blocks_and_are_complete_on_every_exit(case, monkeypatch, per_state_row):
    # 4 states per record call on 32 cells.  Every run here ends with a
    # partly filled block, which the driver must still hand over.
    block = 4
    monkeypatch.setattr(rrgas.driver, "_RECORD_BLOCK", block * 32)
    cfg = bump_config()
    kwargs = {}
    if case == "rejected":
        cfg.v_floor = 2.0
    elif case == "budget":
        kwargs["max_steps"] = 5
    elif case == "invariant":
        monkeypatch.setattr(
            rrgas.solver, "species_step",
            faulty_species_step(rrgas.solver.species_step, []),
        )
    sizes = []
    real_record = rrgas.driver.record

    def sized_record(pending, params):
        sizes.append(len(pending))
        return real_record(pending, params)

    monkeypatch.setattr(rrgas.driver, "record", sized_record)
    seen = []
    z_diff = z_react = 0.0

    def hook(state, report, index):
        nonlocal z_diff, z_react
        z_diff += report.z_diff_increment
        z_react += report.z_react_increment
        seen.append((state, report.dt, z_diff, z_react))

    initial = init_state(cfg)
    result = run_simulation(cfg, state=initial, on_step=hook, **kwargs)
    assert result.completed == (case == "completed")
    assert len(result.records) == result.n_steps + 1
    assert sizes[:-1] == [block] * (len(sizes) - 1)
    assert 0 < sizes[-1] < block
    # each row is its own state's, with the accumulators after its step
    expected = [per_state_row(initial, cfg.params, 0.0, 0.0, 0.0)] + [
        per_state_row(state, cfg.params, *rest) for state, *rest in seen
    ]
    assert [bits(r) for r in result.records] == [bits(r) for r in expected]


# ------------------------------------------------------------- check rows

EXPECTED_ROWS = (
    "run completed",
    "all diagnostics finite",
    "species range 0 <= z <= 1",
    "volume and temperature above floors",
    "entropy functionals nonnegative",
    "U plus integrated V bounded",
    "balance accumulators non-decreasing",
    "energy drift bounded",
    "species balance residual small",
)


def test_check_passes_at_rest():
    report = check_scenario(rest_config())
    assert report.completed
    assert report.passed
    assert tuple(row.name for row in report.rows) == EXPECTED_ROWS


def test_check_passes_on_shipped_reference(shipped_config):
    report = check_scenario(shipped_config("reference"))
    assert report.passed, [(r.name, r.detail) for r in report.rows if not r.passed]


def test_check_passes_on_shipped_reacting(shipped_config):
    report = check_scenario(shipped_config("reacting"))
    assert report.passed, [(r.name, r.detail) for r in report.rows if not r.passed]


def test_check_reports_failed_run():
    cfg = bump_config()
    cfg.v_floor = 2.0
    report = check_scenario(cfg)
    assert not report.completed
    assert not report.passed
    assert report.rows[0].name == "run completed"
    assert not report.rows[0].passed


def corrupting_step(corrupt, monkeypatch):
    # Every accepted state is passed through corrupt before the driver
    # sees it, and the next step starts from the corrupted state.
    real = rrgas.driver.step

    def step(state, config):
        new, report = real(state, config)
        return corrupt(new), report

    monkeypatch.setattr(rrgas.driver, "step", step)


def test_check_negative_control_species_range(monkeypatch):
    # Corrupt z beyond its physical range mid-run; exactly the
    # species-range row must flip to FAIL.
    def corrupt(state):
        bad = state.copy()
        bad.z[0] = 1.5
        return bad

    corrupting_step(corrupt, monkeypatch)
    report = check_scenario(bump_config())
    assert report.completed
    assert not report.passed
    by_name = {row.name: row.passed for row in report.rows}
    assert by_name["species range 0 <= z <= 1"] is False
    assert by_name["run completed"] is True


def test_check_negative_control_energy_drift(monkeypatch):
    # A 1 percent energy injection every step breaks the drift bound.
    def pump(state):
        out = state.copy()
        out.theta = out.theta * 1.01
        return out

    corrupting_step(pump, monkeypatch)
    report = check_scenario(rest_config())
    by_name = {row.name: row.passed for row in report.rows}
    assert by_name["energy drift bounded"] is False
