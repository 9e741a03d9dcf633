"""Acceptance gate: one test per release criterion.

Each test prints a single summary line; shared trajectories are
computed once per session.  Windows and caps were frozen from the
first validated build and function as regression bounds from then on.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

from rrgas.config import init_state, load_config
from rrgas.constitutive import (
    PhysParams,
    conductivity,
    de_dtheta,
    internal_energy,
    pressure,
    reaction_rate,
)
from rrgas.diagnostics import z_balance_residual
from rrgas.driver import run_simulation
from rrgas.explicit import run_explicit, stable_dt
from rrgas.output import write_diagnostics
from rrgas.solver import step

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

# Frozen regression bounds (first validated build):
#   drift ratios measured 1.976 / 1.983, window [1.6, 2.4]
#   z-residual ratios measured 1.998 / 2.000, finest 1.13e-6
#   integrator gap ratios measured 2.000 / 2.000, window [1.5, 2.5]
#   expansion max width measured 6.699998, cap 6.75
WIDTH_CAP = 6.75

CFL_LEVELS = (0.5, 0.25, 0.125)


def _with_cfl(config, cfl):
    return dataclasses.replace(config, cfl_number=cfl)


def _completed(result, label):
    assert result.completed, f"{label} did not complete: {result.error}"
    return result


@pytest.fixture(scope="module")
def reference_runs():
    cfg = load_config(CONFIGS / "reference.ini")
    return {
        cfl: _completed(run_simulation(_with_cfl(cfg, cfl)), f"reference cfl={cfl}")
        for cfl in CFL_LEVELS
    }


@pytest.fixture(scope="module")
def reacting_runs():
    cfg = load_config(CONFIGS / "reacting.ini")
    return {
        cfl: _completed(run_simulation(_with_cfl(cfg, cfl)), f"reacting cfl={cfl}")
        for cfl in CFL_LEVELS
    }


@pytest.fixture(scope="module")
def stiff_run():
    cfg = load_config(CONFIGS / "reacting.ini")
    cfg.params = dataclasses.replace(cfg.params, k_rate=50.0, a_act=1.0)
    return _completed(run_simulation(cfg), "stiff")


@pytest.fixture(scope="module")
def equilibrium_run():
    return _completed(run_simulation(load_config(CONFIGS / "equilibrium.ini")), "equilibrium")


@pytest.fixture(scope="module")
def reference_t1_run():
    cfg = load_config(CONFIGS / "reference.ini")
    cfg.t_end = 1.0
    return _completed(run_simulation(cfg), "reference T=1")


@pytest.fixture(scope="module")
def expansion_run():
    return _completed(run_simulation(load_config(CONFIGS / "expansion.ini")), "expansion")


def _energy_drift(result):
    e0 = result.records[0].e_total
    return max(abs(r.e_total - e0) for r in result.records) / max(1.0, abs(e0))


def test_criterion_1_energy_drift_halves_with_cfl(reference_runs):
    drifts = [_energy_drift(reference_runs[cfl]) for cfl in CFL_LEVELS]
    ratios = [drifts[0] / drifts[1], drifts[1] / drifts[2]]
    print(f"criterion 1: drifts {[f'{d:.3e}' for d in drifts]} ratios "
          f"{[f'{r:.3f}' for r in ratios]} -> PASS expected")
    for ratio in ratios:
        assert 1.6 <= ratio <= 2.4


def test_criterion_2_species_balance_residual(reacting_runs):
    resids = [abs(z_balance_residual(reacting_runs[cfl].records)) for cfl in CFL_LEVELS]
    ratios = [resids[0] / resids[1], resids[1] / resids[2]]
    print(f"criterion 2: residuals {[f'{r:.3e}' for r in resids]} ratios "
          f"{[f'{r:.3f}' for r in ratios]}")
    for ratio in ratios:
        assert 1.6 <= ratio <= 2.4
    assert resids[-1] <= 1e-3


def test_criterion_3_maximum_principle(reference_runs, reacting_runs, stiff_run):
    runs = list(reference_runs.values()) + list(reacting_runs.values()) + [stiff_run]
    worst = {"min_z": 1.0, "max_z": 0.0, "min_v": np.inf, "min_theta": np.inf}
    for result in runs:
        for r in result.records:
            worst["min_z"] = min(worst["min_z"], r.min_z)
            worst["max_z"] = max(worst["max_z"], r.max_z)
            worst["min_v"] = min(worst["min_v"], r.min_v)
            worst["min_theta"] = min(worst["min_theta"], r.min_theta)
    print(f"criterion 3: over {len(runs)} runs {worst}")
    assert worst["min_z"] >= 0.0
    assert worst["max_z"] <= 1.0
    assert worst["min_v"] > 1e-8
    assert worst["min_theta"] > 1e-8


def test_criterion_4_entropy_functionals(equilibrium_run, reference_t1_run):
    for result in (equilibrium_run, reference_t1_run):
        for r in result.records:
            assert r.u_entropy >= 0.0
            assert r.v_dissipation >= 0.0
    eq_peak = max(r.u_entropy for r in equilibrium_run.records)
    assert eq_peak <= 1e-14

    recs = reference_t1_run.records
    uv = recs[-1].u_entropy + sum(r.dt * r.v_dissipation for r in recs[1:])
    print(f"criterion 4: equilibrium max U = {eq_peak:.1e}, reference U+intV = {uv:.6f}")
    assert math.isfinite(uv)


@pytest.mark.parametrize("preset", ["trig", "tanh"])
def test_criterion_5_mms_convergence(preset, mms_studies):
    (_, spatial_orders), (_, _, temporal_orders) = mms_studies(preset)
    print(f"criterion 5 ({preset}): spatial {spatial_orders} temporal {temporal_orders}")
    for name, orders in spatial_orders.items():
        for order in orders:
            assert 1.8 <= order <= 2.3, f"spatial {name}: {order}"
    for name, orders in temporal_orders.items():
        for order in orders:
            assert 0.8 <= order <= 1.3, f"temporal {name}: {order}"


def test_criterion_6_integrator_equivalence():
    cfg = load_config(CONFIGS / "reference.ini")
    cfg.t_end = 0.05
    s0 = init_state(cfg)
    gaps = []
    for n_steps in (800, 1600, 3200):
        dt = cfg.t_end / n_steps
        assert dt < stable_dt(s0, cfg.params)
        imex = s0
        for _ in range(n_steps):
            imex, _ = step(imex, cfg, dt=dt)
        ref = run_explicit(s0.copy(), dt, n_steps, cfg.params)
        gaps.append(max(
            np.max(np.abs(imex.v - ref.v)),
            np.max(np.abs(imex.u - ref.u)),
            np.max(np.abs(imex.theta - ref.theta)),
            np.max(np.abs(imex.z - ref.z)),
        ))
    ratios = [gaps[0] / gaps[1], gaps[1] / gaps[2]]
    print(f"criterion 6: gaps {[f'{g:.3e}' for g in gaps]} ratios "
          f"{[f'{r:.3f}' for r in ratios]}")
    assert gaps[0] > gaps[1] > gaps[2]
    for ratio in ratios:
        assert 1.5 <= ratio <= 2.5


def test_criterion_7_negative_external_pressure(expansion_run):
    peak = max(r.width for r in expansion_run.records)
    print(f"criterion 7: completed to t={expansion_run.state.t:g}, "
          f"max width {peak:.6f} (cap {WIDTH_CAP})")
    assert expansion_run.completed
    assert peak < WIDTH_CAP


def test_criterion_8_determinism(tmp_path):
    cfg = load_config(CONFIGS / "reference.ini")
    paths = []
    for tag in ("a", "b"):
        result = _completed(run_simulation(load_config(CONFIGS / "reference.ini")),
                            f"determinism {tag}")
        path = tmp_path / f"diag_{tag}.csv"
        write_diagnostics(path, result.records)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    print(f"criterion 8: diagnostics byte-identical = {identical}")
    assert identical
    assert cfg.n_cells == 128  # the comparison covers the full-size scenario


def test_criterion_9_constitutive_examples():
    p = PhysParams(r_gas=1.0, a_rad=3.0)
    assert pressure(1.0, 1.0, p) == 2.0
    assert pressure(2.0, 0.0, p) == 0.0
    assert pressure(0.5, 2.0, PhysParams(r_gas=0.8, a_rad=0.3)) == pytest.approx(4.8, rel=1e-15)

    q = PhysParams(cv=1.0, a_rad=1.0)
    assert internal_energy(1.0, 1.0, q) == 2.0
    assert internal_energy(3.0, 0.0, q) == 0.0
    assert de_dtheta(1.0, 1.0, q) == 5.0

    r = PhysParams(k_rate=1.0, a_act=1.0, beta=0.0, m_order=1.0)
    assert reaction_rate(1.0, 0.0, r) == 0.0
    assert reaction_rate(1.0, 1.0, r) == pytest.approx(math.exp(-1.0), rel=1e-15)

    k = PhysParams(cond_model="A", kappa1=1.0, kappa2=3.0, q_cond=2.0)
    assert conductivity(1.0, 1.0, k)[0] == 4.0

    h = 1e-6
    worst = 0.0
    fd_params = PhysParams(cv=0.7, a_rad=0.4)
    for v in (0.1, 1.0, 10.0):
        for theta in (0.01, 0.5, 1.0, 4.0, 10.0):
            fd = (internal_energy(v, theta + h, fd_params)
                  - internal_energy(v, theta - h, fd_params)) / (2 * h)
            rel = abs(de_dtheta(v, theta, fd_params) - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    print(f"criterion 9: worst de_dtheta FD deviation {worst:.2e}")
    assert worst <= 1e-6
