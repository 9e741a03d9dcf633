"""Semi-implicit integrator: substeps against independent oracles.

Each oracle is either a hand-evaluated closed form, a scalar root found
with brentq on the same balance the substep discretizes, or a bisection
on the explicit reference integrator; scipy's dptsv is the oracle of the
solver's own LAPACK binding.  Oracles are computed before the routine
under test is called.
"""

import dataclasses
import importlib.util
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack
from scipy.optimize import brentq
from test_golden_outputs import GOLDEN, run_digests, state_digest

import rrgas.solver
from rrgas.config import Profile, RunConfig, init_state, load_config
from rrgas.constitutive import (
    PhysParams,
    heat_conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from rrgas.diagnostics import record
from rrgas.driver import run_fixed
from rrgas.explicit import explicit_reference_step
from rrgas.mesh import Grid, State, stack, velocity_mean, width
from rrgas.output import read_snapshot, write_snapshot
from rrgas.solver import (
    InvariantViolation,
    SimulationError,
    StepRejection,
    _start_point,
    cfl_dt,
    energy_step,
    gravity_accel,
    momentum_step,
    rates,
    solveh_banded,
    species_interface_coeff,
    species_step,
    step,
    step_batch,
    stress_divergence,
    total_stress,
    volume_step,
)


def ref_params(**kw):
    """The inert baseline parameter set used across these tests."""
    base = dict(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=0.5,
        g_grav=0.1, p_ext=0.5, k_rate=0.0, a_act=4.0, m_order=1.0,
        beta=1.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    base.update(kw)
    return PhysParams(**base)


def rest_params(**kw):
    """Uniform v = theta = 1 is an exact rest state for these constants."""
    merged = dict(a_rad=3.0, p_ext=2.0, g_grav=0.0)
    merged.update(kw)
    return ref_params(**merged)


def uniform_state(n, v=1.0, theta=1.0, z=0.0, u=0.0):
    g = Grid(n)
    return State(g, np.full(n, v), np.full(n, theta), np.full(n, z), np.full(n + 1, u))


def stage_phi(state, params):
    """The reaction rate species_step and energy_step take."""
    return reaction_rate(state.v, state.theta, params)


def species_quadratures(state, z_new, dt, params):
    """The gradient and reaction quadratures of a species_step from state
    (v at the new level) to z_new, from their home: the rows
    diagnostics.record builds for the states before and after it."""
    after = State(state.grid, state.v, state.theta, z_new, state.u, state.t + dt)
    _, row = record([(state, 0.0), (after, dt)], params)
    return row.z_diff_accum, row.z_react_accum


def bump_config(n_cells=32, t_end=0.05, **params):
    cfg = RunConfig()
    cfg.n_cells = n_cells
    cfg.t_end = t_end
    cfg.params = ref_params(**params)
    cfg.theta_profile = Profile(
        "gaussian-bump", {"base": 1.0, "amplitude": 0.5, "center": 0.5, "width": 0.1}
    )
    cfg.z_profile = Profile("constant", {"value": 1.0})
    return cfg


# ------------------------------------------------------ tridiagonal solve

def test_tridiag_matches_dense_solve():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17):
        off = -rng.uniform(0.1, 1.0, n - 1)
        diag = 2.5 + rng.uniform(0.0, 1.0, n)  # diagonally dominant, SPD
        rhs = rng.standard_normal(n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.solve(dense, rhs)
        got = solveh_banded(diag, off, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_tridiag_single_cell():
    out = solveh_banded(np.array([4.0]), np.array([]), np.array([8.0]))
    np.testing.assert_allclose(out, [2.0])


def spd_systems(lead, n, seed):
    """Random diagonally dominant SPD tridiagonal systems, lead + (n,)."""
    rng = np.random.default_rng(seed)
    return (2.5 + rng.uniform(0.0, 1.0, lead + (n,)), -rng.uniform(0.1, 1.0, lead + (n - 1,)),
            rng.standard_normal(lead + (n,)))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_tridiag_leaves_its_inputs_unchanged(lead):
    # species_step passes its state's z as the right-hand side.
    system = spd_systems(lead, 9, 5)
    before = [a.copy() for a in system]
    solveh_banded(*system)
    for a, b in zip(system, before):
        assert a.tobytes() == b.tobytes()


def test_tridiag_batch_rows_equal_their_own_solves():
    diag, upper, rhs = spd_systems((3,), 9, 7)
    x = solveh_banded(diag, upper, rhs)
    assert x.shape == (3, 9)
    for b in range(3):
        assert x[b].tobytes() == solveh_banded(diag[b], upper[b], rhs[b]).tobytes()


def test_tridiag_indefinite_system_is_an_invariant_violation():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1: the second pivot is -3.
    with pytest.raises(InvariantViolation, match=r"not positive definite \(leading minor 2\)"):
        solveh_banded(np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, 1.0]))


def test_tridiag_illegal_argument_is_an_invariant_violation(monkeypatch):
    # rrgas passes dptsv's arguments itself, so an illegal one is a fault
    # in rrgas, not in the configuration.
    monkeypatch.setattr(rrgas.solver, "dptsv", lambda d, e, b: (d, e, b, -3))
    with pytest.raises(InvariantViolation, match="argument 3 of dptsv"):
        solveh_banded(*spd_systems((), 4, 1))


# ------------------------------------- dptsv: numpy's OpenBLAS or scipy's

@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 128, 129, 1000, 4096])
def test_openblas_solve_equals_scipys_bit_for_bit(lead, n):
    # One cell is solved without LAPACK, by either library.
    system = spd_systems(lead, n, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rrgas.solver, "dptsv", lapack.dptsv)
        expected = solveh_banded(*system)
    assert solveh_banded(*system).tobytes() == expected.tobytes()


def test_openblas_dptsv_reports_the_pivot_scipys_does():
    # [[1, 2], [2, 1]] has eigenvalues 3 and -1: the second pivot is -3.
    system = np.array([1.0, 1.0]), np.array([2.0]), np.array([1.0, 1.0])
    assert rrgas.solver.dptsv(*system)[3] == lapack.dptsv(*system)[3] == 2


def test_consecutive_solves_of_one_size_leave_the_first_result_alone():
    first_system, second_system = spd_systems((), 64, 1), spd_systems((), 64, 2)
    first = rrgas.solver.dptsv(*first_system)[2]
    kept = first.copy()
    second = rrgas.solver.dptsv(*second_system)[2]
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)


def without_openblas(tmp_path):
    """The dptsv a second import of rrgas.solver binds where numpy has no
    numpy.libs beside it, as a conda or distro numpy has not."""
    spec = importlib.util.spec_from_file_location("rrgas.solver_without_openblas",
                                                  rrgas.solver.__file__)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        patch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module.dptsv


def test_solver_falls_back_to_scipy_without_numpys_openblas(tmp_path):
    assert without_openblas(tmp_path) is lapack.dptsv


def test_reacting_outputs_through_scipy_are_byte_identical(configs_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(rrgas.solver, "dptsv", without_openblas(tmp_path))
    assert run_digests(configs_dir / "reacting.ini", tmp_path / "reacting") == GOLDEN["reacting"]


# ------------------------------------------------------------ stress terms

def test_total_stress_single_cell():
    # sigma = -p(1,1) + mu*du/(dx*v) = -2 + 0.1*0.1/1 = -1.99
    p = ref_params(r_gas=1.0, a_rad=3.0)
    sigma = total_stress(np.array([1.0]), np.array([1.0]), np.array([0.0, 0.1]), 1.0, p)
    np.testing.assert_allclose(sigma, [-1.99], rtol=1e-15)


def test_stress_divergence_interior_and_boundary():
    sigma = np.array([1.0, 3.0])
    accel = stress_divergence(sigma, p_ext=0.5, grid=Grid(2))
    # interior: (3-1)/0.5 = 4; left: (1+0.5)/0.25 = 6; right: (-0.5-3)/0.25 = -14
    np.testing.assert_allclose(accel, [6.0, 4.0, -14.0], rtol=1e-15)


def test_stress_divergence_momentum_budget():
    # Trapezoid-weighted sum of accelerations telescopes to zero: the
    # boundary stresses enter with opposite signs.
    rng = np.random.default_rng(11)
    sigma = rng.standard_normal(16)
    accel = stress_divergence(sigma, p_ext=0.7, grid=Grid(16))
    s = uniform_state(16)
    s.u = accel
    assert abs(velocity_mean(s)) <= 1e-13 * np.max(np.abs(accel))


def test_gravity_accel_antisymmetric():
    g = Grid(8)
    a = gravity_accel(g.edges, ref_params(g_grav=0.4))
    np.testing.assert_allclose(a, -a[::-1], atol=1e-16)
    assert a[0] == 0.2  # -G*(0 - 1/2)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return State(Grid(n), 1.0 + 0.3 * rng.random(n), 1.0 + 0.5 * rng.random(n),
                 0.2 + 0.6 * rng.random(n), 0.1 * rng.standard_normal(n + 1))


def test_rates_add_each_given_source_last():
    s = random_state(12, 3)
    p = ref_params(k_rate=2.0, m_order=2.0)
    plain = rates(s, p)
    sources = (np.full(12, 0.3), None, np.linspace(-1.0, 1.0, 12), np.full(12, -0.2))
    sourced = rates(s, p, sources)
    for rate, source, with_source in zip(plain, sources, sourced):
        expected = rate if source is None else rate + source
        assert with_source.tobytes() == expected.tobytes()


def test_rates_of_a_batch_are_each_members_rates():
    states = [random_state(10, seed) for seed in (4, 5, 6)]
    p = ref_params(k_rate=2.0, m_order=2.0)
    batch = rates(stack(states), p)
    for i, state in enumerate(states):
        for row, alone in zip(batch, rates(state, p)):
            assert row[i].tobytes() == alone.tobytes()


# -------------------------------------------------------------- step bound

def test_cfl_dt_max_clamp():
    # Slow sound (cold, dilute): dt_max is the binding constraint.
    cfg = RunConfig(params=ref_params())
    cfg.dt_max = 0.01
    cfg.cfl_number = 0.5
    cfg.t_end = 100.0
    s = uniform_state(4, v=10.0, theta=0.01)
    assert cfl_dt(s, cfg) == 0.5 * 0.01


def test_cfl_dt_acoustic_scales_with_dx():
    cfg = RunConfig(params=ref_params())
    cfg.dt_max = 1.0
    cfg.cfl_number = 0.5
    cfg.t_end = 100.0
    dt_coarse = cfl_dt(uniform_state(64), cfg)
    dt_fine = cfl_dt(uniform_state(128), cfg)
    assert dt_coarse == pytest.approx(2.0 * dt_fine, rel=1e-15)


def test_cfl_dt_reaction_clamp():
    # Make the heat-release growth rate the binding constraint and check
    # the bound equals cfl/growth for the uniform state.
    p = ref_params(k_rate=1e6, a_act=1.0, beta=0.0, lambda_heat=1.0)
    s = uniform_state(8, z=1.0)
    phi = reaction_rate(s.v, s.theta, p)[0]
    growth = p.lambda_heat * phi * (p.beta / 1.0 + p.a_act / 1.0)
    cfg = RunConfig(params=p)
    cfg.dt_max = 1.0
    cfg.cfl_number = 0.5
    cfg.t_end = 100.0
    assert cfl_dt(s, cfg) == pytest.approx(0.5 / growth, rel=1e-12)


def test_cfl_dt_with_cold_cells_equals_the_masked_bound():
    # Where the Arrhenius rate underflows to 0, a cell adds a growth of
    # 0 to the reaction bound.  Oracle: the bound over the hot cells
    # alone, with the acoustic and dt_max bounds, as cfl_dt forms them.
    p = ref_params(k_rate=1e4, a_act=4.0, beta=1.0, lambda_heat=1.0, m_order=1.5)
    cfg = RunConfig(params=p)
    cfg.dt_max = 1.0
    cfg.cfl_number = 0.5
    cfg.t_end = 100.0
    s = uniform_state(8, z=0.7)
    s.v = np.linspace(0.8, 1.2, 8)
    s.theta = np.array([cfg.theta_floor, 1.5, 0.01, 2.0, cfg.theta_floor, 1.2, 0.02, 1.8])
    phi = reaction_rate(s.v, s.theta, p)
    hot = phi > 0.0
    assert 0 < hot.sum() < 8
    th = s.theta[hot]
    growth = p.lambda_heat * phi[hot] * np.power(s.z[hot], p.m_order) * (
        p.beta / th + p.a_act / th**2
    )
    c2 = s.theta * (p.r_gas + (4.0 * p.a_rad / 3.0) * s.theta**3 * s.v) * (p.r_gas / p.cv + 1.0)
    acoustic = float((s.grid.dx * s.v / np.sqrt(c2)).min())
    expected = min(acoustic, cfg.dt_max, 1.0 / float(growth.max())) * cfg.cfl_number
    assert 1.0 / float(growth.max()) < acoustic  # the reaction bound binds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dt = cfl_dt(s, cfg)
    assert dt == expected


def test_cfl_dt_lands_exactly_on_t_end():
    cfg = RunConfig(params=ref_params())
    cfg.dt_max = 1.0
    cfg.cfl_number = 0.5
    cfg.t_end = 0.2
    s = uniform_state(4, v=10.0, theta=0.01)
    s.t = 0.15
    dt = cfl_dt(s, cfg)
    assert s.t + dt == cfg.t_end  # bit-exact landing


def test_cfl_dt_underflow_raises():
    cfg = RunConfig(params=ref_params())
    cfg.t_end = 0.1
    s = uniform_state(4)
    s.t = 0.1
    with pytest.raises(SimulationError):
        cfl_dt(s, cfg)


def test_cfl_dt_within_factor_two_of_explicit_stability():
    # Oracle: bisection on the explicit reference integrator.  The
    # implicit scheme's bound is accuracy-motivated, but on this uniform
    # low-conductivity state it should sit within a factor 2 of the
    # explicit stability edge.
    p = ref_params(kappa1=0.05, kappa2=0.05, g_grav=0.0)
    g = Grid(16)

    def fresh():
        s = State(g, np.ones(16), np.ones(16), np.full(16, 0.5), np.zeros(17))
        s.theta = 1.0 + 0.2 * np.exp(-(((g.cell_centers - 0.5) / 0.1) ** 2) / 2)
        return s

    def survives(dt):
        s = fresh()
        try:
            for _ in range(60):
                s = explicit_reference_step(s, dt, p)
        except Exception:
            return False
        ok = np.all(np.isfinite(s.theta)) and np.all(np.isfinite(s.u))
        return bool(ok and s.theta.max() < 10.0 and 0.01 < s.v.min() < s.v.max() < 100.0)

    lo, hi = 1e-6, 0.2
    assert survives(lo) and not survives(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if survives(mid) else (lo, mid)

    cfg = RunConfig(params=p)
    cfg.dt_max = 1.0
    cfg.cfl_number = 1.0
    cfg.t_end = 100.0
    bound = cfl_dt(fresh(), cfg)
    assert 0.5 <= lo / bound <= 2.0


# ---------------------------------------------------------------- momentum

def test_momentum_rest_state_is_fixed():
    s = uniform_state(16)
    u_new = momentum_step(s, 0.01, rest_params())
    assert np.all(u_new == 0.0)


def test_momentum_gravity_impulse():
    # One tiny step from rest: du = -dt*G*(x - 1/2) up to the O(dt)
    # implicit viscous correction (measured ~6e-8 relative at dt=1e-8).
    p = rest_params(g_grav=0.3)
    g = Grid(16)
    s = uniform_state(16)
    dt = 1e-8
    expected = -dt * 0.3 * (g.edges - 0.5)
    u_new = momentum_step(s, dt, p)
    assert np.max(np.abs(u_new - expected)) <= 1e-6 * np.max(np.abs(expected))
    # reflection antisymmetry of the solution, not just the forcing
    assert np.max(np.abs(u_new + u_new[::-1])) <= 1e-14 * np.max(np.abs(u_new))


def test_momentum_solves_backward_euler_exactly():
    # Residual of W*(u1-u0) = dt*W*a(u0) - c*L*(u1-u0) in the solved
    # system; the solve is direct, so this is pure round-off.
    rng = np.random.default_rng(7)
    n = 16
    g = Grid(n)
    p = rest_params(g_grav=0.3)
    s = State(g, 1.0 + 0.3 * rng.random(n), 1.0 + 0.5 * rng.random(n),
              np.full(n, 0.5), 0.1 * rng.standard_normal(n + 1))
    dt = 1e-3
    u_new = momentum_step(s, dt, p)
    dx = g.dx
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    sigma = total_stress(s.v, s.theta, s.u, dx, p)
    accel = stress_divergence(sigma, p.p_ext, g) + gravity_accel(g.edges, p)
    du = u_new - s.u
    inv = 1.0 / s.v
    lap = np.empty(n + 1)
    lap[0] = inv[0] * (du[0] - du[1])
    lap[-1] = inv[-1] * (du[-1] - du[-2])
    lap[1:-1] = inv[:-1] * (du[1:-1] - du[:-2]) + inv[1:] * (du[1:-1] - du[2:])
    resid = w * du - w * dt * accel + (dt * p.mu / dx**2) * lap
    assert np.max(np.abs(resid)) <= 1e-13 * max(1.0, np.max(np.abs(du)))


# ------------------------------------------------------------------ volume

def test_volume_constant_velocity_is_identity():
    s = uniform_state(8, v=0.7, u=2.0)
    v_new = volume_step(s, 0.1, RunConfig())
    assert np.all(v_new == s.v)


def test_volume_linear_velocity_adds_dt():
    # u = x on a power-of-two mesh: u_x = 1 in exact floats.
    n = 8
    s = uniform_state(n, v=0.7)
    s.u = Grid(n).edges.copy()
    v_new = volume_step(s, 0.125, RunConfig())
    assert np.all(v_new == 0.7 + 0.125)


def test_volume_width_identity():
    # Total width change telescopes to the boundary velocities.
    rng = np.random.default_rng(5)
    n = 32
    s = uniform_state(n)
    s.u = rng.standard_normal(n + 1)
    dt = 0.01
    v_new = volume_step(s, dt, RunConfig())
    got = float(np.sum(v_new) - np.sum(s.v)) * s.grid.dx
    assert got == pytest.approx(dt * (s.u[-1] - s.u[0]), abs=1e-14)


def test_volume_floor_rejects():
    s = uniform_state(4, v=0.1)
    s.u = -Grid(4).edges.copy()  # u_x = -1 everywhere
    with pytest.raises(StepRejection):
        volume_step(s, 0.2, RunConfig(v_floor=1e-8))


def test_volume_nonfinite_rejects():
    s = uniform_state(4)
    s.u[2] = np.inf
    with pytest.raises(StepRejection):
        volume_step(s, 0.01, RunConfig())


# one cell of one member: not finite, or landing exactly on the floor
BAD_CELLS = [np.nan, np.inf, -np.inf, "floor"]
BAD_IDS = ["nan", "+inf", "-inf", "floor"]


@pytest.mark.parametrize("bad", BAD_CELLS, ids=BAD_IDS)
def test_volume_rejects_exactly_the_member_with_a_bad_cell(bad):
    # v_new = 1 + 1*(0 + s_v): s_v = -0.5 puts a cell on v_floor = 0.5.
    cfg = RunConfig(v_floor=0.5)
    s_v = np.zeros((3, 4))
    s_v[1, 2] = -0.5 if bad == "floor" else bad
    batch = stack([uniform_state(4)] * 3)
    with pytest.raises(StepRejection) as rejected:
        volume_step(batch, np.ones(3), cfg, s_v=s_v)
    assert rejected.value.members.tolist() == [False, True, False]
    with pytest.raises(StepRejection):
        volume_step(batch[1], 1.0, cfg, s_v=s_v[1])
    assert (volume_step(batch[0], 1.0, cfg, s_v=s_v[0]) == 1.0).all()


# ----------------------------------------------------------------- species

def test_species_zero_stays_zero():
    s = uniform_state(8, z=0.0, theta=2.0)
    p = ref_params(k_rate=3.0)
    z_new = species_step(s, 0.1, p, stage_phi(s, p))
    diff_inc, react_inc = species_quadratures(s, z_new, 0.1, p)
    assert np.all(z_new == 0.0)
    assert diff_inc == 0.0
    assert react_inc == 0.0


def test_species_inert_constant_is_bitwise_fixed():
    s = uniform_state(8, z=0.37)
    p = ref_params(k_rate=0.0)
    z_new = species_step(s, 0.1, p, stage_phi(s, p))
    assert np.all(z_new == 0.37)


def test_species_single_cell_decay_closed_form():
    # n=1 has no diffusion; the linear-kinetics update is z/(1 + dt*phi).
    p = ref_params(k_rate=2.0, a_act=1.0, beta=0.5, m_order=1.0)
    s = uniform_state(1, v=0.8, theta=1.3, z=0.9)
    phi = reaction_rate(s.v, s.theta, p)[0]
    expected = 0.9 / (1.0 + 0.05 * phi)
    z_new = species_step(s, 0.05, p, stage_phi(s, p))
    assert z_new[0] == expected


def test_species_inert_mass_conserved():
    rng = np.random.default_rng(2)
    n = 24
    s = uniform_state(n)
    s.v = 1.0 + 0.5 * rng.random(n)
    s.z = rng.uniform(0.1, 0.9, n)
    total_before = float(np.sum(s.z))
    p = ref_params(k_rate=0.0)
    z_new = species_step(s, 0.05, p, stage_phi(s, p))
    assert float(np.sum(z_new)) == pytest.approx(total_before, rel=1e-13)


def test_species_balance_identity_single_step():
    # Multiplying the solved system by z^{n+1} gives, exactly:
    #   1/2||z1||^2 + diff_inc + react_inc = 1/2||z0||^2 - 1/2||z1-z0||^2
    rng = np.random.default_rng(9)
    n = 20
    s = uniform_state(n, theta=1.5)
    s.v = 1.0 + 0.3 * rng.random(n)
    s.z = rng.uniform(0.05, 0.95, n)
    dx = s.grid.dx
    dt = 0.02
    p = ref_params(k_rate=4.0, a_act=2.0)
    half_before = 0.5 * float(np.sum(s.z**2)) * dx
    z_new = species_step(s, dt, p, stage_phi(s, p))
    diff_inc, react_inc = species_quadratures(s, z_new, dt, p)
    half_after = 0.5 * float(np.sum(z_new**2)) * dx
    jump = 0.5 * float(np.sum((z_new - s.z) ** 2)) * dx
    lhs = half_after + diff_inc + react_inc
    rhs = half_before - jump
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_species_range_preserved(data):
    n = data.draw(st.integers(2, 12))
    z0 = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
    s = uniform_state(n)
    s.v = v
    s.z = z0
    # species_step itself asserts nonnegativity and the max principle;
    # here we just confirm the returned values satisfy the public range.
    p = ref_params(k_rate=1.0)
    z_new = species_step(s, 0.05, p, stage_phi(s, p))
    assert np.all(z_new >= 0.0)
    assert float(np.max(z_new)) <= max(float(np.max(z0)), 0.0) * (1.0 + 1e-13)


# ------------------------------------------------------------------ energy

def test_energy_rest_state_zero_iterations():
    s = uniform_state(8)
    p = rest_params()
    theta_new, iters, res = energy_step(s, 0.01, RunConfig(params=p), s.v.copy(), stage_phi(s, p))
    assert iters == 0
    assert res == 0.0
    assert np.all(theta_new == 1.0)


def test_energy_single_cell_reaction_heating():
    # Scalar balance e(v, theta1) = e(v, theta0) + dt*lambda*phi(theta0)*z.
    # Oracle: brentq on the same scalar equation.
    p = ref_params(k_rate=3.0, a_act=2.0, lambda_heat=2.0)
    v0, th0, z0, dt = 0.9, 1.2, 0.8, 0.02
    s = uniform_state(1, v=v0, theta=th0, z=z0)
    heating = p.lambda_heat * reaction_rate(s.v, s.theta, p)[0] * z0
    target = internal_energy(s.v, s.theta, p)[0] + dt * heating

    def balance(th):
        return internal_energy(s.v, np.array([th]), p)[0] - target

    oracle = brentq(balance, th0, th0 + 1.0, xtol=1e-14, rtol=8.9e-16)

    cfg = RunConfig(params=p, newton_tol=1e-12)
    theta_new, iters, _ = energy_step(s, dt, cfg, s.v.copy(), stage_phi(s, p))
    assert iters >= 1
    assert theta_new[0] == pytest.approx(oracle, rel=1e-10)


def test_energy_conduction_conserves_total():
    # Pure implicit conduction: the zero-flux divergence telescopes, so
    # the discrete total internal energy is invariant.
    p = ref_params(k_rate=0.0)
    n = 2
    s = uniform_state(n)
    s.theta = np.array([1.5, 0.5])
    before = float(np.sum(internal_energy(s.v, s.theta, p)))
    cfg = RunConfig(params=p, newton_tol=1e-13)
    theta_new, iters, _ = energy_step(s, 0.05, cfg, s.v.copy(), stage_phi(s, p))
    after = float(np.sum(internal_energy(s.v, theta_new, p)))
    assert iters >= 1
    assert after == pytest.approx(before, rel=1e-12)
    # heat flows from hot to cold
    assert 0.5 < theta_new[1] < theta_new[0] < 1.5


def test_energy_newton_stall_rejects():
    s = uniform_state(2)
    s.theta = np.array([1.5, 0.5])
    cfg = RunConfig(params=ref_params())
    cfg.newton_max_iter = 0  # set after construction: validate() rejects 0
    with pytest.raises(StepRejection):
        energy_step(s, 0.05, cfg, s.v.copy(), stage_phi(s, cfg.params))


# ------------------------------------------------------------- full step

def test_step_hands_each_stage_its_source(monkeypatch):
    # sources is the tuple of rows at the new level, as the caller
    # evaluated them; each stage is handed its own row unchanged.
    cfg = bump_config(n_cells=16, t_end=1.0)
    s = init_state(cfg)
    s.t = 0.25
    sources = (np.full(16, 0.3), np.zeros(17), np.full(16, -0.2), np.zeros(16))
    seen = {}
    for stage, key in (("volume_step", "s_v"), ("momentum_step", "s_u"),
                       ("energy_step", "s_theta"), ("species_step", "s_z")):

        def spy(*args, real=getattr(rrgas.solver, stage), key=key, **kwargs):
            seen[key] = kwargs[key]
            return real(*args, **kwargs)

        monkeypatch.setattr(rrgas.solver, stage, spy)
    s2, report = step(s, cfg, sources=sources, dt=0.01)
    assert all(seen[key] is row for key, row in zip(("s_v", "s_u", "s_theta", "s_z"), sources))
    assert (s2.t, report.dt, report.rejections) == (0.25 + 0.01, 0.01, 0)


def test_pinned_step_is_one_attempt(monkeypatch):
    # A convergence study pins dt, so a rejection is not retried at a
    # shorter one: it reaches the caller after one attempt.
    cfg = bump_config(n_cells=16, t_end=0.05)
    s = init_state(cfg)
    cfg.v_floor = 2.0
    volume_step = rrgas.solver.volume_step
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return volume_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "volume_step", counted)
    with pytest.raises(StepRejection, match="volume_floor"):
        step(s, cfg, dt=0.01)
    assert len(calls) == 1


def test_step_rest_state_is_exact_fixed_point():
    cfg = RunConfig()
    cfg.params = rest_params()
    cfg.n_cells = 16
    cfg.t_end = 1.0
    s = uniform_state(16)
    s2, report = step(s, cfg)
    assert np.all(s2.u == 0.0)
    assert np.all(s2.v == 1.0)
    assert np.all(s2.theta == 1.0)
    assert s2.a_pos == 0.0
    assert s2.t == report.dt
    assert report.rejections == 0
    assert report.newton_iterations == 0


def test_step_preserves_velocity_mean():
    # The weighted momentum budget telescopes: gravity integrates to
    # zero and boundary stresses cancel, so the trapezoid mean of u is
    # invariant (measured drift ~5e-18 over 20 steps).
    cfg = bump_config(n_cells=64, t_end=1.0)
    s = init_state(cfg)
    for _ in range(20):
        s, _ = step(s, cfg)
        assert abs(velocity_mean(s)) <= 1e-15


def test_step_first_order_in_dt():
    # Successive-difference Richardson on the full splitting at pinned
    # dt; measured ratios 1.99-2.03 for all four fields.
    cfg = bump_config(n_cells=32, t_end=0.05, k_rate=5.0)
    coarse, mid, fine = run_fixed(init_state(cfg), cfg, [50, 100, 200])
    for name in ("v", "theta", "z", "u"):
        d1 = np.max(np.abs(getattr(coarse, name) - getattr(mid, name)))
        d2 = np.max(np.abs(getattr(mid, name) - getattr(fine, name)))
        assert 1.7 <= d1 / d2 <= 2.3, name


def test_step_halves_dt_on_rejection():
    # An artificially high volume floor forces one rejection per try
    # until the retry budget is spent; the error carries the last good
    # state untouched.
    cfg = bump_config(n_cells=16, t_end=0.05)
    s = init_state(cfg)
    cfg.v_floor = 2.0
    v_before = s.v.copy()
    with pytest.raises(SimulationError) as err:
        step(s, cfg)
    assert err.value.last_state.t == 0.0
    np.testing.assert_array_equal(err.value.last_state.v, v_before)


def test_step_recovers_after_transient_rejection(monkeypatch):
    # The first attempt at the cfl_dt step is rejected; the retry at half
    # of it passes, and the report records the one rejection.
    cfg = bump_config(n_cells=16, t_end=10.0)
    s = init_state(cfg)
    volume_step = rrgas.solver.volume_step
    calls = []

    def rejecting_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise StepRejection("volume_floor")
        return volume_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "volume_step", rejecting_once)
    s2, report = step(s, cfg)
    assert report.rejections == 1
    assert report.dt == cfl_dt(s, cfg) / 2
    assert s2.t == report.dt


# ----------------------------------------------------------------- batch

def state_bits(s):
    return b"".join(getattr(s, name).tobytes() for name in ("v", "u", "theta", "z"))


@pytest.mark.parametrize("max_iter,dts", [
    # No member is rejected.  They converge in 3, 4 and 7 Newton
    # iterations, so converged members stay put while others iterate.
    (50, [1e-4, 1e-3, 1e-2]),
    # The first member converges in 3 iterations; the others stall there.
    (3, [1e-4, 1e-3, 1e-2]),
])
def test_step_batch_members_match_their_serial_runs(max_iter, dts):
    # Each member gets the bits and the report of its own serial step at
    # its pinned dt; a batch with rejected members raises StepRejection
    # naming exactly the members whose own step is rejected.
    cfg = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    cfg.params = dataclasses.replace(cfg.params, p_ext=5.0)  # hard squeeze
    cfg.newton_max_iter = max_iter
    serial = [init_state(cfg)] * len(dts)
    batch = stack(serial)
    iterations = []
    for _ in range(3):
        reports = []
        for member, dt in enumerate(dts):
            try:
                serial[member], r = step(serial[member], cfg, dt=dt)
                reports.append(r)
            except StepRejection:
                reports.append(None)
        rejected = [r is None for r in reports]
        if any(rejected):
            with pytest.raises(StepRejection) as err:
                step_batch(batch, cfg, dt=np.array(dts))
            assert err.value.members.tolist() == rejected
            break
        batch, report = step_batch(batch, cfg, dt=np.array(dts))
        for member, (s, r) in enumerate(zip(serial, reports)):
            got = batch[member]
            assert state_bits(got) == state_bits(s)
            assert (got.t, got.a_pos) == (s.t, s.a_pos)
            for name, value in vars(r).items():
                if name != "rejections":  # a batch step is one attempt
                    assert getattr(report, name)[member] == value, name
            assert report.rejections == r.rejections == 0
        iterations.append(report.newton_iterations.tolist())
    assert rejected == ([False] * 3 if max_iter == 50 else [False, True, True])
    assert iterations[:1] == ([[3, 4, 7]] if max_iter == 50 else [])


def test_step_batch_line_search_halves_one_members_step(monkeypatch):
    # Member 0 converges in 3 Newton iterations; member 1 iterates on.
    # Member 1's fourth update is pushed by 1.5 times its iterate, so its
    # full step falls below the floor and the line search halves it while
    # member 0 has converged.  Each member gets the bits and the report
    # of its own serial step, made with the same push.
    cfg = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    cfg.params = dataclasses.replace(cfg.params, p_ext=5.0)  # hard squeeze
    laws, solve = rrgas.solver._energy_laws, rrgas.solver.solveh_banded
    iterates, updates, pushed = [], [], []  # per Newton iteration; the row pushed

    def recording_laws(theta, *args):
        iterates.append(theta)
        return laws(theta, *args)

    def pushing_solve(diag, upper, rhs):
        delta = solve(diag, upper, rhs)
        if iterates:  # an energy solve
            if len(iterates) == 4 and pushed:
                delta[pushed[0]] += 1.5 * iterates[-1][pushed[0]]
            updates.append(delta)
        return delta

    monkeypatch.setattr(rrgas.solver, "_energy_laws", recording_laws)
    monkeypatch.setattr(rrgas.solver, "solveh_banded", pushing_solve)

    def run(advance, state, dt, row):
        iterates.clear()
        updates.clear()
        pushed[:] = [] if row is None else [row]
        return advance(state, cfg, dt=dt)

    first, dts = init_state(cfg), np.array([1e-4, 1e-2])
    # The last row is member 1's, also where the converged member has
    # left the rows that iterate.
    batch, report = run(step_batch, stack([first] * 2), dts, -1)
    before, delta, after = iterates[3][-1], updates[3][-1], iterates[4][-1]
    assert (before - delta <= cfg.theta_floor).any()
    assert any(np.array_equal(after, before - 0.5**j * delta) for j in range(1, 40))
    assert report.newton_iterations[0] <= 3 < report.newton_iterations[1]
    for member, row in enumerate((None, ...)):
        s, r = run(step, first, dts[member], row)
        assert state_bits(batch[member]) == state_bits(s)
        for name, value in vars(r).items():
            if name != "rejections":  # a batch step is one attempt
                assert getattr(report, name)[member] == value, name


def test_step_batch_keeps_a_constant_species_profile_per_member():
    # One member's reactant is uniform (it takes the per-cell decay
    # branch and stays exactly constant), the other's is not (it takes
    # the diffusion solve); each gets the bits of its own step.
    cfg = bump_config(n_cells=16, t_end=1.0)
    flat = init_state(cfg)
    cfg.z_profile = Profile("gaussian-bump", {"base": 0.5, "amplitude": 0.3})
    bumped = init_state(cfg)
    batch, _ = step_batch(stack([flat, bumped]), cfg, dt=np.array([0.01, 0.01]))
    for member, s in enumerate((flat, bumped)):
        assert state_bits(batch[member]) == state_bits(step(s, cfg, dt=0.01)[0])
    assert np.all(batch.z[0] == batch.z[0, 0])


def test_step_batch_reports_every_field_per_member():
    # The members converge on the same Newton iteration here; the report
    # still has one entry per member in every field step_batch fills.
    # rejections is not one of them: a batch step is one attempt, so it
    # keeps its default of 0.
    cfg = bump_config(n_cells=16, t_end=1.0)
    batch, report = step_batch(stack([init_state(cfg)] * 2), cfg, dt=np.array([1e-3, 1e-3]))
    fields = vars(report)
    assert fields.pop("rejections") == 0
    for value in fields.values():
        assert np.shape(value) == (2,)
    assert report.newton_iterations[0] == report.newton_iterations[1] > 0


# ------------------------------------------------ per-member constants

def member_params():
    """Three members that differ in every physical constant; the last
    has no reaction, so its reaction bound has a peak of 0."""
    return [
        ref_params(k_rate=5.0),
        ref_params(mu=0.2, d_diff=0.05, lambda_heat=2.0, cv=1.5, r_gas=0.7, a_rad=1.0,
                   g_grav=0.3, p_ext=-0.1, k_rate=3.0, a_act=2.0, m_order=2.0, beta=0.5,
                   q_cond=0.0, kappa1=0.3, kappa2=0.8),
        ref_params(mu=0.05, d_diff=0.2, lambda_heat=0.5, cv=0.8, r_gas=1.3, a_rad=0.25,
                   g_grav=0.0, p_ext=1.5, k_rate=0.0, a_act=6.0, m_order=3.0, beta=2.0,
                   q_cond=0.5, kappa1=0.1, kappa2=2.0),
    ]


def test_momentum_step_with_per_member_constants():
    # A (B,) dt against a (B, 1) mu must not broadcast to (B, B).
    members = member_params()
    states = [random_state(12, seed) for seed in (1, 2, 3)]
    dts = np.array([1e-3, 2e-3, 5e-4])
    u = momentum_step(stack(states), dts, PhysParams.stack(members))
    assert u.shape == (3, 13)
    for b, (state, params) in enumerate(zip(states, members)):
        assert u[b].tobytes() == momentum_step(state, dts[b], params).tobytes()


def test_stress_divergence_with_per_member_external_pressure():
    # The ghost stress of each member is its own -p_ext.
    members = member_params()
    sigma = np.random.default_rng(2).standard_normal((3, 12))
    grid = Grid(12)
    accel = stress_divergence(sigma, PhysParams.stack(members).p_ext, grid)
    assert accel.shape == (3, 13)
    for b, params in enumerate(members):
        assert accel[b].tobytes() == stress_divergence(sigma[b], params.p_ext, grid).tobytes()


def test_cfl_dt_of_a_batch_is_each_members_dt():
    # Per row and bitwise the member's own float dt; the member without
    # reaction has a peak of 0, which must not be divided by (pyproject
    # makes that RuntimeWarning an error).  A member at t_end gets a dt
    # of 0 instead of the single run's underflow error: the caller of a
    # batch checks DT_MIN.
    members = member_params()
    configs = [RunConfig(params=params, t_end=0.2, dt_max=1.0) for params in members]
    states = [random_state(12, seed) for seed in (1, 2, 3)]
    states[0].t = 0.2 - 1e-4  # this member's dt lands on t_end
    batch_config = dataclasses.replace(configs[0], params=PhysParams.stack(members))
    dt = cfl_dt(stack(states), batch_config)
    assert dt.shape == (3,)
    for b, (state, config) in enumerate(zip(states, configs)):
        assert dt[b].tobytes() == np.float64(cfl_dt(state, config)).tobytes()
    assert states[0].t + dt[0] == 0.2
    states[2].t = 0.2
    dt = cfl_dt(stack(states), batch_config)
    assert dt[2] == 0.0
    with pytest.raises(SimulationError, match="underflow"):
        cfl_dt(states[2], configs[2])


def test_step_batch_with_per_member_constants_matches_serial_steps():
    # Every stage reads the constants of its own member, the Newton
    # solve included: the members converge on different iterations, and
    # a converged member's residual is recomputed while it stays put.
    members = member_params()
    configs = [bump_config(n_cells=16, t_end=10.0) for _ in members]
    for config, params in zip(configs, members):
        config.params = params
    serial = [init_state(configs[0])] * 3
    batch = stack(serial)
    batch_config = dataclasses.replace(configs[0], params=PhysParams.stack(members))
    dts = np.array([2e-3, 1e-3, 4e-3])
    iterations = set()
    for _ in range(3):
        batch, report = step_batch(batch, batch_config, dt=dts)
        for b, config in enumerate(configs):
            serial[b], r = step(serial[b], config, dt=dts[b])
            assert state_bits(batch[b]) == state_bits(serial[b])
            assert (batch[b].t, batch[b].a_pos) == (serial[b].t, serial[b].a_pos)
            for name, value in vars(r).items():
                if name != "rejections":  # a batch step is one attempt
                    assert getattr(report, name)[b] == value, name
        iterations.add(tuple(report.newton_iterations.tolist()))
    assert any(len(set(its)) > 1 for its in iterations)


# ------------------------------------------------ law values a step carries

def expected_laws(new, before, params):
    """The laws on new's own fields (the species decay on before's too):
    what new carries from the step that made it from before."""
    m = params.m_order
    return {
        "theta4": new.theta**4,
        "e": internal_energy(new.v, new.theta, params),
        "kappa": heat_conductivity(new.v, new.theta, params),
        "zm": np.power(new.z, m),
        "decay": reaction_rate(new.v, before.theta, params) * np.power(before.z, m - 1.0),
        "g": species_interface_coeff(new.v, params),
    }


def rebuilt(s):
    """s as a state built by State(...): its fields, no law values."""
    return State(s.grid, s.v, s.theta, s.z, s.u, s.t, s.a_pos)


@pytest.mark.parametrize("m_order", [1.0, 2.0])
@pytest.mark.parametrize("cond_model", ["A", "B"])
@pytest.mark.parametrize("q_cond", [0.0, 0.5, 2.0])
def test_a_step_carries_the_laws_of_its_new_state(q_cond, cond_model, m_order):
    # Every carried array is bit for bit the law on the new state's own
    # fields, for one run and for each member of a batch with
    # per-member constants; a step from a carried state has the bits
    # of a step from the same fields without them.
    base = ref_params(k_rate=5.0, q_cond=q_cond, cond_model=cond_model, m_order=m_order)
    members = [base, dataclasses.replace(base, a_rad=0.25, cv=1.5, kappa2=2.0),
               dataclasses.replace(base, k_rate=3.0, d_diff=0.2, lambda_heat=2.0)]
    configs = [bump_config(n_cells=16, t_end=10.0) for _ in members]
    for config, params in zip(configs, members):
        config.params = params
    first = init_state(configs[0])
    assert first.laws is None
    batch_config = dataclasses.replace(configs[0], params=PhysParams.stack(members))
    before, dts = stack([first] * 3), np.array([2e-3, 1e-3, 4e-3])
    for _ in range(2):
        batch, _ = step_batch(before, batch_config, dt=dts)
        assert batch.laws["params"] is batch_config.params
        cfl_dt(batch, batch_config)
        for b, params in enumerate(members):
            laws = {name: value[b] for name, value in batch.laws.items() if name != "params"}
            expected = expected_laws(batch[b], before[b], params)
            expected["phi"] = reaction_rate(batch[b].v, batch[b].theta, params)
            assert laws.keys() == expected.keys()
            for name, value in expected.items():
                assert laws[name].tobytes() == value.tobytes(), (b, name)
        again, _ = step_batch(rebuilt(batch), batch_config, dt=dts)
        assert state_bits(step_batch(batch, batch_config, dt=dts)[0]) == state_bits(again)
        before = batch
    config = configs[0]
    states = [first]
    for _ in range(3):
        new, _ = step(states[-1], config, dt=1e-3)
        assert new.laws["params"] is config.params
        expected = expected_laws(new, states[-1], config.params)
        assert new.laws.keys() - {"params"} == expected.keys()
        for name, value in expected.items():
            assert new.laws[name].tobytes() == value.tobytes(), name
        assert state_bits(step(rebuilt(new), config, dt=1e-3)[0]) == state_bits(
            step(new, config, dt=1e-3)[0])
        states.append(new)


def test_carried_laws_belong_to_their_constants(tmp_path):
    # One state stepped, bounded and recorded under two sets of
    # constants: the second reads none of the first's values, and its
    # bits are those of the bare fields.  The other constants change
    # every carried law, and their reaction bounds dt.
    config = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    other = dataclasses.replace(config, params=dataclasses.replace(
        config.params, a_rad=0.25, k_rate=5e3, m_order=2.0, q_cond=0.5))
    first = init_state(config)
    new, _ = step(first, config, dt=1e-3)
    cfl_dt(new, config)
    assert state_bits(step(new, other, dt=1e-3)[0]) == state_bits(
        step(rebuilt(new), other, dt=1e-3)[0])
    assert cfl_dt(new, other) == cfl_dt(rebuilt(new), other) < cfl_dt(new, config)
    for previous in None, (first, 0.0, 0.0):
        assert repr(record([(new, 1e-3)], other.params, previous)) == repr(
            record([(rebuilt(new), 1e-3)], other.params, previous))
    assert new.laws["params"] is config.params
    write_snapshot(tmp_path / "snap.csv", new, config.params)
    reread, _ = read_snapshot(tmp_path / "snap.csv")
    for made in (new.copy(), new[None], stack([new]), rebuilt(new), reread):
        assert made.laws is None


def test_a_trial_state_carries_nothing(monkeypatch):
    # The sub-steps see a trial state without its input's law values.
    seen, real = [], rrgas.solver.species_step
    monkeypatch.setattr(rrgas.solver, "species_step", lambda state, *args, **kwargs: (
        seen.append(state.laws), real(state, *args, **kwargs))[1])
    config = bump_config(n_cells=16, t_end=10.0)
    new, _ = step(init_state(config), config, dt=1e-3)
    step(new, config, dt=1e-3)
    assert new.laws is not None and seen == [None, None]


# ------------------------------------------------- Newton's start point

def two_steps(cfg, dt):
    """(state, history) after two steps of dt from cfg's initial state:
    the third step's input and its two earlier levels."""
    s0 = init_state(cfg)
    s1, _ = step(s0, cfg, dt=dt)
    s2, _ = step(s1, cfg, dt=dt, history=(s0,))
    return s2, (s1, s0)


def test_start_point_below_the_floor_falls_back_per_member(monkeypatch):
    # Member 1's older level is 10 hotter, so its extrapolation lands
    # far below theta_floor: that member starts from theta^n, member 0
    # from its extrapolation.  Each gets the bits and the report of its
    # own serial step with its own history.
    cfg = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    dt = 1e-3
    state, (s1, s0) = two_steps(cfg, dt)
    hot = s1.copy()
    hot.theta = state.theta + 10.0
    histories = [(s1, s0), (hot, s0)]
    guesses = []  # of every energy_step call, in order

    def recording(*args, guess=None, **kwargs):
        guesses.append(guess)
        return energy_step(*args, guess=guess, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", recording)
    batch, report = step_batch(stack([state] * 2), cfg, dt=np.array([dt, dt]),
                               history=tuple(stack(levels) for levels in zip(*histories)))
    [guess] = guesses
    assert guess[1].tobytes() == state.theta.tobytes()
    assert (guess[0] != state.theta).any() and (guess[0] > cfg.theta_floor).all()
    for member, history in enumerate(histories):
        s, r = step(state, cfg, dt=dt, history=history)
        assert state_bits(batch[member]) == state_bits(s)
        assert (batch[member].t, batch[member].a_pos) == (s.t, s.a_pos)
        for name, value in vars(r).items():
            if name != "rejections":  # a batch step is one attempt
                assert getattr(report, name)[member] == value, name
    assert guesses[1] is not None and guesses[2] is None  # alone, member 1 starts from theta^n
    assert report.newton_iterations[0] < report.newton_iterations[1]


@pytest.mark.parametrize("bad", BAD_CELLS, ids=BAD_IDS)
def test_start_point_falls_back_for_exactly_the_member_with_a_bad_cell(bad):
    # theta goes 1.5 -> 1 over one time unit, so one more unit lands on
    # 0.5.  An older level of 2 (1 -> 0) puts a cell on theta_floor = 0,
    # one of -inf (+inf, nan) makes it +inf (-inf, nan): that member
    # starts from theta^n, the others from their extrapolation.
    grid = Grid(4)

    def level(theta, t):
        return State(grid, np.ones(4), np.full(4, theta), np.zeros(4), np.zeros(5), t)

    state, older = stack([level(1.0, 1.0)] * 3), stack([level(1.5, 0.0)] * 3)
    older.theta[1, 2] = {"floor": 2.0, np.inf: -np.inf, -np.inf: np.inf}.get(bad, bad)
    with np.errstate(invalid="ignore"):
        guess = _start_point(state, (older,), np.ones(3), 0.0)
        alone = _start_point(state[1], (older[1],), 1.0, 0.0)
    assert guess[1].tobytes() == state.theta[1].tobytes()
    assert (guess[[0, 2]] == 0.5).all()
    assert alone is None  # a single run starts from theta^n
    assert (_start_point(state[0], (older[0],), 1.0, 0.0) == 0.5).all()


def test_a_retry_keeps_the_history(monkeypatch):
    # The first attempt at the cfl_dt step is rejected; the retry at half
    # of it starts from the same state and the same history, and gives
    # the bits of a step pinned at that dt with that history.
    cfg = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    state, history = two_steps(cfg, 1e-3)
    pinned_dt = cfl_dt(state, cfg) / 2
    pinned, pinned_report = step(state, cfg, dt=pinned_dt, history=history)
    unstarted, _ = step(state, cfg, dt=pinned_dt)
    assert state_bits(unstarted) != state_bits(pinned)

    real_volume_step, real_step_batch = rrgas.solver.volume_step, rrgas.solver.step_batch
    attempts = []

    def rejecting_once(*args, **kwargs):
        if len(attempts) == 1:
            raise StepRejection("volume_floor")
        return real_volume_step(*args, **kwargs)

    def recording(state, config, sources=None, *, dt, history=()):
        attempts.append((state, dt, history))
        return real_step_batch(state, config, sources, dt=dt, history=history)

    monkeypatch.setattr(rrgas.solver, "volume_step", rejecting_once)
    monkeypatch.setattr(rrgas.solver, "step_batch", recording)
    new, report = step(state, cfg, history=history)
    assert all(s is state and h is history for s, _, h in attempts)
    assert [dt for _, dt, _ in attempts] == [pinned_dt * 2, pinned_dt]
    assert (report.rejections, report.dt) == (1, pinned_dt)
    assert state_bits(new) == state_bits(pinned)
    assert report.newton_iterations == pinned_report.newton_iterations


# configs/reacting.ini: SHA-256 of the state after its first step (no
# history, so Newton starts from theta^n) and that step's newton
# iterations, as before Newton started from an extrapolation
REACTING_FIRST_STEP = ("aa958c76cf962c3b51c0046a3996501daf2c0b6e3ded75d4c71ecfd4fb114194", 5)


def test_the_first_step_has_no_history_and_keeps_its_bits(configs_dir):
    config = load_config(configs_dir / "reacting.ini")
    first, report = step(init_state(config), config)
    assert (state_digest(first), report.newton_iterations) == REACTING_FIRST_STEP


def test_constant_temperature_extrapolates_to_itself():
    # Two exact rest states, uniform theta = 1 and theta = 2, each
    # against its own p_ext.  With two levels of history and unequal
    # steps, the divided differences are exactly 0, so each start point
    # is theta^n and meets newton_tol at once: every field stays bitwise
    # constant, with no Newton iteration.
    members = [rest_params(), rest_params(p_ext=18.0)]  # p = 1 + 1 and 2 + 16
    cfg = RunConfig(params=PhysParams.stack(members), t_end=1.0)
    batch = stack([uniform_state(16), uniform_state(16, theta=2.0)])
    dts = np.array([1e-3, 3e-3])
    history = ()
    for _ in range(4):
        new, report = step_batch(batch, cfg, dt=dts, history=history)
        assert report.newton_iterations.tolist() == [0, 0]
        history, batch = (batch, *history)[:2], new
        dts = dts * 1.5
    assert len(history) == 2
    assert np.all(batch.theta == np.array([[1.0], [2.0]]))
    assert np.all(batch.v == 1.0) and np.all(batch.u == 0.0) and np.all(batch.z == 0.0)
