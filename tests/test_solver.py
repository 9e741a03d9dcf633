"""Semi-implicit integrator: substeps against independent oracles.

Each oracle is either a hand-evaluated closed form, a scalar root found
with brentq on the same balance the substep discretizes, or a bisection
on the explicit reference integrator.  Oracles are computed before the
routine under test is called.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

import rrgas.solver
from rrgas.config import Profile, RunConfig, init_state
from rrgas.constitutive import PhysParams, internal_energy, pressure, reaction_rate
from rrgas.explicit import explicit_reference_step
from rrgas.mesh import Grid, State, stack, velocity_mean, width
from rrgas.solver import (
    SimulationError,
    StepRejection,
    _solve_spd_tridiag,
    cfl_dt,
    energy_step,
    gravity_accel,
    momentum_step,
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
        got = _solve_spd_tridiag(diag, off, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_tridiag_single_cell():
    out = _solve_spd_tridiag(np.array([4.0]), np.array([]), np.array([8.0]))
    np.testing.assert_allclose(out, [2.0])


# ------------------------------------------------------------ stress terms

def test_total_stress_single_cell():
    # sigma = -p(1,1) + mu*du/(dx*v) = -2 + 0.1*0.1/1 = -1.99
    p = ref_params(r_gas=1.0, a_rad=3.0)
    sigma = total_stress(np.array([1.0]), np.array([1.0]), np.array([0.0, 0.1]), 1.0, p)
    np.testing.assert_allclose(sigma, [-1.99], rtol=1e-15)


def test_stress_divergence_interior_and_boundary():
    sigma = np.array([1.0, 3.0])
    accel = stress_divergence(sigma, p_ext=0.5, dx=0.5)
    # interior: (3-1)/0.5 = 4; left: (1+0.5)/0.25 = 6; right: (-0.5-3)/0.25 = -14
    np.testing.assert_allclose(accel, [6.0, 4.0, -14.0], rtol=1e-15)


def test_stress_divergence_momentum_budget():
    # Trapezoid-weighted sum of accelerations telescopes to zero: the
    # boundary stresses enter with opposite signs.
    rng = np.random.default_rng(11)
    sigma = rng.standard_normal(16)
    accel = stress_divergence(sigma, p_ext=0.7, dx=1.0 / 16)
    assert abs(velocity_mean(accel, 1.0 / 16)) <= 1e-13 * np.max(np.abs(accel))


def test_gravity_accel_antisymmetric():
    g = Grid(8)
    a = gravity_accel(g.edges, ref_params(g_grav=0.4))
    np.testing.assert_allclose(a, -a[::-1], atol=1e-16)
    assert a[0] == 0.2  # -G*(0 - 1/2)


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
    phi = reaction_rate(1.0, 1.0, p)
    growth = p.lambda_heat * phi * (p.beta / 1.0 + p.a_act / 1.0)
    cfg = RunConfig(params=p)
    cfg.dt_max = 1.0
    cfg.cfl_number = 0.5
    cfg.t_end = 100.0
    assert cfl_dt(s, cfg) == pytest.approx(0.5 / growth, rel=1e-12)


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
    accel = stress_divergence(sigma, p.p_ext, dx) + gravity_accel(g.edges, p)
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
    v_new = volume_step(s, 0.1)
    assert np.all(v_new == s.v)


def test_volume_linear_velocity_adds_dt():
    # u = x on a power-of-two mesh: u_x = 1 in exact floats.
    n = 8
    s = uniform_state(n, v=0.7)
    s.u = Grid(n).edges.copy()
    v_new = volume_step(s, 0.125)
    assert np.all(v_new == 0.7 + 0.125)


def test_volume_width_identity():
    # Total width change telescopes to the boundary velocities.
    rng = np.random.default_rng(5)
    n = 32
    s = uniform_state(n)
    s.u = rng.standard_normal(n + 1)
    dt = 0.01
    v_new = volume_step(s, dt)
    got = float(np.sum(v_new) - np.sum(s.v)) * s.grid.dx
    assert got == pytest.approx(dt * (s.u[-1] - s.u[0]), abs=1e-14)


def test_volume_floor_rejects():
    s = uniform_state(4, v=0.1)
    s.u = -Grid(4).edges.copy()  # u_x = -1 everywhere
    with pytest.raises(StepRejection):
        volume_step(s, 0.2, v_floor=1e-8)


def test_volume_nonfinite_rejects():
    s = uniform_state(4)
    s.u[2] = np.inf
    with pytest.raises(StepRejection):
        volume_step(s, 0.01)


# ----------------------------------------------------------------- species

def test_species_zero_stays_zero():
    s = uniform_state(8, z=0.0, theta=2.0)
    z_new, diff_inc, react_inc = species_step(s, 0.1, ref_params(k_rate=3.0))
    assert np.all(z_new == 0.0)
    assert diff_inc == 0.0
    assert react_inc == 0.0


def test_species_inert_constant_is_bitwise_fixed():
    s = uniform_state(8, z=0.37)
    z_new, _, _ = species_step(s, 0.1, ref_params(k_rate=0.0))
    assert np.all(z_new == 0.37)


def test_species_single_cell_decay_closed_form():
    # n=1 has no diffusion; the linear-kinetics update is z/(1 + dt*phi).
    p = ref_params(k_rate=2.0, a_act=1.0, beta=0.5, m_order=1.0)
    s = uniform_state(1, v=0.8, theta=1.3, z=0.9)
    phi = reaction_rate(0.8, 1.3, p)
    expected = 0.9 / (1.0 + 0.05 * phi)
    z_new, _, _ = species_step(s, 0.05, p)
    assert z_new[0] == expected


def test_species_inert_mass_conserved():
    rng = np.random.default_rng(2)
    n = 24
    s = uniform_state(n)
    s.v = 1.0 + 0.5 * rng.random(n)
    s.z = rng.uniform(0.1, 0.9, n)
    total_before = float(np.sum(s.z))
    z_new, _, _ = species_step(s, 0.05, ref_params(k_rate=0.0))
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
    z_new, diff_inc, react_inc = species_step(s, dt, p)
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
    z_new, _, _ = species_step(s, 0.05, ref_params(k_rate=1.0))
    assert np.all(z_new >= 0.0)
    assert float(np.max(z_new)) <= max(float(np.max(z0)), 0.0) * (1.0 + 1e-13)


# ------------------------------------------------------------------ energy

def test_energy_rest_state_zero_iterations():
    s = uniform_state(8)
    theta_new, iters, res = energy_step(s, 0.01, rest_params(), s.v.copy())
    assert iters == 0
    assert res == 0.0
    assert np.all(theta_new == 1.0)


def test_energy_single_cell_reaction_heating():
    # Scalar balance e(v, theta1) = e(v, theta0) + dt*lambda*phi(theta0)*z.
    # Oracle: brentq on the same scalar equation.
    p = ref_params(k_rate=3.0, a_act=2.0, lambda_heat=2.0)
    v0, th0, z0, dt = 0.9, 1.2, 0.8, 0.02
    heating = p.lambda_heat * reaction_rate(v0, th0, p) * z0
    target = internal_energy(v0, th0, p) + dt * heating

    def balance(th):
        return internal_energy(v0, th, p) - target

    oracle = brentq(balance, th0, th0 + 1.0, xtol=1e-14, rtol=8.9e-16)

    s = uniform_state(1, v=v0, theta=th0, z=z0)
    theta_new, iters, _ = energy_step(s, dt, p, s.v.copy(), newton_tol=1e-12)
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
    theta_new, iters, _ = energy_step(s, 0.05, p, s.v.copy(), newton_tol=1e-13)
    after = float(np.sum(internal_energy(s.v, theta_new, p)))
    assert iters >= 1
    assert after == pytest.approx(before, rel=1e-12)
    # heat flows from hot to cold
    assert 0.5 < theta_new[1] < theta_new[0] < 1.5


def test_energy_newton_stall_rejects():
    s = uniform_state(2)
    s.theta = np.array([1.5, 0.5])
    with pytest.raises(StepRejection):
        energy_step(s, 0.05, ref_params(), s.v.copy(), newton_max_iter=0)


# ------------------------------------------------------------- full step

@pytest.mark.parametrize("rejections", [0, 2])
def test_step_samples_sources_at_each_attempts_new_level(rejections, monkeypatch):
    # Each attempt asks for the sources at its own t + dt, the halved
    # dt of a retry included.
    cfg = bump_config(n_cells=16, t_end=1.0)
    s = init_state(cfg)
    s.t = 0.25
    times = []

    def sources(t):
        times.append(t)
        return np.zeros(16), np.zeros(17), np.zeros(16), np.zeros(16)

    energy_step = rrgas.solver.energy_step

    def rejecting(*args, **kwargs):
        if len(times) <= rejections:
            raise StepRejection("newton_stall")
        return energy_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", rejecting)
    s2, report = step(s, cfg, sources=sources, dt=0.01)
    dts = [0.01 * 0.5**k for k in range(rejections + 1)]
    assert times == [0.25 + dt for dt in dts]
    assert report.rejections == rejections
    assert report.dt == dts[-1]
    assert s2.t == times[-1]


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

    def run_pinned(nsteps):
        s = init_state(cfg)
        dt = cfg.t_end / nsteps
        for _ in range(nsteps):
            s, _ = step(s, cfg, dt=dt)
        return s

    coarse, mid, fine = run_pinned(50), run_pinned(100), run_pinned(200)
    for name in ("v", "theta", "z", "u"):
        d1 = np.max(np.abs(getattr(coarse, name) - getattr(mid, name)))
        d2 = np.max(np.abs(getattr(mid, name) - getattr(fine, name)))
        assert 1.7 <= d1 / d2 <= 2.3, name


def test_step_halves_dt_on_rejection():
    # An artificially high volume floor forces one rejection per try
    # until the retry budget is spent; the error carries the last good
    # state untouched.
    cfg = bump_config(n_cells=16, t_end=0.05)
    cfg.v_floor = 2.0
    s = init_state(cfg)
    v_before = s.v.copy()
    with pytest.raises(SimulationError) as err:
        step(s, cfg)
    assert err.value.last_state.t == 0.0
    np.testing.assert_array_equal(err.value.last_state.v, v_before)


def test_step_recovers_after_transient_rejection():
    # Pin an oversized dt: the first attempt breaks the volume floor,
    # the halved retry succeeds, and the report records the rejection.
    cfg = bump_config(n_cells=16, t_end=10.0)
    cfg.params = dataclasses.replace(cfg.params, p_ext=5.0)  # hard squeeze
    s = init_state(cfg)
    s2, report = step(s, cfg, dt=0.4)
    assert report.rejections >= 1
    assert report.dt < 0.4
    assert s2.t == report.dt


# ----------------------------------------------------------------- batch

def state_bits(s):
    return b"".join(getattr(s, name).tobytes() for name in ("v", "u", "theta", "z"))


@pytest.mark.parametrize("max_iter,dts", [
    # 0.01 is never rejected; 0.05 once; 0.4 several times, at the
    # volume floor too.  The members converge in different numbers of
    # Newton iterations, so converged members are frozen while others
    # iterate.
    (50, [0.01, 0.05, 0.4]),
    # Every member stalls at 3 iterations and is rejected, some when
    # others have converged.
    (3, [0.01, 0.05, 0.1]),
])
def test_step_batch_members_match_their_serial_runs(max_iter, dts):
    cfg = bump_config(n_cells=16, t_end=10.0, k_rate=5.0)
    cfg.params = dataclasses.replace(cfg.params, p_ext=5.0)  # hard squeeze
    cfg.newton_max_iter = max_iter
    s0 = init_state(cfg)
    batch = stack([s0] * len(dts))
    totals = np.zeros((len(dts), 4), dtype=int)
    for _ in range(3):
        batch, report = step_batch(batch, cfg, dt=np.array(dts))
        totals += np.column_stack([report.newton_iterations, report.rejections,
                                   report.floor_hit, report.nonconverged])
    for member, dt in enumerate(dts):
        serial, expected = s0, np.zeros(4, dtype=int)
        for _ in range(3):
            serial, r = step(serial, cfg, dt=dt)
            expected += [r.newton_iterations, r.rejections, r.floor_hit, r.nonconverged]
        got = batch[member]
        assert state_bits(got) == state_bits(serial)
        assert (got.t, got.a_pos) == (serial.t, serial.a_pos)
        assert totals[member].tolist() == expected.tolist()
    assert totals[:, 1].tolist() == ([0, 1, 9] if max_iter == 50 else [15, 24, 27])


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
    # still has one entry per member in every field.
    cfg = bump_config(n_cells=16, t_end=1.0)
    batch, report = step_batch(stack([init_state(cfg)] * 2), cfg, dt=np.array([1e-3, 1e-3]))
    for value in vars(report).values():
        assert np.shape(value) == (2,)
    assert report.newton_iterations[0] == report.newton_iterations[1] > 0


def test_step_batch_raises_the_error_of_a_member_out_of_retries():
    # Only the member below the volume floor is rejected; it spends its
    # retry budget as its serial run does, and the batch stops with the
    # serial run's error and the untouched batch as the last state.
    cfg = RunConfig(params=rest_params(), n_cells=16, t_end=1.0, v_floor=2.0)
    squeezed, roomy = uniform_state(16, v=1.0), uniform_state(16, v=3.0)
    with pytest.raises(SimulationError) as err:
        step(squeezed, cfg, dt=0.01)
    batch = stack([roomy, squeezed])
    with pytest.raises(SimulationError) as batch_err:
        step_batch(batch, cfg, dt=np.array([0.01, 0.01]))
    assert str(batch_err.value) == str(err.value)
    assert batch_err.value.last_state is batch
    assert step(roomy, cfg, dt=0.01)[1].rejections == 0
