"""Explicit reference integrator: closed-form single steps and the
splitting-error comparison against the semi-implicit scheme."""

import numpy as np
import pytest

from rrgas.config import Profile, RunConfig, init_state
from rrgas.constitutive import PhysParams, internal_energy, reaction_rate
from rrgas.explicit import explicit_reference_step, run_explicit, stable_dt
from rrgas.mesh import Grid, State
from rrgas.solver import InvariantViolation, step


def params(**kw):
    base = dict(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=0.5,
        g_grav=0.0, p_ext=0.5, k_rate=0.0, a_act=4.0, m_order=1.0,
        beta=1.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    base.update(kw)
    return PhysParams(**base)


def uniform_state(n, v=1.0, theta=1.0, z=0.0, u=0.0):
    g = Grid(n)
    return State(g, np.full(n, v), np.full(n, theta), np.full(n, z), np.full(n + 1, u))


def test_stable_dt_hand_value():
    # Unit state, model A with q=2: kappa = 1, e_theta = 1 + 2 = 3,
    # heat bound v*e_theta/kappa = 3, species 1/0.1 = 10, viscous 10.
    s = uniform_state(8)
    expected = 0.4 * (1.0 / 64) * 3.0
    assert stable_dt(s, params(a_rad=0.5)) == pytest.approx(expected, rel=1e-14)


def test_stable_dt_scales_with_dx_squared():
    p = params()
    a = stable_dt(uniform_state(8), p)
    b = stable_dt(uniform_state(16), p)
    assert a == pytest.approx(4.0 * b, rel=1e-14)


def test_rest_state_is_fixed_point():
    p = params(a_rad=3.0, p_ext=2.0)
    s = uniform_state(16)
    s2 = explicit_reference_step(s, 1e-3, p)
    assert np.all(s2.u == 0.0)
    assert np.all(s2.v == 1.0)
    assert np.all(s2.theta == 1.0)
    assert s2.a_pos == 0.0


def test_single_cell_reaction_step_closed_form():
    # n=1 kills every spatial term; the update is the explicit ODE step
    #   z1 = z0 - dt*phi*z0,   e1 = e0 + dt*lambda*phi*z0.
    p = params(k_rate=2.0, a_act=2.0, lambda_heat=1.5, p_ext=0.0)
    v0, th0, z0, dt = 1.0, 1.2, 0.8, 1e-3
    phi = reaction_rate(v0, th0, p)
    z_expected = z0 - dt * phi * z0
    e_expected = internal_energy(v0, th0, p) + dt * 1.5 * phi * z0

    s = uniform_state(1, v=v0, theta=th0, z=z0)
    s2 = explicit_reference_step(s, dt, p)
    assert s2.z[0] == pytest.approx(z_expected, rel=1e-15)
    assert internal_energy(s2.v[0], s2.theta[0], p) == pytest.approx(e_expected, rel=1e-12)


def test_boundary_moves_with_old_velocity():
    # Forward Euler uses the pre-update edge speed.
    p = params()
    s = uniform_state(8)
    s.u[:] = -0.3
    s2 = explicit_reference_step(s, 0.001, p)
    assert s2.a_pos == pytest.approx(-0.3 * 0.001, rel=1e-15)


def test_recovery_rejects_nonpositive_energy():
    # A large negative heat source drives e below zero within one step.
    def sources(t):
        return None, None, np.full(4, -1e4), None

    s = uniform_state(4)
    with pytest.raises(InvariantViolation):
        explicit_reference_step(s, 1e-3, params(), sources=sources)


def test_step_rejects_lost_volume_positivity():
    # A converging velocity field squeezes cell 0 past zero volume in one
    # step: 1 + 0.1 * (-100 - 0) / 0.25 < 0.  The step reports it before
    # any constitutive law sees the negative volume.
    s = uniform_state(4)
    s.u[1] = -100.0
    with pytest.raises(InvariantViolation, match="volume positivity"):
        explicit_reference_step(s, 0.1, params())


def test_run_explicit_advances_time():
    p = params()
    s = uniform_state(8, z=0.5)
    out = run_explicit(s, 1e-4, 10, p)
    assert out.t == pytest.approx(1e-3, rel=1e-12)


def test_matches_implicit_scheme_to_first_order():
    # Same initial data, same pinned dt: the two integrators differ by
    # the splitting/linearization error, O(dt^2) over a single step.
    cfg = RunConfig()
    cfg.n_cells = 32
    cfg.t_end = 1.0
    cfg.params = params(k_rate=5.0, g_grav=0.1)
    cfg.theta_profile = Profile(
        "gaussian-bump", {"base": 1.0, "amplitude": 0.5, "center": 0.5, "width": 0.1}
    )
    cfg.z_profile = Profile("constant", {"value": 1.0})
    s0 = init_state(cfg)

    def one_step_gap(dt):
        imex, _ = step(s0, cfg, dt=dt)
        ref = explicit_reference_step(s0, dt, cfg.params)
        return max(
            np.max(np.abs(imex.theta - ref.theta)),
            np.max(np.abs(imex.u - ref.u)),
            np.max(np.abs(imex.v - ref.v)),
            np.max(np.abs(imex.z - ref.z)),
        )

    dt = 2e-5  # under the explicit stability bound at n=32
    assert stable_dt(s0, cfg.params) > dt
    gap1 = one_step_gap(dt)
    gap2 = one_step_gap(dt / 2)
    # The constant carries a 1/dx^2 from the stiff conduction term;
    # measured ~8.7e3 at this resolution, capped with ~2x headroom.
    assert gap1 <= 2e4 * dt**2
    # quadratic shrinkage is the real content (measured 3.99)
    assert 3.5 <= gap1 / gap2 <= 4.5
