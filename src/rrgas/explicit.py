"""Fully explicit reference integrator.

Forward Euler on the identical staggered stencils and boundary closures
as the IMEX solver: every right-hand side is evaluated at the old time
level, the energy equation is advanced conservatively in e and the
temperature recovered per cell afterwards.  Slow (diffusion restricts
dt to O(dx^2)) but free of splitting and linearization choices, which
is exactly what makes it a useful cross-check.
"""

from __future__ import annotations

import numpy as np

from .constitutive import (
    PhysParams,
    de_dtheta,
    heat_conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from .mesh import State
from .solver import (
    InvariantViolation,
    diffusion_apply,
    gravity_accel,
    heat_interface_coeff,
    species_interface_coeff,
    stress_divergence,
    total_stress,
)


def stable_dt(state: State, params: PhysParams, safety: float = 0.4) -> float:
    """Forward-Euler diffusion stability bound.

    Covers heat conduction (v*e_theta/kappa), species diffusion
    (v^2/d) and the viscous velocity diffusion (v/mu); the caller still
    has to respect the acoustic limit separately.
    """
    v, theta = state.v, state.theta
    dx = state.grid.dx
    kappa = heat_conductivity(v, theta, params)
    heat = v * de_dtheta(v, theta, params) / kappa
    species = v**2 / params.d_diff
    viscous = v / params.mu
    tightest = min(
        float(np.min(heat)), float(np.min(species)), float(np.min(viscous))
    )
    return safety * dx**2 * tightest


def _recover_theta(v, theta_guess, e_target, params: PhysParams):
    """Invert e(v, theta) = e_target per cell.

    e is increasing and convex in theta for theta > 0, so Newton lands
    right of the root after one iteration and then descends
    monotonically; no safeguarding is required.
    """
    if np.any(e_target <= 0.0):
        raise InvariantViolation("nonpositive internal energy in recovery")
    theta = theta_guess.copy()
    for _ in range(60):
        f = internal_energy(v, theta, params) - e_target
        if float(np.max(np.abs(f))) <= 1e-13 * max(1.0, float(np.max(np.abs(e_target)))):
            return theta
        theta = theta - f / de_dtheta(v, theta, params)
        if np.any(theta <= 0.0):
            raise InvariantViolation("temperature recovery left the positive range")
    raise InvariantViolation("temperature recovery did not converge")


def explicit_reference_step(state: State, dt: float, params: PhysParams, sources=None) -> State:
    """One forward-Euler step; dt must satisfy the stability bounds.

    sources, if given, is a callable t -> (s_v, s_u, s_theta, s_z) on
    the state's grid, as step takes it.
    """
    grid = state.grid
    dx = grid.dx
    v, theta, z, u = state.v, state.theta, state.z, state.u
    t = state.t

    s_v = s_u = s_th = s_z = None
    if sources is not None:
        s_v, s_u, s_th, s_z = sources(t)

    sigma = total_stress(v, theta, u, dx, params)
    accel = stress_divergence(sigma, params.p_ext, dx) + gravity_accel(grid.edges, params)
    if s_u is not None:
        accel = accel + s_u

    dudx = np.diff(u) / dx
    v_rate = dudx if s_v is None else dudx + s_v

    phi = reaction_rate(v, theta, params)
    zm = np.power(z, params.m_order)
    z_rate = diffusion_apply(species_interface_coeff(v, params), z, dx) - phi * zm
    if s_z is not None:
        z_rate = z_rate + s_z

    e_rate = (
        diffusion_apply(heat_interface_coeff(v, theta, params), theta, dx)
        + sigma * dudx
        + params.lambda_heat * phi * zm
    )
    if s_th is not None:
        e_rate = e_rate + s_th

    new = state.copy()
    new.a_pos = state.a_pos + dt * float(u[0])
    new.u = u + dt * accel
    new.v = v + dt * v_rate
    # Checked before the recovery, which evaluates e(v, theta) at new.v.
    if not np.all(np.isfinite(new.v)) or np.any(new.v <= 0.0):
        raise InvariantViolation("explicit step lost volume positivity")
    new.z = z + dt * z_rate
    e_new = internal_energy(v, theta, params) + dt * e_rate
    new.theta = _recover_theta(new.v, theta, e_new, params)
    new.t = t + dt

    if sources is None and (np.any(new.z < 0.0) or np.any(new.z > 1.0)):
        raise InvariantViolation("explicit step left the species range")
    return new


def run_explicit(state: State, dt: float, n_steps: int, params: PhysParams, sources=None) -> State:
    for _ in range(n_steps):
        state = explicit_reference_step(state, dt, params, sources)
    return state
