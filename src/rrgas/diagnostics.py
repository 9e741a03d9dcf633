"""A priori functionals evaluated on discrete states and trajectories.

These integrals are the primary correctness surface: the total energy
functional, the nonnegative entropy pair U and V, the squared species
norm with its accumulated diffusion and reaction quadratures, slab
width, and discrete momentum.  Quadrature is the midpoint rule on
cells, matching the finite-volume semantics of the solver, so identity
residuals measure splitting error only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import PhysParams, heat_conductivity, internal_energy, reaction_rate
from .mesh import State, velocity_mean, width
from .solver import StepReport


@dataclass
class BalanceAccumulators:
    """Running time integrals of the species gradient and reaction terms.

    Updated once per accepted step with the increments the solver
    computed from its own frozen coefficients, so the z-balance
    residual is a pure measure of operator-splitting imbalance.
    """

    z_diff: float = 0.0
    z_react: float = 0.0

    def absorb(self, report: StepReport) -> None:
        self.z_diff += report.z_diff_increment
        self.z_react += report.z_react_increment


@dataclass
class DiagnosticsRecord:
    t: float
    dt: float
    e_total: float
    u_entropy: float
    v_dissipation: float
    z_l2: float
    z_diff_accum: float
    z_react_accum: float
    width: float
    min_v: float
    min_theta: float
    min_z: float
    max_z: float
    momentum: float


def total_energy(state: State, params: PhysParams) -> float:
    """Energy functional: kinetic + internal + bound species heat
    + gravitational potential + boundary compression work.

    The kinetic share of cell i averages its two edge velocities,
    (u_i^2 + u_{i+1}^2)/4; any consistent assignment shifts E by
    O(dx^2), this one is the frozen regression choice.
    """
    grid = state.grid
    x = grid.cell_centers
    kinetic = 0.25 * (state.u[:-1] ** 2 + state.u[1:] ** 2)
    density = (
        kinetic
        + internal_energy(state.v, state.theta, params)
        + params.lambda_heat * state.z
        + 0.5 * params.g_grav * x * (1.0 - x) * state.v
        + params.p_ext * state.v
    )
    return float(density.sum() * grid.dx)


def entropy_U(state: State, params: PhysParams) -> float:
    """Nonnegative distance from the (v, theta) = (1, 1) rest state."""
    v, theta = state.v, state.theta
    density = params.cv * (theta - 1.0 - np.log(theta)) + params.r_gas * (
        v - 1.0 - np.log(v)
    )
    return float(density.sum() * state.grid.dx)


def dissipation_V(state: State, params: PhysParams) -> float:
    """Viscous + conductive + reactive entropy production, all terms >= 0.

    Velocity gradients live on cells, temperature gradients at interior
    interfaces with v, kappa, theta averaged arithmetically there.
    """
    grid = state.grid
    dx = grid.dx
    v, theta, z = state.v, state.theta, state.z

    u = state.u
    dudx = (u[1:] - u[:-1]) / dx
    out = params.mu * dudx**2 / (v * theta)
    out = out + params.lambda_heat * reaction_rate(v, theta, params) * np.power(
        z, params.m_order
    ) / theta
    total = float(out.sum() * dx)

    if grid.n_cells >= 2:
        dthdx = (theta[1:] - theta[:-1]) / dx
        kappa = heat_conductivity(v, theta, params)
        v_m = 0.5 * (v[:-1] + v[1:])
        th_m = 0.5 * (theta[:-1] + theta[1:])
        k_m = 0.5 * (kappa[:-1] + kappa[1:])
        total += float((k_m * dthdx**2 / (v_m * th_m**2)).sum() * dx)
    return total


def z_squared_norm(state: State) -> float:
    """Half the integral of z^2, the decaying part of the z balance."""
    return 0.5 * float((state.z**2).sum() * state.grid.dx)


def z_balance_residual(records) -> float:
    """Defect of the species energy identity over a recorded trajectory.

    The continuum identity says z_l2 + accumulated diffusion +
    accumulated reaction stays equal to its initial value; the discrete
    residual is O(dt) on a fixed mesh and nonpositive up to roundoff.
    """
    if len(records) < 2:
        raise ValueError("need at least two records to evaluate the balance")
    first, last = records[0], records[-1]
    return (
        last.z_l2
        + (last.z_diff_accum - first.z_diff_accum)
        + (last.z_react_accum - first.z_react_accum)
        - first.z_l2
    )


def record(
    state: State,
    params: PhysParams,
    accumulators: BalanceAccumulators,
    dt: float = 0.0,
) -> DiagnosticsRecord:
    """Assemble one diagnostics row for the current state."""
    return DiagnosticsRecord(
        t=state.t,
        dt=dt,
        e_total=total_energy(state, params),
        u_entropy=entropy_U(state, params),
        v_dissipation=dissipation_V(state, params),
        z_l2=z_squared_norm(state),
        z_diff_accum=accumulators.z_diff,
        z_react_accum=accumulators.z_react,
        width=width(state),
        min_v=float(state.v.min()),
        min_theta=float(state.theta.min()),
        min_z=float(state.z.min()),
        max_z=float(state.z.max()),
        momentum=velocity_mean(state),
    )
