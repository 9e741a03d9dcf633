"""A priori functionals evaluated on discrete states and trajectories.

These integrals are the primary correctness surface: the total energy
functional, the nonnegative entropy pair U and V, the squared species
norm with its accumulated diffusion and reaction quadratures, slab
width, and discrete momentum.  Quadrature is the midpoint rule on
cells, matching the finite-volume semantics of the solver, so identity
residuals measure splitting error only.

record builds the rows for a block of states at once, over stacked
(K, N) fields: below about 1000 cells a row is call overhead, not
arithmetic.  Each functional is one private kernel over a trailing cell
axis; record is the one public entry point to them.  The species
balance sums are formed here, so only a run that records rows pays.
The law values come from the states (mesh.State.laws) where they carry them.
"""

from __future__ import annotations

from itertools import accumulate
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .constitutive import PhysParams, heat_conductivity, internal_energy, reaction_rate
from .solver import species_interface_coeff


class DiagnosticsRecord(NamedTuple):
    """One diagnostics row: a tuple of these values, in this order (the
    columns of diagnostics.csv)."""

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


# Kernels: the cell (or edge) axis is the last one; one value per
# leading index.  Law values (e, phi, zm = z^m, kappa) come evaluated.

def _total_energy(u, v, e, z, grid, params: PhysParams):
    """Energy functional: kinetic + internal + bound species heat
    + gravitational potential + boundary compression work.

    The kinetic share of cell i averages its two edge velocities,
    (u_i^2 + u_{i+1}^2)/4; any consistent assignment shifts E by
    O(dx^2), this one is the frozen regression choice.
    """
    x = grid.cell_centers
    kinetic = 0.25 * (u[..., :-1] ** 2 + u[..., 1:] ** 2)
    density = (
        kinetic
        + e
        + params.lambda_heat * z
        + 0.5 * params.g_grav * x * (1.0 - x) * v
        + params.p_ext * v
    )
    return density.sum(axis=-1) * grid.dx


def _entropy_U(v, theta, dx, params: PhysParams):
    """Nonnegative distance from the (v, theta) = (1, 1) rest state."""
    density = params.cv * (theta - 1.0 - np.log(theta)) + params.r_gas * (
        v - 1.0 - np.log(v)
    )
    return density.sum(axis=-1) * dx


def _dissipation_V(u, v, theta, phi, zm, kappa, dx, params: PhysParams):
    """Viscous + conductive + reactive entropy production, all terms >= 0.

    Velocity gradients live on cells, temperature gradients at interior
    interfaces with v, kappa, theta averaged arithmetically there.
    """
    dudx = (u[..., 1:] - u[..., :-1]) / dx
    out = params.mu * dudx**2 / (v * theta)
    out = out + params.lambda_heat * phi * zm / theta
    total = out.sum(axis=-1) * dx

    if v.shape[-1] >= 2:
        dthdx = (theta[..., 1:] - theta[..., :-1]) / dx
        v_m = 0.5 * (v[..., :-1] + v[..., 1:])
        th_m = 0.5 * (theta[..., :-1] + theta[..., 1:])
        k_m = 0.5 * (kappa[..., :-1] + kappa[..., 1:])
        total = total + (k_m * dthdx**2 / (v_m * th_m**2)).sum(axis=-1) * dx
    return total


def _z_squared_norm(z, dx):
    """Half the integral of z^2, the decaying part of the z balance."""
    return 0.5 * ((z**2).sum(axis=-1) * dx)


def _species_quadratures(g, decay, z, dt, dx):
    """The gradient and reaction quadratures of the steps of sizes dt to
    z, with the coefficients g and decay solver.species_step froze, so
    the z-balance residual measures operator-splitting imbalance only."""
    grad = (z[..., 1:] - z[..., :-1]) / dx
    diff = dt * (g * grad * grad).sum(axis=-1) * dx
    return diff, dt * (decay * z * z).sum(axis=-1) * dx


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


def record(block, params: PhysParams, previous=None) -> list[DiagnosticsRecord]:
    """Diagnostics rows for a block of consecutive states of one run.

    Each entry of block is (state, dt): the state and the step that
    reached it.  previous is (state, z_diff, z_react), the state before
    the block and its accumulators, or None where the block starts the
    run (accumulators 0); each step's quadratures are added in step
    order, bit for bit the step-wise sums.  The functionals are
    evaluated once over the stacked (K, N) fields.
    A row is bitwise the one the kernels give on its state's own 1-D
    fields: the elementwise expressions are the same, and numpy sums
    each contiguous row with the same pairwise sum as a 1-D array.
    A law value a state lacks is evaluated on its own fields.
    """
    states, dts = zip(*block)
    # k > 1 states: each field is copied into one (k, N) array by a
    # concatenate, cheaper than np.stack, reshaped by the column's own
    # length (a block that starts the run has k - 1 steps); one state,
    # the large-grid case, is viewed as (1, N)
    stacked = ((lambda rows: (np.concatenate(column).reshape(len(column), -1)
                              for column in zip(*rows))) if len(states) > 1
               else (lambda rows: map(itemgetter(None), rows[0])))
    grid = states[0].grid
    dx = grid.dx
    # each step from the state before it; the run's first state has none
    olds = states[:-1] if previous is None else (previous[0], *states[:-1])
    first = len(states) - len(olds)  # the first state a step of the block made
    fields, frozen = [], []
    for s, old in zip(states, (None,) * first + olds):
        law = s.laws if s.laws is not None and s.laws["params"] is params else {}
        for name, evaluate in (("e", internal_energy), ("kappa", heat_conductivity),
                               ("phi", reaction_rate)):
            if name not in law:
                law[name] = evaluate(s.v, s.theta, params)
        if "zm" not in law:
            law["zm"] = np.power(s.z, params.m_order)
        fields.append((s.v, s.theta, s.z, s.u, law["e"], law["phi"], law["zm"], law["kappa"]))
        if old is not None:
            if "g" not in law:  # the coefficients species_step froze
                law.update(g=species_interface_coeff(s.v, params), decay=reaction_rate(
                    s.v, old.theta, params) * np.power(old.z, params.m_order - 1.0))
            frozen.append((law["g"], law["decay"]))
    v, theta, z, u, e, phi, zm, kappa = stacked(fields)
    diffs = reacts = ()
    if frozen:
        diffs, reacts = map(np.ndarray.tolist, _species_quadratures(
            *stacked(frozen), z[first:], np.array(dts[first:]), dx))
    columns = (
        list(map(attrgetter("t"), states)),
        dts,
        _total_energy(u, v, e, z, grid, params).tolist(),
        _entropy_U(v, theta, dx, params).tolist(),
        _dissipation_V(u, v, theta, phi, zm, kappa, dx, params).tolist(),
        _z_squared_norm(z, dx).tolist(),
        list(accumulate(diffs, initial=previous[1] if previous else 0.0))[-len(states):],
        list(accumulate(reacts, initial=previous[2] if previous else 0.0))[-len(states):],
        # mesh.width and mesh.velocity_mean, per row
        (v.sum(axis=-1) * dx).tolist(),
        v.min(axis=-1).tolist(),
        theta.min(axis=-1).tolist(),
        z.min(axis=-1).tolist(),
        z.max(axis=-1).tolist(),
        np.trapezoid(u, dx=dx, axis=-1).tolist(),
    )
    return list(map(DiagnosticsRecord, *columns))
