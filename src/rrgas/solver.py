"""One IMEX time step of the reacting radiative gas system.

Update order within a step: implicit viscous momentum with explicit
pressure and gravity, exact volume transport from the fresh velocity,
left boundary advance, implicit species diffusion with semi-implicit
reaction, and a Newton solve for temperature with implicit conduction.
Pressure work and reaction heat stay explicit in theta, which limits the
splitting to first order in dt; diffusion stiffness never restricts dt.

All linear systems are symmetric positive definite tridiagonal and go
through one banded Cholesky routine.  A failed sub-update (volume or
temperature at its floor, Newton stall) rejects the whole step; the
driver loop halves dt and retries from the untouched input state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded

from .constitutive import (
    PhysParams,
    de_dtheta,
    heat_conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from .mesh import State, advance_boundary

DT_MIN = 1e-12
MAX_REJECTIONS = 10


class StepRejection(Exception):
    """Internal signal: this dt produced an invalid update, retry smaller."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class SimulationError(RuntimeError):
    """The integration cannot continue; carries the last valid state."""

    def __init__(self, message: str, last_state: State | None = None):
        super().__init__(message)
        self.last_state = last_state


class InvariantViolation(AssertionError):
    """A bound that must hold for every accepted step failed (scheme bug)."""


@dataclass
class StepReport:
    """Bookkeeping for one accepted step."""

    dt: float
    newton_iterations: int
    max_newton_residual: float
    floor_hit: bool = False
    nonconverged: bool = False
    rejections: int = 0
    z_diff_increment: float = 0.0
    z_react_increment: float = 0.0


def _solve_spd_tridiag(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system.

    Banded Cholesky is pivot-free, so the operation order (hence the
    result, bit for bit) is fixed by the inputs alone.
    """
    if diag.size == 1:
        return rhs / diag
    ab = np.zeros((2, diag.size))
    ab[0, 1:] = upper
    ab[1, :] = diag
    return solveh_banded(ab, rhs, lower=False, check_finite=False)


def total_stress(v, theta, u, dx: float, params: PhysParams) -> np.ndarray:
    """Cell total stress sigma = -p + mu*u_x/v."""
    du = u[1:] - u[:-1]
    return -pressure(v, theta, params) + params.mu * du / (dx * v)


def stress_divergence(sigma: np.ndarray, p_ext: float, dx: float) -> np.ndarray:
    """Edge accelerations from cell stresses, ghost stress -p_ext outside.

    The two boundary edges own half a cell of mass, so their control
    volumes divide by dx/2.  With trapezoidal edge weights the weighted
    sum of these accelerations telescopes to the boundary stresses
    alone, which is what keeps the discrete momentum budget honest.
    """
    n = sigma.size
    accel = np.empty(n + 1)
    accel[1:-1] = (sigma[1:] - sigma[:-1]) / dx
    half = 0.5 * dx
    accel[0] = (sigma[0] + p_ext) / half
    accel[-1] = (-p_ext - sigma[-1]) / half
    return accel


def gravity_accel(edges: np.ndarray, params: PhysParams) -> np.ndarray:
    return -params.g_grav * (edges - 0.5)


def heat_interface_coeff(v, theta, params: PhysParams) -> np.ndarray:
    """kappa/v at interior interfaces, arithmetic mean of cell values."""
    kc = heat_conductivity(v, theta, params) / v
    return 0.5 * (kc[:-1] + kc[1:])


def species_interface_coeff(v, params: PhysParams) -> np.ndarray:
    """d/v^2 at interior interfaces, harmonic mean of cell values.

    Harmonic averaging keeps the coefficient controlled by the more
    compressed neighbor, preserving the M-matrix sign structure under
    large volume contrast.
    """
    return 2.0 * params.d_diff / (v[:-1] ** 2 + v[1:] ** 2)


def diffusion_apply(coeff: np.ndarray, f: np.ndarray, dx: float) -> np.ndarray:
    """Conservative zero-flux divergence of coeff*f_x on cell centers."""
    div = np.zeros_like(f)
    if coeff.size:
        flux = coeff * (f[1:] - f[:-1]) / dx
        div[0] = flux[0] / dx
        div[-1] = -flux[-1] / dx
        div[1:-1] = (flux[1:] - flux[:-1]) / dx
    return div


def _diffusion_system(coeff: np.ndarray, scale: float, base_diag: np.ndarray):
    """base_diag + scale*L for the interface-weighted graph Laplacian L."""
    diag = base_diag.copy()
    if coeff.size:
        diag[0] += scale * coeff[0]
        diag[-1] += scale * coeff[-1]
        if coeff.size > 1:
            diag[1:-1] += scale * (coeff[:-1] + coeff[1:])
    upper = -scale * coeff
    return diag, upper


def cfl_dt(state: State, config) -> float:
    """Accuracy/stability step bound for the explicitly treated terms.

    The acoustic bound uses a conservative sound-speed estimate that
    includes the radiation stiffening of the pressure; the reaction
    bound limits the explicit heat-release growth rate.  The result is
    clamped to dt_max and to the time remaining before t_end.
    """
    params = config.params
    v, theta, z = state.v, state.theta, state.z
    dx = state.grid.dx
    c2 = theta * (params.r_gas + (4.0 * params.a_rad / 3.0) * theta**3 * v) * (
        params.r_gas / params.cv + 1.0
    )
    # The floor keeps the denominator positive, so nothing divides by zero.
    acoustic = np.where(c2 > 0.0, dx * v / np.sqrt(np.maximum(c2, 1e-300)), np.inf)
    dt = min(float(acoustic.min()), config.dt_max)

    phi = reaction_rate(v, theta, params)
    hot = phi > 0.0
    if hot.any():
        th = theta[hot]
        growth = params.lambda_heat * phi[hot] * np.power(z[hot], params.m_order) * (
            params.beta / th + params.a_act / th**2
        )
        peak = float(growth.max())
        if peak > 0.0:
            dt = min(dt, 1.0 / peak)

    dt *= config.cfl_number
    # Land on t_end exactly; the relative slack absorbs the rounding of
    # accumulated t, else a last sliver of a few ulps would be left over.
    remaining = config.t_end - state.t
    if remaining <= dt * (1.0 + 1e-6):
        dt = remaining
    if not dt > DT_MIN:
        raise SimulationError(
            f"time step underflow (dt={dt:.3e} at t={state.t:.6e})", last_state=state
        )
    return dt


def momentum_step(state: State, dt: float, params: PhysParams, s_u=None) -> np.ndarray:
    """Backward-Euler viscous velocity update with explicit pressure/gravity.

    Solved in increment form: (W + c*L) du = W*dt*a(u^n), where a(u^n)
    is the full acceleration at the old velocity, L the 1/v-weighted
    edge Laplacian from the viscous flux, and W the trapezoidal edge
    mass (1/2 at the boundary edges).  W symmetrizes the half-mass
    boundary rows, so the matrix is SPD and u^{n+1} = u^n + du solves
    the plain backward-Euler system exactly.
    """
    grid = state.grid
    dx = grid.dx
    v = state.v
    sigma = total_stress(v, state.theta, state.u, dx, params)
    accel = stress_divergence(sigma, params.p_ext, dx) + gravity_accel(grid.edges, params)
    if s_u is not None:
        accel = accel + s_u

    n = grid.n_cells
    w = np.ones(n + 1)
    w[0] = 0.5
    w[-1] = 0.5
    c = dt * params.mu / dx**2
    inv_v = 1.0 / v
    diag = w.copy()
    diag[0] += c * inv_v[0]
    diag[-1] += c * inv_v[-1]
    diag[1:-1] += c * (inv_v[:-1] + inv_v[1:])
    upper = -c * inv_v
    du = _solve_spd_tridiag(diag, upper, w * (dt * accel))
    return state.u + du


def volume_step(state: State, dt: float, *, v_floor: float = 1e-8, s_v=None) -> np.ndarray:
    """v^{n+1} = v^n + dt*u_x^{n+1}; requires state.u already updated."""
    u = state.u
    rate = (u[1:] - u[:-1]) / state.grid.dx
    if s_v is not None:
        rate = rate + s_v
    v_new = state.v + dt * rate
    if not np.isfinite(v_new).all() or (v_new <= v_floor).any():
        raise StepRejection("volume_floor")
    return v_new


def species_step(state: State, dt: float, params: PhysParams, *, s_z=None, phi=None):
    """Implicit species diffusion with semi-implicit reaction decay.

    Requires state.v at the new level, state.theta and state.z at the
    old one.  phi, if given, is reaction_rate(state.v, state.theta).
    Returns (z_new, diff_increment, react_increment) where the
    increments are this step's contributions to the accumulated
    gradient and reaction quadratures, evaluated with the same frozen
    coefficients the solve itself used.
    """
    dx = state.grid.dx
    v, theta, z = state.v, state.theta, state.z
    if phi is None:
        phi = reaction_rate(v, theta, params)
    decay = phi * np.power(z, params.m_order - 1.0)
    g = species_interface_coeff(v, params)

    if s_z is None and (z == z[0]).all():
        # Diffusion of a constant vanishes identically, so the solve
        # degenerates to per-cell implicit decay.  Taking that path
        # keeps a constant profile exactly constant in floats.
        z_new = z / (1.0 + dt * decay)
    else:
        diag, upper = _diffusion_system(g, dt / dx**2, 1.0 + dt * decay)
        rhs = z if s_z is None else z + dt * s_z
        z_new = _solve_spd_tridiag(diag, upper, rhs)

    if s_z is None:
        # M-matrix solve of nonnegative data: exact nonnegativity, and
        # the maximum principle up to roundoff in the factorization.
        if (z_new < 0.0).any():
            raise InvariantViolation("species went negative")
        bound = float(z.max()) * (1.0 + 1e-13)
        if float(z_new.max()) > bound:
            raise InvariantViolation("species exceeded its initial maximum")

    grad = (z_new[1:] - z_new[:-1]) / dx
    diff_inc = dt * float((g * grad * grad).sum()) * dx
    react_inc = dt * float((decay * z_new * z_new).sum()) * dx
    return z_new, diff_inc, react_inc


def energy_step(
    state: State,
    dt: float,
    params: PhysParams,
    v_old: np.ndarray,
    *,
    newton_tol: float = 1e-10,
    newton_max_iter: int = 50,
    theta_floor: float = 1e-8,
    s_theta=None,
    phi=None,
):
    """Newton solve for theta^{n+1} from the internal-energy balance.

    Requires state.u, state.v, state.z at the new level and state.theta
    at the old one; phi, if given, is reaction_rate(state.v, state.theta).
    The residual carries implicit conduction (kappa at the current
    iterate) against explicit compression work and reaction heat; the
    Jacobian freezes kappa, keeping it SPD tridiagonal.
    Convergence is checked before the first iteration, so an exact
    fixed point returns theta unchanged with zero iterations.

    Returns (theta_new, iterations, final_residual).
    """
    dx = state.grid.dx
    v, z, u = state.v, state.z, state.u
    theta_n = state.theta

    if phi is None:
        phi = reaction_rate(v, theta_n, params)
    dudx = (u[1:] - u[:-1]) / dx
    work = (-pressure(v, theta_n, params) + params.mu * dudx / v) * dudx
    heating = params.lambda_heat * phi * np.power(z, params.m_order)
    target = internal_energy(v_old, theta_n, params) + dt * (work + heating)
    if s_theta is not None:
        target = target + dt * s_theta

    theta = theta_n.copy()
    iters = 0
    while True:
        k = heat_interface_coeff(v, theta, params)
        e_cur = internal_energy(v, theta, params)
        resid = e_cur - target - dt * diffusion_apply(k, theta, dx)
        res = float(np.abs(resid).max()) / max(1.0, float(np.abs(e_cur).max()))
        if res <= newton_tol:
            return theta, iters, res
        if iters >= newton_max_iter:
            raise StepRejection("newton_stall")

        diag, upper = _diffusion_system(k, dt / dx**2, de_dtheta(v, theta, params))
        delta = _solve_spd_tridiag(diag, upper, resid)
        scale = 1.0
        for _ in range(40):
            candidate = theta - scale * delta
            if (candidate > theta_floor).all():
                break
            scale *= 0.5
        else:
            raise StepRejection("theta_floor")
        theta = candidate
        iters += 1


def _attempt(state: State, config, dt: float, sources):
    params = config.params
    trial = state.copy()
    t_new = state.t + dt
    s_v = s_u = s_th = s_z = None
    if sources is not None:
        # Implicit sub-updates see sources at the level they solve for.
        s_v, s_u, s_th, s_z = sources(t_new)

    v_old = state.v
    trial.u = momentum_step(trial, dt, params, s_u=s_u)
    trial.v = volume_step(trial, dt, v_floor=config.v_floor, s_v=s_v)
    advance_boundary(trial, dt)
    # Species and energy both take the rate at (v^{n+1}, theta^n).
    phi = reaction_rate(trial.v, trial.theta, params)
    z_new, diff_inc, react_inc = species_step(trial, dt, params, s_z=s_z, phi=phi)
    trial.z = z_new
    trial.theta, iters, res = energy_step(
        trial,
        dt,
        params,
        v_old,
        newton_tol=config.newton_tol,
        newton_max_iter=config.newton_max_iter,
        theta_floor=config.theta_floor,
        s_theta=s_th,
        phi=phi,
    )
    trial.t = t_new
    return trial, iters, res, diff_inc, react_inc


def step(state: State, config, sources=None, dt: float | None = None):
    """Advance one accepted step, retrying with halved dt on rejection.

    sources, if given, is a callable t -> (s_v, s_u, s_theta, s_z) of
    manufactured right-hand sides on the state's grid, each an array or
    None: s_u on the edges, the others on the cells.  dt is normally
    taken from cfl_dt; passing it explicitly pins the step size for
    convergence studies.  Returns (new_state, StepReport).
    """
    if dt is None:
        dt = cfl_dt(state, config)
    rejections = 0
    floor_hit = False
    nonconverged = False
    while True:
        try:
            trial, iters, res, diff_inc, react_inc = _attempt(state, config, dt, sources)
            break
        except StepRejection as rej:
            rejections += 1
            floor_hit = floor_hit or rej.reason in ("volume_floor", "theta_floor")
            nonconverged = nonconverged or rej.reason == "newton_stall"
            if rejections >= MAX_REJECTIONS:
                raise SimulationError(
                    f"step rejected {rejections} times at t={state.t:.6e} "
                    f"(last reason: {rej.reason})",
                    last_state=state,
                ) from rej
            dt *= 0.5
            if dt <= DT_MIN:
                raise SimulationError(
                    f"time step underflow during rejection retries at t={state.t:.6e}",
                    last_state=state,
                ) from rej
    report = StepReport(
        dt=dt,
        newton_iterations=iters,
        max_newton_residual=res,
        floor_hit=floor_hit,
        nonconverged=nonconverged,
        rejections=rejections,
        z_diff_increment=diff_inc,
        z_react_increment=react_inc,
    )
    return trial, report
