"""One IMEX time step of the reacting radiative gas system.

Update order within a step: implicit viscous momentum with explicit
pressure and gravity, exact volume transport from the fresh velocity,
left boundary advance, implicit species diffusion with semi-implicit
reaction, and a Newton solve for temperature with implicit conduction.
Pressure work and reaction heat stay explicit in theta, which limits the
splitting to first order in dt; diffusion stiffness never restricts dt.

All linear systems are symmetric positive definite tridiagonal and go
through one banded Cholesky routine.  A failed sub-update (volume or
temperature at its floor, Newton stall) rejects the step; it is retried
with half the dt from the untouched input state.

Every stencil works along the last axis, so one code path advances a
single run (fields of shape (n,)) or a batch of B runs on one grid
(a leading member axis: (B, n) fields, (B,) t and dt).  Each member of
a batch keeps the bits of its own run: reductions are per row, the
tridiagonal systems of a batch are solved as one stacked banded system
with zero couplings between members, Newton converges, line-searches
and stalls per member (a converged member is frozen), and a rejection
halves dt only for the members it rejected.  step advances one run and
step_batch a batch.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

# scipy wraps solveh_banded in a layer that loops over leading batch
# dimensions; it costs several microseconds per call, and this module
# stacks its own batches into one system, so it calls the banded solver
# that layer wraps: the same routine, with the same bits.
solveh_banded = inspect.unwrap(scipy.linalg.solveh_banded)


class StepRejection(Exception):
    """Internal signal: this dt produced an invalid update, retry smaller.

    members, for a batch, is a mask of the members that failed; None
    means all of them.
    """

    def __init__(self, reason: str, members=None):
        super().__init__(reason)
        self.reason = reason
        self.members = members


class SimulationError(RuntimeError):
    """The integration cannot continue; carries the last valid state."""

    def __init__(self, message: str, last_state: State | None = None):
        super().__init__(message)
        self.last_state = last_state


class InvariantViolation(AssertionError):
    """A bound that must hold for every accepted step failed (scheme bug)."""


@dataclass
class StepReport:
    """Bookkeeping for one accepted step.

    step_batch reports each field per member, as a (B,) array.
    """

    dt: float
    newton_iterations: int
    max_newton_residual: float
    floor_hit: bool = False
    nonconverged: bool = False
    rejections: int = 0
    z_diff_increment: float = 0.0
    z_react_increment: float = 0.0


def _solve_spd_tridiag(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system per member.

    Each row of diag (n) and upper (n - 1) along the last axis is one
    system; a batch of them is one stacked banded system whose couplings
    across the seams are zero, which gives each member the bits of its
    own solve.  Banded Cholesky is pivot-free, so the operation order
    (hence the result, bit for bit) is fixed by the inputs alone.
    """
    if diag.shape[-1] == 1:
        return rhs / diag
    ab = np.zeros((2,) + diag.shape)
    ab[0, ..., 1:] = upper
    ab[1] = diag
    x = solveh_banded(ab.reshape(2, -1), rhs.ravel(), overwrite_ab=True, lower=False,
                      check_finite=False)
    return x.reshape(rhs.shape)


def total_stress(v, theta, u, dx: float, params: PhysParams) -> np.ndarray:
    """Cell total stress sigma = -p + mu*u_x/v."""
    du = u[..., 1:] - u[..., :-1]
    return -pressure(v, theta, params) + params.mu * du / (dx * v)


def stress_divergence(sigma: np.ndarray, p_ext: float, dx: float) -> np.ndarray:
    """Edge accelerations from cell stresses, ghost stress -p_ext outside.

    The two boundary edges own half a cell of mass, so their control
    volumes divide by dx/2.  With trapezoidal edge weights the weighted
    sum of these accelerations telescopes to the boundary stresses
    alone, which is what keeps the discrete momentum budget honest.
    """
    n = sigma.shape[-1]
    # Ghost stresses -p_ext: sigma[0] - (-p_ext) is sigma[0] + p_ext in
    # IEEE arithmetic, so every edge is one difference over its width.
    ghosted = np.empty(sigma.shape[:-1] + (n + 2,))
    ghosted[..., 0] = ghosted[..., -1] = -p_ext
    ghosted[..., 1:-1] = sigma
    widths = np.empty(n + 1)
    widths[1:-1] = dx
    widths[0] = widths[-1] = 0.5 * dx
    return (ghosted[..., 1:] - ghosted[..., :-1]) / widths


def gravity_accel(edges: np.ndarray, params: PhysParams) -> np.ndarray:
    return -params.g_grav * (edges - 0.5)


def heat_interface_coeff(v, theta, params: PhysParams) -> np.ndarray:
    """kappa/v at interior interfaces, arithmetic mean of cell values."""
    kc = heat_conductivity(v, theta, params) / v
    return 0.5 * (kc[..., :-1] + kc[..., 1:])


def species_interface_coeff(v, params: PhysParams) -> np.ndarray:
    """d/v^2 at interior interfaces, harmonic mean of cell values.

    Harmonic averaging keeps the coefficient controlled by the more
    compressed neighbor, preserving the M-matrix sign structure under
    large volume contrast.
    """
    return 2.0 * params.d_diff / (v[..., :-1] ** 2 + v[..., 1:] ** 2)


def diffusion_apply(coeff: np.ndarray, f: np.ndarray, dx: float) -> np.ndarray:
    """Conservative zero-flux divergence of coeff*f_x on cell centers."""
    if not coeff.shape[-1]:
        return np.zeros_like(f)
    # Interface fluxes between zero boundary fluxes; the right one is
    # -0.0 so that the last cell gets -flux/dx, signed zeros included.
    flux = np.zeros(f.shape[:-1] + (f.shape[-1] + 1,))
    flux[..., -1] = -0.0
    flux[..., 1:-1] = coeff * (f[..., 1:] - f[..., :-1]) / dx
    return (flux[..., 1:] - flux[..., :-1]) / dx


def _per_cell(x):
    """A per-member value against per-cell arrays: a scalar as it is,
    a batch's (B,) array as a (B, 1) column."""
    return x[:, None] if getattr(x, "ndim", 0) else x


def _any(mask) -> bool:
    """mask.any() for a per-member mask; a single member's bool is read
    directly, which is much cheaper than numpy's reduction of it."""
    return mask.any() if mask.ndim else bool(mask)


def _all(mask) -> bool:
    """mask.all(), read directly for a single member's bool as _any."""
    return mask.all() if mask.ndim else bool(mask)


def _diffusion_system(coeff: np.ndarray, scale, base_diag: np.ndarray):
    """base_diag + scale*L for the interface-weighted graph Laplacian L.

    scale is per member: a float for one system, a (B,) array for a batch.
    """
    scale = _per_cell(scale)
    # Each cell's sum of the coefficients of its interfaces.
    links = np.zeros(coeff.shape[:-1] + (coeff.shape[-1] + 1,))
    links[..., :-1] = coeff
    links[..., 1:] += coeff
    return base_diag + scale * links, -scale * coeff


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


def momentum_step(state: State, dt, params: PhysParams, s_u=None) -> np.ndarray:
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

    w = np.ones(grid.n_cells + 1)
    w[0] = 0.5
    w[-1] = 0.5
    diag, upper = _diffusion_system(1.0 / v, dt * params.mu / dx**2, w)
    rhs = w * (_per_cell(dt) * accel)
    du = _solve_spd_tridiag(diag, upper, rhs)
    return state.u + du


def volume_step(state: State, dt, *, v_floor: float = 1e-8, s_v=None) -> np.ndarray:
    """v^{n+1} = v^n + dt*u_x^{n+1}; requires state.u already updated.

    Rejects the members whose new volume is not finite or at the floor.
    """
    u = state.u
    rate = (u[..., 1:] - u[..., :-1]) / state.grid.dx
    if s_v is not None:
        rate = rate + s_v
    v_new = state.v + _per_cell(dt) * rate
    bad = (~np.isfinite(v_new) | (v_new <= v_floor)).any(axis=-1)
    if _any(bad):
        raise StepRejection("volume_floor", bad)
    return v_new


def species_step(state: State, dt, params: PhysParams, *, s_z=None, phi=None):
    """Implicit species diffusion with semi-implicit reaction decay.

    Requires state.v at the new level, state.theta and state.z at the
    old one.  phi, if given, is reaction_rate(state.v, state.theta).
    Returns (z_new, diff_increment, react_increment) where the
    increments are this step's contributions to the accumulated
    gradient and reaction quadratures, evaluated with the same frozen
    coefficients the solve itself used; for a batch they are per member.
    """
    dx = state.grid.dx
    v, theta, z = state.v, state.theta, state.z
    dtc = _per_cell(dt)
    if phi is None:
        phi = reaction_rate(v, theta, params)
    decay = phi * np.power(z, params.m_order - 1.0)
    g = species_interface_coeff(v, params)
    base = 1.0 + dtc * decay

    # Diffusion of a constant vanishes identically, so for a member
    # whose profile is constant the solve degenerates to per-cell
    # implicit decay.  Taking that path keeps the profile exactly
    # constant in floats.
    flat = (z == z[..., :1]).all(axis=-1) if s_z is None else np.False_
    if _all(flat):
        z_new = z / base
    else:
        diag, upper = _diffusion_system(g, dt / dx**2, base)
        rhs = z if s_z is None else z + dtc * s_z
        z_new = _solve_spd_tridiag(diag, upper, rhs)
        if _any(flat):
            z_new = np.where(flat[..., None], z / base, z_new)

    if s_z is None:
        # M-matrix solve of nonnegative data: exact nonnegativity, and
        # the maximum principle up to roundoff in the factorization.
        if (z_new < 0.0).any():
            raise InvariantViolation("species went negative")
        bound = z.max(axis=-1) * (1.0 + 1e-13)
        if _any(z_new.max(axis=-1) > bound):
            raise InvariantViolation("species exceeded its initial maximum")

    grad = (z_new[..., 1:] - z_new[..., :-1]) / dx
    diff_inc = dt * (g * grad * grad).sum(axis=-1) * dx
    react_inc = dt * (decay * z_new * z_new).sum(axis=-1) * dx
    return z_new, diff_inc, react_inc


def energy_step(
    state: State,
    dt,
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

    Each member of a batch converges on its own: once converged it is
    frozen and iterates no further, so it gets the bits, the iterations
    and the residual of its own solve.  The line search, the floor and
    the newton_max_iter stall act per member; a member that fails is
    rejected with StepRejection, which names the failed members.

    Returns (theta_new, iterations, final_residual), the last two per
    member.
    """
    dx = state.grid.dx
    v, z, u = state.v, state.z, state.u
    theta_n = state.theta

    if phi is None:
        phi = reaction_rate(v, theta_n, params)
    dudx = (u[..., 1:] - u[..., :-1]) / dx
    work = (-pressure(v, theta_n, params) + params.mu * dudx / v) * dudx
    heating = params.lambda_heat * phi * np.power(z, params.m_order)
    dtc = _per_cell(dt)
    target = internal_energy(v_old, theta_n, params) + dtc * (work + heating)
    if s_theta is not None:
        target = target + dtc * s_theta

    theta = theta_n.copy()
    live = None  # once the members part: the rows still iterating
    iters = 0
    while True:
        k = heat_interface_coeff(v, theta, params)
        e_cur = internal_energy(v, theta, params)
        resid = e_cur - target - dtc * diffusion_apply(k, theta, dx)
        res = np.abs(resid).max(axis=-1) / np.abs(e_cur).max(axis=-1, initial=1.0)
        done = res <= newton_tol
        if _any(done):
            if live is None:
                if _all(done):
                    return theta, iters * done, res  # done is all True: iters per member
                live = np.arange(len(theta))
                theta_out, iters_out, res_out = (
                    np.empty(theta.shape), np.empty(len(live), dtype=int), np.empty(len(live))
                )
            # Freeze the converged members and go on with the rest.
            rows = live[done]
            theta_out[rows], iters_out[rows], res_out[rows] = theta[done], iters, res[done]
            if _all(done):
                return theta_out, iters_out, res_out
            going = ~done
            live, theta, v, target, dt, dtc, k, resid = (
                a[going] for a in (live, theta, v, target, dt, dtc, k, resid)
            )
        if iters >= newton_max_iter:
            raise StepRejection("newton_stall",
                                None if live is None else _members(live, len(theta_out)))

        diag, upper = _diffusion_system(k, dt / dx**2, de_dtheta(v, theta, params))
        delta = _solve_spd_tridiag(diag, upper, resid)
        candidate = theta - delta
        if not (candidate > theta_floor).all():
            # Halve the step of each member whose candidate is not above
            # the floor, up to 40 tries.
            ok = (candidate > theta_floor).all(axis=-1)
            scale = np.ones(ok.shape)
            for _ in range(39):
                scale[~ok] *= 0.5
                candidate = theta - scale[..., None] * delta
                ok = (candidate > theta_floor).all(axis=-1)
                if ok.all():
                    break
            else:
                raise StepRejection("theta_floor",
                                    ~ok if live is None else _members(live[~ok], len(theta_out)))
        theta = candidate
        iters += 1


def _members(rows, count: int) -> np.ndarray:
    """Mask over count members, True at rows."""
    mask = np.zeros(count, dtype=bool)
    mask[rows] = True
    return mask


def _attempt(state: State, config, dt, sources):
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


# The StepReport fields that _attempt returns, in its order.
_RESULTS = ("newton_iterations", "max_newton_residual", "z_diff_increment", "z_react_increment")


def step_batch(state: State, config, sources=None, *, dt):
    """Advance every member of a batch one accepted step at its own dt.

    state is a batch of B runs on one grid (a mesh.State with a leading
    member axis) and dt a (B,) array; a single run's state with a float
    dt is the batch of one, without the axis.  sources, if given, is a
    callable t -> (s_v, s_u, s_theta, s_z), called with the new level of
    the members of each attempt ((b,) for a batch); each array
    broadcasts against their fields, s_u on the edges and the others on
    the cells.  Every row is computed on its own, so each member gets
    the bits of its own run.

    A rejected member halves its dt and attempts again; the others keep
    the trial of the attempt they passed.  When a sub-update rejects some
    members of an attempt, the attempt is rerun at the same dt for the
    rest, which gives them the bits the first run would have given.
    Returns (new_state, StepReport) with every report field per member.
    """
    dt = np.array(dt, dtype=float)
    report = StepReport(dt, None, None, np.zeros(dt.shape, dtype=bool),
                        np.zeros(dt.shape, dtype=bool), np.zeros(dt.shape, dtype=int))
    new = None
    todo = np.arange(dt.size)  # members without an accepted trial
    while todo.size:
        run, retry = todo, []  # the members of this attempt; the rejected ones
        while run.size:
            whole = run.size == dt.size
            try:
                trial, *result = _attempt(state if whole else state[run], config,
                                          dt[()] if whole else dt[run], sources)
                break
            except StepRejection as rej:
                failed = run if rej.members is None else run[np.reshape(rej.members, -1)]
                _reject(report, failed, rej, state)
                retry.append(failed)
                run = run[~np.isin(run, failed)]
        if run.size == dt.size:
            new = trial
            for name, value in zip(_RESULTS, result):
                setattr(report, name, value)
        elif run.size:
            if new is None:
                new = state.copy()
                for name, dtype in zip(_RESULTS, (int, float, float, float)):
                    setattr(report, name, np.zeros(dt.shape, dtype=dtype))
            new[run] = trial
            for name, value in zip(_RESULTS, result):
                getattr(report, name)[run] = value
        todo = np.sort(np.concatenate(retry)) if retry else run[:0]
    return new, report


def _reject(report: StepReport, failed, rej: StepRejection, state: State):
    """Count a rejection of the failed members and halve their dt."""
    rejections, dt = report.rejections.reshape(-1), report.dt.reshape(-1)
    rejections[failed] += 1
    report.floor_hit.reshape(-1)[failed] |= rej.reason in ("volume_floor", "theta_floor")
    report.nonconverged.reshape(-1)[failed] |= rej.reason == "newton_stall"
    t = np.reshape(state.t, -1)
    spent = failed[rejections[failed] >= MAX_REJECTIONS]
    if spent.size:
        raise SimulationError(
            f"step rejected {rejections[spent[0]]} times at t={t[spent[0]]:.6e} "
            f"(last reason: {rej.reason})",
            last_state=state,
        ) from rej
    dt[failed] *= 0.5
    small = failed[dt[failed] <= DT_MIN]
    if small.size:
        raise SimulationError(
            f"time step underflow during rejection retries at t={t[small[0]]:.6e}",
            last_state=state,
        ) from rej


def step(state: State, config, sources=None, dt: float | None = None):
    """Advance one accepted step, retrying with halved dt on rejection.

    step_batch for a single run.  sources, if given, is a callable
    t -> (s_v, s_u, s_theta, s_z) of manufactured right-hand sides on
    the state's grid, each an array or None: s_u on the edges, the
    others on the cells.  dt is normally taken from cfl_dt; passing it
    explicitly pins the step size for convergence studies.  Returns
    (new_state, StepReport).
    """
    if dt is None:
        dt = cfl_dt(state, config)
    new, r = step_batch(state, config, sources, dt=dt)
    new.t, new.a_pos = float(new.t), float(new.a_pos)
    return new, StepReport(float(r.dt), int(r.newton_iterations), float(r.max_newton_residual),
                           bool(r.floor_hit), bool(r.nonconverged), int(r.rejections),
                           float(r.z_diff_increment), float(r.z_react_increment))
