"""One IMEX time step of the reacting radiative gas system.

Update order within a step: implicit viscous momentum with explicit
pressure and gravity, exact volume transport from the fresh velocity,
left boundary advance, implicit species diffusion with semi-implicit
reaction, and a Newton solve for temperature with implicit conduction.
Pressure work and reaction heat stay explicit in theta, which limits the
splitting to first order in dt; diffusion stiffness never restricts dt.
Each Newton residual takes e and kappa in one pass, and a new state
carries the law values its step evaluated (mesh.State.laws) to the next
step, cfl_dt and record, which alone forms the species balance sums.

All linear systems are symmetric positive definite tridiagonal and go
through LAPACK `dptsv` (pivot-free L·D·Lᵀ).  It is called through
ctypes from the OpenBLAS that numpy's wheel bundles and has already
loaded, so importing the solver loads no scipy; where numpy was built
without that library (conda, distro and Accelerate builds), scipy's
dptsv stands in.  A failed sub-update (volume or temperature at its
floor, Newton stall) rejects the attempt.  step retries its own cfl_dt
step with half the dt from the untouched input state; a dt the caller
pinned is one attempt, and the rejection reaches the caller.

Every stencil works along the last axis, so one code path advances a
single run (fields of shape (n,)) or a batch of B runs on one grid
(a leading member axis: (B, n) fields, (B,) t and dt).  The constants
of a batch may differ per member (PhysParams.stack): such a constant is
a (B, 1) column, and a per-member dt meets it as a (B, 1) column too.
Each member of a batch keeps the bits of its own run: reductions,
cfl_dt's among them, are per row, the tridiagonal systems of a batch
are solved as one stacked banded system with zero couplings between
members, and Newton converges, line-searches and stalls per member (a
converged member's update is zero, so it stays put).  step advances one
run and step_batch a batch.

The temperature Newton solve starts from the extrapolation in time of
theta through the run's last accepted levels, up to two of them before
the input state, which carries them (mesh.State.history; a step leaves
them on the state it makes); without them it starts from theta^n.  A
member whose start point is not finite or not above theta_floor in
every cell starts from theta^n.  The start point moves only the route to
the root of the same discrete equations; a start point that already
meets newton_tol takes no linear solve.
"""

from __future__ import annotations

import ctypes
import pathlib
from dataclasses import dataclass

import numpy as np

from .constitutive import (
    PhysParams,
    _energy_laws,
    de_dtheta,
    heat_conductivity,
    internal_energy,
    power,
    reaction_rate,
)
from .mesh import State, advance_boundary

DT_MIN = 1e-12
MAX_REJECTIONS = 10
# ndarray.max and .min reach these through a Python-level numpy wrapper
_max, _min = np.maximum.reduce, np.minimum.reduce


class StepRejection(Exception):
    """An attempt at this dt produced an invalid update.

    step retries its own cfl_dt step at a smaller dt; at a dt the caller
    pinned, the rejection reaches the caller.  members is a mask of the
    members that failed: (B,) for a batch, True for all of them.
    """

    def __init__(self, reason: str, members=True):
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

    step reports plain Python numbers, step_batch each field per member,
    as a (B,) array, but rejections: a batch step is one attempt, so it
    stays 0.  The species balance sums are diagnostics.record's.
    """

    dt: float
    newton_iterations: int
    max_newton_residual: float
    rejections: int = 0


def _openblas_dptsv():
    """LAPACK dptsv from the OpenBLAS in numpy's wheel, with the call
    shape of scipy's: (d, e, b) -> (d, e, x, info); None where numpy
    has no such library.

    The library's name, its scipy_ prefix and its 64_ suffix (64-bit
    integers) are details of numpy's wheel, not numpy API.  Fortran
    takes every argument by reference, so each system size gets its
    work buffers and argument pointers once; a step solves at two sizes
    (edges and cells), a batch at its member count times those.  d and
    e come back as the factors in the buffers that the next solve of
    that size overwrites; x is a fresh array.
    """
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    try:
        # PyDLL keeps the interpreter lock over the call: a solve is too
        # short for releasing it to pay.
        routine = ctypes.PyDLL(str(next(libs.glob("libscipy_openblas64_*")))).scipy_dptsv_64_
    except (StopIteration, OSError, AttributeError):
        return None
    routine.argtypes = [ctypes.c_void_p] * 7
    routine.restype = None
    sizes = {}

    def dptsv(d, e, b):
        n = len(d)
        size = sizes.get(n)
        if size is None:
            # dptsv(N, NRHS, D, E, B, LDB, INFO): one right-hand side, N = LDB = n
            ints = np.array([n, 1, n, 0], dtype=np.int64)  # N, NRHS, LDB, INFO
            work = (np.empty(n), np.empty(n - 1), np.empty(n))
            n_at, nrhs_at, ldb_at, info_at = (ints[i:].ctypes.data for i in range(4))
            addresses = (n_at, nrhs_at, *(a.ctypes.data for a in work), ldb_at, info_at)
            size = sizes[n] = (*work, ints, [ctypes.c_void_p(at) for at in addresses])
        work_d, work_e, work_b, ints, args = size
        work_d[...] = d  # [...] copies in faster than [:]
        work_e[...] = e
        work_b[...] = b
        routine(*args)
        return work_d, work_e, work_b.copy(), ints.item(3)

    return dptsv


dptsv = _openblas_dptsv()
if dptsv is None:
    from scipy.linalg.lapack import dptsv


def solveh_banded(diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive definite tridiagonal system per member.

    Each row of diag (n) and upper (n - 1) along the last axis is one
    system; a batch is one stacked system with zero couplings across the
    seams, which gives each member the bits of its own solve.  LAPACK
    dptsv is pivot-free, so the inputs alone fix the operation order and
    the bits, whichever library provides it.  It leaves the inputs
    unchanged.  A non-positive pivot is an InvariantViolation, and so is
    an illegal argument: rrgas passes dptsv's arguments itself, so that
    is a fault in rrgas.
    """
    if diag.shape[-1] == 1:
        return rhs / diag
    if diag.ndim > 1:
        seams = np.zeros(diag.shape)
        seams[..., :-1] = upper
        upper = seams.ravel()[:-1]
    _, _, x, info = dptsv(diag.ravel(), upper, rhs.ravel())
    if info > 0:
        raise InvariantViolation(f"tridiagonal system of shape {diag.shape} is not positive "
                                 f"definite (leading minor {info})")
    if info < 0:
        raise InvariantViolation(f"illegal value in argument {-info} of dptsv")
    return x.reshape(rhs.shape)


def total_stress(v, theta, u, dx: float, params: PhysParams, theta4=None) -> np.ndarray:
    """Cell total stress sigma = -p + mu*u_x/v; theta4 is theta**4, if given."""
    du = u[..., 1:] - u[..., :-1]
    p = params.r_gas * theta / v + (params.a_rad / 3.0) * (theta**4 if theta4 is None else theta4)
    return -p + params.mu * du / (dx * v)


def stress_divergence(sigma: np.ndarray, p_ext: float, grid) -> np.ndarray:
    """Edge accelerations from cell stresses, ghost stress -p_ext outside.

    The two boundary edges own half a cell of mass, so their control
    volumes divide by dx/2 (grid.edge_widths).  With trapezoidal edge
    weights the weighted sum of these accelerations telescopes to the
    boundary stresses alone, which is what keeps the discrete momentum
    budget honest.
    """
    n = sigma.shape[-1]
    # Ghost stresses -p_ext: sigma[0] - (-p_ext) is sigma[0] + p_ext in
    # IEEE arithmetic, so every edge is one difference over its width.
    # p_ext is a float, or a (B, 1) column of per-member values.
    ghosted = np.empty(sigma.shape[:-1] + (n + 2,))
    ghosted[..., :1] = ghosted[..., -1:] = -p_ext
    ghosted[..., 1:-1] = sigma
    return (ghosted[..., 1:] - ghosted[..., :-1]) / grid.edge_widths


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


def _acceleration(v, theta, u, grid, params: PhysParams, theta4=None):
    """Cell total stresses and the edge accelerations they and gravity give."""
    sigma = total_stress(v, theta, u, grid.dx, params, theta4)
    accel = stress_divergence(sigma, params.p_ext, grid) + gravity_accel(grid.edges, params)
    return sigma, accel


def rates(state: State, params: PhysParams, sources=None):
    """The semi-discrete right-hand side at the state's own level.

    Returns (v_t, u_t, e_t, z_t): the rates of the cell volumes, edge
    velocities, cell internal energies and cell reactant fractions, from
    the stencils and boundary closures step uses.  sources, if given, is
    the tuple (s_v, s_u, s_theta, s_z) at that level, each an array or
    None; each given source is added last.  The explicit reference
    integrator steps with this operator, and the MMS residual checks the
    manufactured fields against it.
    """
    grid = state.grid
    dx = grid.dx
    v, theta, z, u = state.v, state.theta, state.z, state.u
    sigma, u_t = _acceleration(v, theta, u, grid, params)
    v_t = (u[..., 1:] - u[..., :-1]) / dx
    phi = reaction_rate(v, theta, params)
    zm = np.power(z, params.m_order)
    z_t = diffusion_apply(species_interface_coeff(v, params), z, dx) - phi * zm
    e_t = (
        diffusion_apply(heat_interface_coeff(v, theta, params), theta, dx)
        + sigma * v_t
        + params.lambda_heat * phi * zm
    )
    out = (v_t, u_t, e_t, z_t)
    if sources is None:
        return out
    return tuple(r if s is None else r + s for r, s in zip(out, sources))


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


def _not_above(x: np.ndarray, floor: float):
    """Per member: some cell of x is not finite or not above floor."""
    return ~((_min(x, axis=-1) > floor) & (_max(x, axis=-1) < np.inf))


def _diffusion_system(coeff: np.ndarray, scale, base_diag: np.ndarray):
    """base_diag + scale*L for the interface-weighted graph Laplacian L.

    scale is per member: a float for one system, a (B, 1) column for a
    batch.
    """
    # Each cell's sum of the coefficients of its interfaces.
    links = np.zeros(coeff.shape[:-1] + (coeff.shape[-1] + 1,))
    links[..., :-1] = coeff
    links[..., 1:] += coeff
    return base_diag + scale * links, -scale * coeff


def cfl_dt(state: State, config):
    """Accuracy/stability step bound for the explicitly treated terms.

    The acoustic bound uses a conservative sound-speed estimate that
    includes the radiation stiffening of the pressure; the reaction
    bound limits the explicit heat-release growth rate.  The result is
    clamped to dt_max and to the time remaining before t_end.

    A single run gets a float, and a dt not above DT_MIN raises
    SimulationError.  A batch gets a (B,) array reduced per row, each
    row the bits of its member's own float (max and min are exact); it
    does not raise, so the caller checks DT_MIN per member.  phi and
    z^m come from the state's laws, if it carries them; phi is left there.
    """
    params = config.params
    v, theta, z, m = state.v, state.theta, state.z, params.m_order
    laws = (state.laws if state.laws is not None and state.laws["params"] is params
            else {"zm": power(z, m) if isinstance(m, np.ndarray) else np.power(z, m)})
    if "phi" not in laws:
        laws["phi"] = reaction_rate(v, theta, params)
    dx = state.grid.dx
    c2 = theta * (params.r_gas + (4.0 * params.a_rad / 3.0) * theta**3 * v) * (
        params.r_gas / params.cv + 1.0
    )
    # The floor keeps the denominator positive, so nothing divides by zero.
    acoustic = np.where(c2 > 0.0, dx * v / np.sqrt(np.maximum(c2, 1e-300)), np.inf)
    # A cell whose rate is 0 (cold, or no reaction) adds a growth of 0.
    growth = params.lambda_heat * laws["phi"] * laws["zm"] * (
        params.beta / theta + params.a_act / theta**2
    )
    # Land on t_end exactly; the relative slack absorbs the rounding of
    # accumulated t, else a last sliver of a few ulps would be left over.
    remaining = config.t_end - state.t
    if v.ndim > 1:
        dt = np.minimum(_min(acoustic, axis=-1), config.dt_max)
        peak = _max(growth, axis=-1)
        heating = peak > 0.0
        # A row without heating divides by 1, not by its peak of 0.
        dt = np.where(heating, np.minimum(dt, 1.0 / np.where(heating, peak, 1.0)), dt)
        dt *= config.cfl_number
        return np.where(remaining <= dt * (1.0 + 1e-6), remaining, dt)

    dt = min(float(_min(acoustic)), config.dt_max)
    peak = float(_max(growth))
    if peak > 0.0:
        dt = min(dt, 1.0 / peak)
    dt *= config.cfl_number
    if remaining <= dt * (1.0 + 1e-6):
        dt = remaining
    if not dt > DT_MIN:
        raise SimulationError(
            f"time step underflow (dt={dt:.3e} at t={state.t:.6e})", last_state=state
        )
    return dt


def momentum_step(state: State, dt, params: PhysParams, s_u=None, theta4=None) -> np.ndarray:
    """Backward-Euler viscous velocity update with explicit pressure/gravity.

    Solved in increment form: (W + c*L) du = W*dt*a(u^n), where a(u^n)
    is the full acceleration at the old velocity, L the 1/v-weighted
    edge Laplacian from the viscous flux, and W the trapezoidal edge
    mass grid.edge_weights (1/2 at the boundary edges).  W symmetrizes
    the half-mass boundary rows, so the matrix is SPD and u^{n+1} =
    u^n + du solves the plain backward-Euler system exactly.
    """
    grid = state.grid
    dx = grid.dx
    v = state.v
    _, accel = _acceleration(v, state.theta, state.u, grid, params, theta4)
    if s_u is not None:
        accel = accel + s_u

    w, dtc = grid.edge_weights, _per_cell(dt)
    diag, upper = _diffusion_system(1.0 / v, dtc * params.mu / dx**2, w)
    rhs = w * (dtc * accel)
    du = solveh_banded(diag, upper, rhs)
    return state.u + du


def volume_step(state: State, dt, config, s_v=None) -> np.ndarray:
    """v^{n+1} = v^n + dt*u_x^{n+1}; requires state.u already updated.

    Rejects the members whose new volume is not finite or at
    config.v_floor.
    """
    u = state.u
    rate = (u[..., 1:] - u[..., :-1]) / state.grid.dx
    if s_v is not None:
        rate = rate + s_v
    v_new = state.v + _per_cell(dt) * rate
    bad = _not_above(v_new, config.v_floor)
    if _any(bad):
        raise StepRejection("volume_floor", bad)
    return v_new


def species_step(state: State, dt, params: PhysParams, phi, s_z=None, laws=None):
    """Implicit species diffusion with semi-implicit reaction decay.

    Requires state.v at the new level and state.z at the old one; phi
    is reaction_rate(state.v, state.theta) with theta at the old level.
    Returns z_new.  The step's gradient and reaction quadratures, with
    the coefficients the solve froze, are diagnostics.record's: laws, if
    given, gets them as "decay" and "g".
    """
    dx = state.grid.dx
    v, z, m1 = state.v, state.z, params.m_order - 1.0
    dtc = _per_cell(dt)
    decay = phi * (power(z, m1) if isinstance(m1, np.ndarray) else np.power(z, m1))
    g = species_interface_coeff(v, params)
    base = 1.0 + dtc * decay
    if laws is not None:
        laws["decay"], laws["g"] = decay, g

    # Diffusion of a constant vanishes identically, so for a member
    # whose profile is constant (its min is its max) the solve
    # degenerates to per-cell implicit decay.  Taking that path keeps
    # the profile exactly constant in floats.
    top = _max(z, axis=-1) if s_z is None else None
    flat = _min(z, axis=-1) == top if s_z is None else np.False_
    if _all(flat):
        z_new = z / base
    else:
        diag, upper = _diffusion_system(g, dtc / dx**2, base)
        rhs = z if s_z is None else z + dtc * s_z
        z_new = solveh_banded(diag, upper, rhs)
        if _any(flat):
            z_new = np.where(flat[..., None], z / base, z_new)

    if s_z is None:
        # M-matrix solve of nonnegative data: exact nonnegativity, and
        # the maximum principle up to roundoff in the factorization.
        if _min(z_new, axis=None) < 0.0:
            raise InvariantViolation("species went negative")
        if _any(_max(z_new, axis=-1) > top * (1.0 + 1e-13)):
            raise InvariantViolation("species exceeded its initial maximum")
    return z_new


def energy_step(state: State, dt, config, v_old, phi, s_theta=None, guess=None, laws=None):
    """Newton solve for theta^{n+1} from the internal-energy balance.

    Requires state.u, state.v, state.z at the new level and state.theta
    at the old one; phi is reaction_rate(state.v, state.theta).  config
    supplies the physics, newton_tol, newton_max_iter and theta_floor.
    The residual carries implicit conduction (kappa at the current
    iterate) against explicit compression work and reaction heat; the
    Jacobian freezes kappa, keeping it SPD tridiagonal.  Each residual
    takes e and kappa in one pass (constitutive._energy_laws, the laws'
    bits), each update de/dtheta; the converged residual takes none.
    Newton starts from guess, a start point above theta_floor of the
    shape of theta (step_batch's extrapolation), or from state.theta if
    guess is None.  Convergence is checked before the first iteration,
    so a start point that already meets newton_tol is returned with
    zero iterations, as an exact fixed point is.
    laws, if given, is a dict: its "theta4" and "e" give theta^n**4 and
    e^n, and on convergence it gets the new theta4, e, kappa and zm (z^m).

    Each member of a batch converges on its own.  A converged member's
    update is zeroed, so its theta stays put and stays converged, and
    the stacked solve's zero couplings keep the others' bits: each
    member gets the bits, the iterations and the residual of its own
    solve.  The line search, the floor and the stall act per member; the
    StepRejection's mask names the failed members.

    Returns (theta_new, iterations, final_residual), the last two per
    member.
    """
    params, theta_floor = config.params, config.theta_floor
    dx = state.grid.dx
    v, z, u, m = state.v, state.z, state.u, params.m_order
    theta_n = state.theta

    laws = {} if laws is None else laws
    dudx = (u[..., 1:] - u[..., :-1]) / dx
    work = total_stress(v, theta_n, u, dx, params, laws.get("theta4")) * dudx
    zm = power(z, m) if isinstance(m, np.ndarray) else np.power(z, m)
    heating = params.lambda_heat * phi * zm
    dtc = _per_cell(dt)
    e_n = laws["e"] if "e" in laws else internal_energy(v_old, theta_n, params)
    target = e_n + dtc * (work + heating)
    if s_theta is not None:
        target = target + dtc * s_theta

    # What v fixes while theta iterates: a*v, and each cell's half of the
    # interface coefficients k = dt/dx^2*kappa/v.  The fluxes k*dtheta sit
    # between zero boundary fluxes; conduction is their difference.
    av, half = params.a_rad * v, dtc / dx**2 * (0.5 / v)
    flux = np.zeros(theta_n.shape[:-1] + (theta_n.shape[-1] + 1,))
    inner, right, left = flux[..., 1:-1], flux[..., 1:], flux[..., :-1]
    theta = theta_n.copy() if guess is None else guess
    iters = count = 0  # iters: per member; count: the iterations made
    while True:
        e_cur, theta4, kappa = _energy_laws(theta, av, v, params)
        kc = kappa * half
        k = kc[..., :-1] + kc[..., 1:]
        np.multiply(k, theta[..., 1:] - theta[..., :-1], out=inner)
        resid = e_cur - target - (right - left)
        res = _max(np.abs(resid), axis=-1) / _max(e_cur, axis=-1, initial=1.0)  # e > 0
        done = res <= config.newton_tol
        if _all(done):
            laws.update(theta4=theta4, e=e_cur, kappa=kappa, zm=zm)
            return theta, iters * done, res  # done is all True: iters per member
        if count >= config.newton_max_iter:
            raise StepRejection("newton_stall", ~done)

        diag, upper = _diffusion_system(k, 1.0, de_dtheta(v, theta, params))
        delta = solveh_banded(diag, upper, resid)
        if _any(done):
            delta[done] = 0.0  # a converged member stays put
        candidate = theta - delta
        if not _min(candidate, axis=None) > theta_floor:
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
                raise StepRejection("theta_floor", ~ok)
        theta = candidate
        iters, count = iters + ~done, count + 1


def _start_point(state: State, dt, theta_floor: float):
    """theta at t + dt extrapolated through state and state.history, the
    last accepted levels before it (most recent first, at most two), in
    divided differences; None, for energy_step's own start at theta,
    without history.

    The divided-difference form extrapolates a constant field to itself
    bit for bit.  A member whose start point is not finite or not above
    theta_floor in every cell gets its own theta.
    """
    if not state.history:
        return None
    theta = state.theta
    (t1, theta1), *older = state.history
    dt, s1 = _per_cell(dt), _per_cell(state.t - t1)
    slope = d1 = (theta - theta1) / s1
    if older:
        t2, theta2 = older[0]
        s2 = _per_cell(t1 - t2)
        d2 = (theta1 - theta2) / s2
        slope = d1 + (d1 - d2) * ((dt + s1) / (s1 + s2))
    guess = theta + dt * slope
    bad = _not_above(guess, theta_floor)
    if _any(bad):
        return np.where(_per_cell(bad), theta, guess) if bad.ndim else None
    return guess


def step_batch(state: State, config, sources=None, *, dt):
    """Advance every member of a batch one step at its own pinned dt.

    state is a batch of B runs on one grid (a mesh.State with a leading
    member axis) and dt a (B,) array; a single run's state with a float
    dt is the batch of one, without the axis.  sources, if given, is the
    tuple (s_v, s_u, s_theta, s_z) at the members' new level, each an
    array or None: s_u of the state's edge shape, the others of its
    cell shape.  The temperature Newton solve starts from theta
    extrapolated through the state and its history (mesh.State) to this
    attempt's t + dt, per member (theta^n where that is not finite or
    not above theta_floor, and theta^n without history); the new state's
    history is the input's (t, theta) and the input's latest level.  Every
    row is computed on its own, a converged Newton member staying put, so
    each member gets the bits of its own run.  The step is one attempt: a
    rejection's mask names its members.  Returns (new_state, StepReport)
    with every report field per member.
    The new state's laws (mesh.State) hold Newton's converged theta**4,
    e, kappa and z^m and the species solve's decay and g; the step reads
    theta^n**4 and e^n from the input state's.
    """
    params = config.params
    # Implicit sub-updates see sources at the level they solve for.
    s_v, s_u, s_th, s_z = (None,) * 4 if sources is None else sources
    laws = state.laws
    laws = ({"params": params, "theta4": laws["theta4"], "e": laws["e"]} if laws is not None
            and laws["params"] is params else {"params": params, "theta4": state.theta**4})
    trial = State.__new__(State)  # a shallow copy: each field gets a new array
    vars(trial).update(vars(state), laws=None)
    trial.u = momentum_step(trial, dt, params, s_u=s_u, theta4=laws["theta4"])
    trial.v = volume_step(trial, dt, config, s_v=s_v)
    advance_boundary(trial, dt)
    # Species and energy both take the rate at (v^{n+1}, theta^n).
    phi = reaction_rate(trial.v, trial.theta, params)
    trial.z = species_step(trial, dt, params, phi, s_z=s_z, laws=laws)
    guess = _start_point(state, dt, config.theta_floor)
    trial.theta, iters, res = energy_step(trial, dt, config, state.v, phi, s_theta=s_th,
                                          guess=guess, laws=laws)
    trial.t, trial.laws = state.t + dt, laws
    trial.history = ((state.t, state.theta), *state.history)[:2]
    return trial, StepReport(dt, iters, res)


def step(state: State, config, sources=None, dt: float | None = None):
    """Advance one run one accepted step: step_batch for a single run.

    sources, if given, is the tuple (s_v, s_u, s_theta, s_z) of
    manufactured right-hand sides at the new level, each an array or
    None: s_u on the edges, the others on the cells.  dt is normally
    taken from cfl_dt, and a rejected attempt is retried from the input
    state, its history (mesh.State) included, at half the dt, up to
    MAX_REJECTIONS attempts.  Passing dt pins the step size for
    convergence studies; the step is then one attempt, and a rejection
    raises StepRejection.  Returns (new_state, StepReport).
    """
    pinned = dt is not None
    if not pinned:
        dt = cfl_dt(state, config)
    rejections = 0
    while True:
        try:
            new, r = step_batch(state, config, sources, dt=dt)
            break
        except StepRejection as rej:
            if pinned:
                raise
            rejections += 1
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
    new.t, new.a_pos = float(new.t), float(new.a_pos)
    return new, StepReport(float(dt), int(r.newton_iterations), float(r.max_newton_residual),
                           rejections)
