"""Manufactured-solution verification harness.

Each case fixes closed-form fields v*, u*, theta*, z* of the separable
form base + amp*s(x)*f(t) and injects the compensating sources into
the governing equations, so the chosen fields are the exact solution
and measured errors are pure discretization error.  The source algebra
is hand-derived (see docs/mms_derivation.md) and exercised against
finite differences in the test suite; nothing is differentiated
symbolically at runtime.

Shared shape conventions: s(0) = s(1) = 0 and s'(0) = s'(1) = 0, so at
both boundaries the fields sit at their constant base values with zero
slope.  With p_ext chosen as the pressure of the base state, the
boundary stress, heat-flux and species-flux conditions hold exactly.

The source methods broadcast: called with a (k, 1) column of times
against a grid array, they return (k, n) rows, each bit-identical to
the call at its one time.  run_mms steps with a fixed dt and uses this
to evaluate the sources, and the shapes inside them, a block of time
levels at a time; nothing is cached across blocks.

run_mms given several step counts advances the runs as one batch on one
grid (solver.step_batch, a leading member axis), and each member leaves
the batch after its last step; every member keeps the bits of its own
run.  temporal_study runs its levels that way.
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .constitutive import (
    PhysParams,
    conductivity,
    de_dtheta,
    internal_energy,
    pressure,
    reaction_rate,
)
from .mesh import ConfigurationError, Grid, State, stack
from .solver import (
    diffusion_apply,
    gravity_accel,
    heat_interface_coeff,
    species_interface_coeff,
    step,
    step_batch,
    stress_divergence,
    total_stress,
)


class Field:
    """Separable scalar field base + amp*s(x)*f(t) with analytic derivatives."""

    def __init__(self, base, amp, shape, time):
        self.base = base
        self.amp = amp
        self._s, self._ds, self._dss = shape
        self._f, self._df = time

    def value(self, x, t):
        return self.base + self.amp * self._s(x) * self._f(t)

    def dx(self, x, t):
        return self.amp * self._ds(x) * self._f(t)

    def dxx(self, x, t):
        return self.amp * self._dss(x) * self._f(t)

    def dt(self, x, t):
        return self.amp * self._s(x) * self._df(t)


def _trig_shape():
    def s(x):
        return np.sin(np.pi * x) ** 2

    def ds(x):
        return np.pi * np.sin(2.0 * np.pi * x)

    def dss(x):
        return 2.0 * np.pi**2 * np.cos(2.0 * np.pi * x)

    return s, ds, dss


def _tanh_shape(c: float):
    # s = tanh^2(g), g = c*x*(1-x); both s and s' vanish at x = 0, 1.
    def s(x):
        return np.tanh(c * x * (1.0 - x)) ** 2

    def ds(x):
        g = c * x * (1.0 - x)
        gp = c * (1.0 - 2.0 * x)
        th = np.tanh(g)
        return 2.0 * th * (1.0 - th**2) * gp

    def dss(x):
        g = c * x * (1.0 - x)
        gp = c * (1.0 - 2.0 * x)
        gpp = -2.0 * c
        th = np.tanh(g)
        sech2 = 1.0 - th**2
        return 2.0 * sech2 * ((sech2 - 2.0 * th**2) * gp**2 + th * gpp)

    return s, ds, dss


def _cosine(omega: float):
    return (lambda t: np.cos(omega * t), lambda t: -omega * np.sin(omega * t))


def _sine(omega: float, phase: float = 0.0):
    return (
        lambda t: np.sin(omega * t + phase),
        lambda t: omega * np.cos(omega * t + phase),
    )


def _dp_dv(v, theta, params: PhysParams):
    return -params.r_gas * theta / v**2


def _dp_dtheta(v, theta, params: PhysParams):
    return params.r_gas / v + (4.0 * params.a_rad / 3.0) * theta**3


def _de_dv(theta, params: PhysParams):
    return params.a_rad * theta**4


class MmsCase:
    """Manufactured fields plus source closures for one verification run."""

    def __init__(self, name: str, params: PhysParams, v: Field, u: Field, theta: Field, z: Field):
        self.name = name
        self.params = params
        self.v = v
        self.u = u
        self.theta = theta
        self.z = z

    def initial_state(self, n_cells: int) -> State:
        grid = Grid(n_cells)
        return State(
            grid,
            self.v.value(grid.cell_centers, 0.0),
            self.theta.value(grid.cell_centers, 0.0),
            self.z.value(grid.cell_centers, 0.0),
            self.u.value(grid.edges, 0.0),
        )

    def source_v(self, x, t):
        return self.v.dt(x, t) - self.u.dx(x, t)

    def source_u(self, x, t):
        p = self.params
        v = self.v.value(x, t)
        theta = self.theta.value(x, t)
        v_x = self.v.dx(x, t)
        theta_x = self.theta.dx(x, t)
        u_x = self.u.dx(x, t)
        u_xx = self.u.dxx(x, t)
        sigma_x = (
            -(_dp_dv(v, theta, p) * v_x + _dp_dtheta(v, theta, p) * theta_x)
            + p.mu * (u_xx / v - u_x * v_x / v**2)
        )
        return self.u.dt(x, t) - sigma_x + p.g_grav * (x - 0.5)

    def source_theta(self, x, t):
        p = self.params
        v = self.v.value(x, t)
        theta = self.theta.value(x, t)
        z = self.z.value(x, t)
        v_x = self.v.dx(x, t)
        theta_x = self.theta.dx(x, t)
        u_x = self.u.dx(x, t)

        e_t = _de_dv(theta, p) * self.v.dt(x, t) + de_dtheta(v, theta, p) * self.theta.dt(x, t)
        kappa, dk_dv, dk_dtheta = conductivity(v, theta, p)
        coeff_x = (dk_dv * v_x + dk_dtheta * theta_x) / v - kappa * v_x / v**2
        conduction = coeff_x * theta_x + (kappa / v) * self.theta.dxx(x, t)
        sigma = -pressure(v, theta, p) + p.mu * u_x / v
        heating = p.lambda_heat * reaction_rate(v, theta, p) * np.power(z, p.m_order)
        return e_t - conduction - sigma * u_x - heating

    def source_z(self, x, t):
        p = self.params
        v = self.v.value(x, t)
        z = self.z.value(x, t)
        v_x = self.v.dx(x, t)
        diffusion = p.d_diff * (self.z.dxx(x, t) / v**2 - 2.0 * self.z.dx(x, t) * v_x / v**3)
        sink = reaction_rate(v, self.theta.value(x, t), p) * np.power(z, p.m_order)
        return self.z.dt(x, t) - diffusion + sink

    def sources(self, grid: Grid):
        """The sources on grid, as the callable step and step_batch take.

        It maps t to (s_v, s_u, s_theta, s_z): s_u at the edges, the
        other three at the cell centers.  An array of times gives one
        row per time, of shape t.shape + (the grid's size,).
        """
        x_cells, x_edges = grid.cell_centers, grid.edges

        def at(t):
            if np.ndim(t):
                t = np.asarray(t)[..., None]
            return (
                self.source_v(x_cells, t),
                self.source_u(x_edges, t),
                self.source_theta(x_cells, t),
                self.source_z(x_cells, t),
            )

        return at


def trig_case() -> MmsCase:
    """Smooth trigonometric fields, reaction off: viscosity, conduction
    and the radiative state laws carry all the coupling."""
    r_gas = 1.0
    a_rad = 1.0
    params = PhysParams(
        mu=0.1,
        d_diff=0.1,
        lambda_heat=1.0,
        cv=1.0,
        r_gas=r_gas,
        a_rad=a_rad,
        g_grav=0.0,
        p_ext=r_gas + a_rad / 3.0,
        k_rate=0.0,
        a_act=1.0,
        m_order=1.0,
        beta=0.0,
        q_cond=2.0,
        kappa1=0.5,
        kappa2=0.5,
        cond_model="A",
    )
    shape = _trig_shape()
    return MmsCase(
        "trig",
        params,
        v=Field(1.0, 0.12, shape, _cosine(1.0)),
        u=Field(0.0, 0.15, shape, _sine(2.0)),
        theta=Field(1.0, 0.08, shape, _cosine(2.0)),
        z=Field(0.5, 0.2, shape, _cosine(3.0)),
    )


def tanh_case() -> MmsCase:
    """Tanh-localized fields with the full reaction path, gravity and
    the volume-weighted conductivity model."""
    r_gas = 1.0
    a_rad = 1.0
    params = PhysParams(
        mu=0.1,
        d_diff=0.1,
        lambda_heat=1.0,
        cv=1.0,
        r_gas=r_gas,
        a_rad=a_rad,
        g_grav=0.1,
        p_ext=r_gas + a_rad / 3.0,
        k_rate=2.0,
        a_act=2.0,
        m_order=2.0,
        beta=1.0,
        q_cond=2.0,
        kappa1=0.5,
        kappa2=1.0,
        cond_model="B",
    )
    shape = _tanh_shape(6.0)
    return MmsCase(
        "tanh",
        params,
        v=Field(1.0, 0.1, shape, _cosine(1.0)),
        u=Field(0.0, 0.12, shape, _sine(2.0)),
        theta=Field(1.0, 0.1, shape, _cosine(2.0)),
        z=Field(0.4, 0.3, shape, _sine(1.0, 0.5)),
    )


CASES = {"trig": trig_case, "tanh": tanh_case}

FIELD_NAMES = ("v", "u", "theta", "z")


def _field_norms(err: np.ndarray, dx: float, edge_field: bool):
    if edge_field:
        w = np.ones(err.size)
        w[0] = 0.5
        w[-1] = 0.5
        l2 = math.sqrt(float(np.sum(w * err**2) * dx))
    else:
        l2 = math.sqrt(float(np.sum(err**2) * dx))
    return l2, float(np.max(np.abs(err)))


def state_errors(case: MmsCase, state: State):
    """Per-field (L2, Linf) of numerical minus manufactured at state.t."""
    grid = state.grid
    t = state.t
    out = {}
    out["v"] = _field_norms(state.v - case.v.value(grid.cell_centers, t), grid.dx, False)
    out["u"] = _field_norms(state.u - case.u.value(grid.edges, t), grid.dx, True)
    out["theta"] = _field_norms(
        state.theta - case.theta.value(grid.cell_centers, t), grid.dx, False
    )
    out["z"] = _field_norms(state.z - case.z.value(grid.cell_centers, t), grid.dx, False)
    return out


# Values per source array in one block of time levels: a run of B
# members on n cells evaluates max(1, _SOURCE_BLOCK // (B * (n + 1)))
# levels per source call.
_SOURCE_BLOCK = 4096


class _BlockSources:
    """A case's sources at known time levels, a block of levels per call.

    A fixed-dt run knows every level its steps will sample before the
    first one; levels holds that list for each member of a batch.  Each
    source is called once per block with the times of the members still
    stepping, (k,) or (k, b), and broadcasts them against the grid array
    into rows; every operation is elementwise, so each row holds the bits
    of a call at that one level.  Called with the next level of every
    member still stepping, in member order (a float for a single run, a
    (b,) array for a batch), it serves read-only rows from the block.
    Any other call (a halved dt after a rejection, every level after it)
    is evaluated alone and builds no block.
    """

    def __init__(self, case: MmsCase, grid: Grid, levels):
        self._sources = case.sources(grid)
        self._counts = np.array([len(member) for member in levels])
        self._levels = np.full((len(levels), self._counts.max()), np.nan)
        for row, member in zip(self._levels, levels):
            row[: len(member)] = member
        self._width = grid.edges.size
        self._next = 0  # index of the step the next call asks for
        self._start = self._stop = 0  # the steps the block holds
        self._times = None  # their levels, (k, b)
        self._block = ()  # (s_v, s_u, s_theta, s_z), each (k, ...) rows

    def __call__(self, t):
        i = self._next
        if i < self._stop:
            want = self._times[i - self._start]
        elif i < self._levels.shape[1]:
            want = self._levels[self._counts > i, i]
        else:
            return self._sources(t)
        if not (np.size(t) == want.size and (np.reshape(t, -1) == want).all()):
            return self._sources(t)
        if i == self._stop:
            # Blocks end where a member stops stepping, so the rows of
            # one block are for one set of members.
            stepping = self._counts > i
            size = max(1, _SOURCE_BLOCK // (want.size * self._width))
            stop = min(i + size, self._counts[stepping].min())
            self._block = ()  # dropped first, so two blocks are never held at once
            self._times = self._levels[stepping, i:stop].T
            self._block = self._sources(self._times.reshape((stop - i,) + np.shape(t)))
            for values in self._block:
                values.setflags(write=False)
            self._start, self._stop = i, stop
        self._next = i + 1
        return tuple(values[i - self._start] for values in self._block)


def run_mms(case: MmsCase, n_cells: int, t_end: float, n_steps):
    """Integrate the sourced system and return (per-field errors, state).

    The step size t_end/n_steps is fixed, so the sources are evaluated a
    block of time levels at a time (_BlockSources), with the same bits
    as one level at a time.  n_steps may also be a sequence of step
    counts: the runs then advance as one batch (solver.step_batch), each
    member leaves it after its last step, and one (errors, state) is
    returned per member, each with the bits of its own run.  A single
    run, or the last member left, steps with solver.step.
    """
    counts = list(np.atleast_1d(n_steps))
    for count in counts:
        if count < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {count}")
    config = RunConfig(params=case.params, n_cells=n_cells, t_end=t_end)
    state = case.initial_state(n_cells)
    dts = [t_end / count for count in counts]
    # The same additions step makes, so each level is its t_new bit for bit.
    levels = []
    for dt, count in zip(dts, counts):
        t = state.t
        levels.append([t := t + dt for _ in range(count)])
    sources = _BlockSources(case, state.grid, levels)

    finals = [None] * len(counts)
    live = np.arange(len(counts))  # the members still stepping, in order
    batch = stack([state] * len(counts))
    taken = 0
    while live.size > 1:
        batch, _ = step_batch(batch, config, sources=sources, dt=np.take(dts, live))
        taken += 1
        done = np.take(counts, live) == taken
        if done.any():
            for member, position in zip(live[done], np.flatnonzero(done)):
                finals[member] = batch[position]
            live, batch = live[~done], batch[~done]
    if live.size:
        # The last member steps on as a single run: the same code without
        # the member axis, which costs less per step.
        (member,), state = live, batch[0]
        for _ in range(counts[member] - taken):
            state, _ = step(state, config, sources=sources, dt=dts[member])
        finals[member] = state
    runs = [(state_errors(case, final), final) for final in finals]
    return runs if np.ndim(n_steps) else runs[0]


def convergence_order(coarse_error: float, fine_error: float, refinement_ratio: float) -> float:
    """log(coarse/fine)/log(ratio); requires positive errors, ratio > 1."""
    if not (coarse_error > 0.0 and fine_error > 0.0):
        raise ValueError("errors must be positive to define an order")
    if not refinement_ratio > 1.0:
        raise ValueError("refinement ratio must exceed 1")
    return math.log(coarse_error / fine_error) / math.log(refinement_ratio)


def discrete_residual(case: MmsCase, n_cells: int, t: float):
    """Plug exact fields into the semi-discrete equations at time t.

    Uses the solver's spatial stencils against the analytic time
    derivatives, isolating spatial consistency from time integration.
    Cell equations are second order; the momentum boundary rows are
    first order (half-cell control volumes), its interior rows second.
    """
    grid = Grid(n_cells)
    dx = grid.dx
    xc, xe = grid.cell_centers, grid.edges
    p = case.params

    v = case.v.value(xc, t)
    theta = case.theta.value(xc, t)
    z = case.z.value(xc, t)
    u = case.u.value(xe, t)
    dudx = np.diff(u) / dx

    r_v = case.v.dt(xc, t) - dudx - case.source_v(xc, t)

    sigma = total_stress(v, theta, u, dx, p)
    accel = (
        stress_divergence(sigma, p.p_ext, dx)
        + gravity_accel(xe, p)
        + case.source_u(xe, t)
    )
    r_u = case.u.dt(xe, t) - accel

    e_t = _de_dv(theta, p) * case.v.dt(xc, t) + de_dtheta(v, theta, p) * case.theta.dt(xc, t)
    heating = p.lambda_heat * reaction_rate(v, theta, p) * np.power(z, p.m_order)
    r_theta = e_t - (
        diffusion_apply(heat_interface_coeff(v, theta, p), theta, dx)
        + sigma * dudx
        + heating
        + case.source_theta(xc, t)
    )

    sink = reaction_rate(v, theta, p) * np.power(z, p.m_order)
    r_z = case.z.dt(xc, t) - (
        diffusion_apply(species_interface_coeff(v, p), z, dx)
        - sink
        + case.source_z(xc, t)
    )
    return {"v": r_v, "u": r_u, "theta": r_theta, "z": r_z}


def spatial_study(case: MmsCase, levels: int = 3, t_end: float = 0.4,
                  base_cells: int = 64, base_steps: int = 160):
    """Mesh refinement with dt proportional to dx^2.

    Returns (rows, orders): one row per level with n_cells, n_steps and
    per-field norms; orders maps field -> list of observed L2 orders
    between consecutive levels.
    """
    rows = []
    for i in range(levels):
        n = base_cells * 2**i
        steps = base_steps * 4**i
        errors, _ = run_mms(case, n, t_end, steps)
        rows.append({"n_cells": n, "n_steps": steps, "errors": errors})
    orders = {}
    for name in FIELD_NAMES:
        orders[name] = [
            convergence_order(
                rows[i]["errors"][name][0], rows[i + 1]["errors"][name][0], 2.0
            )
            for i in range(levels - 1)
        ]
    return rows, orders


def temporal_study(case: MmsCase, levels: int = 3, t_end: float = 0.4,
                   n_cells: int = 256, base_steps: int = 512):
    """dt refinement on a fixed fine mesh.

    Orders come from successive solution differences (S_dt - S_dt/2
    against S_dt/2 - S_dt/4), which cancels the fixed spatial error
    that would otherwise mask the first-order-in-dt signal.  The levels
    run as one batch (run_mms with a sequence of step counts).
    """
    counts = [base_steps * 2**i for i in range(levels)]
    runs = run_mms(case, n_cells, t_end, counts)
    states = [state for _, state in runs]
    rows = [
        {"n_cells": n_cells, "n_steps": steps, "errors": errors}
        for steps, (errors, _) in zip(counts, runs)
    ]

    diffs = []
    for a, b in zip(states[:-1], states[1:]):
        dx = a.grid.dx
        d = {}
        d["v"] = _field_norms(a.v - b.v, dx, False)[0]
        d["u"] = _field_norms(a.u - b.u, dx, True)[0]
        d["theta"] = _field_norms(a.theta - b.theta, dx, False)[0]
        d["z"] = _field_norms(a.z - b.z, dx, False)[0]
        diffs.append(d)
    orders = {}
    if len(diffs) >= 2:
        for name in FIELD_NAMES:
            orders[name] = [
                convergence_order(diffs[i][name], diffs[i + 1][name], 2.0)
                for i in range(len(diffs) - 1)
            ]
    return rows, diffs, orders
