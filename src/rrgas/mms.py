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
the call at its one time.  run_mms steps with driver.run_fixed, which
uses this to evaluate the sources for a block of levels per call.
run_mms advances its step counts as one batch on one grid.  studies
runs the temporal study beside the spatial study, in a forked worker
where workers.may_fork, else the two in turn, with the same output
(workers.in_parallel).
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .constitutive import PhysParams, conductivity, de_dtheta, pressure, reaction_rate
from .driver import run_fixed
from .mesh import Grid, State
from .solver import rates
from .workers import in_parallel


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

    def state(self, grid: Grid, t: float = 0.0) -> State:
        """The manufactured fields on grid at time t."""
        x = grid.cell_centers
        return State(grid, self.v.value(x, t), self.theta.value(x, t), self.z.value(x, t),
                     self.u.value(grid.edges, t), t)

    def initial_state(self, n_cells: int) -> State:
        return self.state(Grid(n_cells))

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
        """The sources on grid, as the callable driver.run_fixed takes.

        It maps t to (s_v, s_u, s_theta, s_z), the tuple solver.step and
        solver.rates take: s_u at the edges, the other three at the cell
        centers.  An array of times gives one row per time, of shape
        t.shape + (the grid's size,).
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


def _field_norms(err: np.ndarray, grid: Grid, edge_field: bool):
    """(L2, Linf) of err on grid: trapezoid weights on the edges."""
    sq = grid.edge_weights * err**2 if edge_field else err**2
    return math.sqrt(float(np.sum(sq) * grid.dx)), float(np.max(np.abs(err)))


def state_errors(case: MmsCase, state: State):
    """Per-field (L2, Linf) of numerical minus manufactured at state.t."""
    exact = case.state(state.grid, state.t)
    return {name: _field_norms(getattr(state, name) - getattr(exact, name), state.grid,
                               name == "u")
            for name in FIELD_NAMES}


def run_mms(case: MmsCase, n_cells: int, t_end: float, n_steps):
    """Integrate the sourced system at the fixed step t_end/n for each
    step count n of the sequence n_steps.

    The runs advance as one batch; one (per-field errors, final state)
    is returned per count, in their order, each with the bits of its
    own run.  driver.run_fixed steps them and says what it raises.
    """
    config = RunConfig(params=case.params, n_cells=n_cells, t_end=t_end)
    state = case.initial_state(n_cells)
    return [(state_errors(case, final), final)
            for final in run_fixed(state, config, n_steps, case.sources(state.grid))]


def convergence_order(coarse_error: float, fine_error: float, refinement_ratio: float) -> float:
    """log(coarse/fine)/log(ratio); requires positive errors, ratio > 1."""
    if not (coarse_error > 0.0 and fine_error > 0.0):
        raise ValueError("errors must be positive to define an order")
    if not refinement_ratio > 1.0:
        raise ValueError("refinement ratio must exceed 1")
    return math.log(coarse_error / fine_error) / math.log(refinement_ratio)


def discrete_residual(case: MmsCase, n_cells: int, t: float):
    """Plug exact fields into the semi-discrete equations at time t.

    The analytic time derivatives minus solver.rates of the exact state
    with the case's sources, the operator the explicit integrator steps
    with: this isolates spatial consistency from time integration.
    Cell equations are second order; the momentum boundary rows are
    first order (half-cell control volumes), its interior rows second.
    """
    grid = Grid(n_cells)
    exact = case.state(grid, t)
    v_t, u_t, e_t, z_t = rates(exact, case.params, case.sources(grid)(t))
    x, p = grid.cell_centers, case.params
    v, theta = exact.v, exact.theta
    exact_e_t = _de_dv(theta, p) * case.v.dt(x, t) + de_dtheta(v, theta, p) * case.theta.dt(x, t)
    return {
        "v": case.v.dt(x, t) - v_t,
        "u": case.u.dt(grid.edges, t) - u_t,
        "theta": exact_e_t - e_t,
        "z": case.z.dt(x, t) - z_t,
    }


def _orders(l2s):
    """Field -> the orders between consecutive entries of l2s, each a
    dict of field -> L2 norm, at a refinement ratio of 2."""
    return {name: [convergence_order(a[name], b[name], 2.0) for a, b in zip(l2s, l2s[1:])]
            for name in FIELD_NAMES}


def _spatial_jobs(levels: int, t_end: float = 0.4, base_cells: int = 64, base_steps: int = 160):
    return [(base_cells * 2**i, t_end, base_steps * 4**i) for i in range(levels)]


def _temporal_jobs(levels: int, t_end: float = 0.4, n_cells: int = 256, base_steps: int = 512):
    return [(n_cells, t_end, base_steps * 2**i) for i in range(levels)]


def studies(case: MmsCase, levels: int):
    """The spatial and the temporal refinement study, each of levels levels.

    The spatial study refines the mesh with dt proportional to dx^2;
    the temporal study halves dt on a fixed fine mesh.  Returns
    ((rows, orders), (rows, diffs, orders)): one row per level with
    n_cells, n_steps and per-field (L2, Linf) errors, and orders as
    field -> list of observed L2 orders between consecutive levels.
    Temporal orders come from successive solution differences diffs
    (S_dt - S_dt/2 against S_dt/2 - S_dt/4), which cancels the fixed
    spatial error that would otherwise mask the first-order-in-dt
    signal; two levels give one difference and no order.

    Each spatial level is one run_mms call on its own grid; the
    temporal levels share one grid and are one run_mms batch, run in a
    forked worker beside the spatial study where workers.may_fork
    (workers.in_parallel).  Every run has the bits of its own serial
    run, wherever it runs.
    """
    spatial_jobs, temporal_jobs = _spatial_jobs(levels), _temporal_jobs(levels)

    def spatial():
        return [run for n_cells, t_end, n_steps in spatial_jobs
                for run in run_mms(case, n_cells, t_end, [n_steps])]

    def temporal():
        n_cells, t_end, _ = temporal_jobs[0]  # the grid of every level
        return run_mms(case, n_cells, t_end, [n_steps for _, _, n_steps in temporal_jobs])

    spatial_runs, temporal_runs = in_parallel([spatial, temporal], "MMS worker")
    spatial_rows, temporal_rows = (
        [{"n_cells": n_cells, "n_steps": n_steps, "errors": errors}
         for (n_cells, _, n_steps), (errors, _) in zip(jobs, runs)]
        for jobs, runs in ((spatial_jobs, spatial_runs), (temporal_jobs, temporal_runs)))
    states = [state for _, state in temporal_runs]
    diffs = [
        {name: _field_norms(getattr(a, name) - getattr(b, name), a.grid, name == "u")[0]
         for name in FIELD_NAMES}
        for a, b in zip(states[:-1], states[1:])
    ]
    l2s = [{name: l2 for name, (l2, _) in row["errors"].items()} for row in spatial_rows]
    return ((spatial_rows, _orders(l2s)),
            (temporal_rows, diffs, _orders(diffs) if len(diffs) >= 2 else {}))
