"""Manufactured-solution harness: the source algebra is checked against
finite differences of the exact composite fluxes before anything is
integrated, then the discrete stencils against grid refinement."""

import hashlib
import os
import signal
import time
from functools import partial

import numpy as np
import pytest
from conftest import cpus, within
from test_golden_outputs import MMS_STDOUT_GOLDEN

import rrgas.cli as cli
import rrgas.driver
import rrgas.mms
import rrgas.solver
from rrgas.constitutive import (
    conductivity,
    de_dtheta,
    internal_energy,
    pressure,
    reaction_rate,
)
from rrgas.mesh import BLOCK_VALUES
from rrgas.mesh import ConfigurationError, Grid
from rrgas.mms import (
    CASES,
    Field,
    MmsCase,
    _cosine,
    _sine,
    _tanh_shape,
    _trig_shape,
    convergence_order,
    discrete_residual,
    run_mms,
    state_errors,
    studies,
)
from rrgas.solver import InvariantViolation, SimulationError, StepRejection

H = 1e-5  # central-difference step for the oracle derivatives
X_SAMPLES = (0.13, 0.41, 0.77)
T_SAMPLES = (0.0, 0.3)
# Each case at its own conductivity exponent q = 2 (id: the case's name),
# at constant conductivity and at a fractional power.
CASES_AND_Q = [pytest.param(name, q, id=name if q == 2.0 else f"{name}-q{q:g}")
               for name in sorted(CASES) for q in (2.0, 0.0, 0.5)]


def central(f, x):
    return (f(x + H) - f(x - H)) / (2.0 * H)


# ------------------------------------------------------ shape closures

@pytest.mark.parametrize("shape", [_trig_shape(), _tanh_shape(6.0)],
                         ids=["trig", "tanh"])
def test_shape_derivatives_match_fd(shape):
    s, ds, dss = shape
    for x in (0.1, 0.33, 0.5, 0.86):
        assert ds(x) == pytest.approx(central(s, x), abs=1e-6)
        assert dss(x) == pytest.approx(central(ds, x), abs=1e-6)


@pytest.mark.parametrize("factory,args", [(_cosine, (2.0,)), (_sine, (3.0, 0.4))],
                         ids=["cosine", "sine"])
def test_time_factors_match_fd(factory, args):
    f, df = factory(*args)
    for t in (0.0, 0.7, 2.1):
        assert df(t) == pytest.approx(central(f, t), abs=1e-8)


def test_shapes_vanish_flat_at_boundaries():
    for s, ds, _ in (_trig_shape(), _tanh_shape(6.0)):
        for x in (0.0, 1.0):
            assert s(x) == pytest.approx(0.0, abs=1e-30)
            assert ds(x) == pytest.approx(0.0, abs=1e-13)


def test_field_composition():
    f = Field(1.0, 0.5, _trig_shape(), _cosine(2.0))
    s, ds, dss = _trig_shape()
    x, t = 0.3, 0.4
    assert f.value(x, t) == 1.0 + 0.5 * s(x) * np.cos(2.0 * t)
    assert f.dx(x, t) == 0.5 * ds(x) * np.cos(2.0 * t)
    assert f.dxx(x, t) == 0.5 * dss(x) * np.cos(2.0 * t)
    assert f.dt(x, t) == 0.5 * s(x) * (-2.0 * np.sin(2.0 * t))


# ---------------------------------------------------- one source path

SOURCE_NAMES = ("source_v", "source_u", "source_theta", "source_z")


@pytest.fixture
def source_times(monkeypatch):
    """Source name -> the t argument of every call, as the call passed it."""
    times = {attr: [] for attr in SOURCE_NAMES}
    for attr in SOURCE_NAMES:
        fn = getattr(MmsCase, attr)

        def recorded(self, x, t, fn=fn, attr=attr):
            times[attr].append(t)
            return fn(self, x, t)

        monkeypatch.setattr(MmsCase, attr, recorded)
    return times


def accumulated_levels(t_end, n_steps):
    """The t_new of each fixed-dt step, by the additions step makes."""
    dt = t_end / n_steps
    levels = []
    t = 0.0
    for _ in range(n_steps):
        t = t + dt
        levels.append(t)
    return levels


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_mms_evaluates_each_source_once_per_level(name, source_times):
    run_mms(CASES[name](), 16, 0.05, [12])
    levels = set(accumulated_levels(0.05, 12))
    assert len(levels) == 12
    n_blocks = -(-12 // max(1, BLOCK_VALUES // 17))
    for attr, calls in source_times.items():
        assert len(calls) == n_blocks, attr
        assert sum(np.size(t) for t in calls) == 12, attr
        assert {float(v) for t in calls for v in np.ravel(t)} == levels, attr


def test_case_sources_place_each_source_on_its_grid():
    case = CASES["tanh"]()
    grid = Grid(16)
    got = case.sources(grid)(0.3)
    want = (
        case.source_v(grid.cell_centers, 0.3),
        case.source_u(grid.edges, 0.3),  # velocity lives on edges
        case.source_theta(grid.cell_centers, 0.3),
        case.source_z(grid.cell_centers, 0.3),
    )
    assert [a.shape for a in got] == [(16,), (17,), (16,), (16,)]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def plain_sources(case, grid, t):
    """The four sources at one t as plain Field.value, dx, dxx and dt
    calls and constitutive laws: each source evaluates every field it
    reads on its own, in the operation order the case's sources keep."""
    p, v, u, theta, z = case.params, case.v, case.u, case.theta, case.z
    x = grid.edges
    ve, th = v.value(x, t), theta.value(x, t)
    sigma_x = (
        -((-p.r_gas * th / ve**2) * v.dx(x, t)
          + (p.r_gas / ve + (4.0 * p.a_rad / 3.0) * th**3) * theta.dx(x, t))
        + p.mu * (u.dxx(x, t) / ve - u.dx(x, t) * v.dx(x, t) / ve**2)
    )
    s_u = u.dt(x, t) - sigma_x + p.g_grav * (x - 0.5)
    x = grid.cell_centers
    vc, th, zc, v_x, theta_x, u_x = (v.value(x, t), theta.value(x, t), z.value(x, t),
                                     v.dx(x, t), theta.dx(x, t), u.dx(x, t))
    e_t = p.a_rad * th**4 * v.dt(x, t) + de_dtheta(vc, th, p) * theta.dt(x, t)
    kappa, dk_dv, dk_dtheta = conductivity(vc, th, p)
    coeff_x = (dk_dv * v_x + dk_dtheta * theta_x) / vc - kappa * v_x / vc**2
    conduction = coeff_x * theta_x + (kappa / vc) * theta.dxx(x, t)
    sigma = -pressure(vc, th, p) + p.mu * u_x / vc
    heating = p.lambda_heat * reaction_rate(vc, th, p) * np.power(zc, p.m_order)
    s_theta = e_t - conduction - sigma * u_x - heating
    diffusion = p.d_diff * (z.dxx(x, t) / vc**2 - 2.0 * z.dx(x, t) * v_x / vc**3)
    sink = reaction_rate(vc, theta.value(x, t), p) * np.power(zc, p.m_order)
    s_z = z.dt(x, t) - diffusion + sink
    return v.dt(x, t) - u.dx(x, t), s_u, s_theta, s_z


@pytest.mark.parametrize("n_cells", [33, 256])
@pytest.mark.parametrize("name,q_cond", CASES_AND_Q)
def test_block_sources_equal_plain_field_calls(name, q_cond, n_cells):
    # A (k, 1) block and a (k, b, 1) block: each row holds the bits of
    # the four plain expressions at its one level.
    case = CASES[name](q_cond=q_cond)
    grid = Grid(n_cells)
    at = case.sources(grid)
    for times in (np.linspace(0.05, 0.4, 7), np.linspace(0.01, 0.37, 12).reshape(4, 3)):
        block = at(times)
        for index in np.ndindex(times.shape):
            want = plain_sources(case, grid, float(times[index]))
            for got, w in zip(block, want):
                assert got[index].shape == w.shape
                assert got[index].tobytes() == w.tobytes()
    assert case._block is None  # nothing of the last block is held


@pytest.mark.parametrize("name", sorted(CASES))
def test_sources_evaluate_each_factor_once(name, monkeypatch):
    # Over two blocks of one sources(grid): each field's shape functions
    # run once per coordinate array, its time functions once per block.
    case = CASES[name]()
    grid = Grid(40)
    calls = {}
    for field_name in ("v", "u", "theta", "z"):
        field = getattr(case, field_name)
        for attr in ("_s", "_ds", "_dss", "_f", "_df"):

            def spy(arg, fn=getattr(field, attr), key=(field_name, attr)):
                calls.setdefault(key, []).append(arg)
                return fn(arg)

            monkeypatch.setattr(field, attr, spy)
    at = case.sources(grid)
    blocks = [np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5])]
    for times in blocks:
        at(times)
    assert len(calls) == 20
    for (_, attr), args in calls.items():
        if attr in ("_f", "_df"):
            assert [np.ravel(t).tolist() for t in args] == [t.tolist() for t in blocks]
        else:
            assert sorted(map(id, args)) == sorted(map(id, (grid.cell_centers, grid.edges)))


@pytest.fixture
def served(monkeypatch):
    """(new level, source rows) of every step run_mms's loop takes, in
    order: the rows each step is handed."""
    calls = []
    for name in ("step", "step_batch"):

        def recording(state, config, sources=None, *, dt, fn=getattr(rrgas.driver, name)):
            calls.append((state.t + dt, sources))
            return fn(state, config, sources, dt=dt)

        monkeypatch.setattr(rrgas.driver, name, recording)
    return calls


def rejecting_once(monkeypatch, at_call, members=True):
    """Make the at_call-th energy_step call reject (members, for a batch)."""
    energy_step = rrgas.solver.energy_step
    calls = []

    def rejects(*args, **kwargs):
        calls.append(None)
        if len(calls) == at_call:
            raise StepRejection("newton_stall", members)
        return energy_step(*args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", rejects)


@pytest.mark.parametrize("n_cells", [33, 127, 200, 4096])
@pytest.mark.parametrize("name", sorted(CASES))
def test_block_sources_match_per_level_bits(name, n_cells, served, source_times):
    case = CASES[name]()
    per_block = max(1, BLOCK_VALUES // (n_cells + 1))
    n_steps = 2 * per_block + per_block // 3 + 1  # two full blocks, a partial one
    t_end = 1e-4 * n_steps
    run_mms(case, n_cells, t_end, [n_steps])
    # each source was called once per block, with a column of its levels
    shapes = [np.shape(t) for t in source_times["source_theta"]]
    assert shapes == [(per_block, 1), (per_block, 1), (per_block // 3 + 1, 1)]
    assert [t for t, _ in served] == accumulated_levels(t_end, n_steps)
    reference = case.sources(Grid(n_cells))
    for t, got in served:
        for g, w in zip(got, reference(t)):
            assert not g.flags.writeable
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


def test_block_sources_serve_batch_rows(served, source_times):
    # Three members with their own step counts: every row is the bits of
    # that member's level evaluated alone, and a block ends where a
    # member stops stepping.  The last member steps on as a single run.
    case = CASES["tanh"]()
    counts = (7, 11, 18)
    levels = [accumulated_levels(0.1, n) for n in counts]
    per_block = max(1, BLOCK_VALUES // (3 * 32))
    run_mms(case, 31, 0.1, list(counts))
    shapes = [np.shape(t) for t in source_times["source_theta"]]
    assert shapes == [(min(per_block, 7), 3, 1), (4, 2, 1), (7, 1)]
    assert len(served) == max(counts)
    reference = case.sources(Grid(31))
    for i, (t, got) in enumerate(served):
        assert list(np.atleast_1d(t)) == [member[i] for member in levels if len(member) > i]
        for row, level in enumerate(np.atleast_1d(t)):
            for g, w in zip(got, reference(level)):
                assert not g.flags.writeable
                assert np.atleast_2d(g)[row].tobytes() == w.tobytes()


def test_batch_blocks_hold_source_block_values_over_the_members_left(source_times):
    # At 255 cells a block holds BLOCK_VALUES // (b * 256) levels of the
    # b members still stepping: 5 of three, 8 of two and 16 of one, each
    # cut where a member leaves.
    run_mms(CASES["trig"](), 255, 0.01, [7, 11, 18])
    shapes = [np.shape(t) for t in source_times["source_v"]]
    assert shapes == [(5, 3, 1), (2, 3, 1), (4, 2, 1), (7, 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_mms_stops_a_run_that_has_a_step_rejected(name, monkeypatch):
    # A fixed-dt run cannot take a shorter step and still end at t_end.
    rejecting_once(monkeypatch, 10)  # the first attempt of step 10
    with pytest.raises(SimulationError, match=r"run of 40 steps.* at t=2\.25") as err:
        run_mms(CASES[name](), 32, 0.1, [40])
    last = err.value.last_state
    assert last.t == accumulated_levels(0.1, 40)[8]
    assert last.v.shape == (32,)


def test_run_mms_stops_a_batch_when_a_member_has_a_step_rejected(monkeypatch):
    # The second member's 10th step is rejected; the first member's is not.
    rejecting_once(monkeypatch, 10, members=np.array([False, True]))
    with pytest.raises(SimulationError, match=r"run of 80 steps.* at t=1\.125") as err:
        run_mms(CASES["trig"](), 32, 0.1, [40, 80])
    last = err.value.last_state
    assert last.t == accumulated_levels(0.1, 80)[8]
    assert last.v.shape == (32,)


@pytest.mark.parametrize("counts,rejected_dt,rejected_run,t", [
    ([40], 0.003, 40, "2.250000e-02"),
    ([40, 80], 0.002, 80, "1.125000e-02"),
])
def test_run_mms_makes_one_attempt_at_a_fixed_dt(counts, rejected_dt, rejected_run, t,
                                                 monkeypatch):
    # From the 10th energy_step call on, every attempt at a dt below
    # rejected_dt is rejected: the first attempt of step 10 of that run.
    # A shorter dt could not end the run at t_end, so nothing is retried.
    energy_step = rrgas.solver.energy_step
    calls = []

    def rejects(state, dt, *args, **kwargs):
        calls.append(None)
        if len(calls) >= 10 and np.any(dt < rejected_dt):
            raise StepRejection("newton_stall", dt < rejected_dt)
        return energy_step(state, dt, *args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", rejects)
    with pytest.raises(SimulationError) as err:
        run_mms(CASES["trig"](), 32, 0.1, counts)
    assert str(err.value) == (f"the run of {rejected_run} steps had a step rejected at t={t}; "
                              "a fixed-dt study cannot take a shorter one")
    assert len(calls) == 10
    assert err.value.last_state.v.shape == (32,)
    assert err.value.last_state.t == accumulated_levels(0.1, rejected_run)[8]


@pytest.mark.parametrize("n_steps", [pytest.param([0], id="0"), pytest.param([-3], id="-3"),
                                     [40, 0], [], pytest.param([2.5], id="2.5")])
def test_run_mms_rejects_step_counts_below_one(n_steps):
    # Also an empty sequence and a count that is not an integer.
    with pytest.raises(ConfigurationError, match="n_steps"):
        run_mms(CASES["trig"](), 16, 0.1, n_steps)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_mms_batch_matches_serial_runs(name):
    case = CASES[name]()
    counts = [40, 80, 160]
    batch = run_mms(case, 32, 0.1, counts)
    assert len(batch) == len(counts)
    for n_steps, (errors, state) in zip(counts, batch):
        [(serial_errors, serial)] = run_mms(case, 32, 0.1, [n_steps])
        assert state.t == serial.t
        for field in ("v", "u", "theta", "z"):
            assert getattr(state, field).tobytes() == getattr(serial, field).tobytes()
        assert errors == serial_errors


# ------------------------------------------- source algebra vs FD oracle

@pytest.mark.parametrize("name,q_cond", CASES_AND_Q)
def test_mass_source_closes_equation(name, q_cond):
    case = CASES[name](q_cond=q_cond)
    for x in X_SAMPLES:
        for t in T_SAMPLES:
            ut = central(lambda tt: case.v.value(x, tt), t)  # noqa: B023
            defect = ut - case.u.dx(x, t) - case.source_v(x, t)
            assert defect == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("name,q_cond", CASES_AND_Q)
def test_momentum_source_closes_equation(name, q_cond):
    # Oracle: FD in x of the composite stress sigma(v*, theta*, u*_x),
    # FD in t of u*.  Any slip in the hand chain rule inside source_u
    # leaves an O(1) defect; FD truncation is ~1e-8 (measured).
    case = CASES[name](q_cond=q_cond)
    p = case.params

    def sigma(x, t):
        return (
            -pressure(case.v.value(x, t), case.theta.value(x, t), p)
            + p.mu * case.u.dx(x, t) / case.v.value(x, t)
        )

    for x in X_SAMPLES:
        for t in T_SAMPLES:
            u_t = central(lambda tt: case.u.value(x, tt), t)  # noqa: B023
            sigma_x = central(lambda xx: sigma(xx, t), x)  # noqa: B023
            rhs = sigma_x - p.g_grav * (x - 0.5) + case.source_u(np.float64(x), t)
            assert u_t - rhs == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("name,q_cond", CASES_AND_Q)
def test_energy_source_closes_equation(name, q_cond):
    # Checks e_t, the conduction flux divergence (including the kappa
    # partials of model B), the stress work and the reaction heat.
    case = CASES[name](q_cond=q_cond)
    p = case.params

    def e_of(x, t):
        return internal_energy(case.v.value(x, t), case.theta.value(x, t), p)

    def heat_flux(x, t):
        v = case.v.value(x, t)
        kappa = conductivity(v, case.theta.value(x, t), p)[0]
        return kappa / v * case.theta.dx(x, t)

    for x in X_SAMPLES:
        for t in T_SAMPLES:
            e_t = central(lambda tt: e_of(x, tt), t)  # noqa: B023
            cond = central(lambda xx: heat_flux(xx, t), x)  # noqa: B023
            v = case.v.value(x, t)
            theta = case.theta.value(x, t)
            sigma = -pressure(v, theta, p) + p.mu * case.u.dx(x, t) / v
            heat = (
                p.lambda_heat
                * reaction_rate(v, theta, p)
                * case.z.value(x, t) ** p.m_order
            )
            rhs = cond + sigma * case.u.dx(x, t) + heat + case.source_theta(np.float64(x), t)
            assert e_t - rhs == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("name,q_cond", CASES_AND_Q)
def test_species_source_closes_equation(name, q_cond):
    case = CASES[name](q_cond=q_cond)
    p = case.params

    def species_flux(x, t):
        return p.d_diff / case.v.value(x, t) ** 2 * case.z.dx(x, t)

    for x in X_SAMPLES:
        for t in T_SAMPLES:
            z_t = central(lambda tt: case.z.value(x, tt), t)  # noqa: B023
            div = central(lambda xx: species_flux(xx, t), x)  # noqa: B023
            sink = (
                reaction_rate(case.v.value(x, t), case.theta.value(x, t), p)
                * case.z.value(x, t) ** p.m_order
            )
            rhs = div - sink + case.source_z(np.float64(x), t)
            assert z_t - rhs == pytest.approx(0.0, abs=1e-6)


# -------------------------------------------------- boundary compatibility

@pytest.mark.parametrize("name", sorted(CASES))
def test_boundary_values_match_flux_conditions(name):
    # At x = 0, 1 the fields sit at their bases with zero slope, and
    # p_ext equals the base-state pressure bit for bit, so the stress,
    # heat-flux and species-flux closures are exact there.
    # (float sin(pi) is ~1e-16, so the trig shape leaves ~1e-32 dust at
    # x = 1; the bases themselves are unperturbed at double precision.)
    case = CASES[name]()
    p = case.params
    for x in (0.0, 1.0):
        for t in (0.0, 0.4, 1.1):
            assert case.u.value(x, t) == pytest.approx(0.0, abs=1e-30)
            assert case.u.dx(x, t) == pytest.approx(0.0, abs=1e-13)
            assert case.theta.dx(x, t) == pytest.approx(0.0, abs=1e-13)
            assert case.z.dx(x, t) == pytest.approx(0.0, abs=1e-13)
            assert pressure(case.v.value(x, t), case.theta.value(x, t), p) == p.p_ext


# ------------------------------------------------- constant-field sanity

def test_constant_fields_are_preserved_to_roundoff():
    # Amplitude-zero fields with the reacting parameter set: every
    # source reduces to the exact negation of the discrete reaction
    # terms, so the state must hold its bases to round-off.
    base_case = CASES["tanh"]()
    zero = Field(0.0, 0.0, _trig_shape(), _cosine(1.0))
    case = MmsCase(
        "const",
        base_case.params,
        v=Field(1.0, 0.0, _trig_shape(), _cosine(1.0)),
        u=zero,
        theta=Field(1.0, 0.0, _trig_shape(), _cosine(1.0)),
        z=Field(0.4, 0.0, _trig_shape(), _cosine(1.0)),
    )
    [(errors, state)] = run_mms(case, n_cells=8, t_end=0.05, n_steps=[10])
    for name in ("v", "u", "theta", "z"):
        assert errors[name][1] <= 1e-12, name
    assert np.all(state.u == 0.0)


# --------------------------------------------------- discrete consistency

def test_discrete_residual_orders_trig():
    # Smooth case: halving dx divides the truncation residual by ~4 in
    # the cells and interior momentum rows, ~2 on the half-cell
    # boundary rows (measured 3.99 / 2.05).
    case = CASES["trig"]()
    r1 = discrete_residual(case, 64, 0.3)
    r2 = discrete_residual(case, 128, 0.3)
    for f in ("v", "theta", "z"):
        ratio = np.max(np.abs(r1[f])) / np.max(np.abs(r2[f]))
        assert 3.4 <= ratio <= 4.6, f
    interior = np.max(np.abs(r1["u"][1:-1])) / np.max(np.abs(r2["u"][1:-1]))
    assert 3.4 <= interior <= 4.6
    boundary = max(abs(r1["u"][0]), abs(r1["u"][-1])) / max(abs(r2["u"][0]), abs(r2["u"][-1]))
    assert 1.7 <= boundary <= 2.4


def test_discrete_residual_decreases_tanh():
    # The sharp tanh profile mixes truncation orders pointwise (measured
    # Linf ratios 2.0-4.0); the refinement studies certify the solution
    # itself converges at second order.  Here: plain consistency.
    case = CASES["tanh"]()
    r1 = discrete_residual(case, 128, 0.3)
    r2 = discrete_residual(case, 256, 0.3)
    for f in ("v", "u", "theta", "z"):
        ratio = np.max(np.abs(r1[f])) / np.max(np.abs(r2[f]))
        assert ratio >= 1.9, f


# ------------------------------------------------------- order arithmetic

def test_convergence_order_examples():
    assert convergence_order(4e-4, 1e-4, 2.0) == pytest.approx(2.0, rel=1e-12)
    assert convergence_order(2e-3, 1e-3, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert convergence_order(8e-5, 1e-5, 2.0) == pytest.approx(3.0, rel=1e-12)


def test_convergence_order_domain():
    with pytest.raises(ValueError):
        convergence_order(0.0, 1e-4, 2.0)
    with pytest.raises(ValueError):
        convergence_order(1e-4, -1e-5, 2.0)
    with pytest.raises(ValueError):
        convergence_order(1e-3, 1e-4, 1.0)


# ------------------------------------------------------------- harness

def test_initial_state_samples_closures():
    case = CASES["tanh"]()
    s = case.initial_state(16)
    g = s.grid
    np.testing.assert_array_equal(s.v, case.v.value(g.cell_centers, 0.0))
    np.testing.assert_array_equal(s.theta, case.theta.value(g.cell_centers, 0.0))
    np.testing.assert_array_equal(s.z, case.z.value(g.cell_centers, 0.0))
    np.testing.assert_array_equal(s.u, case.u.value(g.edges, 0.0))


def test_state_samples_closures_at_its_time():
    case = CASES["trig"]()
    g = Grid(16)
    s = case.state(g, 0.3)
    assert s.t == 0.3
    np.testing.assert_array_equal(s.v, case.v.value(g.cell_centers, 0.3))
    np.testing.assert_array_equal(s.u, case.u.value(g.edges, 0.3))


def test_state_errors_zero_for_exact_state():
    case = CASES["trig"]()
    s = case.initial_state(32)
    errors = state_errors(case, s)
    assert list(errors) == ["v", "u", "theta", "z"]
    for name in ("v", "u", "theta", "z"):
        assert errors[name] == (0.0, 0.0)


def test_run_mms_error_shrinks_with_resolution():
    # One cheap spot check; the full two-preset studies live in the
    # acceptance suite.
    case = CASES["trig"]()
    [(coarse, _)] = run_mms(case, 32, 0.1, [40])
    [(fine, _)] = run_mms(case, 64, 0.1, [160])
    assert fine["theta"][0] < coarse["theta"][0]
    assert fine["u"][0] < coarse["u"][0]


def reduced_studies(monkeypatch, spatial, temporal):
    """Make studies plan its jobs at the given smaller sizes."""
    monkeypatch.setattr(rrgas.mms, "_spatial_jobs", partial(rrgas.mms._spatial_jobs, **spatial))
    monkeypatch.setattr(rrgas.mms, "_temporal_jobs",
                        partial(rrgas.mms._temporal_jobs, **temporal))


def test_study_row_shapes(monkeypatch):
    case = CASES["trig"]()
    reduced_studies(monkeypatch, {"t_end": 0.1, "base_cells": 32, "base_steps": 40},
                    {"t_end": 0.1, "n_cells": 32, "base_steps": 40})
    (rows, orders), (t_rows, diffs, t_orders) = studies(case, 2)
    assert [r["n_cells"] for r in rows] == [32, 64]
    assert [r["n_steps"] for r in rows] == [40, 160]
    assert set(orders) == {"v", "u", "theta", "z"}
    assert all(len(v) == 1 for v in orders.values())

    assert [r["n_steps"] for r in t_rows] == [40, 80]
    assert len(diffs) == 1
    assert t_orders == {}  # two levels give one difference, no order yet


def float_reprs(value):
    """The repr of every float in a study result, in a fixed order."""
    if isinstance(value, dict):
        return [r for key in sorted(value) for r in float_reprs(value[key])]
    if isinstance(value, (list, tuple)):
        return [r for item in value for r in float_reprs(item)]
    return [repr(value)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_studies_run_each_grid_as_one_batch(name, monkeypatch):
    # Reduced sizes where the spatial study's finest grid (64 cells) is
    # the temporal study's grid, as 256 cells is at the default sizes
    # and 3 levels: each study batches only its own runs.
    case = CASES[name]()
    reduced_studies(monkeypatch, {"t_end": 0.1, "base_cells": 32, "base_steps": 40},
                    {"t_end": 0.1, "n_cells": 64, "base_steps": 20})

    def serial_run_mms(case, n_cells, t_end, n_steps):
        return [run for count in n_steps for run in run_mms(case, n_cells, t_end, [count])]

    monkeypatch.setattr(rrgas.mms, "run_mms", serial_run_mms)
    separate = studies(case, 2)  # the temporal study in the worker, where there is one

    calls = []

    def recording_run_mms(case, n_cells, t_end, n_steps):
        calls.append((n_cells, t_end, list(n_steps)))
        return run_mms(case, n_cells, t_end, n_steps)

    monkeypatch.setattr(rrgas.mms, "run_mms", recording_run_mms)
    cpus(monkeypatch, 1)  # in process, where the calls can be recorded
    together = studies(case, 2)
    assert calls == [(32, 0.1, [40]), (64, 0.1, [160]), (64, 0.1, [20, 40])]
    assert [[row["n_steps"] for row in result[0]] for result in together] == [[40, 160], [20, 40]]
    assert float_reprs(together) == float_reprs(separate)


@pytest.mark.parametrize("n_cpus, n_forks", [(2, 1), (1, 0)])
def test_studies_fork_one_worker_where_there_are_two_cpus(n_cpus, n_forks, monkeypatch, capsys,
                                                          forks):
    cpus(monkeypatch, n_cpus)
    assert cli.main(["mms", "trig", "--levels", "2"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert len(forks) == n_forks
    assert all(worker.exitcode is not None for worker in forks)  # joined
    assert hashlib.sha256(out.encode()).hexdigest() == MMS_STDOUT_GOLDEN["trig"]


@pytest.mark.parametrize("fault, message", [
    (StepRejection("newton_stall"), "simulation failed: the run of 40 steps had a step rejected"),
    (InvariantViolation("injected"),
     "simulation failed: scheme invariant violated: injected (step 1 of the runs of 40, 80"),
], ids=["rejected", "invariant"])
def test_a_failure_in_the_worker_exits_2_as_in_process(fault, message, monkeypatch, capsys,
                                                       forks):
    # Only the temporal study steps a batch, so only it meets the fault.
    reduced_studies(monkeypatch, {"t_end": 0.1, "base_cells": 32, "base_steps": 40},
                    {"t_end": 0.1, "n_cells": 32, "base_steps": 40})
    energy_step = rrgas.solver.energy_step

    def fails_in_a_batch(state, *args, **kwargs):
        if state.v.ndim == 2:
            raise fault
        return energy_step(state, *args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "energy_step", fails_in_a_batch)
    stderr = []
    for n_cpus in (1, 2):
        cpus(monkeypatch, n_cpus)
        assert cli.main(["mms", "trig", "--levels", "2"]) == cli.EXIT_SIMULATION
        captured = capsys.readouterr()
        assert captured.out == ""
        stderr.append(captured.err)
    assert len(forks) == 1
    assert stderr[0] == stderr[1]
    assert stderr[1].startswith(message)


def test_a_worker_that_dies_without_reporting_is_an_os_error(monkeypatch, forks):
    reduced_studies(monkeypatch, {"t_end": 0.1, "base_cells": 16, "base_steps": 10},
                    {"t_end": 0.1, "n_cells": 16, "base_steps": 10})
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def dies_in_the_worker(*args):
        if os.getpid() != caller:
            os._exit(7)
        return run_mms(*args)

    monkeypatch.setattr(rrgas.mms, "run_mms", dies_in_the_worker)
    with within(20), pytest.raises(OSError,
                                   match="MMS worker exited with code 7 before reporting"):
        studies(CASES["trig"](), 2)
    assert [worker.exitcode for worker in forks] == [7]


def test_the_worker_ignores_sigint(monkeypatch, forks):
    # ^C reaches the whole process group; the worker goes on, and the
    # caller, which gets the KeyboardInterrupt, ends it.
    reduced_studies(monkeypatch, {"t_end": 0.1, "base_cells": 16, "base_steps": 10},
                    {"t_end": 0.1, "n_cells": 16, "base_steps": 10})
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def interrupted_in_the_worker(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGINT)
        return run_mms(*args)

    monkeypatch.setattr(rrgas.mms, "run_mms", interrupted_in_the_worker)
    with within(20):
        _, (rows, _, _) = studies(CASES["trig"](), 2)
    assert [row["n_steps"] for row in rows] == [10, 20]
    assert len(forks) == 1


def test_an_interrupt_in_the_caller_ends_the_worker(monkeypatch, forks):
    # The worker would sleep for a minute; the caller ends it at once.
    # no_leaked_child_processes checks that none is left.
    cpus(monkeypatch, 2)
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(rrgas.mms, "run_mms", interrupted)
    with within(20), pytest.raises(KeyboardInterrupt):
        studies(CASES["trig"](), 2)
    assert [worker.exitcode for worker in forks] == [-signal.SIGTERM]
