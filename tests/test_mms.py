"""Manufactured-solution harness: the source algebra is checked against
finite differences of the exact composite fluxes before anything is
integrated, then the discrete stencils against grid refinement."""

import numpy as np
import pytest

import rrgas.mms
import rrgas.solver
from rrgas.constitutive import (
    conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from rrgas.mesh import ConfigurationError, Grid
from rrgas.mms import (
    _SOURCE_BLOCK,
    CASES,
    Field,
    MmsCase,
    _BlockSources,
    _cosine,
    _sine,
    _tanh_shape,
    _trig_shape,
    convergence_order,
    discrete_residual,
    run_mms,
    spatial_study,
    state_errors,
    temporal_study,
)
from rrgas.solver import StepRejection

H = 1e-5  # central-difference step for the oracle derivatives
X_SAMPLES = (0.13, 0.41, 0.77)
T_SAMPLES = (0.0, 0.3)


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
    run_mms(CASES[name](), 16, 0.05, 12)
    levels = set(accumulated_levels(0.05, 12))
    assert len(levels) == 12
    n_blocks = -(-12 // max(1, _SOURCE_BLOCK // 17))
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


@pytest.mark.parametrize("n_cells", [33, 127, 200, 4096])
@pytest.mark.parametrize("name", sorted(CASES))
def test_block_sources_match_per_level_bits(name, n_cells, source_times):
    case = CASES[name]()
    grid = Grid(n_cells)
    per_block = max(1, _SOURCE_BLOCK // (n_cells + 1))
    n_levels = 2 * per_block + per_block // 3 + 1  # two full blocks, a partial one
    levels = accumulated_levels(0.4, n_levels)
    blocks = _BlockSources(case, grid, [levels])  # one member
    reference = case.sources(grid)
    for t in levels:
        got = blocks(t)
        want = reference(t)
        for g, w in zip(got, want):
            assert not g.flags.writeable
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
    # three block calls per source; the reference made the per-level ones
    shapes = [np.shape(t) for t in source_times["source_theta"]]
    assert [s for s in shapes if s] == [(per_block, 1), (per_block, 1), (per_block // 3 + 1, 1)]
    assert shapes.count(()) == n_levels


def test_block_sources_evaluate_other_levels_alone(source_times):
    case = CASES["tanh"]()
    grid = Grid(16)
    levels = accumulated_levels(0.1, 8)
    blocks = _BlockSources(case, grid, [levels])  # one member
    reference = case.sources(grid)
    for t in (levels[1], 0.5 * levels[0]):
        assert [a.tobytes() for a in blocks(t)] == [a.tobytes() for a in reference(t)]
    # each was evaluated for its one level, and no block was built
    assert all(np.ndim(t) == 0 for calls in source_times.values() for t in calls)
    # the first level in order is still served from a block
    blocks(levels[0])
    assert np.shape(source_times["source_v"][-1]) == (8, 1)


@pytest.mark.parametrize("reject_at", [40, 80])  # inside block 2; the last step
@pytest.mark.parametrize("name", sorted(CASES))
def test_run_mms_after_a_rejection_matches_per_level_sources(name, reject_at, monkeypatch):
    def run(per_level):
        if per_level:
            monkeypatch.setattr(rrgas.mms, "_BlockSources",
                                lambda case, grid, levels: case.sources(grid))
        energy_step = rrgas.solver.energy_step
        calls = []

        def rejects_once(*args, **kwargs):
            calls.append(None)
            if len(calls) == reject_at:  # the first attempt of that step
                raise StepRejection("newton_stall")
            return energy_step(*args, **kwargs)

        monkeypatch.setattr(rrgas.solver, "energy_step", rejects_once)
        _, state = run_mms(CASES[name](), 127, 0.1, 80)
        monkeypatch.undo()
        assert len(calls) == 81
        return state

    blocked, per_level = run(False), run(True)
    assert blocked.t == per_level.t < 0.1  # one step was taken at dt/2
    for field in ("v", "u", "theta", "z"):
        assert getattr(blocked, field).tobytes() == getattr(per_level, field).tobytes()


@pytest.mark.parametrize("n_steps", [0, -3, [40, 0]])
def test_run_mms_rejects_step_counts_below_one(n_steps):
    with pytest.raises(ConfigurationError, match="n_steps"):
        run_mms(CASES["trig"](), 16, 0.1, n_steps)


def test_block_sources_serve_batch_rows(source_times):
    # Three members with their own step counts: every row is the bits of
    # that member's level evaluated alone, and a block ends where a
    # member stops stepping.
    case = CASES["tanh"]()
    grid = Grid(31)
    counts = (7, 11, 18)
    levels = [accumulated_levels(0.1, n) for n in counts]
    per_block = max(1, _SOURCE_BLOCK // (3 * 32))
    blocks = _BlockSources(case, grid, levels)
    reference = case.sources(grid)
    for i in range(max(counts)):
        t = np.array([member[i] for member in levels if len(member) > i])
        got = blocks(t)
        for row, level in enumerate(t):
            for g, w in zip(got, reference(level)):
                assert not g.flags.writeable
                assert g[row].tobytes() == w.tobytes()
    shapes = [np.shape(t) for t in source_times["source_theta"] if np.ndim(t) > 1]
    assert shapes == [(min(per_block, 7), 3, 1), (4, 2, 1), (7, 1, 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_mms_batch_matches_serial_runs(name):
    case = CASES[name]()
    counts = [40, 80, 160]
    batch = run_mms(case, 32, 0.1, counts)
    assert len(batch) == len(counts)
    for n_steps, (errors, state) in zip(counts, batch):
        serial_errors, serial = run_mms(case, 32, 0.1, n_steps)
        assert state.t == serial.t
        for field in ("v", "u", "theta", "z"):
            assert getattr(state, field).tobytes() == getattr(serial, field).tobytes()
        assert errors == serial_errors


# ------------------------------------------- source algebra vs FD oracle

@pytest.mark.parametrize("name", sorted(CASES))
def test_mass_source_closes_equation(name):
    case = CASES[name]()
    for x in X_SAMPLES:
        for t in T_SAMPLES:
            ut = central(lambda tt: case.v.value(x, tt), t)  # noqa: B023
            defect = ut - case.u.dx(x, t) - case.source_v(x, t)
            assert defect == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("name", sorted(CASES))
def test_momentum_source_closes_equation(name):
    # Oracle: FD in x of the composite stress sigma(v*, theta*, u*_x),
    # FD in t of u*.  Any slip in the hand chain rule inside source_u
    # leaves an O(1) defect; FD truncation is ~1e-8 (measured).
    case = CASES[name]()
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_energy_source_closes_equation(name):
    # Checks e_t, the conduction flux divergence (including the kappa
    # partials of model B), the stress work and the reaction heat.
    case = CASES[name]()
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_species_source_closes_equation(name):
    case = CASES[name]()
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
    errors, state = run_mms(case, n_cells=8, t_end=0.05, n_steps=10)
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


def test_state_errors_zero_for_exact_state():
    case = CASES["trig"]()
    s = case.initial_state(32)
    errors = state_errors(case, s)
    for name in ("v", "u", "theta", "z"):
        assert errors[name] == (0.0, 0.0)


def test_run_mms_error_shrinks_with_resolution():
    # One cheap spot check; the full two-preset studies live in the
    # acceptance suite.
    case = CASES["trig"]()
    coarse, _ = run_mms(case, 32, 0.1, 40)
    fine, _ = run_mms(case, 64, 0.1, 160)
    assert fine["theta"][0] < coarse["theta"][0]
    assert fine["u"][0] < coarse["u"][0]


def test_study_row_shapes():
    case = CASES["trig"]()
    rows, orders = spatial_study(case, levels=2, t_end=0.1, base_cells=32, base_steps=40)
    assert [r["n_cells"] for r in rows] == [32, 64]
    assert [r["n_steps"] for r in rows] == [40, 160]
    assert set(orders) == {"v", "u", "theta", "z"}
    assert all(len(v) == 1 for v in orders.values())

    rows, diffs, orders = temporal_study(case, levels=2, t_end=0.1, n_cells=32, base_steps=40)
    assert [r["n_steps"] for r in rows] == [40, 80]
    assert len(diffs) == 1
    assert orders == {}  # two levels give one difference, no order yet
