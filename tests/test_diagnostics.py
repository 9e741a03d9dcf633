"""Diagnostic functionals against hand-evaluated integrals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrgas.config import init_state, load_config
from rrgas.constitutive import PhysParams
from rrgas.driver import _BLOCK_VALUES, run_simulation
from rrgas.diagnostics import (
    DiagnosticsRecord,
    record,
    z_balance_residual,
)
from rrgas.mesh import Grid, State


def params(**kw):
    base = dict(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=1.0,
        g_grav=0.0, p_ext=0.0, k_rate=0.0, a_act=1.0, m_order=1.0,
        beta=0.0, q_cond=0.0, kappa1=1.0, kappa2=1.0, cond_model="A",
    )
    base.update(kw)
    return PhysParams(**base)


def uniform_state(n, v=1.0, theta=1.0, z=0.0, u=0.0):
    g = Grid(n)
    return State(g, np.full(n, v), np.full(n, theta), np.full(n, z), np.full(n + 1, u))


def row_of(state, p):
    """The diagnostics row of one state, as record builds it."""
    return record([(state, 0.0)], p)[0]


# -------------------------------------------------------------- total energy

def test_energy_internal_only():
    # e(1,1) = cv + a = 2 with every other share switched off.
    s = uniform_state(4)
    assert row_of(s, params()).e_total == pytest.approx(2.0, rel=1e-15)


def test_energy_species_share_is_linear():
    s = uniform_state(4, z=1.0)
    assert row_of(s, params(lambda_heat=3.0)).e_total == pytest.approx(5.0, rel=1e-15)


def test_energy_kinetic_share():
    # Uniform u = 2: the edge-average kinetic density is u^2/2 = 2.
    s = uniform_state(4, u=2.0)
    assert row_of(s, params()).e_total == pytest.approx(4.0, rel=1e-15)


def test_energy_compression_share():
    # p_ext*v adds 0.5*2 = 1; e(2,1) = 1 + 2 = 3.
    s = uniform_state(4, v=2.0)
    assert row_of(s, params(p_ext=0.5)).e_total == pytest.approx(4.0, rel=1e-15)


def test_energy_gravity_share():
    # n=2 midpoint rule: 0.5*G*sum(x(1-x))*dx = 0.5*0.8*(2*0.1875)*0.5
    s = uniform_state(2)
    expected = 2.0 + 0.5 * 0.8 * (2 * 0.1875) * 0.5
    assert row_of(s, params(g_grav=0.8)).e_total == pytest.approx(expected, rel=1e-15)


# ------------------------------------------------------------------ entropy

def test_entropy_zero_at_rest():
    s = uniform_state(8)
    assert row_of(s, params()).u_entropy == 0.0


def test_entropy_hand_value():
    # theta = e: cv*(e - 1 - 1) per unit mass.
    s = uniform_state(4, theta=math.e)
    assert row_of(s, params()).u_entropy == pytest.approx(math.e - 2.0, rel=1e-12)


def test_entropy_volume_part():
    s = uniform_state(4, v=2.0)
    assert row_of(s, params(r_gas=1.5)).u_entropy == pytest.approx(
        1.5 * (1.0 - math.log(2.0)), rel=1e-12
    )


@given(
    v=st.floats(0.2, 5.0).filter(lambda x: abs(x - 1.0) > 1e-3),
    theta=st.floats(0.2, 5.0).filter(lambda x: abs(x - 1.0) > 1e-3),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_entropy_positive_away_from_rest(v, theta):
    s = uniform_state(3, v=v, theta=theta)
    assert row_of(s, params()).u_entropy > 0.0


# --------------------------------------------------------------- dissipation

def test_dissipation_zero_for_still_inert_state():
    s = uniform_state(8, theta=2.0)
    assert row_of(s, params()).v_dissipation == 0.0


def test_dissipation_viscous_share():
    # Single cell, du/dx = 1: mu*1/(v*theta) = 0.1.
    s = uniform_state(1)
    s.u = np.array([0.0, 1.0])
    assert row_of(s, params()).v_dissipation == pytest.approx(0.1, rel=1e-15)


def test_dissipation_reactive_share():
    # lambda*phi*z/theta with phi = e^-1 at the unit state.
    p = params(k_rate=1.0, a_act=1.0, lambda_heat=2.0)
    s = uniform_state(1, z=1.0)
    assert row_of(s, p).v_dissipation == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


def test_dissipation_conductive_share():
    # Two cells, theta = (1, 2): gradient 2 at the midpoint, kappa = 2
    # (q=0 doubles kappa1), arithmetic means v=1, theta=1.5.
    p = params(kappa1=1.0, kappa2=1.0)
    s = uniform_state(2)
    s.theta = np.array([1.0, 2.0])
    expected = 2.0 * 4.0 / (1.0 * 1.5**2) * 0.5
    assert row_of(s, p).v_dissipation == pytest.approx(expected, rel=1e-14)


def test_dissipation_nonnegative_for_random_states():
    rng = np.random.default_rng(12)
    p = params(k_rate=2.0, q_cond=2.0)
    for _ in range(20):
        n = int(rng.integers(1, 20))
        s = uniform_state(n)
        s.v = rng.uniform(0.2, 3.0, n)
        s.theta = rng.uniform(0.2, 3.0, n)
        s.z = rng.uniform(0.0, 1.0, n)
        s.u = rng.standard_normal(n + 1)
        assert row_of(s, p).v_dissipation >= 0.0


# ------------------------------------------------------------- species norm

def test_z_squared_norm():
    s = uniform_state(4, z=0.5)
    assert row_of(s, params()).z_l2 == pytest.approx(0.125, rel=1e-15)


def test_balance_residual_hand_rows():
    def row(z_l2, diff, react):
        return DiagnosticsRecord(
            t=0.0, dt=0.0, e_total=0.0, u_entropy=0.0, v_dissipation=0.0,
            z_l2=z_l2, z_diff_accum=diff, z_react_accum=react, width=1.0,
            min_v=1.0, min_theta=1.0, min_z=0.0, max_z=1.0, momentum=0.0,
        )

    records = [row(1.0, 0.0, 0.0), row(0.7, 0.1, 0.15)]
    assert z_balance_residual(records) == pytest.approx(-0.05, rel=1e-15)


def test_balance_residual_needs_two_rows():
    with pytest.raises(ValueError):
        z_balance_residual([])


@pytest.mark.parametrize("split", [1, 3, 5])
def test_record_adds_each_steps_quadratures_to_the_sums_before(split, step_quadratures,
                                                                per_state_row):
    # A run's rows built in two blocks, the second handed the state
    # before it and the accumulators there, are the rows of one block;
    # each adds its step's quadratures to the sums before it, in order.
    p = params(k_rate=2.0, a_act=1.5, m_order=2.0, beta=1.0)
    block = random_block(8, 6, seed=4)
    first = record(block[:split], p)
    carried = (block[split - 1][0], first[-1].z_diff_accum, first[-1].z_react_accum)
    rows = first + record(block[split:], p, carried)
    assert [bits(r) for r in rows] == [bits(r) for r in record(block, p)]
    z_diff = z_react = 0.0
    expected = [per_state_row(block[0][0], p, 0.0, 0.0, 0.0)]
    for (before, _), (after, dt) in zip(block, block[1:]):
        diff, react = step_quadratures(before, after, dt, p)
        z_diff, z_react = z_diff + diff, z_react + react
        expected.append(per_state_row(after, p, dt, z_diff, z_react))
    assert [bits(r) for r in rows] == [bits(r) for r in expected]
    assert 0.0 < rows[1].z_diff_accum < rows[-1].z_diff_accum
    assert 0.0 < rows[1].z_react_accum < rows[-1].z_react_accum


# ------------------------------------------------------------------ record

def test_record_collects_extrema():
    s = uniform_state(4, z=0.5)
    s.v[2] = 0.3
    s.theta[1] = 4.0
    s.z[0] = 0.9
    # the step from s to itself adds dt*g*grad^2*dx at the one interface
    # with a jump, g = 2*d/(1 + 1) = 0.1 and grad = -0.4/0.25, and no
    # reaction (k_rate = 0)
    [r] = record([(s, 0.01)], params(), previous=(s, 1.0, 2.0))
    assert r.min_v == 0.3
    assert r.min_theta == 1.0
    assert r.min_z == 0.5
    assert r.max_z == 0.9
    assert r.dt == 0.01
    assert r.z_diff_accum == pytest.approx(1.0 + 0.01 * 0.1 * 1.6**2 * 0.25, rel=1e-15)
    assert r.z_react_accum == 2.0
    assert r.width == pytest.approx(0.825, rel=1e-15)


def bits(rec):
    return np.array(dataclasses.astuple(rec), dtype=float).tobytes()


def random_block(n, length, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(n)
    v, theta = rng.uniform(0.2, 3.0, (2, length, n))
    z = rng.uniform(0.0, 1.0, (length, n))
    u = rng.standard_normal((length, n + 1))
    return [(State(grid, v[k], theta[k], z[k], u[k], t=0.1 * k), 1e-3 * k)
            for k in range(length)]


@pytest.mark.parametrize("n", [1, 2, 100, 128, 4096])
def test_block_rows_equal_per_state_rows(n, per_state_row, step_quadratures):
    # Blocks of length 1, K - 1, K and K + 1, K being the driver's block
    # at n cells, are prefixes of one block.  Its last state has a cell
    # at theta <= 0, so reaction_rate masks that state, while each other
    # state takes the unmasked branch.
    p = params(k_rate=2.0, a_act=1.5, m_order=1.5, beta=2.0, q_cond=1.5,
               g_grav=0.7, p_ext=0.3, cond_model="B", kappa2=2.0)
    k = max(1, _BLOCK_VALUES // n)
    block = random_block(n, k + 1, seed=n)
    block[k][0].theta[n // 2] = 0.0
    with np.errstate(all="ignore"):
        # the accumulators: running sums of each step's quadratures
        sums = [(0.0, 0.0)]
        for (before, _), (after, dt) in zip(block, block[1:]):
            diff, react = step_quadratures(before, after, dt, p)
            sums.append((sums[-1][0] + diff, sums[-1][1] + react))
        expected = [bits(per_state_row(s, p, dt, *acc)) for (s, dt), acc in zip(block, sums)]
        for length in sorted({1, max(1, k - 1), k, k + 1}):
            rows = record(block[:length], p)
            assert [bits(r) for r in rows] == expected[:length], (n, length)



@pytest.mark.parametrize("n_cells,t_end", [(128, 0.05), (4096, 0.0006)], ids=["K>1", "K=1"])
def test_rows_of_carried_laws_equal_rows_of_bare_fields(n_cells, t_end, configs_dir):
    # A run's rows, built from states that carry their steps' law values,
    # have the bits of rows built in the same blocks from the same
    # fields by State(...), which carry none.  At 128 cells a block is
    # 32 states, at 4096 cells one.
    config = load_config(configs_dir / "reacting.ini")
    config.n_cells, config.t_end = n_cells, t_end
    config.params = dataclasses.replace(config.params, q_cond=0.5, cond_model="B", m_order=2.0)
    initial = init_state(config)
    trajectory = [(initial, 0.0)]
    result = run_simulation(config, state=initial, on_step=lambda state, report, n: (
        trajectory.append((state, report.dt))))
    assert result.completed and len(trajectory) > 2
    last = trajectory[-1][0].laws  # record read it, and kept what cfl_dt would take
    assert last["params"] is config.params and "phi" in last
    assert not last.keys() & set(State.RECORD_ONLY)
    bare = [(State(s.grid, s.v, s.theta, s.z, s.u, s.t, s.a_pos), dt) for s, dt in trajectory]
    rows, previous, k = [], None, max(1, _BLOCK_VALUES // n_cells)
    for start in range(0, len(bare), k):
        block = bare[start:start + k]
        rows += record(block, config.params, previous)
        previous = (block[-1][0], rows[-1].z_diff_accum, rows[-1].z_react_accum)
    assert len(rows) == len(result.records)
    assert [bits(r) for r in rows] == [bits(r) for r in result.records]
