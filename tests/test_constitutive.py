"""State-law checks against hand-evaluated values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrgas.constitutive import (
    PhysParams,
    _energy_laws,
    conductivity,
    de_dtheta,
    heat_conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from rrgas.mesh import ConfigurationError


def params(**kw):
    return dataclasses.replace(PhysParams(), **kw)


def cells(*values):
    """A field of the given cell values: the laws take arrays only."""
    return np.array(values, dtype=float)


# ---------------------------------------------------------------- pressure

def test_pressure_unit_state():
    # R*1/1 + (3/3)*1^4 = 2
    p = params(r_gas=1.0, a_rad=3.0)
    assert pressure(cells(1.0), cells(1.0), p)[0] == 2.0


def test_pressure_cold_gas():
    # theta = 0 kills both terms regardless of v.
    p = params(r_gas=1.0, a_rad=3.0)
    assert pressure(cells(2.0), cells(0.0), p)[0] == 0.0


def test_pressure_mixed_state():
    # 0.8*2/0.5 + (0.3/3)*16 = 3.2 + 1.6 = 4.8
    p = params(r_gas=0.8, a_rad=0.3)
    assert pressure(cells(0.5), cells(2.0), p)[0] == pytest.approx(4.8, rel=1e-15)


def test_pressure_vectorizes():
    p = params(r_gas=1.0, a_rad=3.0)
    v = np.array([1.0, 2.0])
    theta = np.array([1.0, 0.0])
    np.testing.assert_allclose(pressure(v, theta, p), [2.0, 0.0])


# ---------------------------------------------------- internal energy

def test_energy_unit_state():
    # 1*1 + 1*1*1 = 2
    p = params(cv=1.0, a_rad=1.0)
    assert internal_energy(cells(1.0), cells(1.0), p)[0] == 2.0


def test_energy_cold_state():
    p = params(cv=1.0, a_rad=1.0)
    assert internal_energy(cells(3.0), cells(0.0), p)[0] == 0.0


def test_energy_radiation_dominated():
    # 2*2 + 0.25*0.5*16 = 4 + 2 = 6
    p = params(cv=2.0, a_rad=0.25)
    assert internal_energy(cells(0.5), cells(2.0), p)[0] == pytest.approx(6.0, rel=1e-15)


def test_de_dtheta_gas_only():
    # The radiation term carries theta^3, so it drops out at theta = 0.
    p = params(cv=2.0, a_rad=1.0)
    assert de_dtheta(cells(1.0), cells(0.0), p)[0] == 2.0


def test_de_dtheta_with_radiation():
    # 1 + 4*1*1*1 = 5
    p = params(cv=1.0, a_rad=1.0)
    assert de_dtheta(cells(1.0), cells(1.0), p)[0] == 5.0


def test_de_dtheta_matches_finite_difference():
    # Central difference of e in theta, swept over a broad state box.
    p = params(cv=0.7, a_rad=0.4)
    h = 1e-6
    v, theta = np.meshgrid(cells(0.1, 1.0, 10.0), cells(0.01, 0.5, 1.0, 4.0, 10.0))
    fd = (internal_energy(v, theta + h, p) - internal_energy(v, theta - h, p)) / (2 * h)
    assert de_dtheta(v, theta, p) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("q_cond", [0.0, 0.5, 2.0])
@pytest.mark.parametrize("cond_model", ["A", "B"])
@given(
    data=st.data(),
    a_rad=st.floats(0.01, 10.0),
    cv=st.floats(0.1, 10.0),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_energy_kernels_equal_the_laws_bit_for_bit(q_cond, cond_model, data, a_rad, cv):
    # energy_step forms the volume factor a*v once per solve, over the
    # whole batch, and evaluates the kernel at each iterate; the laws
    # evaluate the same products on any rows of it.
    p = params(a_rad=a_rad, cv=cv, q_cond=q_cond, cond_model=cond_model)
    n = data.draw(st.integers(1, 6))
    cells = st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n)
    v = np.array([data.draw(cells) for _ in range(3)])
    theta = np.array([data.draw(cells) for _ in range(3)])
    live = np.array(data.draw(st.lists(st.booleans(), min_size=3, max_size=3)))
    av = (p.a_rad * v)[live]
    v, theta = v[live], theta[live]
    e, kappa = _energy_laws(theta, av, v, p)
    et = de_dtheta(v, theta, p)
    np.testing.assert_array_equal(e, internal_energy(v, theta, p))
    np.testing.assert_array_equal(et, de_dtheta(v, theta, p))  # the update takes the law
    np.testing.assert_array_equal(kappa, heat_conductivity(v, theta, p))
    # the laws as written before the split, C_v*theta + a*v*theta^4 and
    # C_v + 4*a*v*theta^3, to the bit
    np.testing.assert_array_equal(e, p.cv * theta + p.a_rad * v * theta**4)
    np.testing.assert_array_equal(et, p.cv + 4.0 * p.a_rad * v * theta**3)


# ------------------------------------------------------- reaction rate

def test_rate_vanishes_at_nonpositive_temperature():
    p = params(k_rate=1.0, a_act=1.0, beta=0.0, m_order=1.0)
    assert reaction_rate(cells(1.0), cells(0.0), p)[0] == 0.0
    assert reaction_rate(cells(1.0), cells(-0.5), p)[0] == 0.0


def test_rate_unit_state():
    # K=1, m=1 -> v^0 = 1; beta=0; exp(-1/1) = e^-1
    p = params(k_rate=1.0, a_act=1.0, beta=0.0, m_order=1.0)
    assert reaction_rate(cells(1.0), cells(1.0), p)[0] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_rate_general_state():
    # K=2, m=2 -> v^-1 = 2; theta^1 = 2; exp(-2/2) = e^-1; total 8e^-1
    p = params(k_rate=2.0, a_act=2.0, beta=1.0, m_order=2.0)
    assert reaction_rate(cells(0.5), cells(2.0), p)[0] == pytest.approx(
        8.0 * math.exp(-1.0), rel=1e-14)


def test_rate_vector_mixes_hot_and_cold():
    p = params(k_rate=1.0, a_act=1.0, beta=0.0, m_order=1.0)
    out = reaction_rate(np.ones(4), np.array([1.0, 0.0, -2.0, -0.0]), p)
    np.testing.assert_allclose(out, [math.exp(-1.0), 0.0, 0.0, 0.0], rtol=1e-15)
    assert np.all(out[1:] == 0.0)  # exactly zero, never evaluated


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("m_order", [1.0, 1.5, 2.0])
def test_rate_unmasked_branch_matches_masked_bitwise(beta, m_order):
    # An all-hot array takes the unmasked branch; one cold cell appended
    # sends the same values through the masked branch.  The hot entries
    # must agree to the bit, which is what keeps solver outputs unchanged.
    p = params(k_rate=2.5, a_act=3.0, beta=beta, m_order=m_order)
    rng = np.random.default_rng(7)
    v = 0.05 + 3.0 * rng.random(257)
    theta = 1e-3 + 5.0 * rng.random(257)
    unmasked = reaction_rate(v, theta, p)
    masked = reaction_rate(np.append(v, 1.0), np.append(theta, -1.0), p)
    np.testing.assert_array_equal(unmasked, masked[:-1])
    assert masked[-1] == 0.0


@given(
    v=st.floats(0.05, 20.0),
    theta=st.floats(0.01, 20.0),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rate_nonnegative_and_increasing_in_theta(v, theta):
    p = params(k_rate=2.0, a_act=3.0, beta=0.5, m_order=1.5)
    lo = reaction_rate(cells(v), cells(theta), p)[0]
    hi = reaction_rate(cells(v), cells(theta * 1.01), p)[0]
    assert lo >= 0.0
    assert hi >= lo  # monotone: theta^beta and exp(-A/theta) both grow


# -------------------------------------------------------- conductivity

def test_conductivity_model_a():
    # 1 + 3*1^2 = 4; no v dependence
    p = params(cond_model="A", kappa1=1.0, kappa2=3.0, q_cond=2.0)
    k, dk_dv, dk_dth = (x[0] for x in conductivity(cells(1.0), cells(1.0), p))
    assert k == 4.0
    assert dk_dv == 0.0
    assert dk_dth == pytest.approx(6.0, rel=1e-15)


def test_conductivity_model_b():
    # 0.5 + 0.5*2*1 = 1.5 at q=0; d/dv = kappa2*theta^q = 0.5
    p = params(cond_model="B", kappa1=0.5, kappa2=0.5, q_cond=0.0)
    k, dk_dv, dk_dth = (x[0] for x in conductivity(cells(2.0), cells(1.0), p))
    assert k == 1.5
    assert dk_dv == 0.5
    assert dk_dth == 0.0


def test_conductivity_lower_bound():
    # kappa1 is a hard floor in both models for theta >= 0.
    pa = params(cond_model="A", kappa1=0.3, kappa2=0.7, q_cond=1.5)
    pb = params(cond_model="B", kappa1=0.3, kappa2=0.7, q_cond=1.5)
    v, theta = np.meshgrid(cells(0.1, 1.0, 5.0), cells(0.0, 0.2, 3.0))
    assert np.all(conductivity(v, theta, pa)[0] >= 0.3)
    assert np.all(conductivity(v, theta, pb)[0] >= 0.3)


def test_conductivity_theta_derivative_matches_fd():
    h = 1e-6
    for model in ("A", "B"):
        p = params(cond_model=model, kappa1=0.5, kappa2=0.8, q_cond=2.5)
        v, theta = cells(0.5, 2.0), cells(0.7, 3.0)
        up = conductivity(v, theta + h, p)[0]
        dn = conductivity(v, theta - h, p)[0]
        assert conductivity(v, theta, p)[2] == pytest.approx((up - dn) / (2 * h), rel=1e-6)


def test_conductivity_v_derivative_matches_fd():
    h = 1e-6
    p = params(cond_model="B", kappa1=0.5, kappa2=0.8, q_cond=2.5)
    v, theta = cells(0.5, 2.0), cells(0.7, 3.0)
    up = conductivity(v + h, theta, p)[0]
    dn = conductivity(v - h, theta, p)[0]
    assert conductivity(v, theta, p)[1] == pytest.approx((up - dn) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("q", [0.0, 0.5, 2.0, 3.7])
def test_heat_conductivity_is_conductivity_kappa_bitwise(model, q):
    p = params(cond_model=model, kappa1=0.3, kappa2=0.9, q_cond=q, m_order=1.5, beta=2.0)
    v = cells(0.2, 0.9, 1.0, 1.7, 4.5)
    theta = cells(0.0, 0.3, 1.0, 1.9, 7.25)
    kappa = heat_conductivity(v, theta, p)
    assert kappa.tobytes() == conductivity(v, theta, p)[0].tobytes()
    # A batch of runs evaluates every law on (B, n) fields; each row must
    # have the bits of that row alone.  Row 0 has the cold cell, so the
    # batch takes reaction_rate's masked branch while rows 1 and 2 alone
    # take the unmasked one.
    v_rows = np.stack([v, v[::-1], 2.0 * v])
    theta_rows = np.stack([theta, theta[::-1] + 0.5, theta + 0.25])
    for law in (pressure, internal_energy, de_dtheta, heat_conductivity, reaction_rate,
                conductivity):
        batch = law(v_rows, theta_rows, p)
        for b in range(3):
            alone = law(v_rows[b], theta_rows[b], p)
            if law is conductivity:
                assert [x[b].tobytes() for x in batch] == [x.tobytes() for x in alone]
            else:
                assert batch.shape == v_rows.shape
                assert batch[b].tobytes() == alone.tobytes(), (law.__name__, b)
    # Per-member constants: each row is bitwise its 1-D evaluation under
    # that member's own PhysParams, the cold cell of row 0 included.
    # conductivity, which only the MMS sources call, is left out: it
    # takes one q for all rows.
    members = [p, params(cond_model=model, kappa1=0.2, kappa2=1.4, q_cond=q + 1.0,
                         m_order=2.0, beta=0.5, k_rate=3.0, a_act=0.7, cv=1.5,
                         r_gas=0.6, a_rad=2.0),
               params(cond_model=model, kappa1=0.3, kappa2=0.9, q_cond=0.0, m_order=1.0,
                      beta=0.0, k_rate=0.0)]
    stacked = PhysParams.stack(members)
    for law in (pressure, internal_energy, de_dtheta, heat_conductivity, reaction_rate):
        batch = law(v_rows, theta_rows, stacked)
        assert batch.shape == v_rows.shape
        for b, member in enumerate(members):
            alone = law(v_rows[b], theta_rows[b], member)
            assert batch[b].tobytes() == alone.tobytes(), (law.__name__, b)


def test_stack_keeps_shared_constants_as_floats_and_columns_the_rest():
    members = [params(p_ext=0.0, beta=1.0), params(p_ext=-0.0, beta=1.0),
               params(p_ext=0.0, beta=2.0)]
    stacked = PhysParams.stack(members)
    assert type(stacked.mu) is float and stacked.mu == 0.1
    # -0.0 and 0.0 compare equal but differ in their bits, so p_ext is per member.
    assert stacked.p_ext.shape == stacked.beta.shape == (3, 1)
    assert [math.copysign(1.0, x) for x in stacked.p_ext[:, 0]] == [1.0, -1.0, 1.0]
    assert stacked.beta[:, 0].tolist() == [1.0, 1.0, 2.0]
    assert all(type(m.beta) is float for m in members)  # members untouched
    chosen = stacked.select(np.array([True, False, True]))
    assert chosen.beta[:, 0].tolist() == [1.0, 2.0]
    assert chosen.p_ext.shape == (2, 1) and chosen.mu is stacked.mu
    assert stacked.beta.shape == (3, 1)  # selecting does not change the stack
    # Nothing per member: stacking keeps every float, and selecting is free.
    shared = PhysParams.stack([params(beta=2.0), params(beta=2.0)])
    assert shared == params(beta=2.0)
    assert shared.select(np.array([False, True])) is shared


def test_stack_refuses_members_of_different_conductivity_models():
    with pytest.raises(ConfigurationError, match="cond_model"):
        PhysParams.stack([params(cond_model="A"), params(cond_model="B")])


# ---------------------------------------------------------- validation

def test_defaults_validate():
    PhysParams().validate()  # must not raise


def test_validate_collects_all_problems():
    # One construction, one error message naming every violated bound.
    with pytest.raises(ValueError) as err:
        params(mu=-1.0, cv=0.0, kappa1=2.0, kappa2=1.0, m_order=0.5)
    for field in ("mu", "cv", "kappa", "m_order"):
        assert field in str(err.value)


def test_validate_rejects_bad_model_letter():
    with pytest.raises(ValueError, match="cond_model"):
        params(cond_model="C")


def test_validate_rejects_nonfinite_external_pressure():
    with pytest.raises(ValueError, match="p_ext"):
        params(p_ext=float("nan"))


def test_rate_exponent_flag():
    assert params(beta=1.0, q_cond=2.0).rate_exponent_supported  # 1 < 11
    assert not params(beta=11.0, q_cond=2.0).rate_exponent_supported  # 11 = q+9
    assert not params(beta=12.0, q_cond=2.0).rate_exponent_supported


def test_unsupported_exponent_still_validates():
    # The flag is advisory; construction must succeed.
    assert not params(beta=40.0, q_cond=0.0).rate_exponent_supported
