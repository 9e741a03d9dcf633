"""Configuration parsing, profiles, and initial-state construction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrgas.config import (
    ConfigurationError,
    Profile,
    RunConfig,
    init_state,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from rrgas.mesh import velocity_mean


# ------------------------------------------------------------- profiles

def test_constant_profile():
    p = Profile("constant", {"value": 2.5})
    np.testing.assert_allclose(p(np.array([0.0, 0.3, 1.0])), 2.5)


def test_gaussian_bump_peak_and_base():
    p = Profile("gaussian-bump", {"base": 1.0, "amplitude": 0.5, "center": 0.5, "width": 0.1})
    assert p(0.5) == pytest.approx(1.5, rel=1e-15)
    # Five widths out the bump is essentially gone.
    assert p(0.0) == pytest.approx(1.0, abs=1e-5)


def test_sine_profile():
    p = Profile("sine", {"base": 0.0, "amplitude": 1.0, "cycles": 1.0})
    assert p(0.25) == pytest.approx(1.0, rel=1e-12)
    assert p(0.75) == pytest.approx(-1.0, rel=1e-12)


def test_tanh_layer_midpoint():
    p = Profile("tanh-layer", {"base": 2.0, "amplitude": 1.0, "center": 0.4, "width": 0.05})
    # The layer passes through base + amplitude/2 at its center.
    assert p(0.4) == pytest.approx(2.5, rel=1e-12)
    assert p(0.0) == pytest.approx(2.0, abs=1e-6)
    assert p(1.0) == pytest.approx(3.0, abs=1e-6)


def test_profile_fills_defaults():
    p = Profile("gaussian-bump", {"base": 1.0})
    assert p.params["width"] == 0.1
    assert p.params["center"] == 0.5


def test_profile_rejects_unknown_kind():
    with pytest.raises(ConfigurationError, match="kind"):
        Profile("step", {})


def test_profile_rejects_unknown_parameter():
    with pytest.raises(ConfigurationError):
        Profile("constant", {"vaule": 1.0})


def test_profile_parse_and_serialize_round_trip():
    p = Profile.parse("gaussian-bump base=1.0 amplitude=-0.25 width=0.2")
    q = Profile.parse(p.serialize())
    assert q.kind == p.kind
    assert q.params == p.params


def test_profile_parse_rejects_bad_tokens():
    with pytest.raises(ConfigurationError):
        Profile.parse("constant value")
    with pytest.raises(ConfigurationError):
        Profile.parse("constant value=abc")
    with pytest.raises(ConfigurationError):
        Profile.parse("")


# ------------------------------------------------------------ ini round trip

def test_serialize_parse_round_trip_defaults():
    cfg = RunConfig()
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_serialize_parse_round_trip_modified():
    cfg = RunConfig()
    cfg.n_cells = 96
    cfg.t_end = 0.37
    cfg.params = dataclasses.replace(cfg.params, k_rate=3.5, cond_model="B", q_cond=1.0)
    cfg.theta_profile = Profile("tanh-layer", {"base": 0.9, "amplitude": 0.3})
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@given(
    t_end=st.floats(1e-4, 10.0),
    cfl=st.floats(0.01, 1.0),
    k=st.floats(0.0, 50.0),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_round_trip_preserves_floats_exactly(t_end, cfl, k):
    # %.17g carries full double precision through the ini text.
    cfg = RunConfig()
    cfg.t_end = t_end
    cfg.cfl_number = cfl
    cfg.params = dataclasses.replace(cfg.params, k_rate=k)
    again = parse_config(serialize_config(cfg))
    assert again.t_end == t_end
    assert again.cfl_number == cfl
    assert again.params.k_rate == k


def test_parse_minimal_config_uses_defaults():
    cfg = parse_config("[run]\nn_cells = 16\n")
    assert cfg.n_cells == 16
    assert cfg.t_end == RunConfig().t_end
    assert cfg.params == RunConfig().params


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="n_cell"):
        parse_config("[run]\nn_cell = 16\n")


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigurationError, match="outputs"):
        parse_config("[outputs]\nevery = 2\n")


def test_parse_rejects_bad_physics():
    with pytest.raises(ConfigurationError, match="kappa"):
        parse_config("[physics]\nkappa1 = 2.0\nkappa2 = 1.0\n")


def test_parse_rejects_nonfinite_values_listing_each():
    with pytest.raises(ConfigurationError) as info:
        parse_config("[run]\nt_end = inf\nnewton_tol = nan\n")
    message = str(info.value)
    assert "t_end must be finite, got inf" in message
    assert "newton_tol must be finite, got nan" in message

    with pytest.raises(ConfigurationError) as info:
        parse_config("[physics]\nmu = inf\nkappa1 = inf\nkappa2 = inf\np_ext = -inf\n")
    message = str(info.value)
    for name, value in (("mu", "inf"), ("kappa1", "inf"), ("kappa2", "inf"), ("p_ext", "-inf")):
        assert f"{name} must be finite, got {value}" in message


def test_parse_accepts_flagged_rate_exponent():
    # beta >= q+9 runs are allowed; only the support flag flips.
    cfg = parse_config("[physics]\nbeta = 11.0\nq_cond = 2.0\n")
    assert not cfg.params.rate_exponent_supported


def test_validate_bounds():
    cfg = RunConfig()
    cfg.n_cells = 2
    with pytest.raises(ConfigurationError, match="n_cells"):
        cfg.validate()
    cfg = RunConfig()
    cfg.cfl_number = 0.0
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_save_and_load(tmp_path):
    cfg = RunConfig()
    cfg.n_cells = 24
    path = tmp_path / "case.ini"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.ini")


# ---------------------------------------------------------- initial state

def test_init_state_shapes_and_time():
    cfg = RunConfig()
    cfg.n_cells = 10
    s = init_state(cfg)
    assert s.v.shape == (10,)
    assert s.u.shape == (11,)
    assert s.t == 0.0
    assert s.a_pos == 0.0


def test_init_state_removes_mean_velocity():
    cfg = RunConfig()
    cfg.n_cells = 32
    cfg.u_profile = Profile("constant", {"value": 3.0})
    s = init_state(cfg)
    # A constant offset is removed entirely.
    np.testing.assert_allclose(s.u, 0.0, atol=1e-15)


def test_init_state_mean_zero_for_nonuniform_velocity():
    cfg = RunConfig()
    cfg.n_cells = 32
    cfg.u_profile = Profile("sine", {"base": 0.5, "amplitude": 1.0, "cycles": 2.0})
    s = init_state(cfg)
    assert abs(velocity_mean(s)) <= 1e-14


def test_init_state_rejects_invalid_fields():
    cfg = RunConfig()
    cfg.theta_profile = Profile("constant", {"value": -1.0})
    with pytest.raises(ConfigurationError):
        init_state(cfg)
    cfg = RunConfig()
    cfg.z_profile = Profile("constant", {"value": 1.5})
    with pytest.raises(ConfigurationError):
        init_state(cfg)
