"""Mesh geometry and state bookkeeping."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rrgas.constitutive import PhysParams
from rrgas.mesh import (
    ConfigurationError,
    Grid,
    State,
    advance_boundary,
    physical_coordinates,
    stack,
    velocity_mean,
    width,
)
from rrgas.output import read_snapshot, write_snapshot


def make_state(n=4, v=1.0, u=0.0, theta=1.0, z=0.5, a_pos=0.0):
    g = Grid(n)
    return State(
        g,
        np.full(n, v),
        np.full(n, theta),
        np.full(n, z),
        np.full(n + 1, u),
        a_pos=a_pos,
    )


def test_grid_geometry():
    g = Grid(4)
    assert g.dx == 0.25
    np.testing.assert_allclose(g.cell_centers, [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(g.edges, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_sample_arrays_are_read_only():
    # A sweep worker's grid arrives pickled, and keeps the contract.
    for g in (Grid(4), pickle.loads(pickle.dumps(Grid(4)))):
        with pytest.raises(ValueError):
            g.cell_centers[0] = 0.5
        with pytest.raises(ValueError):
            g.edges[1:3] = 0.0


@pytest.mark.parametrize("n_cells", [0, -4, 2.5, "8"])
def test_grid_rejects_bad_cell_counts(n_cells):
    with pytest.raises(ConfigurationError, match="n_cells"):
        Grid(n_cells)


def test_grid_equality_by_size():
    assert Grid(8) == Grid(8)
    assert Grid(8) != Grid(16)


def test_state_shape_checks():
    g = Grid(4)
    with pytest.raises(ConfigurationError, match="theta"):
        State(g, np.ones(4), np.ones(3), np.ones(4), np.zeros(5))
    with pytest.raises(ConfigurationError, match="u"):
        State(g, np.ones(4), np.ones(4), np.ones(4), np.zeros(4))


def test_batch_state_shapes_and_members():
    a, b = make_state(v=1.0, a_pos=0.5), make_state(v=2.0)
    b.t = 0.25
    batch = stack([a, b])
    assert batch.v.shape == (2, 4) and batch.u.shape == (2, 5)
    assert batch.t.tolist() == [0.0, 0.25] and batch.a_pos.tolist() == [0.5, 0.0]
    one = batch[1]
    assert one.v.shape == (4,) and type(one.t) is float and one.t == 0.25
    assert batch[None].v.shape == (1, 2, 4)
    assert make_state()[None].t.tolist() == [0.0]
    sub = batch[np.array([1])]
    assert sub.v.shape == (1, 4) and sub.t.tolist() == [0.25]
    c = batch.copy()
    c.v[0], c.t[0] = 2.0, 0.25
    assert batch.v[0].tolist() == [1.0] * 4 and batch.t.tolist() == [0.0, 0.25]
    with pytest.raises(ConfigurationError, match=r"u must have shape \(2, 5\)"):
        State(Grid(4), batch.v, batch.theta, batch.z, np.zeros(5))


def levels(*ts):
    """Levels of a batch of 3 members on 4 cells, one per t, most recent
    first: member b's theta at level t is 10*t + b in every cell."""
    return tuple((np.full(3, t), 10.0 * t + np.repeat(np.arange(3.0)[:, None], 4, axis=1))
                 for t in ts)


@pytest.mark.parametrize("index", [1, np.array([2, 0]), np.array([True, False, True]), None],
                         ids=["int", "array", "mask", "None"])
def test_indexing_cuts_each_level_with_the_members(index):
    batch = stack([make_state()] * 3)
    batch.history = levels(0.5, 0.25)
    part = batch[index]
    assert len(part.history) == 2
    for (t, theta), (all_t, all_theta) in zip(part.history, batch.history):
        assert np.asarray(t).tolist() == all_t[index].tolist()
        assert theta.tobytes() == all_theta[index].tobytes()
        assert theta.shape == part.theta.shape
    one = make_state()
    one.history = ((0.5, np.full(4, 2.0)),)
    [(t, theta)] = one[None].history
    assert t.tolist() == [0.5] and theta.tolist() == [[2.0] * 4]


def test_a_built_copied_stacked_or_read_state_carries_no_history(tmp_path):
    s = make_state()
    s.history = ((0.0, s.theta),)
    write_snapshot(tmp_path / "snap.csv", s, PhysParams())
    made = [make_state(), s.copy(), stack([s, s]), read_snapshot(tmp_path / "snap.csv")[0],
            State(s.grid, s.v, s.theta, s.z, s.u, s.t, s.a_pos)]
    assert all(state.history == () for state in made)
    assert len(s.history) == 1


def test_state_copy_is_deep():
    s = make_state()
    c = s.copy()
    c.v[0] = 99.0
    c.a_pos = 5.0
    assert s.v[0] == 1.0
    assert s.a_pos == 0.0


def test_require_valid_names_first_bad_cell():
    s = make_state()
    s.theta[2] = -1.0
    with pytest.raises(ConfigurationError, match="cell 2"):
        s.require_valid(0.0, 0.0)
    s = make_state()
    s.z[1] = 1.5
    with pytest.raises(ConfigurationError, match=r"z must lie"):
        s.require_valid(0.0, 0.0)


@pytest.mark.parametrize("field,index,value,where", [
    ("v", 3, np.inf, "cell 3"), ("theta", 1, np.nan, "cell 1"),
    ("z", 2, np.nan, "cell 2"), ("u", 4, -np.inf, "edge 4"),
])
def test_require_valid_rejects_nonfinite_values(field, index, value, where):
    s = make_state()
    getattr(s, field)[index] = value
    with pytest.raises(ConfigurationError, match=f"{field} must be finite; violated at {where}"):
        s.require_valid(0.0, 0.0)


def test_require_valid_honors_floors():
    s = make_state(v=1e-9, theta=1e-9)
    s.require_valid(0.0, 0.0)  # zero floors: fine
    with pytest.raises(ConfigurationError, match=r"v must be > 1e-08"):
        s.require_valid(v_floor=1e-8, theta_floor=0.0)
    with pytest.raises(ConfigurationError, match=r"theta must be > 1e-08"):
        s.require_valid(v_floor=0.0, theta_floor=1e-8)


def test_width_of_uniform_state():
    assert width(make_state(n=4, v=1.0)) == 1.0
    assert width(make_state(n=4, v=2.0)) == 2.0


def test_physical_coordinates_uniform():
    # v = 1 reproduces the mass mesh shifted by a_pos.
    s = make_state(n=4, v=1.0, a_pos=-0.5)
    y, (a, b) = physical_coordinates(s)
    np.testing.assert_allclose(y, [-0.5, -0.25, 0.0, 0.25, 0.5])
    assert a == -0.5
    assert b == 0.5


def test_physical_coordinates_span_width():
    s = make_state(n=8, v=1.0)
    s.v[:] = np.linspace(0.5, 2.0, 8)
    y, (a, b) = physical_coordinates(s)
    assert b - a == pytest.approx(width(s), rel=1e-15)
    assert np.all(np.diff(y) > 0.0)


@given(st.lists(st.floats(0.05, 10.0), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_physical_coordinates_increasing(volumes):
    n = len(volumes)
    s = State(Grid(n), np.array(volumes), np.ones(n), np.zeros(n), np.zeros(n + 1))
    y, _ = physical_coordinates(s)
    assert np.all(np.diff(y) > 0.0)


def test_velocity_mean_trapezoid():
    # Half weights at the end edges: (0.5*0 + 1 + 2 + 3 + 0.5*4) / 4 = 2.0
    u = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    s = State(Grid(4), np.ones(4), np.ones(4), np.zeros(4), u)
    assert velocity_mean(s) == pytest.approx(2.0, rel=1e-15)


def test_velocity_mean_accepts_state():
    s = make_state(n=4, u=3.0)
    assert velocity_mean(s) == pytest.approx(3.0, rel=1e-15)


def test_advance_boundary_uses_left_edge_speed():
    s = make_state(n=4)
    s.u[0] = -2.0
    out = advance_boundary(s, 0.25)
    assert s.a_pos == -0.5
    assert out == -0.5


def test_advance_boundary_accumulates():
    s = make_state(n=2, a_pos=1.0)
    s.u[0] = 1.0
    advance_boundary(s, 0.1)
    advance_boundary(s, 0.1)
    assert s.a_pos == pytest.approx(1.2, rel=1e-15)
