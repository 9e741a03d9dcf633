"""Lagrangian mass mesh, staggered discrete state, and boundary tracking.

The gas fills the mass interval [0, 1] (total mass 1).  Specific volume,
temperature and reactant fraction live at cell centers; velocity lives at
cell edges, so the volume equation v_t = u_x is exact per cell and the
boundary stress condition is a natural flux condition at the outer edges.
Physical positions are reconstructed from v by summing cell widths from
the left free boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid run configurations or initial data."""


class Grid:
    """Uniform mass mesh: n_cells cells of mass dx = 1/n_cells.

    The arrays cell_centers, edges, edge_weights (trapezoidal: 1/2 at the
    two boundary edges) and edge_widths (dx*edge_weights, the mass of each
    edge's control volume) are read-only: every State on the grid, and
    every source callable built on it, shares them.
    """

    def __init__(self, n_cells: int):
        if not isinstance(n_cells, numbers.Integral) or n_cells < 1:
            raise ConfigurationError(f"n_cells must be an integer >= 1, got {n_cells}")
        self.n_cells = int(n_cells)
        self.dx = 1.0 / self.n_cells
        self.cell_centers = (np.arange(self.n_cells) + 0.5) * self.dx
        self.edges = np.arange(self.n_cells + 1) * self.dx
        self.edge_weights = np.concatenate(([0.5], np.ones(self.n_cells - 1), [0.5]))
        self.edge_widths = self.dx * self.edge_weights
        for samples in (self.cell_centers, self.edges, self.edge_weights, self.edge_widths):
            samples.setflags(write=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n_cells == self.n_cells

    def __reduce__(self):
        # Rebuilt from its size, so an unpickled grid's arrays are read-only too.
        return Grid, (self.n_cells,)

    def __repr__(self) -> str:
        return f"Grid(n_cells={self.n_cells})"


@dataclass
class State:
    """Discrete fields at one time level, of one run or of a batch of runs.

    v, theta, z are cell-centered arrays of length n_cells; u is
    edge-based of length n_cells + 1.  a_pos is the physical position of
    the left free boundary.  A batch of B runs on one grid has a leading
    member axis: (B, n_cells) and (B, n_cells + 1) fields, with t and
    a_pos as (B,) arrays.  Indexing selects members: an int gives one
    member's state, an index array or mask a smaller batch, and None
    turns a single state into a batch of one.
    laws: the law values its step (solver.step_batch) evaluated here, a
    dict whose "params" is the PhysParams they belong to (an `is` test);
    None on any other state.  The next step reads its theta4 and e,
    cfl_dt phi and zm (z^m), and diagnostics.record e, phi, zm and
    RECORD_ONLY, dropped with its row.  Fields never change after a step.
    """

    grid: Grid
    v: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    t: float = 0.0
    a_pos: float = 0.0
    laws = None  # not a field: set on the state a step makes
    RECORD_ONLY = ("kappa", "decay", "g")  # the laws only diagnostics.record reads

    def __post_init__(self) -> None:
        n = self.grid.n_cells
        self.v = np.asarray(self.v, dtype=float)
        lead = self.v.shape[:-1]
        for name, size in (("v", n), ("theta", n), ("z", n), ("u", n + 1)):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != lead + (size,):
                raise ConfigurationError(
                    f"{name} must have shape {lead + (size,)}, got {arr.shape}"
                )
            setattr(self, name, arr)
        if lead:
            # One time and one boundary position per member.
            self.t = np.full(lead, self.t, dtype=float)
            self.a_pos = np.full(lead, self.a_pos, dtype=float)

    def copy(self) -> "State":
        return State(self.grid, self.v.copy(), self.theta.copy(), self.z.copy(),
                     self.u.copy(), self.t, self.a_pos)

    def __getitem__(self, index) -> "State":
        t, a_pos = np.asarray(self.t)[index], np.asarray(self.a_pos)[index]
        if t.ndim == 0:
            t, a_pos = float(t), float(a_pos)
        return State(self.grid, self.v[index], self.theta[index], self.z[index],
                     self.u[index], t, a_pos)

    def require_valid(self, v_floor: float, theta_floor: float) -> None:
        """Raise if a field is not finite, v or theta is not above its
        floor, or z leaves [0, 1]."""
        for name in ("v", "theta", "z", "u"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                where = "edge" if name == "u" else "cell"
                raise ConfigurationError(f"{name} must be finite; violated at {where} {bad[0]}")
        bad = np.flatnonzero(~(self.v > v_floor))
        if bad.size:
            raise ConfigurationError(f"v must be > {v_floor}; violated at cell {bad[0]}")
        bad = np.flatnonzero(~(self.theta > theta_floor))
        if bad.size:
            raise ConfigurationError(f"theta must be > {theta_floor}; violated at cell {bad[0]}")
        bad = np.flatnonzero((self.z < 0.0) | (self.z > 1.0))
        if bad.size:
            raise ConfigurationError(f"z must lie in [0, 1]; violated at cell {bad[0]}")


def velocity_mean(state: State) -> float:
    """Discrete integral of the edge velocity over the mass interval.

    Trapezoidal weights (half mass at the two boundary edges), the same
    functional the momentum diagnostic reports.
    """
    return float(np.trapezoid(state.u, dx=state.grid.dx))


def width(state: State) -> float:
    """Physical slab width, the discrete integral of v over the mass mesh."""
    return float(state.v.sum() * state.grid.dx)


def physical_coordinates(state: State) -> tuple[np.ndarray, tuple[float, float]]:
    """Edge positions y_j in physical space and the boundary pair (a, b).

    y_0 is the left free boundary; each cell contributes width v_i*dx.
    Strictly increasing whenever v > 0.
    """
    dx = state.grid.dx
    y = state.a_pos + np.concatenate(([0.0], state.v.cumsum() * dx))
    return y, (float(y[0]), float(y[-1]))


def stack(states) -> State:
    """One batch of the given states, all on one grid, in their order."""
    fields = ("v", "theta", "z", "u", "t", "a_pos")
    return State(states[0].grid, *(np.stack([getattr(s, f) for s in states]) for f in fields))


def advance_boundary(state: State, dt) -> float:
    """Move the left free boundary with the boundary fluid speed: a += dt*u_0.

    For a batch, dt and the result are per member.
    """
    state.a_pos = state.a_pos + dt * state.u[..., 0]
    return state.a_pos
