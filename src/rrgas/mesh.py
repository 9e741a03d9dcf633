"""Lagrangian mass mesh, staggered discrete state, and boundary tracking.

The gas fills the mass interval [0, 1] (total mass 1).  Specific volume,
temperature and reactant fraction live at cell centers; velocity lives at
cell edges, so the volume equation v_t = u_x is exact per cell and the
boundary stress condition is a natural flux condition at the outer edges.
Physical positions are reconstructed from v by summing cell widths from
the left free boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised for invalid run configurations or initial data."""


class Grid:
    """Uniform mass mesh: n_cells cells of mass dx = 1/n_cells.

    The sample arrays cell_centers and edges are read-only, so a
    function of them can be cached against the array itself: mms
    serves block-evaluated sources while it is asked for these arrays.
    """

    def __init__(self, n_cells: int):
        if n_cells < 1:
            raise ConfigurationError(f"n_cells must be >= 1, got {n_cells}")
        self.n_cells = int(n_cells)
        self.dx = 1.0 / self.n_cells
        self.cell_centers = (np.arange(self.n_cells) + 0.5) * self.dx
        self.edges = np.arange(self.n_cells + 1) * self.dx
        self.cell_centers.setflags(write=False)
        self.edges.setflags(write=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n_cells == self.n_cells

    def __repr__(self) -> str:
        return f"Grid(n_cells={self.n_cells})"


@dataclass
class State:
    """Discrete fields at one time level.

    v, theta, z are cell-centered arrays of length n_cells; u is
    edge-based of length n_cells + 1.  a_pos is the physical position of
    the left free boundary.
    """

    grid: Grid
    v: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    u: np.ndarray
    t: float = 0.0
    a_pos: float = 0.0

    def __post_init__(self) -> None:
        n = self.grid.n_cells
        for name in ("v", "theta", "z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ConfigurationError(f"{name} must have shape ({n},), got {arr.shape}")
            setattr(self, name, arr)
        self.u = np.asarray(self.u, dtype=float)
        if self.u.shape != (n + 1,):
            raise ConfigurationError(f"u must have shape ({n + 1},), got {self.u.shape}")

    def copy(self) -> "State":
        return State(self.grid, self.v.copy(), self.theta.copy(), self.z.copy(),
                     self.u.copy(), self.t, self.a_pos)

    def require_valid(self, v_floor: float = 0.0, theta_floor: float = 0.0) -> None:
        """Raise if positivity or the reactant range is violated."""
        bad = np.flatnonzero(~(self.v > v_floor))
        if bad.size:
            raise ConfigurationError(f"v must be > {v_floor}; violated at cell {bad[0]}")
        bad = np.flatnonzero(~(self.theta > theta_floor))
        if bad.size:
            raise ConfigurationError(f"theta must be > {theta_floor}; violated at cell {bad[0]}")
        bad = np.flatnonzero((self.z < 0.0) | (self.z > 1.0))
        if bad.size:
            raise ConfigurationError(f"z must lie in [0, 1]; violated at cell {bad[0]}")


def velocity_mean(state_or_u, dx: float | None = None) -> float:
    """Discrete integral of the edge velocity over the mass interval.

    Trapezoidal weights (half mass at the two boundary edges), the same
    functional the momentum diagnostic reports.
    """
    if dx is None:
        u, dx = state_or_u.u, state_or_u.grid.dx
    else:
        u = state_or_u
    return float(np.trapezoid(u, dx=dx))


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


def advance_boundary(state: State, dt: float) -> float:
    """Move the left free boundary with the boundary fluid speed: a += dt*u_0."""
    state.a_pos = state.a_pos + dt * float(state.u[0])
    return state.a_pos
