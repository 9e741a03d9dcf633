"""Staggered-mesh solver for a self-gravitating, radiative, reacting
gas slab in Lagrangian mass coordinates, with the conservation and
entropy diagnostics that make its behavior checkable.

Each public name is imported from its module (rrgas.driver,
rrgas.config, ...); the package itself exports only __version__."""

__version__ = "0.1.0"
