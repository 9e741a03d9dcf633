"""Staggered-mesh solver for a self-gravitating, radiative, reacting
gas slab in Lagrangian mass coordinates, with the conservation and
entropy diagnostics that make its behavior checkable."""

from .config import Profile, RunConfig, init_state, load_config, save_config, serialize_config
from .constitutive import (
    PhysParams,
    conductivity,
    de_dtheta,
    heat_conductivity,
    internal_energy,
    pressure,
    reaction_rate,
)
from .diagnostics import (
    BalanceAccumulators,
    DiagnosticsRecord,
    dissipation_V,
    entropy_U,
    record,
    total_energy,
    z_balance_residual,
)
from .driver import CheckReport, RunResult, check_scenario, run_simulation
from .explicit import explicit_reference_step, run_explicit, stable_dt
from .mesh import ConfigurationError, Grid, State, physical_coordinates, velocity_mean, width
from .mms import MmsCase, convergence_order, run_mms, tanh_case, trig_case
from .solver import (
    InvariantViolation,
    SimulationError,
    StepReport,
    cfl_dt,
    energy_step,
    momentum_step,
    species_step,
    step,
    volume_step,
)

__version__ = "0.1.0"
