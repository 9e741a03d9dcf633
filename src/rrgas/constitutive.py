"""Constitutive laws for the radiative reacting gas model.

Pressure and internal energy combine a perfect-gas part with a
Stefan-Boltzmann radiation part; the reaction rate is an Arrhenius law
with a power-law density factor; the heat conductivity is a power law
in temperature with an optional specific-volume factor (model B).

Every law takes float arrays v and theta of one shape and returns
arrays of that shape (conductivity a tuple of three).  Everything is
dimensionless (code units).

Caller contract: the specific volume v is finite and > 0.  The laws do
not check it; they run many times per step on states whose volume is
already known to be valid.  Positivity is enforced where states are
created instead: init_state (State.require_valid), the floor check in
solver.volume_step, the explicit reference step and read_snapshot.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

from .mesh import ConfigurationError

# Temperature floor used only when evaluating conductivity derivatives:
# d(kappa)/d(theta) ~ theta**(q-1) is unbounded at theta=0 for 0 < q < 1.
# Physical states never reach theta = 0, so this guards round-off only.
THETA_DERIV_FLOOR = 1e-10


@dataclass
class PhysParams:
    """Physical and constitutive constants, all in code units."""

    mu: float = 0.1            # viscosity coefficient
    d_diff: float = 0.1        # species diffusion coefficient
    lambda_heat: float = 1.0   # heat release per unit reactant
    cv: float = 1.0            # specific heat at constant volume
    r_gas: float = 1.0         # perfect-gas constant
    a_rad: float = 1.0         # radiation constant
    g_grav: float = 0.0        # gravitational constant
    p_ext: float = 1.0         # external boundary pressure (any sign)
    k_rate: float = 1.0        # Arrhenius prefactor (0 disables the reaction)
    a_act: float = 1.0         # activation temperature
    m_order: float = 1.0       # kinetics order
    beta: float = 0.0          # rate temperature exponent
    q_cond: float = 0.0        # conductivity exponent
    kappa1: float = 1.0        # conductivity lower coefficient
    kappa2: float = 1.0        # conductivity upper coefficient
    cond_model: str = "A"      # "A": kappa1 + kappa2*theta^q; "B": kappa1 + kappa2*v*theta^q

    # The names of the constants that are per-member columns (stack).
    _columns = ()

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every bound and raise one ConfigurationError listing
        all violations.

        Every constant but cond_model must be finite.
        """
        problems = [
            f"{f.name} must be finite, got {getattr(self, f.name)}"
            for f in fields(self)
            if f.name != "cond_model" and not np.isfinite(getattr(self, f.name))
        ]
        for name in ("mu", "d_diff", "cv", "r_gas", "a_rad", "a_act"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("lambda_heat", "k_rate", "beta", "q_cond"):
            if not getattr(self, name) >= 0.0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.g_grav >= 0.0:
            problems.append(f"g_grav must be >= 0, got {self.g_grav}")
        if not self.m_order >= 1.0:
            problems.append(f"m_order must be >= 1, got {self.m_order}")
        if not 0.0 < self.kappa1 <= self.kappa2:
            problems.append(
                f"conductivity coefficients need 0 < kappa1 <= kappa2, "
                f"got kappa1={self.kappa1}, kappa2={self.kappa2}"
            )
        if self.cond_model not in ("A", "B"):
            problems.append(f"cond_model must be 'A' or 'B', got {self.cond_model!r}")
        if problems:
            raise ConfigurationError("invalid physical parameters: " + "; ".join(problems))

    @classmethod
    def stack(cls, members) -> "PhysParams":
        """The constants of a batch of runs, one PhysParams per member.

        A constant whose bits agree in every member stays that float; one
        that differs becomes a (B, 1) column, member b's value in row b,
        which broadcasts against the batch's (B, n) fields.  Each member
        was validated on its own when it was built; the stack is not
        validated again.  Members with different cond_model are a
        ConfigurationError.
        """
        first = members[0]
        if any(member.cond_model != first.cond_model for member in members):
            raise ConfigurationError("the members of a batch must share cond_model")
        stacked = copy.copy(first)
        for f in fields(first):
            values = [getattr(member, f.name) for member in members]
            if f.name != "cond_model" and len({float(x).hex() for x in values}) > 1:
                setattr(stacked, f.name, np.array(values)[:, None])
                stacked._columns += (f.name,)
        return stacked

    def select(self, index) -> "PhysParams":
        """The constants of the members at index (a mask or an index
        array) of a stack; itself when no constant is per member."""
        if not self._columns:
            return self
        chosen = copy.copy(self)
        for name in self._columns:
            setattr(chosen, name, getattr(self, name)[index])
        return chosen

    @property
    def rate_exponent_supported(self) -> bool:
        """True when beta < q_cond + 9, the exponent range with known global regularity.

        Outside this (open) range runs are permitted but flagged: the model
        may develop singularities the scheme can only report, not prevent.
        """
        return self.beta < self.q_cond + 9.0


def pressure(v, theta, params: PhysParams):
    """Total pressure R*theta/v + (a/3)*theta^4."""
    return params.r_gas * theta / v + (params.a_rad / 3.0) * theta**4


def internal_energy(v, theta, params: PhysParams):
    """Internal energy per unit mass, C_v*theta + a*v*theta^4."""
    return params.cv * theta + params.a_rad * v * theta**4


def de_dtheta(v, theta, params: PhysParams):
    """Temperature derivative of the internal energy, C_v + 4*a*v*theta^3.

    Bounded below by C_v > 0, so the energy Newton Jacobian is never
    singular.
    """
    return params.cv + 4.0 * params.a_rad * v * theta**3


def _arrhenius(v, theta, params: PhysParams):
    return (
        params.k_rate
        * v ** (1.0 - params.m_order)
        * theta**params.beta
        * np.exp(-params.a_act / theta)
    )


def reaction_rate(v, theta, params: PhysParams):
    """Arrhenius rate K * rho^(m-1) * theta^beta * exp(-A/theta), rho = 1/v.

    The theta -> 0 limit is 0 for every beta >= 0 (the exponential
    dominates); it is returned as exactly 0.0 rather than evaluated, which
    would produce 0*inf in floating point.  When theta > 0 everywhere,
    the solver's case, the rate is evaluated without the mask: the same
    elementwise operations, so the same bits.
    """
    if theta.min() > 0.0:
        return _arrhenius(v, theta, params)
    hot = theta > 0.0
    # A cold cell is evaluated at theta = 1 and then dropped, so that
    # per-member constants stay aligned with the rows.
    return np.where(hot, _arrhenius(v, np.where(hot, theta, 1.0), params), 0.0)


def heat_conductivity(v, theta, params: PhysParams):
    """Heat conductivity kappa alone, for callers that need no partials.

    Model A: kappa = kappa1 + kappa2 * theta^q       (volume-independent)
    Model B: kappa = kappa1 + kappa2 * v * theta^q
    """
    if params.cond_model == "A":
        return params.kappa1 + params.kappa2 * theta**params.q_cond
    return params.kappa1 + params.kappa2 * v * theta**params.q_cond


def _energy_laws(theta, av, v, params: PhysParams):
    """internal_energy, theta**4 and heat_conductivity at theta in one
    call, from av = a*v for a fixed v; each has the bits of its law."""
    theta4 = theta**4
    return params.cv * theta + av * theta4, theta4, heat_conductivity(v, theta, params)


def conductivity(v, theta, params: PhysParams):
    """Heat conductivity and its partials (kappa, dkappa_dv, dkappa_dtheta).

    kappa is heat_conductivity's.  Derivatives are evaluated at
    max(theta, THETA_DERIV_FLOOR); see the note there on the
    fractional-exponent limit.
    """
    kappa = heat_conductivity(v, theta, params)
    q = params.q_cond
    if q == 0.0:
        dkappa_dtheta = np.zeros(theta.shape)
    else:
        th = np.maximum(theta, THETA_DERIV_FLOOR)
        dkappa_dtheta = q * params.kappa2 * th ** (q - 1.0)
    if params.cond_model == "A":
        dkappa_dv = np.zeros(theta.shape)
    else:
        dkappa_dv = params.kappa2 * theta**q
        dkappa_dtheta = v * dkappa_dtheta
    return kappa, dkappa_dv, dkappa_dtheta
