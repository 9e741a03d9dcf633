"""Run configuration: initial profiles, numerical settings, INI round-trip.

Config files are flat key=value INI text with three sections:

    [run]       mesh size, time horizon, tolerances, output cadence
    [physics]   every PhysParams constant
    [initial]   one named profile per field: v, u, theta, z

Unknown sections, keys, profile kinds, or profile parameters are
rejected.  Every key has a documented default, so a minimal config needs
only the values that differ from them.  serialize_config() emits all
keys with 17 significant digits, and load_config(serialize_config(c))
reproduces c exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields as dataclass_fields

import numpy as np

from .constitutive import PhysParams
from .mesh import ConfigurationError, Grid, State, velocity_mean

# The one number format: 17 significant digits round-trip every double.
NUM_FORMAT = "%.17g"

# kind -> {parameter: default}
PROFILE_KINDS: dict[str, dict[str, float]] = {
    "constant": {"value": 0.0},
    "gaussian-bump": {"base": 0.0, "amplitude": 1.0, "center": 0.5, "width": 0.1},
    "sine": {"base": 0.0, "amplitude": 1.0, "cycles": 1.0},
    "tanh-layer": {"base": 0.0, "amplitude": 1.0, "center": 0.5, "width": 0.05},
}


@dataclass
class Profile:
    """A named initial-profile preset evaluated on mass coordinates in [0, 1]."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise ConfigurationError(
                f"unknown profile kind {self.kind!r}; known: {sorted(PROFILE_KINDS)}"
            )
        defaults = PROFILE_KINDS[self.kind]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for profile {self.kind!r}"
            )
        merged = dict(defaults)
        merged.update({k: float(v) for k, v in self.params.items()})
        for key, value in merged.items():
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"parameter {key!r} of profile {self.kind!r} must be finite, got {value}"
                )
        if "width" in merged and not merged["width"] > 0.0:
            raise ConfigurationError(
                f"parameter 'width' of profile {self.kind!r} must be > 0, got {merged['width']}"
            )
        self.params = merged

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        p = self.params
        if self.kind == "constant":
            return np.full_like(x, p["value"])
        if self.kind == "gaussian-bump":
            return p["base"] + p["amplitude"] * np.exp(
                -((x - p["center"]) ** 2) / (2.0 * p["width"] ** 2)
            )
        if self.kind == "sine":
            return p["base"] + p["amplitude"] * np.sin(2.0 * np.pi * p["cycles"] * x)
        return p["base"] + p["amplitude"] * 0.5 * (1.0 + np.tanh((x - p["center"]) / p["width"]))

    def serialize(self) -> str:
        parts = [self.kind]
        parts += [f"{k}={NUM_FORMAT % v}" for k, v in sorted(self.params.items())]
        return " ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Profile":
        tokens = text.split()
        if not tokens:
            raise ConfigurationError("empty profile string")
        params = {}
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ConfigurationError(f"malformed profile parameter {tok!r} (expected key=value)")
            key, _, val = tok.partition("=")
            if key in params:
                raise ConfigurationError(f"repeated profile parameter {key!r} in {text!r}")
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise ConfigurationError(f"non-numeric profile parameter {tok!r}") from exc
        return cls(tokens[0], params)


def constant_profile(value: float) -> Profile:
    return Profile("constant", {"value": value})


_RUN_INT_KEYS = ("n_cells", "newton_max_iter", "output_every")
_RUN_FLOAT_KEYS = ("t_end", "cfl_number", "dt_max", "newton_tol", "v_floor", "theta_floor")


@dataclass
class RunConfig:
    """Scenario description: physics, mesh, horizon, tolerances, profiles."""

    params: PhysParams = field(default_factory=PhysParams)
    n_cells: int = 128
    t_end: float = 0.2
    cfl_number: float = 0.5
    dt_max: float = 1e-2
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    v_floor: float = 1e-8
    theta_floor: float = 1e-8
    output_every: int = 10
    v_profile: Profile = field(default_factory=lambda: constant_profile(1.0))
    u_profile: Profile = field(default_factory=lambda: constant_profile(0.0))
    theta_profile: Profile = field(default_factory=lambda: constant_profile(1.0))
    z_profile: Profile = field(default_factory=lambda: constant_profile(0.0))

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        problems = [
            f"{name} must be finite, got {getattr(self, name)}"
            for name in _RUN_FLOAT_KEYS
            if not np.isfinite(getattr(self, name))
        ]
        if not self.n_cells >= 4:
            problems.append(f"n_cells must be >= 4, got {self.n_cells}")
        if not self.t_end > 0.0:
            problems.append(f"t_end must be > 0, got {self.t_end}")
        for name in ("cfl_number", "dt_max", "newton_tol", "v_floor", "theta_floor"):
            if not getattr(self, name) > 0.0:
                problems.append(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.newton_max_iter >= 1:
            problems.append(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")
        if not self.output_every >= 1:
            problems.append(f"output_every must be >= 1, got {self.output_every}")
        if problems:
            raise ConfigurationError("invalid run configuration: " + "; ".join(problems))


def init_state(config: RunConfig) -> State:
    """Build the t=0 state from the configured profiles.

    Cell fields are profile values at cell centers, velocity at edges.
    The velocity is then shifted by its discrete mass average so the
    total momentum starts at zero; the left boundary starts at a_pos = 0.
    A state that fails State.require_valid at config.v_floor and
    config.theta_floor is a ConfigurationError.
    """
    grid = Grid(config.n_cells)
    v = config.v_profile(grid.cell_centers)
    theta = config.theta_profile(grid.cell_centers)
    z = config.z_profile(grid.cell_centers)
    u = config.u_profile(grid.edges)
    state = State(grid, v, theta, z, u, t=0.0, a_pos=0.0)
    # before the shift, which would spread a non-finite u
    state.require_valid(config.v_floor, config.theta_floor)
    state.u = u - velocity_mean(state)
    return state


_PROFILE_KEYS = {"v": "v_profile", "u": "u_profile", "theta": "theta_profile", "z": "z_profile"}
PHYS_FLOAT_KEYS = tuple(
    f.name for f in dataclass_fields(PhysParams) if f.name != "cond_model"
)


def _parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))


def read_ini(text: str) -> configparser.ConfigParser:
    """Read INI text with the config syntax; a syntax error is a ConfigurationError."""
    cp = _parser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc
    return cp


def build_config(cp: configparser.ConfigParser) -> RunConfig:
    """A validated RunConfig from the sections of a read_ini result."""
    known_sections = {"run", "physics", "initial"}
    unknown = set(cp.sections()) - known_sections
    if unknown:
        raise ConfigurationError(f"unknown config section(s): {sorted(unknown)}")

    run_kwargs: dict = {}
    if cp.has_section("run"):
        for key, raw in cp.items("run"):
            if key in _RUN_INT_KEYS:
                try:
                    run_kwargs[key] = int(raw)
                except ValueError as exc:
                    raise ConfigurationError(f"[run] {key} must be an integer, got {raw!r}") from exc
            elif key in _RUN_FLOAT_KEYS:
                try:
                    run_kwargs[key] = float(raw)
                except ValueError as exc:
                    raise ConfigurationError(f"[run] {key} must be a number, got {raw!r}") from exc
            else:
                raise ConfigurationError(f"unknown key {key!r} in section [run]")

    phys_kwargs: dict = {}
    if cp.has_section("physics"):
        for key, raw in cp.items("physics"):
            if key == "cond_model":
                phys_kwargs[key] = raw.strip()
            elif key in PHYS_FLOAT_KEYS:
                try:
                    phys_kwargs[key] = float(raw)
                except ValueError as exc:
                    raise ConfigurationError(
                        f"[physics] {key} must be a number, got {raw!r}"
                    ) from exc
            else:
                raise ConfigurationError(f"unknown key {key!r} in section [physics]")

    if cp.has_section("initial"):
        for key, raw in cp.items("initial"):
            if key not in _PROFILE_KEYS:
                raise ConfigurationError(f"unknown key {key!r} in section [initial]")
            try:
                run_kwargs[_PROFILE_KEYS[key]] = Profile.parse(raw)
            except ConfigurationError as exc:
                raise ConfigurationError(f"[initial] {key}: {exc}") from exc

    return RunConfig(params=PhysParams(**phys_kwargs), **run_kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a validated RunConfig."""
    return build_config(read_ini(text))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(config: RunConfig) -> str:
    """Emit the full config (all keys explicit) as INI text."""
    cp = _parser()
    cp.add_section("run")
    for key in _RUN_INT_KEYS:
        cp.set("run", key, str(getattr(config, key)))
    for key in _RUN_FLOAT_KEYS:
        cp.set("run", key, NUM_FORMAT % getattr(config, key))
    cp.add_section("physics")
    for key in PHYS_FLOAT_KEYS:
        cp.set("physics", key, NUM_FORMAT % getattr(config.params, key))
    cp.set("physics", "cond_model", config.params.cond_model)
    cp.add_section("initial")
    for key, attr in _PROFILE_KEYS.items():
        cp.set("initial", key, getattr(config, attr).serialize())
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def save_config(path, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))
