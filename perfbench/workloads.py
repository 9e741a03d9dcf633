"""Workload definitions: seeded inputs and the rrgas command each one runs.

Every input is generated here from the seed; the program only ever sees
the INI files written by `write_inputs`.  The scenario is the shipped
reacting one (configs/reacting.ini), copied rather than read so that a
change to the shipped configs cannot silently change the benchmark.
"""

from __future__ import annotations

import random
from pathlib import Path

DEFAULT_SEED = 1

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only
# exists so the self-test can drive every workload in a few seconds.
SIZES = {
    "full": {
        "run-small": {"n_cells": 128, "t_end": 4.0},
        "run-large": {"n_cells": 4096, "t_end": 0.015},
        "sweep-jobs2": {"n_cells": 128, "t_end": 2.0},
        "mms-trig": {"levels": 3},
    },
    "tiny": {
        "run-small": {"n_cells": 128, "t_end": 0.2},
        "run-large": {"n_cells": 512, "t_end": 0.002},
        "sweep-jobs2": {"n_cells": 32, "t_end": 0.05},
        "mms-trig": {"levels": 2},
    },
}

SWEEP_JOBS = 2
SWEEP_VALUES = {"p_ext": (-0.1, 0.0, 0.5), "beta": (1.0, 12.0)}
SWEEP_MEMBERS = len(SWEEP_VALUES["p_ext"]) * len(SWEEP_VALUES["beta"])

_PHYSICS = """\
[physics]
mu = 0.1
d_diff = 0.1
lambda_heat = 1.0
cv = 1.0
r_gas = 1.0
a_rad = 0.5
g_grav = 0.1
p_ext = 0.5
k_rate = 5.0
a_act = 4.0
m_order = 1.0
beta = 1.0
q_cond = 2.0
kappa1 = 0.5
kappa2 = 0.5
cond_model = A
"""


def _scenario(rng: random.Random, n_cells: int, t_end: float) -> str:
    """The reacting scenario with a jittered temperature bump."""
    amplitude = 0.5 * (1.0 + rng.uniform(-0.02, 0.02))
    center = 0.5 + rng.uniform(-0.01, 0.01)
    bump_width = 0.1 * (1.0 + rng.uniform(-0.02, 0.02))
    return (
        "[run]\n"
        f"n_cells = {n_cells}\n"
        f"t_end = {t_end!r}\n"
        "cfl_number = 0.5\n"
        "dt_max = 0.01\n"
        "output_every = 10\n\n"
        + _PHYSICS
        + "\n[initial]\n"
        "v = constant value=1.0\n"
        "u = constant value=0.0\n"
        f"theta = gaussian-bump base=1.0 amplitude={amplitude!r} "
        f"center={center!r} width={bump_width!r}\n"
        "z = constant value=1.0\n"
    )


def _manifest(rng: random.Random, n_cells: int, t_end: float) -> str:
    """A manifest shaped like configs/sweep_example.ini: 3 p_ext x 2 beta."""
    p_ext = [p + rng.uniform(-0.01, 0.01) for p in SWEEP_VALUES["p_ext"]]
    beta = [b * (1.0 + rng.uniform(-0.01, 0.01)) for b in SWEEP_VALUES["beta"]]
    sweep = (
        "[sweep]\n"
        f"p_ext = {', '.join(repr(p) for p in p_ext)}\n"
        f"beta = {', '.join(repr(b) for b in beta)}\n\n"
    )
    return sweep + _scenario(rng, n_cells, t_end)


def write_inputs(workload: str, seed: int, scale: str, directory: Path) -> Path | None:
    """Write the workload's input file; returns its path (None for mms-trig)."""
    size = SIZES[scale][workload]
    rng = random.Random(seed)
    if workload == "mms-trig":
        return None
    if workload == "sweep-jobs2":
        path = directory / "manifest.ini"
        path.write_text(_manifest(rng, size["n_cells"], size["t_end"]), encoding="utf-8")
    else:
        path = directory / "scenario.ini"
        path.write_text(_scenario(rng, size["n_cells"], size["t_end"]), encoding="utf-8")
    return path


def cli_args(workload: str, scale: str, inputs: Path | None, out: Path, jobs: int = SWEEP_JOBS):
    """Arguments to `rrgas` for one invocation writing into `out`."""
    if workload == "mms-trig":
        return ["mms", "trig", "--levels", str(SIZES[scale][workload]["levels"])]
    if workload == "sweep-jobs2":
        return ["sweep", str(inputs), "--out", str(out), "--jobs", str(jobs)]
    return ["run", str(inputs), "--out", str(out)]
