"""Byte-exact outputs of the shipped configurations and the sourced path.

Each shipped config is run through the CLI and its diagnostics.csv and
snapshot files are hashed, and so is the summary of the shipped
sweep at one and at two jobs.  The shipped configs all use conductivity
model A and no sources, so the final states of two small manufactured-
solution runs (trig: model A; tanh: model B, reaction and gravity) are
hashed too, and so is the stdout of `rrgas mms` at two levels, whose
runs span several source blocks and the temporal study's longer
step counts.  The full-size temporal study (three members stepped as
one batch) is hashed to every digit of its errors and differences, and
the explicit reference integrator's final state, which shares the IMEX
step's stencils, is hashed as the MMS final states are.  The shipped configs have at most 128 cells, so their
snapshots are written inline; a 4096-cell reacting run pins the
snapshots that `rrgas run` hands to its helper process.  A change that keeps every output bit (a
speed-up, a refactor) leaves these hashes alone; a change that moves
bits on purpose has to say which bits moved and why, and recapture the
hashes.  They were captured with numpy 2.4 on x86-64; another numpy
build or CPU can move the last bit of a transcendental function, which
would show here first.
"""

import hashlib

import pytest

from rrgas.cli import EXIT_OK, main
from rrgas.config import init_state, load_config
from rrgas.explicit import run_explicit
from rrgas.mms import CASES, FIELD_NAMES, run_mms
from rrgas.output import _OFFLOAD_ROWS

# config name -> (SHA-256 of diagnostics.csv, SHA-256 of the snapshots)
GOLDEN = {
    "equilibrium": (
        "529166d97cb51108adcbda01ff881a9352598931d0a867fc560e61e4fb1e0bd6",
        "0ae49f3ebc3064d43df7f67699ed7c652853df370794da1ff7bdd38af6312b86",
    ),
    "expansion": (
        "117a914ac9bbae4ded8a17b10b872b33fb6f85f7f3a6a8cf45a7644646bc87f3",
        "44835a7acc80a13c5cfb3b3dcda61b7b2959b7355c475ed7ecd3a64c66aa20cc",
    ),
    "reacting": (
        "266274ac30415f73ef40499a98c195d6bd92025f741c013f2547b7eee19bb060",
        "c8e5ce6ffeb84ed9a2f96d55889a327fc83cb5192393e3d16484d62e0c5768cc",
    ),
    "reference": (
        "36f123e1def5d7e39973a53b3d49b3c4f7f42cbc7afd45032caf9879188e7943",
        "a6ba7056671f40ba60417b9f83d604459027d4205cf8714786567a95b20569da",
    ),
}

# configs/reacting.ini at LARGE_RUN = (n_cells, t_end): 51 steps, seven
# snapshots, each above output._OFFLOAD_ROWS rows
LARGE_RUN = (4096, 0.002)
LARGE_GOLDEN = (
    "affdd92195dd7d8f73c990089759506e3bb2b34de146204cfb6aa44eb6f60a5e",
    "824c65e8f650288a8b7f0be574dd2c0343bb90d777143a885d81e4d1aba36ef1",
)


# MMS case -> SHA-256 of the final v, u, theta, z bytes of run_mms
# at MMS_RUN = (n_cells, t_end, n_steps)
MMS_RUN = (32, 0.1, 40)
MMS_GOLDEN = {
    "tanh": "15f78f9e2bbcbac466d842902bf265196922eb04566e522a26f5f91860f15275",
    "trig": "ff2d53b1609b61cfda5836014f693129eecb570c6e6718f8f41133378abd2b96",
}


# SHA-256 of the final v, u, theta, z bytes of run_explicit from
# configs/reference.ini's initial state, EXPLICIT_RUN = (dt, n_steps)
EXPLICIT_RUN = (0.05 / 800, 100)
EXPLICIT_GOLDEN = "5dce9158c8956ef4d6f9385d2316ebff2c61973d4f8910743f16c0fe99159927"


# MMS case -> SHA-256 of the repr of every float of its temporal study
# at 3 levels: the errors of each row, then the successive differences
TEMPORAL_GOLDEN = {
    "tanh": "75134eec6c2d33f4b92088626ef13942d21a964775142968ef188623b97cba42",
    "trig": "91f86f5f923193afef61be08d6abb97e56f83ef3f17c81dc4b8362237c08eb1f",
}


# MMS case -> SHA-256 of the stdout of `rrgas mms <case> --levels 2`
MMS_STDOUT_GOLDEN = {
    "tanh": "55fa719eb005cf996d75377b5450535ec175f0f2bd4633d0f4092f4e56edde22",
    "trig": "f760f921394304e55218c1073a330bf22c1cd17999083e545cca84840771deb6",
}


# SHA-256 of summary.csv for configs/sweep_example.ini, any --jobs
SWEEP_GOLDEN = "19a2abb5949e8cb8f852aaaf5d1171812206e0d21181826aa09a1d09f676cb10"


def snapshots_digest(out):
    """One hash over every snapshot, each as its file name, a newline, its bytes."""
    h = hashlib.sha256()
    for path in sorted(out.glob("snapshot_*.csv")):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_outputs_are_byte_identical(name, configs_dir, tmp_path):
    out = tmp_path / name
    assert main(["run", str(configs_dir / f"{name}.ini"), "--out", str(out)]) == EXIT_OK
    diagnostics, snapshots = GOLDEN[name]
    assert hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest() == diagnostics
    assert snapshots_digest(out) == snapshots


def test_large_reacting_outputs_are_byte_identical(configs_dir, tmp_path):
    n_cells, t_end = LARGE_RUN
    assert n_cells > _OFFLOAD_ROWS
    text = (configs_dir / "reacting.ini").read_text()
    ini = tmp_path / "large.ini"
    ini.write_text(text.replace("n_cells = 128", f"n_cells = {n_cells}")
                   .replace("t_end = 0.2", f"t_end = {t_end}"))
    out = tmp_path / "large"
    assert main(["run", str(ini), "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("snapshot_*.csv"))) == 7
    diagnostics, snapshots = LARGE_GOLDEN
    assert hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest() == diagnostics
    assert snapshots_digest(out) == snapshots


@pytest.mark.parametrize("name", sorted(MMS_GOLDEN))
def test_mms_final_state_is_byte_identical(name):
    _, state = run_mms(CASES[name](), *MMS_RUN)
    h = hashlib.sha256()
    for field in (state.v, state.u, state.theta, state.z):
        h.update(field.tobytes())
    assert h.hexdigest() == MMS_GOLDEN[name]


def test_explicit_final_state_is_byte_identical(configs_dir):
    # The explicit integrator shares the stress, gravity and diffusion
    # stencils and both interface coefficients with the IMEX step.
    config = load_config(configs_dir / "reference.ini")
    dt, n_steps = EXPLICIT_RUN
    state = run_explicit(init_state(config), dt, n_steps, config.params)
    h = hashlib.sha256()
    for field in (state.v, state.u, state.theta, state.z):
        h.update(field.tobytes())
    assert h.hexdigest() == EXPLICIT_GOLDEN


@pytest.mark.parametrize("name", sorted(TEMPORAL_GOLDEN))
def test_mms_temporal_study_is_byte_identical(name, mms_studies):
    _, (rows, diffs, _) = mms_studies(name)
    assert [row["n_steps"] for row in rows] == [512, 1024, 2048]
    h = hashlib.sha256()
    for row in rows:
        for field in FIELD_NAMES:
            for value in row["errors"][field]:
                h.update(repr(value).encode() + b"\n")
    for diff in diffs:
        for field in FIELD_NAMES:
            h.update(repr(diff[field]).encode() + b"\n")
    assert h.hexdigest() == TEMPORAL_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MMS_STDOUT_GOLDEN))
def test_mms_table_is_byte_identical(name, mms_table):
    code, out = mms_table(name)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == MMS_STDOUT_GOLDEN[name]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_summary_is_byte_identical(jobs, configs_dir, tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", str(configs_dir / "sweep_example.ini"), "--out", str(out),
            "--jobs", str(jobs)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN
