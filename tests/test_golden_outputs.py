"""Byte-exact outputs of the shipped configurations and the sourced path.

Each shipped config is run through the CLI and its diagnostics.csv and
snapshot files are hashed, and so is the summary of the shipped
sweep at one and at two jobs.  The shipped configs all use conductivity
model A and no sources, so the final states of two small manufactured-
solution runs (trig: model A; tanh: model B, reaction and gravity) are
hashed too, and so is the `rrgas mms` table at two levels, formatted
from the first two levels of the full-size studies, whose runs span
several source blocks and the temporal study's longer step counts, and
at three levels, the table the benchmark prints.  The
full-size temporal study (three members stepped as one batch) is
hashed to every digit of its errors and differences, and the explicit
reference integrator's final state, which steps with the semi-discrete
operator solver.rates, is hashed as the MMS final states are, unsourced
and with each case's sources.  The shipped configs have power-of-two
grids of at most 128 cells; the reacting scenario is also pinned at
1000 cells, a grid whose dx is not exact in binary, and at 4096 cells,
and at q_cond = 0 (model A) and 1/2 (model B): every shipped config and
MMS case has q_cond = 2.
`rrgas run` hands every snapshot to its helper process; the reacting
config is also run as on a platform that cannot fork, where every
snapshot is written inline, against the same hashes, and so is the
shipped sweep at two jobs, whose chunks then run in turn.  A change that
keeps every output bit (a speed-up, a refactor) leaves these hashes
alone; a change that moves bits on purpose has to say which bits moved
and why, and recapture the hashes.  They were captured with numpy 2.4
on x86-64; another numpy build or CPU can move the last bit of a
transcendental function, which would show here first.
"""

import hashlib

import pytest

import rrgas.workers
from rrgas.cli import EXIT_OK, main, mms_table
from rrgas.config import init_state, load_config
from rrgas.explicit import run_explicit
from rrgas.mms import CASES, FIELD_NAMES, run_mms

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
# snapshots
LARGE_RUN = (4096, 0.002)
LARGE_GOLDEN = (
    "affdd92195dd7d8f73c990089759506e3bb2b34de146204cfb6aa44eb6f60a5e",
    "824c65e8f650288a8b7f0be574dd2c0343bb90d777143a885d81e4d1aba36ef1",
)

# configs/reacting.ini at MID_RUN = (n_cells, t_end): 25 steps, snapshots
# 0, 10, 20 and the last one, 25.  Every other pinned grid is a power of
# two; here dx = 0.001 is inexact, so a rewrite that reorders arithmetic
# with dx (a division turned into a multiplication by 1/dx) shows.
MID_RUN = (1000, 0.004)
MID_GOLDEN = (
    "12f5b4aaf1d5cd70be418dd083782bef6c1e61c6a5966c73bc990d1954a9496e",
    "6e22920d44bc72eb46524ede8b2fcd67f4e2d5aef6a7d9b1e8d826e8125eefa0",
)

# configs/reacting.ini to t_end = 0.05 (35 steps, five snapshots) at the
# two ends of the paper's conductivity range that no shipped config uses:
# (q_cond, cond_model) -> (diagnostics.csv, snapshots) SHA-256
CONDUCTIVITY_GOLDEN = {
    ("0.0", "A"): (
        "e8a70b82aeddf38985526842db692b5f7f848e5c25e1f6f86bc2aee4e62bae3e",
        "a4fb6612443c5cadb193516dca896fcd9c0f76698b015c8ef23f61b44be4201a",
    ),
    ("0.5", "B"): (
        "2eeda03b4d29364008a7dc8bd7d30c946b94f388021bd1d634331b613e6b3dd3",
        "9c0a633deeb82d83f78f375f55ffdf54dc032b731ee9d2dbf141e2ec3e96c57b",
    ),
}


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

# MMS case -> SHA-256 of the final v, u, theta, z bytes of run_explicit
# with the case's sources from its initial state on SOURCED_EXPLICIT_RUN
# = (n_cells, dt, n_steps)
SOURCED_EXPLICIT_RUN = (32, 1e-5, 50)
SOURCED_EXPLICIT_GOLDEN = {
    "tanh": "22b78f42c483632515d0fae4708b494fdcebd8782c003b8f17cc9a13e6f0f5b9",
    "trig": "7f82d300444fdf4a87052d328d80cae919136d19df6b6ffe92691d9a4a9a14cc",
}


# MMS case -> SHA-256 of the repr of every float of its temporal study
# at 3 levels: the errors of each row, then the successive differences
TEMPORAL_GOLDEN = {
    "tanh": "75134eec6c2d33f4b92088626ef13942d21a964775142968ef188623b97cba42",
    "trig": "91f86f5f923193afef61be08d6abb97e56f83ef3f17c81dc4b8362237c08eb1f",
}


# MMS case -> SHA-256 of the stdout of `rrgas mms <case> --levels 2`,
# formatted by cli.mms_table
MMS_STDOUT_GOLDEN = {
    "tanh": "55fa719eb005cf996d75377b5450535ec175f0f2bd4633d0f4092f4e56edde22",
    "trig": "f760f921394304e55218c1073a330bf22c1cd17999083e545cca84840771deb6",
}


# MMS case -> SHA-256 of the stdout of `rrgas mms <case> --levels 3`,
# the command the benchmark runs, formatted by cli.mms_table
MMS_STDOUT_L3_GOLDEN = {
    "tanh": "6ae22958d97faaf993b3991c49e4083304100f2405fa0fb4381837b7bac94bd6",
    "trig": "62e70ac9165608f1e59e0e608f07933786c70a607075b70db192ac189c9afd9a",
}


# SHA-256 of summary.csv for configs/sweep_example.ini, any --jobs
SWEEP_GOLDEN = "19a2abb5949e8cb8f852aaaf5d1171812206e0d21181826aa09a1d09f676cb10"


def state_digest(state):
    """SHA-256 of a state's v, u, theta and z bytes, in that order."""
    h = hashlib.sha256()
    for field in (state.v, state.u, state.theta, state.z):
        h.update(field.tobytes())
    return h.hexdigest()


def snapshots_digest(out):
    """One hash over every snapshot, each as its file name, a newline, its bytes."""
    h = hashlib.sha256()
    for path in sorted(out.glob("snapshot_*.csv")):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def run_digests(ini, out):
    """`rrgas run` on ini into out: (SHA-256 of diagnostics.csv, snapshots_digest)."""
    assert main(["run", str(ini), "--out", str(out)]) == EXIT_OK
    diagnostics = hashlib.sha256((out / "diagnostics.csv").read_bytes()).hexdigest()
    return diagnostics, snapshots_digest(out)


def resized_reacting(configs_dir, tmp_path, n_cells, t_end):
    """configs/reacting.ini at another size and end time."""
    text = (configs_dir / "reacting.ini").read_text()
    ini = tmp_path / f"reacting_{n_cells}.ini"
    ini.write_text(text.replace("n_cells = 128", f"n_cells = {n_cells}")
                   .replace("t_end = 0.2", f"t_end = {t_end}"))
    return ini


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_config_outputs_are_byte_identical(name, configs_dir, tmp_path):
    assert run_digests(configs_dir / f"{name}.ini", tmp_path / name) == GOLDEN[name]


def test_reacting_outputs_without_fork_are_byte_identical(configs_dir, tmp_path, monkeypatch,
                                                          forks):
    # Where the platform cannot fork, `rrgas run` writes every snapshot
    # inline, with the bytes the helper process writes.
    monkeypatch.setattr(rrgas.workers, "CAN_FORK", False)
    out = tmp_path / "reacting"
    assert run_digests(configs_dir / "reacting.ini", out) == GOLDEN["reacting"]
    assert forks == []


def test_large_reacting_outputs_are_byte_identical(configs_dir, tmp_path):
    out = tmp_path / "large"
    assert run_digests(resized_reacting(configs_dir, tmp_path, *LARGE_RUN), out) == LARGE_GOLDEN
    assert len(list(out.glob("snapshot_*.csv"))) == 7


def test_mid_size_reacting_outputs_are_byte_identical(configs_dir, tmp_path):
    out = tmp_path / "mid"
    assert run_digests(resized_reacting(configs_dir, tmp_path, *MID_RUN), out) == MID_GOLDEN
    assert [p.name for p in sorted(out.glob("snapshot_*.csv"))] == [
        f"snapshot_{i:06d}.csv" for i in (0, 10, 20, 25)
    ]


@pytest.mark.parametrize("q_cond,cond_model", sorted(CONDUCTIVITY_GOLDEN))
def test_conductivity_range_outputs_are_byte_identical(q_cond, cond_model, configs_dir, tmp_path):
    # q = 0 is a constant kappa (model A); q = 1/2 under model B scales
    # kappa2*theta^q by v.  Every shipped config and MMS case has q = 2.
    ini = resized_reacting(configs_dir, tmp_path, 128, 0.05)
    text = ini.read_text()
    assert "q_cond = 2.0" in text and "cond_model = A" in text
    ini.write_text(text.replace("q_cond = 2.0", f"q_cond = {q_cond}")
                   .replace("cond_model = A", f"cond_model = {cond_model}"))
    out = tmp_path / "out"
    assert run_digests(ini, out) == CONDUCTIVITY_GOLDEN[q_cond, cond_model]
    assert len(list(out.glob("snapshot_*.csv"))) == 5


@pytest.mark.parametrize("name", sorted(MMS_GOLDEN))
def test_mms_final_state_is_byte_identical(name):
    n_cells, t_end, n_steps = MMS_RUN
    [(_, state)] = run_mms(CASES[name](), n_cells, t_end, [n_steps])
    assert state_digest(state) == MMS_GOLDEN[name]


def test_explicit_final_state_is_byte_identical(configs_dir):
    # The explicit integrator steps with solver.rates, the right-hand
    # side whose stress, gravity and diffusion stencils and interface
    # coefficients the IMEX step uses too.
    config = load_config(configs_dir / "reference.ini")
    dt, n_steps = EXPLICIT_RUN
    state = run_explicit(init_state(config), dt, n_steps, config.params)
    assert state_digest(state) == EXPLICIT_GOLDEN


@pytest.mark.parametrize("name", sorted(SOURCED_EXPLICIT_GOLDEN))
def test_sourced_explicit_final_state_is_byte_identical(name):
    # The sourced path of solver.rates, which the MMS residual also takes.
    case = CASES[name]()
    n_cells, dt, n_steps = SOURCED_EXPLICIT_RUN
    state = case.initial_state(n_cells)
    state = run_explicit(state, dt, n_steps, case.params, case.sources(state.grid))
    assert state_digest(state) == SOURCED_EXPLICIT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TEMPORAL_GOLDEN))
def test_mms_temporal_levels_are_byte_identical(name, mms_studies):
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
def test_mms_table_is_byte_identical(name, mms_studies):
    # `rrgas mms --levels 2` prints the table of its studies' two levels,
    # which are the first two levels of the 3-level studies: the same
    # runs, each member of a batch with the bits of its own run.
    (rows, orders), (t_rows, _, t_orders) = mms_studies(name)
    out = mms_table(name, (rows[:2], orders), (t_rows[:2], t_orders))
    assert hashlib.sha256(out.encode()).hexdigest() == MMS_STDOUT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MMS_STDOUT_L3_GOLDEN))
def test_mms_table_at_three_levels_is_byte_identical(name, mms_studies):
    # The 256-cell spatial level (2560 steps) steps alone in the calling
    # process, the temporal study's 512, 1024 and 2048 as one batch on
    # the same grid in the worker.
    spatial, (rows, _, orders) = mms_studies(name)
    out = mms_table(name, spatial, (rows, orders))
    assert hashlib.sha256(out.encode()).hexdigest() == MMS_STDOUT_L3_GOLDEN[name]


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_summary_is_byte_identical(jobs, configs_dir, tmp_path):
    out = tmp_path / "sweep"
    argv = ["sweep", str(configs_dir / "sweep_example.ini"), "--out", str(out),
            "--jobs", str(jobs)]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN


def test_sweep_summary_without_fork_is_byte_identical(configs_dir, tmp_path, monkeypatch, forks):
    # Where the platform cannot fork, `--jobs 2` runs its chunks in turn
    # in the calling process.
    monkeypatch.setattr(rrgas.workers, "CAN_FORK", False)
    out = tmp_path / "sweep"
    argv = ["sweep", str(configs_dir / "sweep_example.ini"), "--out", str(out), "--jobs", "2"]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN
    assert forks == []
