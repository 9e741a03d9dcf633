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
`rrgas run` hands every snapshot to its helper process where
workers.may_fork; the reacting config is also run as on a platform that
cannot fork, on one CPU and without os.sched_getaffinity, where every
snapshot is written inline, against the same hashes, and so is the
shipped sweep at two jobs without fork, whose chunks then run in turn.
A change that keeps every output bit (a speed-up, a refactor) leaves
these hashes alone; a change that moves bits on purpose has to say
which bits moved and why, and recapture the hashes.  They were captured with numpy 2.4
on x86-64; another numpy build or CPU can move the last bit of a
transcendental function, which would show here first.
"""

import hashlib
import os

import pytest
from conftest import cpus

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
        "c6a1d40da194bb44006b97b13d14c9945ac7cc96a044dab0fbffd6d9ce3d922b",
        "422ce4a1716e346c74da0c9cbd4c7836ebe385a8ed757a40845b3b8111c72953",
    ),
    "reacting": (
        "6e7326523f7d5abb6358661220ecc8f1d592200b22df6acf289a12302eab0922",
        "28242d81ffefe27841b4f8f0c2d1de09f7cb9d062ad0d7cf4bc8e1c5a37765f8",
    ),
    "reference": (
        "94186c76202f3d2792233b9ac045f7a6bff8d3ec7e5de02b39bd909d76284130",
        "fc29cc9302088f3b71fc8e979b744e80775d8efacb03804aafa17ddfc1acc9eb",
    ),
}

# configs/reacting.ini at LARGE_RUN = (n_cells, t_end): 51 steps, seven
# snapshots
LARGE_RUN = (4096, 0.002)
LARGE_GOLDEN = (
    "ccec5418ff7cbb7b14e9970e6204d875007eb3841e131c27a02be5907a0893a0",
    "b9fa16b2ec0f74197edc9c9dd3b41582bae172a58a0061dc3e14aff06fbc5c45",
)

# configs/reacting.ini at MID_RUN = (n_cells, t_end): 25 steps, snapshots
# 0, 10, 20 and the last one, 25.  Every other pinned grid is a power of
# two; here dx = 0.001 is inexact, so a rewrite that reorders arithmetic
# with dx (a division turned into a multiplication by 1/dx) shows.
MID_RUN = (1000, 0.004)
MID_GOLDEN = (
    "195ebe89f3620c1d51033d8b80b49d2d75d6ee83fcd6466125a1171ef2e1e85c",
    "5aa0bd3b9c8afd39cd87f2ef8fc1961bbd1f7b0069b7428d682f5df97e381c10",
)

# configs/reacting.ini to t_end = 0.05 (35 steps, five snapshots) at the
# two ends of the paper's conductivity range that no shipped config uses:
# (q_cond, cond_model) -> (diagnostics.csv, snapshots) SHA-256
CONDUCTIVITY_GOLDEN = {
    ("0.0", "A"): (
        "d62238a6345750f56052b5ec79bb61bc7b6c04d5b1790a6c814557a3b30e4f6d",
        "f6c3291c5a87870eb689e673a15d55361976a17782f6804af745b3ff4a1678eb",
    ),
    ("0.5", "B"): (
        "806ca629b1395cfac996b84e14af68764f599d722f83947ecb7285bc927076f0",
        "6e7af7e87d1fe0a91875326e0b9e87902f24de21f40d3de7efd0afd7fff4fc60",
    ),
}


# MMS case -> SHA-256 of the final v, u, theta, z bytes of run_mms
# at MMS_RUN = (n_cells, t_end, n_steps)
MMS_RUN = (32, 0.1, 40)
MMS_GOLDEN = {
    "tanh": "7137c3d0c93ca33b660713aba7784966ca6323766fa141d1e1e2a96b344b0894",
    "trig": "ea50ec32fe131399976833efca6db3572a5874a4d8cf66a12115477361785cbb",
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
    "tanh": "64cd7964fb054e26e5d578a6472e091a2974efd1b17c89e2d336980fe5f9cae1",
    "trig": "80f306bd16d857f312d8affa1116c10c09545f5787824005fe5720da5a10c0d3",
}


# MMS case -> SHA-256 of the stdout of `rrgas mms <case> --levels 2`,
# formatted by cli.mms_table
MMS_STDOUT_GOLDEN = {
    "tanh": "472c3860db819041cb0a6c807343f1e59329790b89d9fecac936033ab9f380d2",
    "trig": "507287a94c353763a92a3019221da488e74bacdb6138810702b02ab1d787a634",
}


# MMS case -> SHA-256 of the stdout of `rrgas mms <case> --levels 3`,
# the command the benchmark runs, formatted by cli.mms_table
MMS_STDOUT_L3_GOLDEN = {
    "tanh": "267887a8d1413d8a2fde0c6e9e620b8b0724d7687a4912a61d972e749e883e82",
    "trig": "dbf0d188cdfa8a4733c0cfbb1b68efa08284c67b8b930ef99fab97acedca24b6",
}


# SHA-256 of summary.csv for configs/sweep_example.ini, any --jobs
SWEEP_GOLDEN = "671df92ef531e841136df64770e04eff727491fff171ba426b47a55935a8228e"


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


@pytest.mark.parametrize("host", ["one CPU", "no sched_getaffinity"])
def test_reacting_outputs_on_one_cpu_are_byte_identical(host, configs_dir, tmp_path, monkeypatch,
                                                        forks):
    # On one CPU, or where the process cannot tell how many it has (as
    # on macOS), `rrgas run` starts no helper and writes every snapshot
    # inline, with the bytes the helper writes.
    if host == "one CPU":
        cpus(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
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
