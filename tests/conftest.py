import multiprocessing
import pathlib

import pytest

from rrgas.config import load_config
from rrgas.diagnostics import (
    DiagnosticsRecord,
    dissipation_V,
    entropy_U,
    total_energy,
    z_squared_norm,
)
from rrgas.mesh import velocity_mean, width
from rrgas.mms import CASES, studies

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"


@pytest.fixture
def configs_dir():
    return CONFIGS_DIR


@pytest.fixture
def shipped_config():
    """Loader for the example configurations shipped with the package."""

    def load(name):
        return load_config(CONFIGS_DIR / f"{name}.ini")

    return load


@pytest.fixture
def per_state_row():
    """Builds one state's diagnostics row from the per-state functionals:
    the reference that rows built for a block of states must equal."""

    def build(state, params, dt, z_diff, z_react):
        return DiagnosticsRecord(
            t=state.t,
            dt=dt,
            e_total=total_energy(state, params),
            u_entropy=entropy_U(state, params),
            v_dissipation=dissipation_V(state, params),
            z_l2=z_squared_norm(state),
            z_diff_accum=z_diff,
            z_react_accum=z_react,
            width=width(state),
            min_v=float(state.v.min()),
            min_theta=float(state.theta.min()),
            min_z=float(state.z.min()),
            max_z=float(state.z.max()),
            momentum=velocity_mean(state),
        )

    return build


@pytest.fixture(scope="session")
def mms_studies():
    """((rows, orders), (rows, diffs, orders)) of a case's spatial and
    temporal studies at 3 levels, computed once per case and session by
    mms.studies, as `rrgas mms` computes them: acceptance criterion 5,
    the golden temporal hash and the golden `rrgas mms` tables at 2 and
    3 levels share them."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = studies(CASES[name](), levels=3)
        return results[name]

    return run


@pytest.fixture
def forks(monkeypatch):
    """The processes started through the fork context during the test."""
    started = []
    real_start = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return started


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fails a test that leaves a child process running (a snapshot
    writer or a sweep worker that was never joined)."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert not leaked, f"child processes left running: {leaked}"
