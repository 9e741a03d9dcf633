import contextlib
import multiprocessing
import os
import pathlib
import signal

import numpy as np
import pytest

import rrgas.solver
from rrgas.config import load_config
from rrgas.constitutive import heat_conductivity, internal_energy, reaction_rate
from rrgas.diagnostics import (
    DiagnosticsRecord,
    _dissipation_V,
    _entropy_U,
    _total_energy,
    _z_squared_norm,
)
from rrgas.mesh import velocity_mean, width
from rrgas.mms import CASES, studies
from rrgas.solver import species_interface_coeff

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
    """Builds one state's diagnostics row from the functional kernels on
    its own 1-D fields: the reference that rows built by record over a
    stacked (K, N) block must equal."""

    def build(state, params, dt, z_diff, z_react):
        u, v, theta, z, dx = state.u, state.v, state.theta, state.z, state.grid.dx
        return DiagnosticsRecord(
            t=state.t,
            dt=dt,
            e_total=float(_total_energy(u, v, internal_energy(v, theta, params), z, state.grid,
                                        params)),
            u_entropy=float(_entropy_U(v, theta, dx, params)),
            v_dissipation=float(_dissipation_V(
                u, v, theta, reaction_rate(v, theta, params), np.power(z, params.m_order),
                heat_conductivity(v, theta, params), dx, params)),
            z_l2=float(_z_squared_norm(z, dx)),
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


@pytest.fixture
def step_quadratures():
    """The species gradient and reaction quadratures of one step, from
    the state before it to the state after it, as floats: the per-step
    formula on 1-D fields, with the coefficients species_step freezes
    (the interface coefficient at the new v, the decay
    phi(v_new, theta_old)*z_old^(m-1)).  Their running sums are the
    reference for the accumulators of record's rows."""

    def quadratures(before, after, dt, params):
        dx = after.grid.dx
        g = species_interface_coeff(after.v, params)
        grad = (after.z[1:] - after.z[:-1]) / dx
        decay = reaction_rate(after.v, before.theta, params) * np.power(
            before.z, params.m_order - 1.0)
        return (float(dt * (g * grad * grad).sum(axis=-1) * dx),
                float(dt * (decay * after.z * after.z).sum(axis=-1) * dx))

    return quadratures


@pytest.fixture
def reject_every_step(monkeypatch):
    """Call it to have every volume update rejected at the volume floor,
    so every step spends its retries and the run fails at t = 0.  It
    stands in for an impossible v_floor, which init_state refuses as
    a configuration error; a worker forked after the call inherits
    it."""

    def volume_floor(state, dt, config, s_v=None):
        raise rrgas.solver.StepRejection("volume_floor")

    return lambda: monkeypatch.setattr(rrgas.solver, "volume_step", volume_floor)


@pytest.fixture(scope="session")
def mms_studies():
    """((rows, orders), (rows, diffs, orders)) of a case's spatial and
    temporal studies at 3 levels, computed once per case and session by
    mms.studies, as `rrgas mms` computes them: on two CPUs, the temporal
    study in a forked worker beside the spatial study.  Acceptance
    criterion 5, the golden temporal hash and the golden `rrgas mms`
    tables at 2 and 3 levels share them."""
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


def cpus(monkeypatch, n):
    """Make os.sched_getaffinity give this process n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@contextlib.contextmanager
def within(seconds):
    """Raises TimeoutError in the block if it runs longer than seconds."""

    def timeout(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
