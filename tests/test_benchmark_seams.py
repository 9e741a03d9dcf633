"""The names perfbench's traced mode wraps still exist and are still reached.

perfbench/tracer.py replaces module attributes and MmsCase methods by
name.  A rename in rrgas would make it fail, or (for the MMS sources)
leave a metric that silently reads 0; perfbench's own self-test is not
part of this suite, so the seams are checked here.
"""

import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import pytest

import rrgas.mms
import rrgas.solver
import rrgas.sweep
from rrgas.config import init_state, load_config
from rrgas.driver import run_simulation
from rrgas.mms import CASES, MmsCase, run_mms, studies

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# (module, attribute) the tracer wraps by name besides every public
# function: solveh_banded is rrgas's own tridiagonal solve, counted as
# solver.banded_solve
WRAPPED = [(rrgas.solver, "solveh_banded"), (rrgas.solver, "step"), (rrgas.sweep, "run_one")]

# configs/reacting.ini as shipped: (accepted steps, tridiagonal solves,
# Newton iterations), the counts behind solver.banded_solves_per_step
# and solver.newton_iters_per_step
REACTING_COUNTS = (116, 632, 401)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", WRAPPED, ids=lambda x: getattr(x, "__name__", x))
def test_every_name_the_tracer_wraps_exists(tracer, module, attr):
    assert attr in inspect.getsource(tracer)  # still the tracer's seam
    assert callable(getattr(module, attr))


def test_every_mms_source_the_tracer_wraps_exists(tracer):
    assert tracer.MMS_SOURCES
    for attr in tracer.MMS_SOURCES:
        assert inspect.isfunction(getattr(MmsCase, attr)), attr


def test_run_mms_reaches_every_source_the_tracer_wraps(tracer, monkeypatch):
    # Otherwise mms.sources.us_per_step would read 0 on mms-trig.
    calls = dict.fromkeys(tracer.MMS_SOURCES, 0)
    for attr in tracer.MMS_SOURCES:
        fn = getattr(MmsCase, attr)

        def counted(self, x, t, fn=fn, attr=attr):
            calls[attr] += 1
            return fn(self, x, t)

        monkeypatch.setattr(MmsCase, attr, counted)
    run_mms(CASES["trig"](), 8, 0.01, [2, 3])
    assert all(calls.values()), calls


def step_calls(tracer, monkeypatch):
    """The calls of solver.step in this process, wrapped wherever rrgas
    binds it, as the tracer wraps it."""
    step = rrgas.solver.step
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return step(*args, **kwargs)

    for layer in tracer.LAYERS:
        module = importlib.import_module(f"rrgas.{layer}")
        for attr, obj in list(vars(module).items()):
            if obj is step:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_run_mms_calls_the_step_the_tracer_counts(tracer, monkeypatch):
    # The tracer wraps solver.step wherever rrgas binds it, and every
    # per-step figure divides by its calls; on mms-trig they must not
    # read 0 when the loop runs as batches.
    calls = step_calls(tracer, monkeypatch)
    run_mms(CASES["trig"](), 8, 0.01, [2, 3])
    assert calls


def test_studies_steps_in_the_calling_process(tracer, monkeypatch, forks):
    # The tracer sees only the process it runs in, and studies runs the
    # temporal study in a forked worker: the spatial study's steps, in
    # the calling process, are the solver.step calls a traced mms-trig
    # counts.
    calls = step_calls(tracer, monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(rrgas.mms, "_spatial_jobs", lambda levels: [(8, 0.01, 2), (16, 0.01, 8)])
    monkeypatch.setattr(rrgas.mms, "_temporal_jobs", lambda levels: [(16, 0.01, 4), (16, 0.01, 8)])
    studies(CASES["trig"](), 2)
    assert len(forks) == 1
    assert len(calls) == 2 + 8  # every spatial step, none of the worker's


def test_reacting_run_makes_the_pinned_solves_and_newton_iterations(configs_dir, monkeypatch):
    # A change that keeps every output bit may still add or drop solves;
    # these counts hold it to the work the benchmark's per-step rates read.
    solve = rrgas.solver.solveh_banded
    solves = []

    def counted(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(rrgas.solver, "solveh_banded", counted)
    iterations = []
    result = run_simulation(load_config(configs_dir / "reacting.ini"),
                            on_step=lambda state, report, n: iterations.append(
                                report.newton_iterations))
    assert result.completed
    assert (result.n_steps, len(solves), sum(iterations)) == REACTING_COUNTS


@pytest.mark.parametrize("dt", [None, 1e-3], ids=["cfl", "pinned"])
def test_step_reports_plain_python_numbers(configs_dir, dt):
    # The tracer sums newton_iterations and rejections of solver.step's
    # reports into its JSON summary, which a numpy scalar would break.
    config = load_config(configs_dir / "reacting.ini")
    _, report = rrgas.solver.step(init_state(config), config, dt=dt)
    fields = vars(report)
    assert {name: type(value) for name, value in fields.items()
            if type(value) not in (int, float)} == {}
    json.dumps(fields)
