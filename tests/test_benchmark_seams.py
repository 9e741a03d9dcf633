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
import sys
from pathlib import Path

import pytest
from conftest import cpus
from test_golden_outputs import LARGE_RUN

import rrgas.cli
import rrgas.constitutive
import rrgas.diagnostics
import rrgas.mms
import rrgas.output
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
REACTING_COUNTS = (116, 526, 295)

# Python function calls per accepted step (sys.setprofile "call"
# events, numpy's Python-level wrappers included), upper bounds:
# configs/reacting.ini to t = 0.05, the same at LARGE_RUN (one state per
# diagnostics block), and run_mms(trig, 64 cells, t_end 0.1, 40 steps).
# Unlike a time, a count does not move with the host, so it shows added
# per-step work at once; a rise needs a measured reason in CHANGES.md.
CALLS_PER_STEP = {"reacting": 82.26, "large": 83.12, "mms": 56.4}

# Calls of each constitutive law per accepted step, counted as
# CALLS_PER_STEP is, upper bounds: configs/reacting.ini to t = 0.05
# (35 steps, 128 cells) and at LARGE_RUN (51 steps, 4096 cells), where
# each diagnostics row is a block of its own.  Every accepted level's
# laws are evaluated once and carried to the next step, cfl_dt and
# record; the leftovers are the first state's and Newton's iterates.
LAWS = ("reaction_rate", "internal_energy", "pressure", "heat_conductivity")
LAW_CALLS_PER_STEP = {
    "reacting": {"reaction_rate": 2.058, "internal_energy": 0.058, "pressure": 0.0,
                 "heat_conductivity": 4.372},
    "large": {"reaction_rate": 2.04, "internal_energy": 0.04, "pressure": 0.0,
              "heat_conductivity": 2.1},
}


# Messages the run writer (output.RunWriter) sends per `rrgas run` of
# configs/reacting.ini as shipped (128 cells, 116 steps), an upper
# bound.  Its 13 snapshot tables and 117 diagnostics rows ride together
# in messages of about mesh.BLOCK_VALUES values; a pipe send costs
# about as much as formatting a small table, so a return to one message
# per table or per row block would show here first.
WRITER_MESSAGES = {"reacting": 3}
REACTING_TABLES = 13  # snapshots 0, 10, ..., 110 and the last, 116


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


def calls_per_step(run):
    """Python function calls per accepted step of run(), which returns
    its step count; a first, uncounted run fills every cache."""
    run()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        steps = run()
    finally:
        sys.setprofile(None)
    return calls / steps


def test_a_step_makes_no_more_python_calls_than_pinned(configs_dir):
    counted = {}
    for name, (n_cells, t_end) in {"reacting": (128, 0.05), "large": LARGE_RUN}.items():
        config = load_config(configs_dir / "reacting.ini")
        config.n_cells, config.t_end = n_cells, t_end
        state = init_state(config)
        counted[name] = calls_per_step(lambda: run_simulation(config, state=state).n_steps)
    case = CASES["trig"]()
    counted["mms"] = calls_per_step(lambda: len(run_mms(case, 64, 0.1, [40])) * 40)
    for name, count in counted.items():
        assert count <= CALLS_PER_STEP[name], (name, count)


def law_calls_per_step(run):
    """Calls of each of LAWS per accepted step of run(), which returns
    its step count; a first, uncounted run fills every cache."""
    run()
    calls = dict.fromkeys(LAWS, 0)
    home = rrgas.constitutive.__file__

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == home and frame.f_code.co_name in calls:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        steps = run()
    finally:
        sys.setprofile(None)
    return {name: n / steps for name, n in calls.items()}


def test_a_step_evaluates_each_law_no_more_than_pinned(configs_dir):
    runs = {"reacting": (128, 0.05), "large": LARGE_RUN}
    for name, (n_cells, t_end) in runs.items():
        config = load_config(configs_dir / "reacting.ini")
        config.n_cells, config.t_end = n_cells, t_end
        state = init_state(config)
        counted = law_calls_per_step(lambda: run_simulation(config, state=state).n_steps)
        for law, bound in LAW_CALLS_PER_STEP[name].items():
            assert counted[law] <= bound, (name, law, counted[law])


def test_only_a_recorded_run_forms_balance_sums(configs_dir, tmp_path, monkeypatch):
    # The species balance sums are formed by diagnostics.record, so the
    # fixed-dt studies and the sweep, which record no rows, never pay
    # for them.
    quadratures = rrgas.diagnostics._species_quadratures
    formed = []

    def counted(*args):
        formed.append(None)
        return quadratures(*args)

    monkeypatch.setattr(rrgas.diagnostics, "_species_quadratures", counted)
    run_mms(CASES["trig"](), 8, 0.01, [2, 3])
    manifest = tmp_path / "sweep.ini"
    text = (configs_dir / "sweep_example.ini").read_text()
    manifest.write_text(text.replace("n_cells = 64", "n_cells = 16")
                        .replace("t_end = 0.1", "t_end = 0.01"))
    rows, _ = rrgas.sweep.run_sweep(manifest, tmp_path / "sweep", jobs=1)
    assert len(rows) == 6 and all(row.error == "" for row in rows)
    assert formed == []
    config = load_config(configs_dir / "reacting.ini")
    config.t_end = 0.01
    run_simulation(config)
    assert formed  # the counter sees record's sums


@pytest.mark.parametrize("n_cpus", [2, 1], ids=["forked", "inline"])
def test_run_writer_sends_no_more_messages_than_pinned(n_cpus, configs_dir, tmp_path,
                                                       monkeypatch):
    # Forked, a message is a send to the helper; inline, a write in
    # process.  Both come from the same queue, so they count alike.
    cpus(monkeypatch, n_cpus)
    messages = []
    for owner, attr in ((rrgas.output.RunWriter, "_send"), (rrgas.output, "_write_message")):
        write = getattr(owner, attr)

        def counted(*args, write=write):
            messages.append(None)
            return write(*args)

        monkeypatch.setattr(owner, attr, counted)
    out = tmp_path / "out"
    assert rrgas.cli.main(["run", str(configs_dir / "reacting.ini"), "--out", str(out)]) == 0
    assert len(list(out.glob("snapshot_*.csv"))) == REACTING_TABLES
    assert len(messages) <= WRITER_MESSAGES["reacting"] < REACTING_TABLES, len(messages)
