"""Time loops and the scenario-level invariant check.

A time loop hands each step only the state to step from, which carries
what Newton's start point needs (mesh.State); a state stepped from is
freed, laws and all, once nothing else holds it.

run_simulation owns the adaptive time loop: init, step, record (a
block of states at a time, the species balance sums included), and
each block's rows to one sink.  It never raises for a failed
integration, nor for a violated scheme invariant; the result says how
far it got and why it stopped, so callers can still serialize the
partial trajectory.

run_batch owns the adaptive loop of a batch of runs that differ in
their physical constants only, as a sweep's members do: each member
steps at its own cfl_dt through solver.step_batch, one attempt per
step, and a member leaves at t_end.  A member the step rejects, every
member after an invariant violation, and the last one left step on
alone through run_simulation's own loop, where solver.step makes the
retries and every failure maps to its result.

run_fixed owns the fixed-dt loop of refinement ladders: it advances
the runs of several step counts as one batch on one grid
(solver.step_batch), and each member leaves after its last step with
the bits of its own run; the last member left steps on with
solver.step.  Every time level is known before the first step, so the
loop evaluates the sources, if any, a block of levels per call and
hands each step the rows of its level; a block ends where a member
leaves, and none is kept after it.  Each step is one attempt at its
pinned dt: a rejected step would end a run short of t_end, so run_fixed
stops there with a SimulationError.

check_scenario runs a configuration and grades every runtime-checkable
bound on the recorded trajectory.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat

import numpy as np

from .config import RunConfig, init_state
from .constitutive import PhysParams
from .diagnostics import record, z_balance_residual
from . import mesh
from .mesh import ConfigurationError, State, stack
from .solver import (
    DT_MIN,
    InvariantViolation,
    SimulationError,
    StepRejection,
    cfl_dt,
    step,
    step_batch,
)

# Regression thresholds for check_scenario, chosen with margin against
# the shipped scenarios at their default resolutions.
ENERGY_DRIFT_TOL = 2e-2
Z_BALANCE_TOL = 1e-3
UV_RUN_CAP = 1e3

# Accepted steps after which run_simulation stops a run as failed.
MAX_STEPS = 5_000_000

@dataclass
class RunResult:
    state: State
    records: list
    completed: bool
    error: str | None = None
    n_steps: int = 0


def run_simulation(
    config: RunConfig,
    *,
    state: State | None = None,
    on_step=None,
    sink=None,
) -> RunResult:
    """Integrate from t=0 to t_end, recording diagnostics every step.

    The run starts from `state`, if given, else from init_state(config);
    a caller that has already built the initial state passes it in.
    on_step(state, report, step_index) observes each accepted step.
    Rows are built a block of states at a time, so a hook must not
    change a state in place.  sink(rows) gets each block's rows (a
    list of DiagnosticsRecords), in step order; the default,
    `records.extend`, keeps them on the result, and a run given a sink
    keeps none.  Every return path hands over the last, partial block,
    so the sink has had n_steps + 1 rows whenever run_simulation
    returns, the last built from the returned `state`.  Each block's
    last state and its balance sums carry into the next.
    """
    params = config.params
    if state is None:
        state = init_state(config)
    records = []
    if sink is None:
        sink = records.extend
    pending = []  # (state, dt) awaiting their rows
    previous = None  # (state, z_diff, z_react) before pending's first
    block = max(1, mesh.BLOCK_VALUES // state.grid.n_cells)

    def flush():
        nonlocal previous
        rows = record(pending, params, previous)
        sink(rows)
        previous = (pending[-1][0], rows[-1].z_diff_accum, rows[-1].z_react_accum)
        pending.clear()

    def keep(kept, dt):
        pending.append((kept, dt))
        if len(pending) == block:
            flush()

    keep(state, 0.0)

    def observe(state, report, n_steps):
        if on_step is not None:
            on_step(state, report, n_steps)
        keep(state, report.dt)

    result = _run_alone(config, state, 0, observe)
    if pending:
        flush()
    result.records = records
    return result


def _run_alone(config: RunConfig, state: State, n_steps: int, observe=None) -> RunResult:
    """Step one run from state, after its first n_steps steps, to t_end.

    observe(state, report, step_index), if given, sees each accepted
    step.  A failure ends the run; the result says how far it got and
    why it stopped, with no records.
    """
    completed, error = True, None
    while state.t < config.t_end:
        if n_steps >= MAX_STEPS:
            completed, error = False, "step budget exhausted"
            break
        try:
            state, report = step(state, config)
        except SimulationError as exc:  # its last_state is state, the step's input
            completed, error = False, str(exc)
            break
        except InvariantViolation as exc:
            completed, error = False, f"scheme invariant violated at t={state.t:.6e}: {exc}"
            break
        n_steps += 1
        if observe is not None:
            observe(state, report, n_steps)
    return RunResult(state, [], completed, error, n_steps)


def run_batch(configs, state: State) -> list:
    """run_simulation(config, state=state) for each of configs, stepped
    as one batch, but with no records; one RunResult per config, in
    order.

    The configs may differ in their physical constants only, else it is
    a ConfigurationError; those that differ become per-member columns
    (PhysParams.stack).  Each member steps at its own cfl_dt; a batch
    step is one attempt.  A member leaves at t_end.  The last member
    left, one below DT_MIN, every member at the step budget, the members
    a step rejects and every member after an InvariantViolation step on
    alone from their state before the step, which carries their rows of
    the levels, the way run_simulation steps: solver.step makes any
    retries, and each result has the bits of its serial run.
    """
    base = configs[0]
    if any(dataclasses.replace(config, params=base.params) != base for config in configs):
        raise ConfigurationError("the members of a batch may differ in their physical "
                                 "constants only")
    results = [None] * len(configs)
    live = np.arange(len(configs))  # the members still in the batch, in order
    batch = stack([state] * len(configs))
    stacked = dataclasses.replace(base, params=PhysParams.stack([c.params for c in configs]))
    n_steps, failed = 0, False  # failed: the members the last attempt failed
    while True:
        # Alone, a member at t_end is done at once, one below DT_MIN
        # raises its serial run's underflow, one at the step budget stops
        # there, and a failed one makes its step again, with retries.
        # After a failure the others recompute the same dt bits: cfl_dt
        # reduces per row.
        dt = cfl_dt(batch, stacked)
        leaving = failed | ~(batch.t < base.t_end) | ~(dt > DT_MIN) | (n_steps >= MAX_STEPS)
        # The last member left steps on alone: the same code without the
        # member axis, which costs less per step.
        leaving |= np.count_nonzero(~leaving) < 2
        for position in np.flatnonzero(leaving):
            member = live[position]
            results[member] = _run_alone(configs[member], batch[position], n_steps)
        if leaving.all():
            return results
        if leaving.any():
            staying = ~leaving
            live, batch, dt = (a[staying] for a in (live, batch, dt))
            stacked.params = stacked.params.select(staying)
        try:
            batch, _ = step_batch(batch, stacked, dt=dt)
            n_steps, failed = n_steps + 1, False
        except StepRejection as rej:
            failed = rej.members
        except InvariantViolation:
            failed = True


def run_fixed(state: State, config: RunConfig, n_steps, sources=None) -> list:
    """The final states of n steps of dt = config.t_end / n from state,
    one for each count n in n_steps, in their order.

    Each has the bits of its own serial run of step(..., dt=dt).
    sources, if given, is a callable t -> (s_v, s_u, s_theta, s_z) on
    state's grid that broadcasts over an array of times, as
    mms.MmsCase.sources(grid) does; each step is handed the read-only
    rows of its new level.  A count that is not an integer of at least
    1, or no count, is a ConfigurationError.  A step is one attempt at
    its dt: a rejected step raises SimulationError naming the member's
    step count and t, with that member's state before the step as
    last_state; an InvariantViolation is raised again naming the step
    and the counts.
    """
    counts = list(n_steps)
    if not counts:
        raise ConfigurationError("n_steps must hold at least one step count")
    for count in counts:
        if not isinstance(count, numbers.Integral) or count < 1:
            raise ConfigurationError(f"n_steps must be integers >= 1, got {count}")
    counts = np.array(counts)
    dts = config.t_end / counts
    # From state.t by the additions step makes, so each level is its
    # t_new bit for bit.
    levels = [np.add.accumulate(np.r_[state.t, np.full(count, dt)])[1:]
              for dt, count in zip(dts, counts)]
    width = state.grid.edges.size

    finals = [None] * len(counts)
    live = np.arange(len(counts))  # the members still stepping, in order
    state, batched = stack([state] * len(counts)), True
    taken = 0
    while live.size:
        if live.size == 1 and batched:
            # The last member steps on as a single run: the same code
            # without the member axis, which costs less per step.
            state, batched = state[0], False
        stop = counts[live].min()
        level_rows = repeat(None)  # each level's (s_v, s_u, s_theta, s_z)
        if sources is not None:
            # A block ends where a member leaves, so its rows are for
            # one set of members: (k, b) levels, or (k,) for a single run.
            stop = min(stop, taken + max(1, mesh.BLOCK_VALUES // (live.size * width)))
            times = np.array([levels[member][taken:stop] for member in live]).T
            rows = block = ()  # dropped first, so two blocks are never held at once
            block = sources(times if batched else times[:, 0])
            for values in block:
                values.setflags(write=False)
            level_rows = zip(*block)
        advance = (partial(step_batch, dt=dts[live]) if batched
                   else partial(step, dt=dts[live[0]]))
        for k, rows in zip(range(stop - taken), level_rows):
            try:
                state, _ = advance(state, config, sources=rows)
            except InvariantViolation as exc:
                runs = ", ".join(map(str, counts[live]))
                raise InvariantViolation(
                    f"{exc} (step {taken + k + 1} of the runs of {runs} steps)") from exc
            except StepRejection as rej:
                first = np.flatnonzero(rej.members)[0]
                last = state[first] if batched else state
                raise SimulationError(
                    f"the run of {counts[live[first]]} steps had a step rejected "
                    f"at t={last.t:.6e}; a fixed-dt study cannot take a shorter one",
                    last_state=last,
                ) from rej
        taken = stop
        done = counts[live] == taken
        for member, position in zip(live[done], np.flatnonzero(done)):
            finals[member] = state[position] if batched else state
        live = live[~done]
        if batched:
            state = state[~done]
    return finals

@dataclass
class CheckRow:
    name: str
    passed: bool
    detail: str


@dataclass
class CheckReport:
    completed: bool
    rows: list = field(default_factory=list)
    result: RunResult | None = None

    @property
    def passed(self) -> bool:
        return self.completed and all(row.passed for row in self.rows)


def check_scenario(config: RunConfig) -> CheckReport:
    """Run the scenario and grade the trajectory-level bounds."""
    result = run_simulation(config)
    report = CheckReport(completed=result.completed, result=result)
    add = report.rows.append
    if not result.completed:
        add(CheckRow("run completed", False, result.error or "unknown failure"))
        return report
    add(CheckRow("run completed", True, f"{result.n_steps} steps to t={result.state.t:g}"))

    recs = result.records
    finite = all(
        _all_finite(r) for r in recs
    )
    add(CheckRow("all diagnostics finite", finite, f"{len(recs)} records"))

    zmin = min(r.min_z for r in recs)
    zmax = max(r.max_z for r in recs)
    add(
        CheckRow(
            "species range 0 <= z <= 1",
            zmin >= 0.0 and zmax <= 1.0,
            f"min={zmin:.3e} max={zmax:.6f}",
        )
    )

    vmin = min(r.min_v for r in recs)
    thmin = min(r.min_theta for r in recs)
    add(
        CheckRow(
            "volume and temperature above floors",
            vmin > config.v_floor and thmin > config.theta_floor,
            f"min_v={vmin:.3e} min_theta={thmin:.3e}",
        )
    )

    umin = min(r.u_entropy for r in recs)
    vdmin = min(r.v_dissipation for r in recs)
    add(
        CheckRow(
            "entropy functionals nonnegative",
            umin >= 0.0 and vdmin >= 0.0,
            f"min_U={umin:.3e} min_V={vdmin:.3e}",
        )
    )

    uv = recs[-1].u_entropy + sum(r.dt * r.v_dissipation for r in recs[1:])
    add(
        CheckRow(
            "U plus integrated V bounded",
            math.isfinite(uv) and uv < UV_RUN_CAP,
            f"value={uv:.6e} cap={UV_RUN_CAP:g}",
        )
    )

    mono = all(
        recs[i + 1].z_diff_accum >= recs[i].z_diff_accum
        and recs[i + 1].z_react_accum >= recs[i].z_react_accum
        for i in range(len(recs) - 1)
    )
    add(CheckRow("balance accumulators non-decreasing", mono, ""))

    e0 = recs[0].e_total
    drift = max(abs(r.e_total - e0) for r in recs) / max(1.0, abs(e0))
    add(
        CheckRow(
            "energy drift bounded",
            drift <= ENERGY_DRIFT_TOL,
            f"drift={drift:.3e} tol={ENERGY_DRIFT_TOL:g}",
        )
    )

    resid = z_balance_residual(recs)
    add(
        CheckRow(
            "species balance residual small",
            abs(resid) <= Z_BALANCE_TOL,
            f"residual={resid:.3e} tol={Z_BALANCE_TOL:g}",
        )
    )
    return report


def _all_finite(rec) -> bool:
    return all(
        math.isfinite(getattr(rec, name))
        for name in (
            "e_total",
            "u_entropy",
            "v_dissipation",
            "z_l2",
            "width",
            "momentum",
        )
    )
