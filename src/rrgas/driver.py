"""Simulation loop and the scenario-level invariant check.

run_simulation owns the time loop: init, step, accumulate, record (the
last, built a block of states at a time, can be switched off for
callers that read only the final state).  It never raises for a failed
integration, nor for a violated scheme invariant; the result says how
far it got and why it stopped, so callers can still serialize the
partial trajectory.

check_scenario runs a configuration and grades every runtime-checkable
bound on the recorded trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .config import RunConfig, init_state
from .diagnostics import (
    BalanceAccumulators,
    record,
    z_balance_residual,
)
from .mesh import State
from .solver import InvariantViolation, SimulationError, step

# Regression thresholds for check_scenario, chosen with margin against
# the shipped scenarios at their default resolutions.
ENERGY_DRIFT_TOL = 2e-2
Z_BALANCE_TOL = 1e-3
UV_RUN_CAP = 1e3

# run_simulation builds diagnostics rows for K = max(1, _RECORD_BLOCK //
# n_cells) states per record call, as mms._SOURCE_BLOCK does for sources.
_RECORD_BLOCK = 4096


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
    max_steps: int = 5_000_000,
    diagnostics: bool = True,
) -> RunResult:
    """Integrate from t=0 to t_end, recording diagnostics every step.

    The run starts from `state`, if given, else from init_state(config);
    a caller that has already built the initial state passes it in.
    on_step(state, report, step_index) observes each accepted step.
    Rows are built a block of states at a time, so a hook must not
    change a state in place; every return path hands over the last,
    partial block, so `records` holds n_steps + 1 rows whenever
    run_simulation returns.  With diagnostics=False no record is built
    and `records` stays empty; the steps, the balance accumulators, the
    hook and the failure results are the same, and `state` is always the
    state the last record would have been built from.
    """
    params = config.params
    if state is None:
        state = init_state(config)
    accum = BalanceAccumulators()
    records = []
    pending = []  # (state, dt, z_diff, z_react) awaiting their rows
    block = max(1, _RECORD_BLOCK // state.grid.n_cells)

    def keep(kept, dt):
        if diagnostics:
            pending.append((kept, dt, accum.z_diff, accum.z_react))
            if len(pending) == block:
                records.extend(record(pending, params))
                pending.clear()

    keep(state, 0.0)
    n_steps = 0
    completed, error = True, None
    while state.t < config.t_end:
        if n_steps >= max_steps:
            completed, error = False, "step budget exhausted"
            break
        try:
            state, report = step(state, config)
        except SimulationError as exc:
            if exc.last_state is not None:
                state = exc.last_state
            completed, error = False, str(exc)
            break
        except InvariantViolation as exc:
            completed, error = False, f"scheme invariant violated at t={state.t:.6e}: {exc}"
            break
        n_steps += 1
        accum.absorb(report)
        if on_step is not None:
            on_step(state, report, n_steps)
        keep(state, report.dt)
    if pending:
        records.extend(record(pending, params))
    return RunResult(state, records, completed, error, n_steps)


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
