"""Parameter sweeps: expand a manifest into runs, execute, summarize.

A manifest is an ordinary run configuration plus one extra [sweep]
section whose keys are physical-constant names and whose values are
comma-separated lists.  The cartesian product is taken in the order
the keys appear; each combination becomes an independent run.  The
initial state is built once, before any run, so initial data that
init_state refuses fails the sweep as a configuration error.  The
members are split into one contiguous chunk per job, and each chunk
runs as one batch (driver.run_batch) in which every member keeps the
bits of its own serial run.  The chunks share nothing else, and the
summary CSV is written in manifest order after all runs finish, so the
output is identical whatever the job count.
A member builds no per-step diagnostics: its summary row reads the
final state alone, so the extrema are those of the final state.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import PHYS_FLOAT_KEYS, RunConfig, build_config, init_state, read_ini
from .driver import run_batch
from .mesh import ConfigurationError, State, width
from .output import fmt
from .workers import in_parallel


@dataclass
class SweepRow:
    index: int
    values: dict
    rate_exponent_supported: bool
    classification: str
    final_t: float
    width: float
    min_v: float
    min_theta: float
    min_z: float
    max_z: float
    error: str = ""


def load_manifest(path):
    """Returns (base RunConfig, ordered list of (param, values) pairs)."""
    with open(path, "r", encoding="utf-8") as fh:
        cp = read_ini(fh.read())

    items = []
    if cp.has_section("sweep"):
        for key, raw in cp.items("sweep"):
            if key not in PHYS_FLOAT_KEYS:
                raise ConfigurationError(f"cannot sweep over {key!r}")
            try:
                values = [float(part) for part in raw.split(",")]
            except ValueError as exc:
                raise ConfigurationError(f"[sweep] {key} must be comma-separated numbers") from exc
            items.append((key, values))
        cp.remove_section("sweep")
    return build_config(cp), items


def expand(base: RunConfig, items):
    """All combinations as (values dict, RunConfig), in manifest order.

    A combination out of the physical range raises ConfigurationError
    naming the member's index and its swept values.
    """
    if not items:
        return [({}, base)]
    keys = [key for key, _ in items]
    combos = itertools.product(*(values for _, values in items))
    out = []
    for index, combo in enumerate(combos):
        overrides = dict(zip(keys, combo))
        try:
            params = dataclasses.replace(base.params, **overrides)
        except ValueError as exc:
            swept = ", ".join(f"{key}={value!r}" for key, value in overrides.items())
            raise ConfigurationError(f"sweep member {index} ({swept}): {exc}") from exc
        out.append((overrides, dataclasses.replace(base, params=params)))
    return out


def run_one(chunk, first: State) -> list:
    """Run a chunk of members, each (index, values, config), as one batch
    from the initial state first (driver.run_batch); one SweepRow per
    member, in the chunk's order, each summarizing its final state."""
    results = run_batch([config for _, _, config in chunk], first)
    z_initial = float(np.sum(first.z)) * first.grid.dx
    rows = []
    for (index, values, config), result in zip(chunk, results):
        state = result.state
        if not result.completed:
            classification = "failed"
        else:
            z_final = float(np.sum(state.z)) * state.grid.dx
            burned = z_initial > 0.0 and z_final <= 0.5 * z_initial
            classification = "burned" if burned else "quiescent"
        rows.append(SweepRow(
            index,
            values,
            config.params.rate_exponent_supported,
            classification,
            final_t=state.t,
            width=width(state),
            min_v=float(state.v.min()),
            min_theta=float(state.theta.min()),
            min_z=float(state.z.min()),
            max_z=float(state.z.max()),
            error="" if result.completed else (result.error or ""),
        ))
    return rows


def run_sweep(manifest_path, out_dir, jobs: int = 1):
    """Execute every combination; write out_dir/summary.csv; return rows.

    The members are split into min(jobs, members) contiguous chunks in
    manifest order, and run_one runs each chunk as one batch: the first
    in this process and each other one in a forked worker beside it,
    where there are two CPUs (workers.in_parallel), else all in turn.
    A worker that dies without reporting is an OSError naming its exit
    code, and no summary is written.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    base, items = load_manifest(manifest_path)
    combos = expand(base, items)
    # init_state reads the profiles, n_cells and the floors, which no
    # [sweep] key sets, so every member starts from the same state.
    first = init_state(base)
    tasks = [(i, values, cfg) for i, (values, cfg) in enumerate(combos)]
    n_chunks = min(jobs, len(tasks))
    chunks = [tasks[k * len(tasks) // n_chunks:(k + 1) * len(tasks) // n_chunks]
              for k in range(n_chunks)]
    # run_one is looked up here, at the call, so a wrapper set on the
    # module attribute runs for every chunk; the workers are forked, so
    # they see it too.  The rows come back in task order.
    parts = in_parallel([partial(run_one, chunk, first) for chunk in chunks], "sweep worker")
    rows = [row for part in parts for row in part]

    keys = [key for key, _ in items]
    path = out_dir / "summary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = (
            ["index"]
            + keys
            + [
                "rate_exponent_supported",
                "classification",
                "final_t",
                "width",
                "min_v",
                "min_theta",
                "min_z",
                "max_z",
                "error",
            ]
        )
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [str(row.index)]
            cells += [fmt(row.values[k]) for k in keys]
            cells += [
                str(row.rate_exponent_supported),
                row.classification,
                fmt(row.final_t),
                fmt(row.width),
                fmt(row.min_v),
                fmt(row.min_theta),
                fmt(row.min_z),
                fmt(row.max_z),
                row.error.replace(",", ";"),
            ]
            fh.write(",".join(cells) + "\n")
    return rows, path
