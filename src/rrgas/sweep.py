"""Parameter sweeps: expand a manifest into runs, execute, summarize.

A manifest is an ordinary run configuration plus one extra [sweep]
section whose keys are physical-constant names and whose values are
comma-separated lists.  The cartesian product is taken in the order
the keys appear; each combination becomes an independent run.  Workers
share nothing, and the summary CSV is written in manifest order after
all runs finish, so the output is identical whatever the job count.
A member builds no per-step diagnostics: its summary row reads the
final state alone, so the extrema are those of the final state.
"""

from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import PHYS_FLOAT_KEYS, RunConfig, build_config, init_state, read_ini
from .driver import run_simulation
from .mesh import ConfigurationError, width
from .output import fmt


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


def run_one(index: int, values: dict, config: RunConfig) -> SweepRow:
    """Run one member and summarize its final state; never raises."""
    supported = config.params.rate_exponent_supported
    try:
        first = init_state(config)
        z_initial = float(np.sum(first.z)) * first.grid.dx
        result = run_simulation(config, state=first, diagnostics=False)
    except Exception as exc:  # a sweep never dies on one bad run
        return SweepRow(index, values, supported, "failed",
                        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, error=str(exc))

    state = result.state
    if not result.completed:
        classification = "failed"
    else:
        z_final = float(np.sum(state.z)) * state.grid.dx
        burned = z_initial > 0.0 and z_final <= 0.5 * z_initial
        classification = "burned" if burned else "quiescent"
    return SweepRow(
        index,
        values,
        supported,
        classification,
        final_t=state.t,
        width=width(state),
        min_v=float(state.v.min()),
        min_theta=float(state.theta.min()),
        min_z=float(state.z.min()),
        max_z=float(state.z.max()),
        error="" if result.completed else (result.error or ""),
    )


def _worker(args):
    return run_one(*args)


def run_sweep(manifest_path, out_dir, jobs: int = 1):
    """Execute every combination; write out_dir/summary.csv; return rows.

    At most `jobs` worker processes, and never more than there are runs:
    a fork-based pool starts all of its workers up front.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    base, items = load_manifest(manifest_path)
    combos = expand(base, items)
    tasks = [(i, values, cfg) for i, (values, cfg) in enumerate(combos)]

    # Both branches return the rows in task order.
    workers = min(jobs, len(tasks))
    if workers == 1:
        rows = [run_one(*task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, tasks))

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
