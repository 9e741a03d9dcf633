"""On-disk formats: diagnostics CSV, snapshots, failure manifests.

Everything numeric is serialized with 17 significant digits (`_NUM`),
which round-trips IEEE doubles exactly; rereading a snapshot reproduces
the state bit for bit.  The table writers format a whole row, or a
block of rows, with one `%`-template; the bytes are those of `fmt`.  A
run is identified by a short hash of its fully serialized
configuration, so the id is stable across processes and machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator

import numpy as np

from .config import RunConfig, serialize_config
from .constitutive import PhysParams
from .diagnostics import DiagnosticsRecord
from .mesh import ConfigurationError, Grid, State, physical_coordinates

DIAG_COLUMNS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))

SNAPSHOT_COLUMNS = ("i", "x_center", "y_center", "v", "theta", "z", "u_left_edge")

# The one number format: 17 significant digits.
_NUM = "%.17g"

_DIAG_ROW = ",".join([_NUM] * len(DIAG_COLUMNS)) + "\n"
_diag_values = operator.attrgetter(*DIAG_COLUMNS)

# Snapshot rows are formatted this many at a time: a whole 4096-cell
# table in one template peaks at about 2 MB of transient memory,
# 256-row blocks at about 0.4 MB, at the same speed.
_SNAPSHOT_BLOCK = 256
_SNAPSHOT_ROW = "%d" + ("," + _NUM) * (len(SNAPSHOT_COLUMNS) - 1) + "\n"


def fmt(x: float) -> str:
    return _NUM % float(x)


def run_id(config: RunConfig) -> str:
    digest = hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
    return digest[:12]


def write_diagnostics(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(DIAG_COLUMNS) + "\n")
        fh.writelines(_DIAG_ROW % _diag_values(rec) for rec in records)


def read_diagnostics(path):
    """Rows back as DiagnosticsRecord objects (column order is fixed)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != DIAG_COLUMNS:
            raise ValueError(f"unexpected diagnostics columns: {header}")
        out = []
        for line in fh:
            if not line.strip():
                continue
            vals = [float(part) for part in line.split(",")]
            out.append(DiagnosticsRecord(*vals))
    return out


def write_snapshot(path, state: State, params: PhysParams, run: str = "") -> None:
    """One CSV of per-cell rows with a commented header.

    The header carries what the rows cannot: the time, the left
    boundary position, the last edge velocity (rows hold the left edge
    of each cell only) and an echo of the physical constants.
    """
    y_edges, _ = physical_coordinates(state)
    y_center = 0.5 * (y_edges[:-1] + y_edges[1:])
    echo = " ".join(
        f"{f.name}={getattr(params, f.name)}" if f.name == "cond_model"
        else f"{f.name}={fmt(getattr(params, f.name))}"
        for f in dataclasses.fields(params)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# run_id = {run}\n")
        fh.write(f"# n_cells = {state.grid.n_cells}\n")
        fh.write(f"# t = {fmt(state.t)}\n")
        fh.write(f"# a_pos = {fmt(state.a_pos)}\n")
        fh.write(f"# u_last_edge = {fmt(state.u[-1])}\n")
        fh.write(f"# physics: {echo}\n")
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        n = state.grid.n_cells
        table = np.column_stack((
            np.arange(n), state.grid.cell_centers, y_center,
            state.v, state.theta, state.z, state.u[:-1],
        ))
        for start in range(0, n, _SNAPSHOT_BLOCK):
            block = table[start:start + _SNAPSHOT_BLOCK]
            fh.write((_SNAPSHOT_ROW * len(block)) % tuple(block.ravel().tolist()))


def read_snapshot(path):
    """Returns (state, header dict); inverse of write_snapshot.

    Raises ConfigurationError if any specific volume is not finite and > 0.
    """
    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("physics:"):
                    meta["physics"] = body.partition(":")[2].strip()
                elif "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            if line.startswith(SNAPSHOT_COLUMNS[0] + ","):
                continue
            fields = line.split(",")
            if len(fields) != len(SNAPSHOT_COLUMNS):
                raise ValueError(
                    f"snapshot line {lineno} has {len(fields)} fields, "
                    f"expected {len(SNAPSHOT_COLUMNS)}: {line!r}"
                )
            rows.append(fields)

    n = int(meta["n_cells"])
    if len(rows) != n:
        raise ValueError(f"snapshot row count {len(rows)} does not match n_cells {n}")
    v = np.array([float(r[3]) for r in rows])
    # The constitutive laws take v finite and > 0 on trust; a snapshot
    # is a state entering the program, so it is checked here.
    bad = np.flatnonzero(~(np.isfinite(v) & (v > 0.0)))
    if bad.size:
        raise ConfigurationError(
            f"snapshot v must be finite and > 0; violated at cell {bad[0]}"
        )
    theta = np.array([float(r[4]) for r in rows])
    z = np.array([float(r[5]) for r in rows])
    u = np.empty(n + 1)
    u[:-1] = [float(r[6]) for r in rows]
    u[-1] = float(meta["u_last_edge"])
    state = State(
        Grid(n), v, theta, z, u, t=float(meta["t"]), a_pos=float(meta["a_pos"])
    )
    return state, meta


def write_failure(path, message: str, state: State | None, run: str) -> None:
    payload = {
        "status": "failed",
        "error": message,
        "run_id": run,
        "t_last": None if state is None else state.t,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
