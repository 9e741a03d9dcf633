"""On-disk formats: diagnostics CSV, snapshots, failure manifests.

Everything numeric is serialized with 17 significant digits
(`config.NUM_FORMAT`), which round-trips IEEE doubles exactly;
rereading a snapshot reproduces the state bit for bit.  The table
writers format a whole row, or a block of rows, with one `%`-template;
the bytes are those of `fmt`.  A snapshot table holds the five changing
columns, and templates built once per grid size where it is formatted
hold the fixed i and x_center text.  `rrgas run` hands every snapshot
table to a SnapshotWriter, whose forked helper process formats and
writes it while the run steps on, where `workers.may_fork`; else the
writer writes the tables inline.  A run is identified by a short hash
of its fully serialized configuration, so the id is stable across
processes and machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator

import numpy as np

from . import workers
from .config import NUM_FORMAT, RunConfig, serialize_config
from .constitutive import PhysParams
from .diagnostics import DiagnosticsRecord
from .mesh import ConfigurationError, Grid, State, physical_coordinates

DIAG_COLUMNS = tuple(f.name for f in dataclasses.fields(DiagnosticsRecord))

SNAPSHOT_COLUMNS = ("i", "x_center", "y_center", "v", "theta", "z", "u_left_edge")

_DIAG_ROW = ",".join([NUM_FORMAT] * len(DIAG_COLUMNS)) + "\n"
_diag_values = operator.attrgetter(*DIAG_COLUMNS)

# Snapshot rows are formatted this many at a time: a whole 4096-cell
# table in one template peaks at about 2 MB of transient memory,
# 256-row blocks at about 0.4 MB, at the same speed.
_SNAPSHOT_BLOCK = 256
_SNAPSHOT_ROW = ("," + NUM_FORMAT) * (len(SNAPSHOT_COLUMNS) - 2) + "\n"  # after i, x_center
_snapshot_templates = {}  # n_cells -> the template of each block of rows


def fmt(x: float) -> str:
    return NUM_FORMAT % float(x)


def run_id(config: RunConfig) -> str:
    digest = hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()
    return digest[:12]


def write_rows(path, columns, template: str, rows) -> None:
    """A CSV file: the header line of columns, then template % row for
    each row, a tuple; template ends the line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(template % row for row in rows)


def write_diagnostics(path, records) -> None:
    write_rows(path, DIAG_COLUMNS, _DIAG_ROW, map(_diag_values, records))


def read_diagnostics(path):
    """Rows back as DiagnosticsRecord objects (column order is fixed).

    Raises ValueError if the header is not DIAG_COLUMNS or a row has the
    wrong field count.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != DIAG_COLUMNS:
            raise ValueError(f"unexpected diagnostics columns: {header}")
        out = []
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != len(DIAG_COLUMNS):
                raise ValueError(
                    f"diagnostics line {lineno} has {len(fields)} fields, "
                    f"expected {len(DIAG_COLUMNS)}: {line!r}"
                )
            out.append(DiagnosticsRecord(*map(float, fields)))
    return out


def write_snapshot(path, state: State, params: PhysParams, run: str = "", writer=None) -> None:
    """One CSV of per-cell rows with a commented header.

    The header carries what the rows cannot: the time, the left
    boundary position, the last edge velocity (rows hold the left edge
    of each cell only) and an echo of the physical constants.  The
    header and the table are built here.  Given `writer` (a
    SnapshotWriter), the table goes to it; otherwise it is written
    inline.  The bytes are the same either way.
    """
    y_edges, _ = physical_coordinates(state)
    y_center = 0.5 * (y_edges[:-1] + y_edges[1:])
    echo = " ".join(
        f"{f.name}={getattr(params, f.name)}" if f.name == "cond_model"
        else f"{f.name}={fmt(getattr(params, f.name))}"
        for f in dataclasses.fields(params)
    )
    n = state.grid.n_cells
    header = (
        f"# run_id = {run}\n"
        f"# n_cells = {n}\n"
        f"# t = {fmt(state.t)}\n"
        f"# a_pos = {fmt(state.a_pos)}\n"
        f"# u_last_edge = {fmt(state.u[-1])}\n"
        f"# physics: {echo}\n"
        + ",".join(SNAPSHOT_COLUMNS) + "\n"
    )
    table = np.column_stack((y_center, state.v, state.theta, state.z, state.u[:-1]))
    if writer is None:
        _write_table(path, header, table)
    else:
        writer.send(path, header, table)


def _write_table(path, header: str, table) -> None:
    """The snapshot file: the header text, then one row per table row."""
    n = len(table)
    templates = _snapshot_templates.get(n)
    if templates is None:
        rows = [f"{i},{fmt(x)}{_SNAPSHOT_ROW}" for i, x in enumerate(Grid(n).cell_centers)]
        templates = _snapshot_templates[n] = [
            "".join(rows[start:start + _SNAPSHOT_BLOCK]) for start in range(0, n, _SNAPSHOT_BLOCK)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start, template in zip(range(0, n, _SNAPSHOT_BLOCK), templates):
            fh.write(template % tuple(table[start:start + _SNAPSHOT_BLOCK].ravel().tolist()))


class SnapshotWriter:
    """Formats and writes snapshot tables in one forked helper process,
    where workers.may_fork at the first `send`; else each table inline,
    in `send`, with the same bytes.

    The helper, a workers.Worker, is forked on the first `send` and
    gets each (path, header, table) over its pipe; the caller goes on
    while the helper formats.  Files are written in the order they are
    sent.  The first error the helper meets (an OSError from `open`,
    say) ends it; the next `send`, or the exit of the `with` block,
    raises that error.  On exit the helper has written every file it
    was sent, or has failed, and has been joined.  A helper that dies
    without reporting is an OSError naming its exit code.  An exception
    already leaving the `with` block is not replaced by the helper's.

    The helper only formats strings and writes files; it calls no BLAS
    or other threaded library, so forking a process whose BLAS has
    started threads is safe for it.  The parent starts no thread: the
    pipe is written synchronously, with no feeder thread as in a pool.
    """

    def __init__(self):
        self._worker = self._conn = self._write = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._worker is None or self._conn.closed:  # none, or it has reported
            return False
        if exc is not None:
            # A send cut short by the exception may have left part of a
            # message in the pipe, so close it rather than send the
            # sentinel: the helper writes every whole table it got,
            # then sees EOF.
            self._worker.close()
            return False
        try:
            self._conn.send(None)
        except OSError:
            pass  # the helper is gone; result reads why
        self._worker.result()
        return False

    def send(self, path, header: str, table) -> None:
        if self._write is None:  # the first table: fork the helper, or write inline
            if workers.may_fork():
                self._worker = workers.Worker(_write_tables, "snapshot writer")
                self._conn = self._worker.conn
                self._write = self._send
            else:
                self._write = _write_table
        self._write(path, header, table)

    def _send(self, path, header: str, table) -> None:
        if self._conn.poll():  # the helper has failed: raise why
            self._worker.result()
        try:
            self._conn.send((path, header, table))
        except OSError:  # the helper is gone: raise why
            self._worker.result()


def _write_tables(conn) -> None:
    """The helper's body: write each table it is sent until the sentinel.

    An error ends it, EOFError too, if the parent closed the pipe.
    """
    for item in iter(conn.recv, None):
        _write_table(*item)


def read_snapshot(path):
    """Returns (state, header dict); inverse of write_snapshot.

    Raises ConfigurationError if any specific volume is not finite and > 0,
    and ValueError if the file is not a snapshot: a header line missing,
    a row with the wrong field count, or a row count other than n_cells.
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

    for key in ("n_cells", "t", "a_pos", "u_last_edge"):
        if key not in meta:
            raise ValueError(f"snapshot header has no {key!r} line")
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
