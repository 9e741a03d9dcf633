"""On-disk formats: diagnostics CSV, snapshots, failure manifests.

Everything numeric is serialized with 17 significant digits
(`config.NUM_FORMAT`), which round-trips IEEE doubles exactly;
rereading a snapshot reproduces the state bit for bit.  The table
writers format a whole row, or a block of rows, with one `%`-template;
the bytes are those of `fmt`.  A snapshot table holds the five changing
columns, and templates built once per grid size where it is formatted
hold the fixed i and x_center text.  `rrgas run` hands every snapshot
table and every block of diagnostics rows to a RunWriter, whose forked
helper process formats and writes them while the run steps on, where
`workers.may_fork`; else the writer writes them in process.  Either
way diagnostics.csv is appended a block at a time, by
`write_diagnostics`, the one formatter of its rows.  A run is
identified by a short hash of its fully serialized configuration, so
the id is stable across processes and machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from . import mesh, workers
from .config import NUM_FORMAT, RunConfig, serialize_config
from .constitutive import PhysParams
from .diagnostics import DiagnosticsRecord
from .mesh import ConfigurationError, Grid, State, physical_coordinates

DIAG_COLUMNS = DiagnosticsRecord._fields

SNAPSHOT_COLUMNS = ("i", "x_center", "y_center", "v", "theta", "z", "u_left_edge")

_DIAG_ROW = ",".join([NUM_FORMAT] * len(DIAG_COLUMNS)) + "\n"

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


def write_rows(path, columns, template: str, rows, append: bool = False) -> None:
    """A CSV file: the header line of columns, then template % row for
    each row, a tuple; template ends the line.  With append, the rows
    only, added at the end of the file."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="") as fh:
        if not append:
            fh.write(",".join(columns) + "\n")
        fh.writelines(template % row for row in rows)


def write_diagnostics(path, rows, append: bool = False) -> None:
    """diagnostics.csv of rows, DiagnosticsRecords or plain tuples of
    their values; with append, the rows are added at the end of the
    file, as RunWriter adds each block."""
    write_rows(path, DIAG_COLUMNS, _DIAG_ROW, rows, append)


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
    RunWriter), the table goes to it; otherwise it is written
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


class RunWriter:
    """Writes a run's snapshot tables and diagnostics rows in one forked
    helper process, where workers.may_fork at the first item queued;
    else in this process, with the same bytes.

    `send` queues a snapshot table and `add_rows` a block of rows for
    the file at `diagnostics`.  Once the queue holds mesh.BLOCK_VALUES
    values it goes to the helper as one message, or is written here;
    what is left goes on a clean exit from the `with` block.  Rows ride
    with tables: a pipe send costs about as much as formatting a small
    table, so one message per item would give back what moving the work
    gains.  Each message is written in order: its rows appended to the
    diagnostics file (the first rows start it with the header), then
    its tables.

    The helper, a workers.Worker, is forked at the first item queued
    and gets each message over its pipe; the caller goes on while the
    helper formats.  The first error the helper meets (an OSError from
    `open`, say) ends it; the next message, or the exit of the `with`
    block, raises that error.  In process, the write that meets an
    error raises it.  On exit the helper has written every message it
    was sent, or has failed, and has been joined.  A helper that dies
    without reporting is an OSError naming its exit code.  An exception
    already leaving the `with` block is not replaced by the helper's,
    and what is still queued then is dropped.

    The helper only formats strings and writes files; it calls no BLAS
    or other threaded library, so forking a process whose BLAS has
    started threads is safe for it.  The parent starts no thread: the
    pipe is written synchronously, with no feeder thread as in a pool.
    """

    def __init__(self, diagnostics):
        self._diagnostics = diagnostics
        self._started = False  # whether a message has had rows: later rows append
        self._rows, self._tables, self._values = [], [], 0  # the queue
        self._worker = self._conn = self._write = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None and (self._rows or self._tables):
            self._flush()
        if self._worker is None or self._conn.closed:  # none, or it has reported
            return False
        if exc is not None:
            # A send cut short by the exception may have left part of a
            # message in the pipe, so close it rather than send the
            # sentinel: the helper writes every whole message it got,
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
        """Queues a snapshot table, to be written to path under header."""
        self._tables.append((path, header, table))
        self._queued(table.size)

    def add_rows(self, rows) -> None:
        """Queues a block of diagnostics rows (DiagnosticsRecords), to be
        appended to the diagnostics file as plain tuples."""
        self._rows.extend(map(tuple, rows))
        self._queued(len(rows) * len(DIAG_COLUMNS))

    def _queued(self, values: int) -> None:
        if self._write is None:  # the first item: fork the helper, or write here
            if workers.may_fork():
                self._worker = workers.Worker(_write_messages, "run writer")
                self._conn = self._worker.conn
                self._write = self._send
            else:
                self._write = _write_message
        self._values += values
        if self._values >= mesh.BLOCK_VALUES:
            self._flush()

    def _flush(self) -> None:
        message = (self._diagnostics, self._started, self._rows, self._tables)
        self._started = self._started or bool(self._rows)
        self._rows, self._tables, self._values = [], [], 0
        self._write(message)

    def _send(self, message) -> None:
        if self._conn.poll():  # the helper has failed: raise why
            self._worker.result()
        try:
            self._conn.send(message)
        except OSError:  # the helper is gone: raise why
            self._worker.result()


def _write_message(message) -> None:
    """One queued message: (diagnostics path, whether to append, rows,
    tables); the rows go to the diagnostics file, then each table."""
    diagnostics, append, rows, tables = message
    if rows:
        write_diagnostics(diagnostics, rows, append)
    for table in tables:
        _write_table(*table)


def _write_messages(conn) -> None:
    """The helper's body: write each message it is sent until the sentinel.

    An error ends it, EOFError too, if the parent closed the pipe.
    """
    for message in iter(conn.recv, None):
        _write_message(message)


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
