"""Serialization: bit-exact snapshot round trips and stable run ids."""

import dataclasses
import json
import multiprocessing
import signal
import struct

import numpy as np
import pytest
from conftest import cpus

from rrgas.config import RunConfig
from rrgas.constitutive import PhysParams
from rrgas.diagnostics import DiagnosticsRecord
from rrgas.mesh import ConfigurationError, Grid, State, physical_coordinates
from rrgas.output import (
    _SNAPSHOT_BLOCK,
    DIAG_COLUMNS,
    SNAPSHOT_COLUMNS,
    SnapshotWriter,
    fmt,
    read_diagnostics,
    read_snapshot,
    run_id,
    write_diagnostics,
    write_failure,
    write_snapshot,
)


def awkward_state(n=6):
    # Values chosen to stress the formatter: negatives, subnormal-ish
    # magnitudes, repeating binary fractions.
    rng = np.random.default_rng(31)
    s = State(
        Grid(n),
        0.3 + rng.random(n),
        0.1 + rng.random(n),
        rng.random(n),
        rng.standard_normal(n + 1) * 1e-3,
        t=0.1 + 1e-13,
        a_pos=-1.0 / 3.0,
    )
    s.v[0] = 2.0 / 3.0
    s.u[2] = -1.2345678901234567e-11
    return s


# Values a formatter is most likely to get wrong.
EDGE_VALUES = (-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 1e17, 0.1)


def edge_state(n):
    """Random fields with EDGE_VALUES in every third theta, z and u (v stays valid)."""
    rng = np.random.default_rng(47)
    s = State(
        Grid(n), 0.3 + rng.random(n), rng.random(n), rng.random(n),
        rng.standard_normal(n + 1), t=0.1, a_pos=-1.0 / 3.0,
    )
    for arr, shift in ((s.theta, 0), (s.z, 3), (s.u, 5)):
        arr[::3] = np.resize(np.roll(EDGE_VALUES, shift), arr[::3].size)
    return s


def data_rows(path):
    lines = path.read_text().splitlines(True)
    return lines[lines.index(",".join(SNAPSHOT_COLUMNS) + "\n") + 1:]


def test_fmt_round_trips_doubles():
    for x in (1.0 / 3.0, 0.1, -2.5e-300, 7.0, 1e17 + 1):
        assert float(fmt(x)) == x


def test_snapshot_round_trip_bitwise(tmp_path):
    # The second state spans more than one block of formatted rows.
    for n in (6, 2 * _SNAPSHOT_BLOCK + 5):
        s = awkward_state(n)
        p = PhysParams()
        path = tmp_path / f"snap_{n}.csv"
        write_snapshot(path, s, p, run="abc123")
        back, meta = read_snapshot(path)
        np.testing.assert_array_equal(back.v, s.v)
        np.testing.assert_array_equal(back.theta, s.theta)
        np.testing.assert_array_equal(back.z, s.z)
        np.testing.assert_array_equal(back.u, s.u)
        assert back.t == s.t
        assert back.a_pos == s.a_pos
        assert meta["run_id"] == "abc123"
        assert int(meta["n_cells"]) == n


def per_value_rows(s):
    """A snapshot's data rows, each value formatted on its own."""
    y_edges, _ = physical_coordinates(s)
    y_center = 0.5 * (y_edges[:-1] + y_edges[1:])
    x = s.grid.cell_centers
    return [
        ",".join((str(i), fmt(x[i]), fmt(y_center[i]), fmt(s.v[i]),
                  fmt(s.theta[i]), fmt(s.z[i]), fmt(s.u[i]))) + "\n"
        for i in range(s.grid.n_cells)
    ]


@pytest.mark.parametrize(
    "n",
    [1, _SNAPSHOT_BLOCK - 1, _SNAPSHOT_BLOCK, _SNAPSHOT_BLOCK + 1, 2 * _SNAPSHOT_BLOCK + 3, 4096],
)
def test_snapshot_rows_match_per_value_format(tmp_path, n):
    s = edge_state(n)
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, PhysParams())
    assert data_rows(path) == per_value_rows(s)


def test_snapshot_rows_of_two_grids_written_in_turn(tmp_path):
    # Each grid size has its own row templates in the formatting
    # process; writing two sizes by turns keeps each one's i and x_center.
    sizes = (_SNAPSHOT_BLOCK + 3, 7, _SNAPSHOT_BLOCK + 3, 7)
    for k, n in enumerate(sizes):
        s = edge_state(n)
        s.v *= 1.0 + k  # the changing columns differ on each write
        write_snapshot(tmp_path / f"snap_{k}.csv", s, PhysParams())
        assert data_rows(tmp_path / f"snap_{k}.csv") == per_value_rows(s)


def test_snapshot_rejects_short_row(tmp_path):
    s = awkward_state()
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, PhysParams())
    lines = path.read_text().splitlines()
    lines[9] = "2,0.5"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 10 has 2 fields, expected 7"):
        read_snapshot(path)


def test_snapshot_header_carries_physics_echo(tmp_path):
    s = awkward_state()
    p = dataclasses.replace(PhysParams(), k_rate=3.5, cond_model="B", q_cond=1.0)
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, p)
    _, meta = read_snapshot(path)
    assert "k_rate=3.5" in meta["physics"]
    assert "cond_model=B" in meta["physics"]


def test_snapshot_rejects_truncated_file(tmp_path):
    s = awkward_state()
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, PhysParams())
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")  # drop two data rows
    with pytest.raises(ValueError, match="row count"):
        read_snapshot(path)


@pytest.mark.parametrize("key", ["n_cells", "t", "a_pos", "u_last_edge"])
def test_snapshot_rejects_missing_header_line(tmp_path, key):
    path = tmp_path / "snap.csv"
    write_snapshot(path, awkward_state(), PhysParams())
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(f"# {key} =")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"snapshot header has no '{key}' line"):
        read_snapshot(path)


@pytest.mark.parametrize("bad_v", [0.0, -0.25, float("nan"), float("inf")])
def test_snapshot_rejects_invalid_volume(tmp_path, bad_v):
    s = awkward_state()
    s.v[3] = bad_v
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, PhysParams())
    with pytest.raises(ConfigurationError, match="violated at cell 3"):
        read_snapshot(path)


def test_snapshot_column_layout(tmp_path):
    s = awkward_state()
    path = tmp_path / "snap.csv"
    write_snapshot(path, s, PhysParams())
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == ",".join(SNAPSHOT_COLUMNS)
    assert len(lines) == 1 + 6


def test_diagnostics_round_trip(tmp_path):
    rows = [
        DiagnosticsRecord(
            t=0.1 * k, dt=1e-3, e_total=2.0 + k, u_entropy=0.5, v_dissipation=0.25,
            z_l2=0.125, z_diff_accum=0.01 * k, z_react_accum=0.02 * k, width=1.0,
            min_v=0.9, min_theta=0.8, min_z=0.0, max_z=1.0, momentum=1e-17,
        )
        for k in range(3)
    ]
    path = tmp_path / "diag.csv"
    write_diagnostics(path, rows)
    back = read_diagnostics(path)
    assert back == rows


def test_diagnostics_rows_match_per_value_format(tmp_path):
    values = EDGE_VALUES + (1.0 / 3.0, -2.5e-300, np.float64(0.7), 3, -1e-17, 1e17 + 1)
    rows = [
        DiagnosticsRecord(*np.roll(values, k)[: len(DIAG_COLUMNS)].tolist())
        for k in range(3)
    ] + [DiagnosticsRecord(*values[: len(DIAG_COLUMNS)])]
    path = tmp_path / "diag.csv"
    write_diagnostics(path, rows)
    expected = [",".join(DIAG_COLUMNS) + "\n"] + [
        ",".join(fmt(getattr(rec, col)) for col in DIAG_COLUMNS) + "\n" for rec in rows
    ]
    assert path.read_text().splitlines(True) == expected


def test_diagnostics_header_is_column_order(tmp_path):
    path = tmp_path / "diag.csv"
    write_diagnostics(path, [])
    assert path.read_text().splitlines()[0] == ",".join(DIAG_COLUMNS)
    assert DIAG_COLUMNS[:2] == ("t", "dt")


def test_diagnostics_rejects_foreign_header(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="columns"):
        read_diagnostics(path)


@pytest.mark.parametrize("row", ["1,2,3", ",".join(["1"] * (len(DIAG_COLUMNS) + 1))],
                         ids=["short", "long"])
def test_diagnostics_rejects_row_of_wrong_length(tmp_path, row):
    path = tmp_path / "diag.csv"
    write_diagnostics(path, [DiagnosticsRecord(*[0.0] * len(DIAG_COLUMNS))])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    n = len(row.split(","))
    with pytest.raises(ValueError, match=f"line 3 has {n} fields, expected 14"):
        read_diagnostics(path)


def test_run_id_deterministic_and_sensitive():
    cfg = RunConfig()
    assert run_id(cfg) == run_id(RunConfig())
    assert len(run_id(cfg)) == 12
    other = RunConfig()
    other.n_cells = 300
    assert run_id(other) != run_id(cfg)


def test_write_failure_manifest(tmp_path):
    s = awkward_state()
    path = tmp_path / "failure.json"
    write_failure(path, "step rejected 10 times", s, run="deadbeef0000")
    payload = json.loads(path.read_text())
    assert payload["status"] == "failed"
    assert payload["run_id"] == "deadbeef0000"
    assert payload["t_last"] == s.t
    assert "rejected" in payload["error"]


def test_write_failure_without_state(tmp_path):
    path = tmp_path / "failure.json"
    write_failure(path, "bad config", None, run="x")
    assert json.loads(path.read_text())["t_last"] is None


# ------------------------------------------------------- snapshot writer

SENT_ROWS = 37  # a table of any size goes to the helper


def test_snapshot_writer_bytes_match_inline(tmp_path, monkeypatch):
    # Every table given a writer goes to its one helper process, which
    # writes the bytes of the inline path.
    # one row, a shipped grid, one row past a formatting block, and
    # several blocks with a partial last one
    cpus(monkeypatch, 2)
    params = PhysParams()
    sizes = (1, 128, _SNAPSHOT_BLOCK + 1, 1537)
    with SnapshotWriter() as writer:
        for n in sizes:
            write_snapshot(tmp_path / f"sent_{n}.csv", edge_state(n), params, "r", writer=writer)
            assert len(multiprocessing.active_children()) == 1
    assert multiprocessing.active_children() == []
    for n in sizes:
        write_snapshot(tmp_path / f"inline_{n}.csv", edge_state(n), params, "r")
        sent = (tmp_path / f"sent_{n}.csv").read_bytes()
        assert sent == (tmp_path / f"inline_{n}.csv").read_bytes()


def test_snapshot_writer_on_one_cpu_writes_inline(tmp_path, monkeypatch, forks):
    # On one CPU the writer starts no process: each send writes its
    # table before it returns, with the bytes of the inline path, and
    # raises the error it meets.
    cpus(monkeypatch, 1)
    params = PhysParams()
    sizes = (1, _SNAPSHOT_BLOCK + 1)
    (tmp_path / "taken.csv").mkdir()
    with SnapshotWriter() as writer:
        for n in sizes:
            write_snapshot(tmp_path / f"sent_{n}.csv", edge_state(n), params, "r", writer=writer)
            assert (tmp_path / f"sent_{n}.csv").exists()
        with pytest.raises(IsADirectoryError, match="taken.csv"):
            write_snapshot(tmp_path / "taken.csv", edge_state(1), params, writer=writer)
    assert forks == []
    for n in sizes:
        write_snapshot(tmp_path / f"inline_{n}.csv", edge_state(n), params, "r")
        sent = (tmp_path / f"sent_{n}.csv").read_bytes()
        assert sent == (tmp_path / f"inline_{n}.csv").read_bytes()


def test_snapshot_writer_writes_in_order_and_reports_first_error(tmp_path, monkeypatch):
    # The error of the second table ends the helper: the first file is
    # complete, the third is never written, and the block raises.
    cpus(monkeypatch, 2)
    params = PhysParams()
    state = edge_state(SENT_ROWS)
    (tmp_path / "taken.csv").mkdir()
    with pytest.raises(IsADirectoryError, match="taken.csv"):
        with SnapshotWriter() as writer:
            for name in ("first.csv", "taken.csv", "third.csv"):
                write_snapshot(tmp_path / name, state, params, writer=writer)
    assert len(data_rows(tmp_path / "first.csv")) == SENT_ROWS
    assert not (tmp_path / "third.csv").exists()


def test_snapshot_writer_send_raises_a_reported_error(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    params = PhysParams()
    state = edge_state(SENT_ROWS)
    (tmp_path / "taken.csv").mkdir()
    with SnapshotWriter() as writer:
        write_snapshot(tmp_path / "taken.csv", state, params, writer=writer)
        (helper,) = multiprocessing.active_children()
        helper.join(timeout=30)  # it has reported its error and exited
        assert not helper.is_alive()
        with pytest.raises(IsADirectoryError):
            write_snapshot(tmp_path / "next.csv", state, params, writer=writer)
    assert not (tmp_path / "next.csv").exists()


def test_snapshot_writer_keeps_the_exception_in_flight(tmp_path, monkeypatch):
    cpus(monkeypatch, 2)
    params = PhysParams()
    state = edge_state(SENT_ROWS)
    (tmp_path / "taken.csv").mkdir()
    with pytest.raises(KeyError, match="in flight"):
        with SnapshotWriter() as writer:
            write_snapshot(tmp_path / "taken.csv", state, params, writer=writer)
            raise KeyError("in flight")
    assert multiprocessing.active_children() == []


def test_snapshot_writer_survives_a_send_cut_short(tmp_path, monkeypatch):
    # An exception (say ^C) that cuts a send short leaves part of a
    # message in the pipe; leaving the block must neither hang on it
    # nor lose the tables sent whole before it.
    cpus(monkeypatch, 2)

    def timed_out(signum, frame):
        raise TimeoutError("the writer did not stop")

    params = PhysParams()
    state = edge_state(SENT_ROWS)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(30)
    try:
        with pytest.raises(KeyError, match="interrupted"):
            with SnapshotWriter() as writer:
                write_snapshot(tmp_path / "whole.csv", state, params, writer=writer)
                writer._conn._send(struct.pack("!i", 1 << 20) + b"cut short")
                raise KeyError("interrupted")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(data_rows(tmp_path / "whole.csv")) == SENT_ROWS
