"""Correctness checks on the files and tables each invocation produces.

Each check returns (problems, facts): a list of failed conditions (empty
when the output is correct) and the measured quantities behind them.
rrgas is imported inside the checks, after run.py has found src/.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# Acceptance windows for observed MMS orders, as graded by
# tests/test_acceptance.py::test_criterion_5_mms_convergence.
SPATIAL_ORDER_WINDOW = (1.8, 2.3)
TEMPORAL_ORDER_WINDOW = (0.8, 1.3)

_FINITE_COLUMNS = ("e_total", "u_entropy", "v_dissipation", "z_l2", "width", "momentum")


def digests(out: Path) -> dict:
    """SHA-256 of every output file; snapshots are folded into one digest."""
    result = {}
    snapshots = hashlib.sha256()
    count = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name.startswith("snapshot_"):
            snapshots.update(path.name.encode() + b"\0" + data)
            count += 1
        else:
            result[path.name] = hashlib.sha256(data).hexdigest()
    if count:
        result[f"snapshot_*.csv ({count} files)"] = snapshots.hexdigest()
    return result


def bytes_written(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir()) if out.is_dir() else 0


def check_run(config_path: Path, out: Path):
    """Grade diagnostics.csv with the bounds of driver.check_scenario."""
    from rrgas.config import load_config
    from rrgas.driver import ENERGY_DRIFT_TOL, UV_RUN_CAP, Z_BALANCE_TOL

    config = load_config(config_path)
    if (out / "failure.json").exists():
        return ["failure.json written"], {}
    with open(out / "diagnostics.csv", newline="", encoding="utf-8") as fh:
        recs = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    e0 = recs[0]["e_total"]
    drift = max(abs(r["e_total"] - e0) for r in recs) / max(1.0, abs(e0))
    first, last = recs[0], recs[-1]
    residual = (
        last["z_l2"]
        + (last["z_diff_accum"] - first["z_diff_accum"])
        + (last["z_react_accum"] - first["z_react_accum"])
        - first["z_l2"]
    )
    uv = last["u_entropy"] + sum(r["dt"] * r["v_dissipation"] for r in recs[1:])
    conditions = {
        "reached t_end": last["t"] >= config.t_end,
        "all diagnostics finite": all(math.isfinite(r[c]) for r in recs for c in _FINITE_COLUMNS),
        "species range 0 <= z <= 1": min(r["min_z"] for r in recs) >= 0.0
        and max(r["max_z"] for r in recs) <= 1.0,
        "volume and temperature above floors": min(r["min_v"] for r in recs) > config.v_floor
        and min(r["min_theta"] for r in recs) > config.theta_floor,
        "entropy functionals nonnegative": min(r["u_entropy"] for r in recs) >= 0.0
        and min(r["v_dissipation"] for r in recs) >= 0.0,
        "U plus integrated V bounded": math.isfinite(uv) and uv < UV_RUN_CAP,
        "balance accumulators non-decreasing": all(
            b["z_diff_accum"] >= a["z_diff_accum"] and b["z_react_accum"] >= a["z_react_accum"]
            for a, b in zip(recs, recs[1:])
        ),
        "energy drift bounded": drift <= ENERGY_DRIFT_TOL,
        "species balance residual small": abs(residual) <= Z_BALANCE_TOL,
    }
    problems = [name for name, ok in conditions.items() if not ok]
    facts = {"steps": len(recs) - 1, "energy_drift": drift, "z_balance_residual": residual}
    return problems, facts


def check_sweep(out: Path, members: int):
    """Every member ran to completion and is listed once, in order."""
    with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [row["index"] for row in rows] != [str(i) for i in range(members)]:
        problems.append(f"summary lists {len(rows)} rows, expected {members}")
    failed = sum(row["classification"] == "failed" or row["error"] != "" for row in rows)
    if failed:
        problems.append(f"{failed} sweep members failed")
    return problems, {"members": len(rows), "failed_members": failed}


def check_mms(table: str, levels: int):
    """Observed orders inside the acceptance windows; errors and step counts."""
    rows = list(csv.DictReader(table.splitlines()))
    problems = []
    steps = {}
    spatial_orders, temporal_orders = [], []
    finest_l2 = 0.0
    for row in rows:
        steps[(row["study"], row["level"])] = int(row["n_steps"])
        if row["order"]:
            order = float(row["order"])
            (spatial_orders if row["study"] == "spatial" else temporal_orders).append(order)
        if row["study"] == "spatial" and int(row["level"]) == levels - 1:
            finest_l2 = max(finest_l2, float(row["error_l2"]))
    expected = {"spatial": 4 * (levels - 1), "temporal": 4 * max(levels - 2, 0)}
    for study, orders, (lo, hi) in (
        ("spatial", spatial_orders, SPATIAL_ORDER_WINDOW),
        ("temporal", temporal_orders, TEMPORAL_ORDER_WINDOW),
    ):
        if len(orders) != expected[study]:
            problems.append(f"{len(orders)} {study} orders, expected {expected[study]}")
        outside = [o for o in orders if not lo <= o <= hi]
        if outside:
            problems.append(f"{study} orders {outside} outside [{lo}, {hi}]")
    facts = {
        "steps": sum(steps.values()),
        "mms_error_l2": finest_l2,
        "spatial_orders": spatial_orders,
        "temporal_orders": temporal_orders,
    }
    return problems, facts
