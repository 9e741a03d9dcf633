"""Command-line entry points: run, check, sweep, mms.

Exit codes: 0 success, 1 configuration or validation problem, 2
simulation failure, 3 IO failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import init_state, load_config, save_config
from .driver import check_scenario, run_simulation
from .mesh import ConfigurationError
from .mms import CASES, studies
from .output import RunWriter, run_id, write_failure, write_snapshot
from .solver import InvariantViolation, SimulationError
from .sweep import run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SIMULATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are validation problems, exit 1 like the rest."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rrgas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="integrate a scenario and write outputs")
    p_run.add_argument("config", help="scenario configuration file")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="run a scenario and grade its invariants")
    p_check.add_argument("config", help="scenario configuration file")
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run every combination in a sweep manifest")
    p_sweep.add_argument("manifest", help="manifest: a config plus a [sweep] section")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="split the runs into JOBS chunks, each stepped as one batch, "
                              "the first here and each other one in a forked worker where "
                              "rrgas may fork (rrgas.workers.may_fork); at most one chunk "
                              "per run (default: 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mms = sub.add_parser("mms", help="print a manufactured-solution convergence table")
    p_mms.add_argument("case", help="case name: " + ", ".join(sorted(CASES)))
    p_mms.add_argument("--levels", type=int, default=3, help="refinement levels (default: 3)")
    p_mms.set_defaults(func=cmd_mms)
    return parser


def cmd_run(args) -> int:
    """Runs a scenario into --out.  Its snapshots and each block of its
    diagnostics rows go to one RunWriter, which formats and writes them
    beside the run where rrgas may fork; the run keeps no rows.  The
    writer is joined, with diagnostics.csv complete, before failure.json
    is written or the command returns; a writer error ends the command
    as an OSError (exit 3)."""
    config = load_config(args.config)
    initial = init_state(config)  # a bad initial state writes nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rid = run_id(config)
    save_config(out / "config.ini", config)

    with RunWriter(out / "diagnostics.csv") as writer:

        def snapshot(state, index):
            path = out / f"snapshot_{index:06d}.csv"
            write_snapshot(path, state, config.params, rid, writer=writer)

        def on_step(state, report, index):
            if index % config.output_every == 0:
                snapshot(state, index)

        snapshot(initial, 0)
        result = run_simulation(config, state=initial, on_step=on_step, sink=writer.add_rows)
        if result.n_steps % config.output_every:
            snapshot(result.state, result.n_steps)

    if not result.completed:
        write_failure(out / "failure.json", result.error or "unknown", result.state, rid)
        print(f"simulation failed: {result.error}", file=sys.stderr)
        return EXIT_SIMULATION
    print(f"run {rid}: {result.n_steps} steps to t={result.state.t:g}, outputs in {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    config = load_config(args.config)
    report = check_scenario(config)
    for row in report.rows:
        mark = "PASS" if row.passed else "FAIL"
        detail = f"  ({row.detail})" if row.detail else ""
        print(f"{mark}  {row.name}{detail}")
    if not report.completed:
        return EXIT_SIMULATION
    return EXIT_OK if report.passed else EXIT_CONFIG


def cmd_sweep(args) -> int:
    rows, path = run_sweep(args.manifest, Path(args.out), jobs=args.jobs)
    failed = sum(1 for row in rows if row.classification == "failed")
    print(f"{len(rows)} runs ({failed} failed), summary in {path}")
    return EXIT_OK


def cmd_mms(args) -> int:
    if args.case not in CASES:
        raise ConfigurationError(
            f"unknown case {args.case!r}; available: {', '.join(sorted(CASES))}"
        )
    if args.levels < 2:
        raise ConfigurationError("need at least 2 levels for a convergence table")
    case = CASES[args.case]()
    spatial, (rows, _, orders) = studies(case, levels=args.levels)
    print(mms_table(case.name, spatial, (rows, orders)), end="")
    return EXIT_OK


def mms_table(case_name: str, spatial, temporal) -> str:
    """The `rrgas mms` table: a header, then one line per study, level and field.

    spatial and temporal are each (rows, orders) of their study.  A
    spatial level's order compares it with the level before; a temporal
    order needs two differences, so it starts at level 2.
    """
    lines = ["study,case,field,level,n_cells,n_steps,error_l2,error_linf,order"]
    for study, (rows, orders), first in (("spatial", spatial, 1), ("temporal", temporal, 2)):
        for i, row in enumerate(rows):
            for name, (l2, linf) in row["errors"].items():
                order = f"{orders[name][i - first]:.3f}" if i >= first else ""
                lines.append(f"{study},{case_name},{name},{i},{row['n_cells']},"
                             f"{row['n_steps']},{l2:.6e},{linf:.6e},{order}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigurationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except InvariantViolation as exc:  # run_simulation reports `run`'s; run_fixed raises `mms`'s
        print(f"simulation failed: scheme invariant violated: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
