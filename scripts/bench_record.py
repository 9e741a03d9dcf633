"""Write a BENCH_<n>.json record: the benchmark's end-to-end metrics on
its four workloads, the wall time of `rrgas run` on each shipped config
and of `rrgas sweep` on the sweep example at one and two jobs, and the
wall time of the Tier-1 test command.

    python3 scripts/bench_record.py 39

Run from the root of the source tree.  Each workload is one
`perfbench/run.py --trace 0` subprocess, at the default seed and for
the `run_seconds` of BENCHMARK.json, whose result line (the last line
of its output) and record line (the one before) are kept.  The
shipped runs are fresh `python3 -m rrgas.cli` processes, one per
command of SHIPPED_RUNS, taken in turn REPEATS times so that a slow
stretch of the host falls on all of them; each command gets the median
wall time and the median CPU time of its processes
(resource.getrusage of this script's children, a sweep's pool
workers included).  The Tier-1 command (TIER1, the pytest run of
ROADMAP.md) is run TIER1_REPEATS times after them and recorded the
same way, with each run's exit code and pytest's summary line.
Nothing but the record file is left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("run-small", "run-large", "sweep-jobs2", "mms-trig")
SWEEP = ["sweep", "configs/sweep_example.ini", "--jobs"]
# `rrgas` arguments of each shipped run, without its --out
SHIPPED_RUNS = {
    **{name: ["run", f"configs/{name}.ini"]
       for name in ("equilibrium", "reference", "reacting", "expansion")},
    "sweep_example --jobs 1": SWEEP + ["1"],
    "sweep_example --jobs 2": SWEEP + ["2"],
}
REPEATS = 7  # runs of each shipped command
# pytest arguments of the Tier-1 command, without its --basetemp
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
TIER1_REPEATS = 3  # a Tier-1 run takes about 20 s


def workload(root: Path, name: str, seconds: float) -> dict:
    """The result and the record line of one perfbench run of name."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seconds", str(seconds),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    *_, record_line, result_line = done.stdout.splitlines()
    record = json.loads(record_line)["record"]
    return {
        "result": json.loads(result_line),
        "extra_metrics": record["extra_metrics"],
        "checks": record["checks"],
        "environment": record["environment"],
    }


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed_runs(root: Path, commands: dict, repeats: int, check: bool = True):
    """Run each of commands (name -> this Python's arguments, the last an
    option that takes a path) in turn, repeats times, from root with its
    src on PYTHONPATH; each run gets a fresh path in a temporary directory.
    Returns name -> the median wall and CPU seconds and the wall samples,
    and name -> the completed processes.  check: raise on a failed run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    walls, cpus, processes = ({name: [] for name in commands} for _ in range(3))
    with tempfile.TemporaryDirectory() as scratch:
        for repeat in range(repeats):
            for number, (name, args) in enumerate(commands.items()):
                path = Path(scratch) / f"{number}-{repeat}"
                cpu = children_cpu_s()
                start = time.perf_counter()
                done = subprocess.run([sys.executable, *args, str(path)], cwd=root, env=env,
                                      capture_output=True, text=True, check=check)
                walls[name].append(time.perf_counter() - start)
                cpus[name].append(children_cpu_s() - cpu)
                processes[name].append(done)
    return ({name: {"wall_s": statistics.median(walls[name]),
                    "cpu_s": statistics.median(cpus[name]),
                    "wall_s_samples": walls[name]}
             for name in commands}, processes)


def shipped_runs(root: Path) -> dict:
    """Median wall and CPU seconds of each of SHIPPED_RUNS."""
    commands = {name: ["-m", "rrgas.cli", *args, "--out"] for name, args in SHIPPED_RUNS.items()}
    return timed_runs(root, commands, REPEATS)[0]


def tier1(root: Path) -> dict:
    """Median wall and CPU seconds of the Tier-1 command, with each run's
    exit code and the last line pytest printed."""
    records, processes = timed_runs(root, {"tier1": [*TIER1, "--basetemp"]}, TIER1_REPEATS,
                                    check=False)
    runs = processes["tier1"]
    return {"command": ["python3", *TIER1], "repeats": TIER1_REPEATS, **records["tier1"],
            "returncodes": [done.returncode for done in runs],
            "summaries": [(done.stdout.strip().splitlines() or [""])[-1] for done in runs]}


def environment(root: Path) -> dict:
    import numpy

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit or None,
        # With it set, no invocation caches bytecode: each compiles rrgas
        # from source, inside setup_s and the shipped wall times.
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="the record's number: writes BENCH_<number>.json")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "perfbench" / "run.py").is_file():
        print("error: run from the root of an rrgas source tree", file=sys.stderr)
        return 2
    seconds = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    bench = {
        "environment": environment(root),
        "seconds": seconds,
        "workloads": {name: workload(root, name, seconds) for name in WORKLOADS},
        "shipped": {"repeats": REPEATS, "runs": shipped_runs(root)},
        "tier1": tier1(root),
    }
    path = root / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
