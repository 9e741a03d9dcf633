"""Write a BENCH_<n>.json record: the benchmark's end-to-end metrics on
its four workloads, and the wall time of `rrgas run` on each shipped
config and of `rrgas sweep` on the sweep example at one and two jobs.

    python3 scripts/bench_record.py 38

Run from the root of the source tree.  Each workload is one
`perfbench/run.py --trace 0` subprocess, at the default seed and for
the `run_seconds` of BENCHMARK.json, whose result line (the last line
of its output) and record line (the one before) are kept.  The
shipped runs are fresh `python3 -m rrgas.cli` processes, one per
command of SHIPPED_RUNS, taken in turn REPEATS times so that a slow
stretch of the host falls on all of them; each command gets the median
wall time and the median CPU time of its processes
(resource.getrusage of this script's children, a sweep's pool
workers included).  Nothing but the record file is left behind.
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


def shipped_runs(root: Path) -> dict:
    """Median wall and CPU seconds of each of SHIPPED_RUNS."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    walls = {name: [] for name in SHIPPED_RUNS}
    cpus = {name: [] for name in SHIPPED_RUNS}
    with tempfile.TemporaryDirectory() as scratch:
        for repeat in range(REPEATS):
            for number, (name, args) in enumerate(SHIPPED_RUNS.items()):
                out = Path(scratch) / f"{number}-{repeat}"
                cpu = children_cpu_s()
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "rrgas.cli", *args, "--out", str(out)],
                               cwd=root, env=env, stdout=subprocess.DEVNULL, check=True)
                walls[name].append(time.perf_counter() - start)
                cpus[name].append(children_cpu_s() - cpu)
    return {name: {"wall_s": statistics.median(walls[name]),
                   "cpu_s": statistics.median(cpus[name]),
                   "wall_s_samples": walls[name]}
            for name in SHIPPED_RUNS}


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
    }
    path = root / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
