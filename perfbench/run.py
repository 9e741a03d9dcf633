"""The rrgas benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload run-small --seed 1 --seconds 15 --trace 0

Run from the root of a source tree (it needs src/rrgas and
BENCHMARK.json there).  Each invocation of the program is a fresh
process calling rrgas.cli.main (perfbench/tracer.py), run closed-loop:
one client, the next invocation starts when the previous one ends,
until --seconds have passed.  Every invocation's outputs are checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced invocations with traced ones (perfbench/tracer.py)
and reports the per-layer metrics.  The last line of standard output is
the JSON result; the line before it is a JSON record of the environment,
inputs, output digests and raw samples.  All scratch files live under
.bench_work/ in the current directory and are removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import metrics
import workloads
from workloads import DEFAULT_SEED, SIZES, SWEEP_JOBS, SWEEP_MEMBERS

# Every child gets one BLAS/OpenMP thread, so --jobs 2 uses 2 cores.
THREAD_VARS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
SETUP_SAMPLES = 5
BUDGET_S = 170.0  # the whole benchmark run must end within 180 s
# setup_s is reported in seconds at a fixed host speed: set-up time in cal
# (tracer.SpeedProbe), converted at 1 cal = 0.2 ms, about the probe kernel's
# time on the 2-core host the benchmark was defined on.
CAL_S = 2e-4


@dataclasses.dataclass
class Invocation:
    """One finished child process."""

    code: int
    wall: float
    rss_mb: float
    stdout: str
    summary: dict | None = None  # from tracer.py; None if the command failed
    bytes_out: int = 0


class Runner:
    """Starts child processes from the source root and waits for each."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(work), **THREAD_VARS)

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv) -> Invocation:
        """Run argv to completion; wall time from spawn to reap, peak RSS via wait4."""
        self.count += 1
        log = self.work / f"child{self.count}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=out, stderr=err,
                start_new_session=True,
            )
            killer = threading.Timer(max(self.time_left(), 1.0), os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if status is None:  # interrupted: stop the child's whole session
                    os.killpg(proc.pid, signal.SIGKILL)
                    os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = Path(f"{log}.out").read_text(encoding="utf-8", errors="replace")
        return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


class Bench:
    """One benchmark run: generated inputs, checked invocations, samples."""

    def __init__(self, args, root: Path, work: Path):
        self.workload, self.scale, self.seed = args.workload, args.scale, args.seed
        self.root, self.work = root, work
        self.runner = Runner(root, work, time.perf_counter() + BUDGET_S)
        self.inputs = workloads.write_inputs(self.workload, self.seed, self.scale, work)
        self.problems = []
        self.digests = None
        self.facts = {}
        self.attempted = 0
        self.failed = 0
        self.outs = 0

    def invoke(self, traced=False, jobs=SWEEP_JOBS) -> Invocation:
        """One invocation whose outputs are checked, then deleted."""
        self.outs += 1
        out = self.work / f"out{self.outs}"
        args = workloads.cli_args(self.workload, self.scale, self.inputs, out, jobs)
        summary = self.work / f"summary{self.outs}.json"
        inv = self.runner.run([sys.executable, str(self.root / "perfbench" / "tracer.py"),
                               str(summary), "traced" if traced else "untraced", *args])
        if inv.code == 0:
            inv.summary = json.loads(summary.read_text())
        self.check(inv, out)
        inv.bytes_out = checks.bytes_written(out)
        shutil.rmtree(out, ignore_errors=True)
        return inv

    def check(self, inv, out: Path) -> None:
        label = f"invocation {self.outs}"
        members = SWEEP_MEMBERS if self.workload == "sweep-jobs2" else 1
        self.attempted += members
        if inv.code != 0:
            self.failed += members
            self.problems.append(f"{label}: exit code {inv.code}")
            return
        try:
            if self.workload == "mms-trig":
                problems, facts = checks.check_mms(inv.stdout, SIZES[self.scale]["mms-trig"]["levels"])
                digest = {"stdout": hashlib.sha256(inv.stdout.encode()).hexdigest()}
            elif self.workload == "sweep-jobs2":
                problems, facts = checks.check_sweep(out, members)
                self.failed += facts["failed_members"]
                digest = checks.digests(out)
            else:
                problems, facts = checks.check_run(self.inputs, out)
                digest = checks.digests(out)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"{label}: outputs missing or malformed: {exc!r}")
            return
        if self.digests is None:
            self.digests = digest
            self.facts = facts
        elif digest != self.digests:
            problems.append("outputs differ from the first invocation's bytes")
        self.problems += [f"{label}: {p}" for p in problems]

    def closed_loop(self, seconds, one):
        """Call one() back to back for up to `seconds`: once, then again
        while another call as long as the longest so far still fits."""
        start = time.perf_counter()
        longest = 0.0
        while True:
            began = time.perf_counter()
            one()
            longest = max(longest, time.perf_counter() - began)
            if (time.perf_counter() - start + longest > seconds
                    or self.runner.time_left() < 2.0 * longest):
                return

    def sweep_steps(self) -> int:
        """Accepted steps summed over the sweep's members.

        The summary does not report steps, so the members are replayed
        here, after the timed invocations, in this process.
        """
        from rrgas.driver import run_simulation
        from rrgas.sweep import expand, load_manifest

        base, items = load_manifest(self.inputs)
        return sum(run_simulation(config).n_steps for _, config in expand(base, items))

    def end_to_end(self, seconds):
        probe = [sys.executable, str(self.root / "perfbench" / "setup_probe.py"), self.workload]
        if self.inputs is not None:
            probe.append(str(self.inputs))
        setups, runs = [], []

        def setup_once():
            inv = self.runner.run(probe)
            if inv.code != 0:
                self.problems.append(f"setup probe: exit code {inv.code}")
            setups.append(inv.wall)

        def one():
            # Set-up samples are spread over the loop so they see the
            # same machine state as the invocations whose cal converts them.
            if len(setups) < SETUP_SAMPLES:
                setup_once()
            runs.append(self.invoke())

        self.closed_loop(seconds, one)
        while len(setups) < SETUP_SAMPLES:
            setup_once()
        if self.workload == "sweep-jobs2":
            steps = self.sweep_steps()
        else:
            steps = self.facts.get("steps", 0)
        walls = [r.wall for r in runs]
        # main() starts after start-up and imports, the bulk of set-up; the
        # config parse and init_state left inside it take about 1 ms.
        mains = [r.summary["main_wall_s"] if r.summary else math.inf for r in runs]
        in_cal = [self.in_cal(r) for r in runs]
        # The set-up probes run in the same stretch of time as the
        # invocations, so the invocations' cal is their unit as well.
        units = [unit for _, _, unit in in_cal if unit > 0]
        setup = statistics.median(setups)
        if units:
            setup *= CAL_S / statistics.median(units)
        values = {
            "wall_cal": statistics.median(wall for wall, _, _ in in_cal),
            "setup_s": setup,
            "cal_per_step": statistics.median(main / steps if steps else 0.0
                                              for _, main, _ in in_cal),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        extra = {
            "wall_s": statistics.median(walls),
            "setup_wall_s": statistics.median(setups),
            "steps_per_s": statistics.median(steps / m for m in mains),
            "cal_ms": 1e3 * statistics.median(unit for _, _, unit in in_cal),
            "members_per_s": statistics.median(SWEEP_MEMBERS / w for w in walls)
            if self.workload == "sweep-jobs2" else None,
            "failed_share": self.failed / self.attempted,
            "energy_drift": self.facts.get("energy_drift"),
            "z_balance_residual": self.facts.get("z_balance_residual"),
            "mms_error_l2": self.facts.get("mms_error_l2"),
        }
        samples = {"wall_s": walls, "main_wall_s": mains, "setup_wall_s": setups,
                   "wall_cal": [wall for wall, _, _ in in_cal],
                   "main_cal": [main for _, main, _ in in_cal],
                   "cal_s": [unit for _, _, unit in in_cal],
                   "peak_rss_mb": [r.rss_mb for r in runs], "steps_per_invocation": steps}
        return values, extra, samples

    def in_cal(self, inv):
        """(wall, main() time, cal) of an untraced invocation, both times in cal.

        cal is the mean time of the speed probe's kernel (tracer.SpeedProbe)
        over the invocation.  The time the probe takes is taken out of both
        times; sweep members are probed in parallel, one per worker.
        """
        probes = inv.summary.get("probe_s") if inv.summary else None
        if not probes:
            self.problems.append("an invocation reported no speed-probe samples")
            return 0.0, 0.0, 0.0
        unit = statistics.fmean(probes)
        jobs = SWEEP_JOBS if self.workload == "sweep-jobs2" else 1
        spent = inv.summary["probe_spent_s"] / jobs
        wall = self.unprobed_wall(inv, jobs) / unit
        main = (inv.summary["main_wall_s"] - inv.summary.get("main_probe_spent_s", spent)) / unit
        return wall, main, unit

    @staticmethod
    def unprobed_wall(inv, jobs) -> float:
        """Wall time less the speed probe's, which ran spread over `jobs` workers."""
        spent = inv.summary.get("probe_spent_s", 0.0) if inv.summary else 0.0
        return inv.wall - spent / jobs

    def per_layer(self, seconds):
        untraced, traced, jobs1 = [], [], []

        def one():
            untraced.append(self.invoke())
            if self.workload == "sweep-jobs2":
                jobs1.append(self.invoke(jobs=1))
            traced.append(self.invoke(traced=True, jobs=1))

        self.closed_loop(seconds, one)
        if any(inv.summary is None for inv in traced):
            return None, {}
        baseline = jobs1 if jobs1 else untraced
        untraced_wall = statistics.median(self.unprobed_wall(r, 1) for r in baseline)
        sweep_walls = {}
        if jobs1:
            sweep_walls = {"sweep_jobs1_wall": untraced_wall,
                           "sweep_jobs2_wall": statistics.median(
                               self.unprobed_wall(r, SWEEP_JOBS) for r in untraced)}
        per_run = [
            metrics.per_layer(inv.summary, bytes_out=inv.bytes_out, traced_wall=inv.wall,
                              untraced_wall=untraced_wall, **sweep_walls)
            for inv in traced
        ]
        values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
        samples = {
            "traced_wall_s": [r.wall for r in traced],
            "untraced_wall_s": [r.wall for r in untraced],
            "untraced_jobs1_wall_s": [r.wall for r in jobs1],
            "spans": [inv.summary["spans"] for inv in traced],
            "main_wall_s": [inv.summary["main_wall_s"] for inv in traced],
            "calls": {name: entry[0] for name, entry in sorted(traced[0].summary["names"].items())},
        }
        return values, samples


def git_commit(root: Path):
    """HEAD's commit when the tree is a git checkout, else None."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over src/**/*.py, names and contents, so a run names its code."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "thread_env": THREAD_VARS,
    }


def print_table(workload, names_units, values, extra):
    print(f"rrgas benchmark: {workload}")
    for name, unit in names_units:
        print(f"  {name:36s} {values[name]:>16.6g} {unit}")
    for name, value in (extra or {}).items():
        shown = "" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>16s}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True, help="closed-loop measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test only")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rrgas" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of an rrgas source tree (src/rrgas, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if SWEEP_JOBS * int(THREAD_VARS["OMP_NUM_THREADS"]) > nproc:
        print(f"error: --jobs {SWEEP_JOBS} with one BLAS thread each needs {SWEEP_JOBS} cores, "
              f"found {nproc}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    os.environ.update(THREAD_VARS)
    # A SIGTERM unwinds like an error, so children are killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, root, work)
        # Compile and cache the package once so no timed invocation pays for it.
        bench.runner.run([sys.executable, "-c", "import rrgas.cli"])
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        names_units = [(m["name"], m["unit"]) for m in listed]
        if args.trace:
            values, samples = bench.per_layer(args.seconds)
            extra = None
        else:
            values, extra, samples = bench.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if values is None:
        print("error: a traced invocation failed: " + "; ".join(bench.problems), file=sys.stderr)
        return 1
    print_table(args.workload, names_units, values, extra)
    for problem in bench.problems:
        print(f"  FAILED CHECK: {problem}")
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(root, args.seed),
        "output_sha256": bench.digests,
        "checks": {"problems": bench.problems, **bench.facts},
        "extra_metrics": extra,
        "samples": samples,
        "layer_map": [dict(zip(("metric", "layer", "moves", "workloads"), row))
                      for row in metrics.LAYER_MAP],
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names_units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
