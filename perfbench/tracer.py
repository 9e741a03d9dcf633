"""Run one rrgas CLI command in this process and time its main().

    python3 perfbench/tracer.py SUMMARY.json traced|untraced rrgas-args...

Untraced, the process does what `python3 -m rrgas.cli` does, plus one
clock read on each side of rrgas.cli.main and a speed probe (SpeedProbe);
SUMMARY.json gets main()'s wall time, which leaves out interpreter
start-up and imports, and the probe's samples.

Traced, it first puts a span around every call into a public function
of each layer (one package module).  Spans are kept in memory as
(name, start, end, parent) and reduced, after the command returns, to
per-name call counts, inclusive time and self time (span time minus
the time of its child spans); the reduction goes to SUMMARY.json too.
Nothing under src/ is changed: the wrappers replace module attributes
in this process only.  The process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import signal
import sys
import time

import numpy as np
from scipy.linalg import solveh_banded

LAYERS = (
    "config", "constitutive", "solver", "mesh", "diagnostics",
    "driver", "output", "sweep", "mms", "cli",
)

# output.fmt formats each number written (seven per snapshot row); a
# span per call would cost more than the call and distort the output
# layer, so it runs untraced inside write_snapshot's span.
UNTRACED = {("output", "fmt")}

MMS_SOURCES = ("source_v", "source_u", "source_theta", "source_z")

PROBE_PERIOD_S = 0.025


class SpeedProbe:
    """Samples how fast the host runs this process, from inside it.

    On a shared host the speed of a core swings by tens of percent within
    seconds and drifts over minutes, so a command's wall time in seconds
    says as much about the neighbours as about the command.  Every
    PROBE_PERIOD_S a timer signal runs a fixed kernel (about 0.25 ms: the
    small-array numpy calls, banded solve and plain Python arithmetic an
    rrgas step is made of) twice in the measured process and times the
    second run.  The kernel shares the core and the moment with the
    program, so the program's time over the kernel's mean time does not
    move with the host.  That mean is the benchmark's time unit, "cal".
    The first, untimed run brings the kernel back into the caches the
    program has just used, so the unit does not depend on how much
    memory the program touches; and the kernel does not use rrgas, so no
    change to the program changes the unit.  A change to the kernel
    changes every figure measured in it.
    """

    N_CELLS = 128
    ROUNDS = 4

    def __init__(self):
        self.times = []  # the timed runs of the kernel
        self.spent = 0.0  # the whole time taken from the program
        rng = np.random.default_rng(0)
        self.banded = np.empty((2, self.N_CELLS))
        self.banded[0] = -1.0
        self.banded[1] = 4.0
        self.a = rng.random(self.N_CELLS) + 0.5
        self.b = rng.random(self.N_CELLS)
        self.kernel()  # warm-up: the first call pays one-off costs

    def kernel(self) -> float:
        acc = 0.0
        for i in range(self.ROUNDS):
            y = np.maximum(self.a * self.b + 1.0, 0.5) / (1.0 + self.a)
            acc += float(np.diff(y).sum())
            acc += float(solveh_banded(self.banded, y, lower=False)[i])
            for j in range(8):
                acc += j * 0.5
        return acc

    def sample(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        timed = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.times.append(end - timed)
        self.spent += end - start

    def start(self):
        self.sample(None, None)  # so that even a short run has a sample
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def probe_members(sweep, path):
    """Probe each sweep member where it runs, in the pool's worker processes.

    Pool workers are forked after this patch, so their rrgas.sweep.run_one
    is the wrapper.  Each member appends its probe samples, one JSON line,
    to `path`; the parent process runs no probe, as it mostly waits and
    shares the cores with the workers.
    """
    run_one = sweep.run_one

    @functools.wraps(run_one)
    def probed(*args, **kwargs):
        probe = SpeedProbe()
        probe.start()
        try:
            return run_one(*args, **kwargs)
        finally:
            probe.stop()
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"times": probe.times, "spent": probe.spent}) + "\n")

    sweep.run_one = probed


class Tracer:
    """In-memory span recorder; spans[i] = (name, start, end, parent index)."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.newton_iterations = 0
        self.rejections = 0

    def wrap(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def count_step(self, result):
        report = result[1]
        self.newton_iterations += report.newton_iterations
        self.rejections += report.rejections

    def install(self):
        """Wrap every public function of every layer, wherever it is bound."""
        modules = {layer: importlib.import_module(f"rrgas.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer, attr) not in UNTRACED
                ):
                    after = self.count_step if (layer, attr) == ("solver", "step") else None
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}", after)
        solver = modules["solver"]
        wrappers[solver.solveh_banded] = self.wrap(solver.solveh_banded, "solver.banded_solve")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        case_cls = modules["mms"].MmsCase
        for attr in MMS_SOURCES:
            setattr(case_cls, attr, self.wrap(getattr(case_cls, attr), "mms.sources"))
        return modules["cli"].main

    def summary(self):
        """Per-name [calls, inclusive s, self s] plus per-layer inclusive time.

        A layer's inclusive time sums its spans whose parent belongs to
        another layer, so nested calls inside one layer count once.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        names = {}
        layer_inclusive = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent) in enumerate(spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            layer = name.partition(".")[0]
            if parent < 0 or spans[parent][0].partition(".")[0] != layer:
                layer_inclusive[layer] += end - start
        return {
            "spans": len(spans),
            "names": names,
            "layer_inclusive_s": layer_inclusive,
            "newton_iterations": self.newton_iterations,
            "rejections": self.rejections,
        }


def main(argv):
    summary_path, mode, cli_args = argv[0], argv[1], argv[2:]
    probe = None
    if mode == "traced":
        tracer = Tracer()
        cli_main = tracer.install()
    elif cli_args[0] == "sweep":
        import rrgas.sweep
        from rrgas.cli import main as cli_main

        members_path = summary_path + ".probes"
        probe_members(rrgas.sweep, members_path)
    else:
        probe = SpeedProbe()
        probe.start()
        from rrgas.cli import main as cli_main
    probe_before = probe.spent if probe else 0.0
    start = time.perf_counter()
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:
        code = exc.code
    wall = time.perf_counter() - start
    summary = tracer.summary() if mode == "traced" else {}
    summary["main_wall_s"] = wall
    if probe is not None:
        probe.stop()
        summary["probe_s"] = probe.times
        summary["probe_spent_s"] = probe.spent
        summary["main_probe_spent_s"] = probe.spent - probe_before
    elif mode != "traced":
        with open(members_path, encoding="utf-8") as fh:
            members = [json.loads(line) for line in fh]
        summary["probe_s"] = [t for member in members for t in member["times"]]
        summary["probe_spent_s"] = sum(member["spent"] for member in members)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
