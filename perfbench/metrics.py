"""Metric definitions: the layer -> metric -> workload map and the
per-layer numbers derived from one traced invocation.

Names and units live in BENCHMARK.json; this module says what each
per-layer metric should move and where, and how it is computed.
"""

from __future__ import annotations

from tracer import LAYERS
from workloads import SWEEP_JOBS

# (metric, layer, end-to-end metric it should move, workloads it shows on)
LAYER_MAP = [
    ("config.load_config_ms", "config", "setup_s", "all workloads; zero on mms-trig, which reads no config"),
    ("config.init_state_ms", "config", "setup_s", "all workloads; zero on mms-trig, which builds its own state"),
    ("constitutive.calls_per_step", "constitutive", "cal_per_step", "run-small, mms-trig, sweep-jobs2; little on run-large"),
    ("constitutive.us_per_step", "constitutive", "cal_per_step", "run-small, mms-trig, sweep-jobs2; little on run-large"),
    ("solver.cfl_dt.us_per_step", "solver", "cal_per_step", "run and sweep workloads; zero on mms-trig"),
    ("solver.momentum_step.us_per_step", "solver", "cal_per_step", "all workloads"),
    ("solver.volume_step.us_per_step", "solver", "cal_per_step", "all workloads"),
    ("solver.species_step.us_per_step", "solver", "cal_per_step", "all workloads"),
    ("solver.energy_step.us_per_step", "solver", "cal_per_step", "all workloads"),
    ("solver.step.self_us_per_step", "solver", "cal_per_step", "all workloads"),
    ("solver.banded_solves_per_step", "solver", "cal_per_step", "mostly run-large"),
    ("solver.banded_solve.us_per_call", "solver", "cal_per_step", "mostly run-large"),
    ("solver.newton_iters_per_step", "solver", "cal_per_step", "all workloads; a count, not a speed"),
    ("solver.rejections_per_step", "solver", "cal_per_step", "all workloads; a count, not a speed"),
    ("diagnostics.record.us_per_step", "diagnostics", "cal_per_step", "run-small, sweep-jobs2; zero on mms-trig"),
    ("driver.loop.self_us_per_step", "driver", "cal_per_step", "run workloads"),
    ("output.write_snapshot.ms_per_call", "output", "wall_cal", "run-large"),
    ("output.snapshot_calls", "output", "wall_cal", "run workloads; zero on sweep-jobs2 and mms-trig"),
    ("output.bytes_written", "output", "wall_cal", "run-large; about zero on sweep-jobs2 and mms-trig"),
    ("output.share_of_wall", "output", "wall_cal", "run-large; about zero on sweep-jobs2 and mms-trig"),
    ("sweep.run_one.s_per_member", "sweep", "members_per_s", "sweep-jobs2 only"),
    ("sweep.parallel_efficiency", "sweep", "members_per_s", "sweep-jobs2 only"),
    ("sweep.pool_overhead_s", "sweep", "members_per_s", "sweep-jobs2 only"),
    ("mms.run_mms.s_per_level", "mms", "cal_per_step", "mms-trig only"),
    ("mms.sources.us_per_step", "mms", "cal_per_step", "mms-trig only"),
    ("mms.state_errors_ms", "mms", "cal_per_step", "mms-trig only"),
    ("trace.overhead_share", "tracing", "none", "all workloads"),
] + [
    (f"{layer}.self_share", layer, "wall_cal", "all workloads; shares of one workload sum to 1")
    for layer in LAYERS
]


def per_layer(summary: dict, *, bytes_out: int, traced_wall: float, untraced_wall: float,
              sweep_jobs1_wall: float | None = None, sweep_jobs2_wall: float | None = None) -> dict:
    """Per-layer metrics of one traced invocation.

    Per-step figures divide by the accepted steps (calls of solver.step).
    Timings named after one function are inclusive of its children;
    "self" figures exclude them.  A metric of a layer the workload never
    calls reads 0.
    """
    names = summary["names"]

    def calls(name):
        return names.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return names.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return names.get(name, (0, 0.0, 0.0))[2]

    def per_call(name, scale):
        return scale * total(name) / calls(name) if calls(name) else 0.0

    steps = calls("solver.step")

    def per_step_us(seconds):
        return 1e6 * seconds / steps if steps else 0.0

    constitutive = [n for n in names if n.startswith("constitutive.")]
    main = summary["main_wall_s"]
    load = "config.load_config" if calls("config.load_config") else "config.parse_config"
    m = {
        "config.load_config_ms": 1e3 * total(load),
        "config.init_state_ms": per_call("config.init_state", 1e3),
        "constitutive.calls_per_step": sum(calls(n) for n in constitutive) / steps if steps else 0.0,
        "constitutive.us_per_step": per_step_us(sum(total(n) for n in constitutive)),
    }
    for sub in ("cfl_dt", "momentum_step", "volume_step", "species_step", "energy_step"):
        m[f"solver.{sub}.us_per_step"] = per_step_us(total(f"solver.{sub}"))
    m.update({
        "solver.step.self_us_per_step": per_step_us(self_time("solver.step")),
        "solver.banded_solves_per_step": calls("solver.banded_solve") / steps if steps else 0.0,
        "solver.banded_solve.us_per_call": per_call("solver.banded_solve", 1e6),
        "solver.newton_iters_per_step": summary["newton_iterations"] / steps if steps else 0.0,
        "solver.rejections_per_step": summary["rejections"] / steps if steps else 0.0,
        "diagnostics.record.us_per_step": per_step_us(total("diagnostics.record")),
        "driver.loop.self_us_per_step": per_step_us(self_time("driver.run_simulation")),
        "output.write_snapshot.ms_per_call": per_call("output.write_snapshot", 1e3),
        "output.snapshot_calls": calls("output.write_snapshot"),
        "output.bytes_written": bytes_out,
        "output.share_of_wall": summary["layer_inclusive_s"]["output"] / main,
        "sweep.run_one.s_per_member": per_call("sweep.run_one", 1.0),
        "sweep.parallel_efficiency": 0.0,
        "sweep.pool_overhead_s": 0.0,
        "mms.run_mms.s_per_level": per_call("mms.run_mms", 1.0),
        "mms.sources.us_per_step": per_step_us(total("mms.sources")),
        "mms.state_errors_ms": per_call("mms.state_errors", 1e3),
        "trace.overhead_share": traced_wall / untraced_wall - 1.0,
    })
    if sweep_jobs2_wall is not None:
        m["sweep.parallel_efficiency"] = total("sweep.run_one") / (SWEEP_JOBS * sweep_jobs2_wall)
        m["sweep.pool_overhead_s"] = sweep_jobs2_wall - sweep_jobs1_wall / SWEEP_JOBS
    for layer in LAYERS:
        layer_self = sum(self_time(n) for n in names if n.partition(".")[0] == layer)
        m[f"{layer}.self_share"] = layer_self / main
    return m
