"""Simulation loop and scenario grading."""

import dataclasses

import numpy as np
import pytest

import rrgas.driver
import rrgas.solver
from rrgas.config import Profile, RunConfig, init_state, load_config
from rrgas.constitutive import PhysParams
from rrgas.driver import check_scenario, run_batch, run_fixed, run_simulation
from rrgas.mesh import ConfigurationError, State


def rest_config(t_end=0.05, n_cells=16):
    # Uniform v = theta = 1 against p_ext = 2 with a_rad = 3: exact rest.
    cfg = RunConfig()
    cfg.n_cells = n_cells
    cfg.t_end = t_end
    cfg.params = PhysParams(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=3.0,
        g_grav=0.0, p_ext=2.0, k_rate=0.0, a_act=1.0, m_order=1.0,
        beta=0.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    return cfg


def bump_config(t_end=0.05, n_cells=32, **params):
    cfg = RunConfig()
    cfg.n_cells = n_cells
    cfg.t_end = t_end
    base = dict(
        mu=0.1, d_diff=0.1, lambda_heat=1.0, cv=1.0, r_gas=1.0, a_rad=0.5,
        g_grav=0.1, p_ext=0.5, k_rate=5.0, a_act=4.0, m_order=1.0,
        beta=1.0, q_cond=2.0, kappa1=0.5, kappa2=0.5, cond_model="A",
    )
    base.update(params)
    cfg.params = PhysParams(**base)
    cfg.theta_profile = Profile(
        "gaussian-bump", {"base": 1.0, "amplitude": 0.5, "center": 0.5, "width": 0.1}
    )
    cfg.z_profile = Profile("constant", {"value": 1.0})
    return cfg


def test_run_lands_exactly_on_t_end():
    result = run_simulation(rest_config())
    assert result.completed
    assert result.error is None
    assert result.state.t == 0.05  # bit-exact landing
    assert result.n_steps == len(result.records) - 1


def test_record_times_are_strictly_increasing():
    result = run_simulation(bump_config())
    ts = [r.t for r in result.records]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert result.records[0].dt == 0.0
    assert all(r.dt > 0.0 for r in result.records[1:])


def test_failed_run_returns_partial_result():
    cfg = bump_config()
    initial = init_state(cfg)
    cfg.v_floor = 2.0  # impossible bound, every attempt is rejected
    result = run_simulation(cfg, state=initial)
    assert not result.completed
    assert "rejected" in (result.error or "")
    assert result.state.t == 0.0
    assert len(result.records) == 1


def test_step_budget(monkeypatch):
    monkeypatch.setattr(rrgas.driver, "MAX_STEPS", 3)
    result = run_simulation(bump_config(t_end=10.0))
    assert not result.completed
    assert result.error == "step budget exhausted"
    assert result.n_steps == 3


def state_bits(state):
    return (state.t, state.v.tobytes(), state.u.tobytes(),
            state.theta.tobytes(), state.z.tobytes())


def faulty_species_step(real, calls):
    # the species update breaks its maximum principle on the third step
    def step(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise rrgas.solver.InvariantViolation("species exceeded its initial maximum")
        return real(*args, **kwargs)

    return step


@pytest.mark.parametrize("case", ["completed", "rejected", "budget", "invariant"])
def test_run_without_diagnostics_takes_the_same_path(case, monkeypatch):
    # A batch of one builds no records; its steps, final state and
    # failure result are run_simulation's.
    cfg = bump_config()
    state = init_state(cfg)
    if case == "rejected":
        cfg.v_floor = 2.0
    elif case == "budget":
        monkeypatch.setattr(rrgas.driver, "MAX_STEPS", 3)

    def run(runner):
        calls = []
        if case == "invariant":
            monkeypatch.setattr(
                rrgas.solver, "species_step",
                faulty_species_step(real_species_step, calls),
            )
        return runner(), calls

    real_species_step = rrgas.solver.species_step
    recorded, recorded_calls = run(lambda: run_simulation(cfg, state=state))
    bare, bare_calls = run(lambda: run_batch([cfg], state)[0])
    assert bare.records == []
    assert (bare.completed, bare.error, bare.n_steps) == (
        recorded.completed, recorded.error, recorded.n_steps
    )
    assert bare_calls == recorded_calls
    assert state_bits(bare.state) == state_bits(recorded.state)
    # the returned state is the one the last record was built from
    assert recorded.records[-1].t == recorded.state.t
    assert recorded.completed == (case == "completed")


def at_p_ext(config, state, value):
    """Which members of state run at p_ext = value: a bool for a single
    run, a (B,) mask for a batch, whether p_ext is shared or a column."""
    return np.broadcast_to(config.params.p_ext, np.shape(state.t) + (1,))[..., 0] == value


def patch_faults(monkeypatch):
    """The p_ext = 2.0 member has a volume update rejected at every dt
    above 1e-3; the p_ext = 3.0 member violates an invariant in its
    energy update from t = 0.01 on.  The faults act per member, in a
    batch as in a serial run: a batch's rejection names the p_ext = 2.0
    rows alone."""
    real_volume_step, real_energy_step = rrgas.solver.volume_step, rrgas.solver.energy_step

    def volume_step(state, dt, config, s_v=None):
        bad = at_p_ext(config, state, 2.0) & (dt > 1e-3)
        if bad.any():
            raise rrgas.solver.StepRejection("volume_floor", bad)
        return real_volume_step(state, dt, config, s_v)

    def energy_step(state, dt, config, *args, **kwargs):
        if (at_p_ext(config, state, 3.0) & (state.t >= 0.01)).any():
            raise rrgas.solver.InvariantViolation("injected")
        return real_energy_step(state, dt, config, *args, **kwargs)

    monkeypatch.setattr(rrgas.solver, "volume_step", volume_step)
    monkeypatch.setattr(rrgas.solver, "energy_step", energy_step)


@pytest.mark.parametrize("dt_min", [None, 2e-3], ids=["retries", "dt-min"])
def test_run_batch_gives_each_member_the_result_of_its_serial_run(monkeypatch, dt_min):
    # A member rejected at its cfl_dt leaves the batch and retries alone,
    # at half its dt, while the others step on as a batch; a member that
    # violates an invariant sends every member on alone; the last member
    # left steps on alone.  With DT_MIN raised, the p_ext = 2.0 member
    # halves below it in its own retries and fails.
    patch_faults(monkeypatch)
    if dt_min is not None:
        for module in (rrgas.solver, rrgas.driver):
            monkeypatch.setattr(module, "DT_MIN", dt_min)
    configs = []
    for p_ext in (0.5, 2.0, 3.0, 1.0, 0.5):
        config = bump_config(t_end=0.04, n_cells=16)
        config.params = dataclasses.replace(config.params, p_ext=p_ext)
        configs.append(config)
    configs[-1].params = dataclasses.replace(configs[-1].params, beta=3.0)
    first = init_state(configs[0])
    results = run_batch(configs, first)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        serial = run_simulation(config, state=first)
        assert state_bits(result.state) == state_bits(serial.state)
        assert (result.completed, result.error, result.n_steps, result.records) == (
            serial.completed, serial.error, serial.n_steps, [])
    completed = [result.completed for result in results]
    assert completed == [True, dt_min is None, False, True, True]
    assert results[2].error.startswith("scheme invariant violated at t=")
    if dt_min is not None:
        assert results[1].error.startswith("time step underflow during rejection retries")
    else:
        assert results[1].n_steps > results[0].n_steps  # it stepped at a smaller dt


def test_a_rejected_member_leaves_the_batch_and_retries_alone(monkeypatch):
    # From its second step on, the p_ext = 2.0 member is rejected at
    # every dt.  The batch makes one attempt for it; the other three step
    # on as one batch of three rows, and the rejected member makes its
    # retries alone in solver.step, none of them first in the batch.
    real_volume_step, real_step_batch = rrgas.solver.volume_step, rrgas.solver.step_batch

    def volume_step(state, dt, config, s_v=None):
        bad = at_p_ext(config, state, 2.0) & (state.t > 0.0)
        if bad.any():
            raise rrgas.solver.StepRejection("volume_floor", bad)
        return real_volume_step(state, dt, config, s_v)

    attempts = []  # (where, p_ext, t, dt) per member and attempt

    def recording(where):
        def step_batch(state, config, sources=None, *, dt, history=()):
            shape = np.shape(state.t)
            p_ext = np.broadcast_to(config.params.p_ext, shape + (1,))[..., 0]
            attempts.append([(where, *row) for row in zip(
                np.atleast_1d(p_ext), np.atleast_1d(state.t), np.broadcast_to(dt, shape).flat)])
            return real_step_batch(state, config, sources, dt=dt, history=history)

        return step_batch

    monkeypatch.setattr(rrgas.solver, "volume_step", volume_step)
    monkeypatch.setattr(rrgas.driver, "step_batch", recording("batch"))
    monkeypatch.setattr(rrgas.solver, "step_batch", recording("alone"))
    configs = []
    for p_ext in (0.5, 2.0, 1.0, 0.7):
        config = bump_config(t_end=0.04, n_cells=16)
        config.params = dataclasses.replace(config.params, p_ext=p_ext)
        configs.append(config)
    results = run_batch(configs, init_state(configs[0]))
    assert [result.completed for result in results] == [True, False, True, True]
    assert results[1].error.startswith("step rejected 10 times")

    batches = [[p_ext for _, p_ext, _, _ in call] for call in attempts if call[0][0] == "batch"]
    assert batches[:3] == [[0.5, 2.0, 1.0, 0.7], [0.5, 2.0, 1.0, 0.7], [0.5, 1.0, 0.7]]
    assert all(2.0 not in members for members in batches[2:])
    rejected = [row for call in attempts for row in call if row[1] == 2.0]
    in_batch = [row for row in rejected if row[0] == "batch" and row[2] > 0.0]
    assert len(in_batch) == 1  # the batch made one attempt and no retry
    _, _, t, dt = in_batch[0]
    # alone, the member makes its step again: the one attempt the batch
    # made, then its retries, each made once
    assert rejected[2:] == [("alone", 2.0, t, dt * 0.5**k) for k in range(10)]


def test_run_batch_takes_members_that_differ_in_physical_constants_only():
    configs = [bump_config(), bump_config()]
    configs[1].cfl_number = 0.25
    with pytest.raises(ConfigurationError, match="physical constants only"):
        run_batch(configs, init_state(configs[0]))
    configs[1] = bump_config(cond_model="B")
    with pytest.raises(ConfigurationError, match="cond_model"):
        run_batch(configs, init_state(configs[0]))


def test_run_fixed_gives_each_count_the_bits_of_its_serial_run_in_input_order():
    # Unsorted and repeated counts, no sources: each final state is the
    # serial loop of step at t_end / n, and the initial state is kept.
    cfg = bump_config(n_cells=16)
    s0 = init_state(cfg)
    counts = [3, 1, 3, 2]
    finals = run_fixed(s0, cfg, counts)
    assert len(finals) == len(counts)
    for n_steps, final in zip(counts, finals):
        serial, history = s0, ()
        for _ in range(n_steps):
            new, _ = rrgas.solver.step(serial, cfg, dt=cfg.t_end / n_steps, history=history)
            serial, history = new, (serial, *history)[:2]
        assert state_bits(final) == state_bits(serial)
        assert final.a_pos == serial.a_pos
    assert state_bits(s0) == state_bits(init_state(cfg))


def test_each_step_is_handed_the_two_accepted_states_before_it(monkeypatch):
    real = rrgas.driver.step
    calls = []  # (input state, history, new state) per step

    def recording(state, config, history=()):
        new, report = real(state, config, history=history)
        calls.append((state, history, new))
        return new, report

    monkeypatch.setattr(rrgas.driver, "step", recording)
    result = run_simulation(bump_config(t_end=0.05))
    assert len(calls) == result.n_steps >= 4
    for k, (state, history, _) in enumerate(calls):
        assert k == 0 or state is calls[k - 1][2]
        assert len(history) == min(k, 2)
        assert all(h is calls[k - 1 - j][0] for j, h in enumerate(history))


def test_run_fixed_hands_each_member_the_levels_of_its_own_run(monkeypatch):
    # The members leave after 1, 2 and 3 steps, the last one stepping on
    # alone for two more; at every step each member's history holds its own last two
    # levels, most recent first, the t of its own serial run.
    counts = [5, 1, 3, 2]
    cfg = bump_config(n_cells=16)
    seen = []  # (t of the state, t of each history level) per step

    def recording(real):
        def advance(state, config, sources=None, *, dt, history=()):
            seen.append((np.atleast_1d(state.t), [np.atleast_1d(h.t) for h in history]))
            return real(state, config, sources, dt=dt, history=history)

        return advance

    for name in ("step", "step_batch"):
        monkeypatch.setattr(rrgas.driver, name, recording(getattr(rrgas.driver, name)))
    run_fixed(init_state(cfg), cfg, counts)

    def level(count, k):  # t after k steps of the run of count steps
        t = 0.0
        for _ in range(k):
            t = t + cfg.t_end / count
        return t

    assert len(seen) == max(counts)
    for k, (t, history) in enumerate(seen):
        live = [count for count in counts if count > k]
        assert t.tolist() == [level(count, k) for count in live]
        assert len(history) == min(k, 2)
        for j, levels in enumerate(history):
            assert levels.tolist() == [level(count, k - 1 - j) for count in live]


@pytest.mark.parametrize("loop", ["simulation K=3", "simulation K=1", "fixed", "batch"])
def test_no_state_a_loop_stepped_from_keeps_its_laws(loop, monkeypatch):
    # Once a step is made from a state, only diagnostics.record reads its
    # laws, and drops them with its row; a loop that records no rows
    # drops them once it has stepped.  So when a loop returns, no state it
    # stepped from holds an array of them.
    real, stepped = rrgas.solver.step_batch, []

    def recording(state, config, sources=None, *, dt, history=()):
        made = real(state, config, sources, dt=dt, history=history)
        stepped.append(state)
        return made

    for module in (rrgas.solver, rrgas.driver):
        monkeypatch.setattr(module, "step_batch", recording)
    cfg = bump_config(t_end=0.04, n_cells=16)
    if loop.startswith("simulation"):
        monkeypatch.setattr(rrgas.driver, "_BLOCK_VALUES", int(loop[-1]) * cfg.n_cells)
        result = run_simulation(cfg)
        assert result.completed and not result.state.laws.keys() & set(State.RECORD_ONLY)
    elif loop == "fixed":
        run_fixed(init_state(cfg), cfg, [5, 3, 1])  # 2 steps a batch of 2, 2 alone
    else:
        # the stiffer member takes 10 steps, the last 2 alone
        other = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, a_rad=5.0))
        assert all(result.completed for result in run_batch([cfg, other], init_state(cfg)))
    assert len(stepped) >= 3 and all(state.laws is None for state in stepped)


def bits(rec):
    return np.array(dataclasses.astuple(rec), dtype=float).tobytes()


@pytest.mark.parametrize("case", ["completed", "budget", "rejected", "invariant"])
def test_rows_come_in_blocks_and_are_complete_on_every_exit(case, monkeypatch, per_state_row,
                                                            step_quadratures):
    # 4 states per record call on 32 cells.  Every run here ends with a
    # partly filled block, which the driver must still hand over.
    block = 4
    monkeypatch.setattr(rrgas.driver, "_BLOCK_VALUES", block * 32)
    cfg = bump_config()
    initial = init_state(cfg)
    if case == "rejected":
        cfg.v_floor = 2.0
    elif case == "budget":
        monkeypatch.setattr(rrgas.driver, "MAX_STEPS", 5)
    elif case == "invariant":
        monkeypatch.setattr(
            rrgas.solver, "species_step",
            faulty_species_step(rrgas.solver.species_step, []),
        )
    sizes = []
    real_record = rrgas.driver.record

    def sized_record(pending, params, previous):
        sizes.append(len(pending))
        return real_record(pending, params, previous)

    monkeypatch.setattr(rrgas.driver, "record", sized_record)
    seen = []
    z_diff = z_react = 0.0

    def hook(state, report, index):
        nonlocal z_diff, z_react
        before = seen[-1][0] if seen else initial
        diff, react = step_quadratures(before, state, report.dt, cfg.params)
        z_diff += diff
        z_react += react
        seen.append((state, report.dt, z_diff, z_react))

    result = run_simulation(cfg, state=initial, on_step=hook)
    assert result.completed == (case == "completed")
    assert len(result.records) == result.n_steps + 1
    assert sizes[:-1] == [block] * (len(sizes) - 1)
    assert 0 < sizes[-1] < block
    # each row is its own state's, with the accumulators after its step
    expected = [per_state_row(initial, cfg.params, 0.0, 0.0, 0.0)] + [
        per_state_row(state, cfg.params, *rest) for state, *rest in seen
    ]
    assert [bits(r) for r in result.records] == [bits(r) for r in expected]


@pytest.mark.parametrize("case", ["completed", "failed"])
@pytest.mark.parametrize("m_order", [1.0, 2.0])
def test_balance_sums_are_the_step_wise_sums(configs_dir, monkeypatch, step_quadratures,
                                            m_order, case):
    # configs/reacting.ini: 32 states per record call on its 128 cells,
    # so the rows cross block boundaries.  In the failed run, step 40 is
    # rejected twice before it is accepted, and every attempt from step
    # 50 on is rejected, so the run fails part-way into its second block.
    # Each row's accumulators are, bit for bit, the running sums of the
    # per-step formula applied to each pair of accepted states.
    cfg = load_config(configs_dir / "reacting.ini")
    cfg.params = dataclasses.replace(cfg.params, m_order=m_order)
    if case == "failed":
        real_volume_step, calls = rrgas.solver.volume_step, []

        def rejecting(state, dt, config, s_v=None):
            calls.append(None)
            if len(calls) in (40, 41) or len(calls) >= 52:
                raise rrgas.solver.StepRejection("volume_floor")
            return real_volume_step(state, dt, config, s_v=s_v)

        monkeypatch.setattr(rrgas.solver, "volume_step", rejecting)
    states = [init_state(cfg)]
    rejections = []
    result = run_simulation(cfg, state=states[0], on_step=lambda state, report, n: (
        states.append(state), rejections.append(report.rejections)))
    assert result.completed == (case == "completed")
    assert len(result.records) == len(states) > 32
    if case == "failed":
        assert len(states) == 50 and rejections[39] == 2
    sums = [(0.0, 0.0)]
    for before, after, row in zip(states, states[1:], result.records[1:]):
        diff, react = step_quadratures(before, after, row.dt, cfg.params)
        sums.append((sums[-1][0] + diff, sums[-1][1] + react))
    assert [(r.z_diff_accum, r.z_react_accum) for r in result.records] == sums
    assert sums[-1][0] > 0.0 and sums[-1][1] > 0.0


# ------------------------------------------------------------- check rows

EXPECTED_ROWS = (
    "run completed",
    "all diagnostics finite",
    "species range 0 <= z <= 1",
    "volume and temperature above floors",
    "entropy functionals nonnegative",
    "U plus integrated V bounded",
    "balance accumulators non-decreasing",
    "energy drift bounded",
    "species balance residual small",
)


def test_check_passes_at_rest():
    report = check_scenario(rest_config())
    assert report.completed
    assert report.passed
    assert tuple(row.name for row in report.rows) == EXPECTED_ROWS


def test_check_passes_on_shipped_reference(shipped_config):
    report = check_scenario(shipped_config("reference"))
    assert report.passed, [(r.name, r.detail) for r in report.rows if not r.passed]


def test_check_passes_on_shipped_reacting(shipped_config):
    report = check_scenario(shipped_config("reacting"))
    assert report.passed, [(r.name, r.detail) for r in report.rows if not r.passed]


@pytest.mark.parametrize("cond_model", ["A", "B"])
@pytest.mark.parametrize("q_cond", [0.0, 0.5])
@pytest.mark.parametrize("name", ["equilibrium", "expansion", "reacting", "reference"])
def test_check_passes_on_shipped_configs_across_the_conductivity_range(
        name, q_cond, cond_model, shipped_config):
    # The paper's existence result holds for every q >= 0, constant
    # conductivity (q = 0) included; every shipped config has q = 2.
    cfg = shipped_config(name)
    cfg.params = dataclasses.replace(cfg.params, q_cond=q_cond, cond_model=cond_model)
    report = check_scenario(cfg)
    assert report.passed, [(r.name, r.detail) for r in report.rows if not r.passed]


def test_check_reports_failed_run(reject_every_step):
    reject_every_step()
    report = check_scenario(bump_config())
    assert not report.completed
    assert not report.passed
    assert report.rows[0].name == "run completed"
    assert not report.rows[0].passed


def corrupting_step(corrupt, monkeypatch):
    # Every accepted state is passed through corrupt before the driver
    # sees it, and the next step starts from the corrupted state.
    real = rrgas.driver.step

    def step(state, config, history=()):
        new, report = real(state, config, history=history)
        return corrupt(new), report

    monkeypatch.setattr(rrgas.driver, "step", step)


def test_check_negative_control_species_range(monkeypatch):
    # Corrupt z beyond its physical range mid-run; exactly the
    # species-range row must flip to FAIL.
    def corrupt(state):
        bad = state.copy()
        bad.z[0] = 1.5
        return bad

    corrupting_step(corrupt, monkeypatch)
    report = check_scenario(bump_config())
    assert report.completed
    assert not report.passed
    by_name = {row.name: row.passed for row in report.rows}
    assert by_name["species range 0 <= z <= 1"] is False
    assert by_name["run completed"] is True


def test_check_negative_control_energy_drift(monkeypatch):
    # A 1 percent energy injection every step breaks the drift bound.
    def pump(state):
        out = state.copy()
        out.theta = out.theta * 1.01
        return out

    corrupting_step(pump, monkeypatch)
    report = check_scenario(rest_config())
    by_name = {row.name: row.passed for row in report.rows}
    assert by_name["energy drift bounded"] is False
