import math
from dataclasses import asdict, fields

import numpy as np
import pytest
from scipy import stats

from ctsat.cnf import assignment_to_bits, count_unsatisfied
import ctsat.integrate as integrate
from ctsat.dynamics import AnalogOptions, MemOptions, MemParams, make_system
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    TIMEOUT,
    IntegratorConfig,
    NonFiniteState,
    init_analog,
    init_mem,
    load_run,
    run,
    save_run,
)
from ctsat.network import SolverNode, Wiring, simulate_network
from ctsat.oracle import solve_dpll


def easy_instance(seed=1, n=10):
    return gen_barthel(BarthelParams(num_vars=n, ratio=7.0, seed=seed))


# ------------------------------------------------------------- initial states

def test_init_analog_weights_exactly_one():
    inst = easy_instance()
    for seed in (0, 1, 17):
        state = init_analog(inst.problem, seed)
        assert np.all(state.a == 1.0)
        assert np.all(np.abs(state.s) <= 1.0)


def test_init_mem_memory_values():
    inst = easy_instance()
    state = init_mem(inst.problem, 3)
    assert np.all(state.x_s == 0.5)
    assert np.all(state.x_l == 1.0)


def test_init_deterministic_per_seed():
    inst = easy_instance()
    a = init_analog(inst.problem, 11)
    b = init_analog(inst.problem, 11)
    c = init_analog(inst.problem, 12)
    assert np.array_equal(a.s, b.s)
    assert not np.array_equal(a.s, c.s)


def test_init_uniformity_kolmogorov_smirnov():
    # 1e4 samples of s_i across seeds, alpha = 0.01
    problem = gen_barthel(BarthelParams(num_vars=100, ratio=3.0, seed=0)).problem
    samples = np.concatenate([init_analog(problem, seed).s for seed in range(100)])
    assert samples.size == 10_000
    result = stats.kstest(samples, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert result.pvalue > 0.01


# ------------------------------------------------------------------------- run

def test_easy_barthel_solved_by_both_solvers():
    inst = gen_barthel(BarthelParams(num_vars=40, ratio=7.0, seed=1))
    for solver in (MEM, ANALOG):
        record = run(inst.problem, solver, seed=2)
        assert record.outcome == SOLVED
        assert record.t_solve is not None and record.t_solve < 300.0
        assert count_unsatisfied(inst.problem, record.assignment) == 0
        # oracle confirmation
        assert solve_dpll(inst.problem).satisfiable


def test_3r3x_analog_converges_to_zero():
    inst = gen_xorsat_3r(20, seed=3)
    record = run(inst.problem, ANALOG, seed=5, config=IntegratorConfig(t_ev=150.0))
    assert record.outcome == CONVERGED_TO_ZERO
    assert record.t_detect is not None
    n = inst.problem.num_vars
    assert np.max(np.abs(record.states[-1, :n])) < 0.01
    # weights grew while the spins collapsed
    assert record.states[-1, n:].max() > 1.0


def test_euler_and_rk_agree_on_easy_instance():
    inst = easy_instance(seed=2)
    adaptive = run(inst.problem, MEM, seed=3, config=IntegratorConfig(method="rk23"))
    euler = run(inst.problem, MEM, seed=3,
                config=IntegratorConfig(method="euler", dt_init=0.005))
    assert adaptive.outcome == SOLVED and euler.outcome == SOLVED
    assert np.array_equal(adaptive.assignment, euler.assignment)


def test_timeout_outcome():
    inst = gen_xorsat_3r(16, seed=9)
    record = run(inst.problem, MEM, seed=0, config=IntegratorConfig(t_ev=2.0))
    assert record.outcome == TIMEOUT
    assert record.times[-1] == pytest.approx(2.0)


def test_bound_preservation_along_trajectories():
    rng = np.random.default_rng(0)
    for trial in range(6):
        inst = gen_barthel(BarthelParams(num_vars=8, ratio=4.3, seed=trial))
        n, m = inst.problem.num_vars, inst.problem.num_clauses
        seed = int(rng.integers(0, 1 << 31))
        rec_a = run(inst.problem, ANALOG, seed=seed, config=IntegratorConfig(t_ev=5.0))
        assert np.all(np.abs(rec_a.states[:, :n]) <= 1.0)
        assert np.all(rec_a.states[:, n:] > 0.0)
        rec_m = run(inst.problem, MEM, seed=seed, config=IntegratorConfig(t_ev=5.0))
        assert np.all(np.abs(rec_m.states[:, :n]) <= 1.0)
        assert np.all((rec_m.states[:, n:n + m] >= 0.0) & (rec_m.states[:, n:n + m] <= 1.0))
        assert np.all((rec_m.states[:, n + m:] >= 1.0) & (rec_m.states[:, n + m:] <= 1e4 * m))


@pytest.mark.parametrize("solver,options", [
    (MEM, {}),
    (MEM, {"mem_options": MemOptions(clamp_v=False)}),
    (ANALOG, {"analog_options": AnalogOptions(one_eighth_factor=False)}),
])
def test_samples_lie_within_system_bounds(solver, options):
    problem = gen_barthel(BarthelParams(num_vars=20, ratio=4.3, seed=3)).problem
    record = run(problem, solver, seed=1, config=IntegratorConfig(t_ev=20.0), **options)
    system = make_system(problem, solver, **options)
    assert record.state_columns == system.columns
    assert np.all((record.states >= system.lo) & (record.states <= system.hi))
    # the bounds are reached: some later sample sits exactly on one
    later = record.states[1:]
    assert np.any((later == system.lo) | (later == system.hi))


def test_determinism_bitwise():
    inst = easy_instance(seed=4)
    a = run(inst.problem, MEM, seed=9)
    b = run(inst.problem, MEM, seed=9)
    assert a.outcome == b.outcome and a.t_solve == b.t_solve
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.contrd, b.contrd)


def test_outcome_robust_to_tighter_tolerance():
    # shrinking error_tol 10x does not flip Solved/unsolved on a fixed-seed
    # easy suite
    for seed in range(10):
        inst = easy_instance(seed=seed, n=10)
        loose = run(inst.problem, MEM, seed=seed,
                    config=IntegratorConfig(error_tol=1e-4, t_ev=60.0))
        tight = run(inst.problem, MEM, seed=seed,
                    config=IntegratorConfig(error_tol=1e-5, t_ev=60.0))
        assert (loose.outcome == SOLVED) == (tight.outcome == SOLVED)


@pytest.mark.parametrize("field", [f.name for f in fields(IntegratorConfig)
                                   if f.name != "method"])
def test_config_rejects_non_finite_numbers(field):
    # a NaN or infinite t_ev or sample_interval made the sample-grid loop
    # grow a list without end; NaN in the other fields silently changed the
    # run.  Only the construction is tried, never a run.
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            IntegratorConfig(**{field: value})


@pytest.mark.parametrize("field", ["eps_zero", "window_zero", "window_confirm"])
def test_config_rejects_negative_windows(field):
    # window_confirm=-5 let a run count as solved at the first sample with
    # contrd == 0, with no confirmation window; zero stays valid
    IntegratorConfig(**{field: 0.0})
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -5$"):
        IntegratorConfig(**{field: -5})


def test_step_size_underflow_flagged_as_timeout():
    inst = easy_instance(seed=1)
    config = IntegratorConfig(error_tol=1e-13, dt_min=0.05, dt_init=0.05, dt_max=0.1)
    record = run(inst.problem, MEM, seed=3, config=config)
    assert record.outcome == TIMEOUT
    assert record.stats["dt_underflow"]
    assert "underflow" in record.stats["abort_message"]


def test_solved_requires_confirmation_window():
    inst = easy_instance(seed=1)
    record = run(inst.problem, MEM, seed=2)
    # contrd stayed 0 from the solve time to the end of the window
    sel = record.times >= record.t_solve
    assert np.all(record.contrd[sel] == 0)
    assert record.times[-1] == pytest.approx(record.t_solve + record.config.window_confirm)


def test_trajectory_sampling_grid():
    inst = easy_instance(seed=1)
    record = run(inst.problem, MEM, seed=2, config=IntegratorConfig(t_ev=3.0, sample_interval=0.5))
    deltas = np.diff(record.times)
    assert np.allclose(deltas, 0.5)


# ----------------------------------------------------------- convergence to zero

def test_detect_convergence_on_recorded_run_with_growth_regression():
    # 3R3X run with detection disabled: the weight growth is exponential
    # (log-linear) under the default aux mode; the same seed at the default
    # eps_zero stops as converged to zero
    inst = gen_xorsat_3r(20, seed=3)
    config = IntegratorConfig(t_ev=120.0, eps_zero=0.0)  # detection disabled
    record = run(inst.problem, ANALOG, seed=1, config=config)
    assert record.outcome == TIMEOUT
    n = inst.problem.num_vars
    detected = run(inst.problem, ANALOG, seed=1, config=IntegratorConfig(t_ev=120.0))
    assert detected.outcome == CONVERGED_TO_ZERO
    tail = record.times >= 60.0
    log_a = np.log(record.states[tail][:, n:])
    t = record.times[tail]
    for j in range(log_a.shape[1]):
        coef = np.polyfit(t, log_a[:, j], 1)
        resid = log_a[:, j] - np.polyval(coef, t)
        ss_tot = np.sum((log_a[:, j] - log_a[:, j].mean()) ** 2)
        assert 1 - np.sum(resid ** 2) / ss_tot >= 0.99


# ------------------------------------------------- stepper: FSAL and aborts

def nan_system(problem):
    system = make_system(problem, MEM)
    return system._replace(rhs=lambda t, y: np.full_like(y, np.nan))


def patch_nan_kernel(monkeypatch):
    monkeypatch.setattr(integrate, "make_batch_system", lambda ps, *args: nan_system(ps[0]))


def stepper(problem, solver, seed, config):
    """A member in a batch of its own: the row stepper on one row."""
    member = integrate._Member(problem, solver, seed, config, AnalogOptions(), MemOptions(),
                               MemParams())
    integrate._Batch([member])
    return member


def advance(member, t0, t1):
    """Steps the member's batch from t0 until the member stops at t1."""
    member.resume(t0, t1)
    while member not in member.batch.attempt():
        pass


# one RK attempt takes four stages; an Euler step takes one
NON_FINITE_CASES = pytest.mark.parametrize("method,n_rhs", [("rk23", 4), ("euler", 1)])


@NON_FINITE_CASES
def test_non_finite_rhs_aborts_on_first_attempt(monkeypatch, method, n_rhs):
    problem = easy_instance(seed=1).problem
    patch_nan_kernel(monkeypatch)
    member = stepper(problem, MEM, 0, IntegratorConfig(method=method))
    member.y[:] = np.concatenate([np.zeros(problem.num_vars),
                                  np.full(2 * problem.num_clauses, 0.5)])
    advance(member, 0.0, 0.1)
    assert isinstance(member.aborted, NonFiniteState)
    assert "non-finite" in str(member.aborted)
    assert member.stats["n_rhs"] == n_rhs
    assert member.stats["n_rejected"] == 0


@NON_FINITE_CASES
def test_non_finite_state_is_reported_as_abort(monkeypatch, method, n_rhs):
    problem = easy_instance(seed=1).problem
    patch_nan_kernel(monkeypatch)
    record = run(problem, MEM, seed=2, config=IntegratorConfig(method=method))
    assert record.outcome == TIMEOUT
    assert record.times[-1] == 0.0
    assert not record.stats["dt_underflow"]
    assert "non-finite" in record.stats["abort_message"]
    assert record.stats["n_rhs"] == n_rhs


def assert_stage_count(st):
    """Every RK step has one first stage, computed or reused, and three
    more per attempt; some but not all steps reuse it."""
    assert st["n_rhs"] + st["n_rhs_reused"] == (
        st["n_accepted"] + 3 * (st["n_accepted"] + st["n_rejected"]))
    assert 0 < st["n_rhs_reused"] < st["n_accepted"]


@pytest.mark.parametrize("solver,seed,t_ev", [(MEM, 1, 30.0), (ANALOG, 3, 150.0)])
def test_stage_count_with_fsal(solver, seed, t_ev):
    problem = gen_xorsat_3r(20, seed=seed).problem
    record = run(problem, solver, seed=5, config=IntegratorConfig(t_ev=t_ev))
    assert_stage_count(record.stats)


@pytest.mark.parametrize("write", [False, True])
def test_advance_after_in_place_write_matches_fresh_integrator(write):
    # the reused first stage must follow the value of y, not its identity:
    # network pins write into the state in place
    problem = gen_xorsat_3r(20, seed=3).problem
    config = IntegratorConfig()
    y0 = np.concatenate((init_analog(problem, 5).s, np.ones(problem.num_clauses)))
    carried = stepper(problem, ANALOG, 5, config)
    assert np.array_equal(carried.y, y0)
    advance(carried, 0.0, 1.0)
    y = carried.y
    if write:
        y[0] = -y[0]
    fresh = stepper(problem, ANALOG, 5, config)
    fresh.y[:] = y
    fresh.h = carried.h
    reused = carried.stats["n_rhs_reused"]
    advance(fresh, 1.0, 2.0)
    advance(carried, 1.0, 2.0)
    assert np.array_equal(carried.y, fresh.y)
    # without the write the first step of the second segment reuses k4
    assert carried.stats["n_rhs_reused"] - reused == fresh.stats["n_rhs_reused"] + (not write)


# -------------------------------------------------------------- witness check

def test_bad_witness_raises(monkeypatch):
    # a readout that contradicts contrd must not yield a Solved record,
    # also under python -O
    monkeypatch.setattr(integrate, "readout", lambda values: np.asarray(values) <= 0.0)
    inst = easy_instance(seed=1)
    with pytest.raises(RuntimeError, match="does not satisfy"):
        run(inst.problem, MEM, seed=2)


# ------------------------------------------------------------------ persistence

def solved_mem_record(monkeypatch):
    problem = easy_instance(seed=1).problem
    record = run(problem, MEM, seed=2, config=IntegratorConfig(t_ev=30.0))
    record.instance = "easy.cnf"
    assert record.outcome == SOLVED
    return problem, record


def converged_analog_record(monkeypatch):
    problem = gen_xorsat_3r(20, seed=3).problem
    record = run(problem, ANALOG, seed=5, config=IntegratorConfig(t_ev=150.0))
    assert record.outcome == CONVERGED_TO_ZERO
    return problem, record


def non_finite_record(monkeypatch):
    problem = easy_instance(seed=1).problem
    patch_nan_kernel(monkeypatch)
    record = run(problem, MEM, seed=2)
    assert "non-finite" in record.stats["abort_message"]
    assert record.stats["dt_smallest"] is None
    return problem, record


def ring_node_record(monkeypatch):
    problem = easy_instance(seed=1).problem
    node = lambda: SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,))
    wiring = Wiring(edges=((("node", 0, 2), (1, 1)), (("node", 1, 2), (0, 1))))
    records = simulate_network([node(), node()], wiring, IntegratorConfig(t_ev=5.0),
                               seeds=[1, 2])
    assert "network" in records[1].options
    return problem, records[1]


@pytest.mark.parametrize("make_record", [
    solved_mem_record, converged_analog_record, non_finite_record, ring_node_record,
], ids=["solved-mem", "converged-analog", "non-finite-abort", "ring-node"])
def test_save_and_load_run(tmp_path, monkeypatch, make_record):
    problem, record = make_record(monkeypatch)
    json_path, npz_path = save_run(record, tmp_path, "demo")
    assert (json_path.name, npz_path.name) == ("demo.json", "demo.npz")
    payload = load_run(json_path)
    for key in ("times", "contra", "contrd", "states"):
        saved, back = getattr(record, key), payload[key]
        assert (back.dtype, back.shape) == (saved.dtype, saved.shape), key
        assert back.tobytes() == saved.tobytes(), key
    for key in ("solver", "seed", "instance", "outcome", "t_solve", "t_detect",
                "readout_rule", "options", "stats"):
        assert payload[key] == getattr(record, key), key
    assert payload["config"] == asdict(record.config)
    assert payload["samples"] == len(record.times)
    assert payload["trajectory"] == npz_path.name
    # the column order of the state vector: s1.. then a1..aM, or v, xs, xl
    assert payload["state_columns"] == record.state_columns
    assert payload["state_columns"] == make_system(problem, record.solver).columns
    if record.assignment is None:
        assert payload["assignment"] is None and "assignment_array" not in payload
    else:
        assert payload["assignment"] == assignment_to_bits(record.assignment)
        assert np.array_equal(payload["assignment_array"], record.assignment)
        assert count_unsatisfied(problem, payload["assignment_array"]) == 0
    assert set(payload) == {
        "solver", "seed", "instance", "outcome", "t_solve", "t_detect", "assignment",
        "readout_rule", "options", "config", "stats", "samples", "state_columns",
        "trajectory", "times", "contra", "contrd", "states",
    } | ({"assignment_array"} if record.assignment is not None else set())


def test_load_run_without_trajectory_raises(tmp_path):
    record = run(easy_instance(seed=1).problem, MEM, seed=2, config=IntegratorConfig(t_ev=1.0))
    json_path, npz_path = save_run(record, tmp_path, "demo")
    npz_path.unlink()
    with pytest.raises(FileNotFoundError):
        load_run(json_path)


def test_load_run_never_unpickles(tmp_path):
    record = run(easy_instance(seed=1).problem, MEM, seed=2, config=IntegratorConfig(t_ev=1.0))
    json_path, npz_path = save_run(record, tmp_path, "demo")
    np.savez(npz_path, times=np.array([0.0, {"payload": 1}], dtype=object),
             contra=record.contra, contrd=record.contrd, states=record.states)
    with pytest.raises(ValueError):
        load_run(json_path)
