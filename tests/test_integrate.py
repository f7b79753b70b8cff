import numpy as np
import pytest
from scipy import stats

from ctsat.cnf import count_unsatisfied
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    TIMEOUT,
    IntegratorConfig,
    init_analog,
    init_mem,
    load_run,
    run,
    run_to_csv,
    save_run,
)
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


# -------------------------------------------------------------- witness check

def test_bad_witness_raises(monkeypatch):
    # a readout that contradicts contrd must not yield a Solved record,
    # also under python -O
    import ctsat.integrate as integrate
    monkeypatch.setattr(integrate, "readout", lambda values: np.asarray(values) <= 0.0)
    inst = easy_instance(seed=1)
    with pytest.raises(RuntimeError, match="does not satisfy"):
        run(inst.problem, MEM, seed=2)


# ------------------------------------------------------------------ persistence

def test_save_and_load_run(tmp_path):
    inst = easy_instance(seed=1)
    record = run(inst.problem, MEM, seed=2, config=IntegratorConfig(t_ev=30.0))
    record.instance = "easy.cnf"
    json_path, csv_path = save_run(record, tmp_path, "demo")
    assert json_path.exists() and csv_path.exists()
    payload = load_run(json_path)
    assert payload["outcome"] == record.outcome
    assert payload["seed"] == 2
    assert np.allclose(payload["times"], record.times)
    assert np.array_equal(payload["contrd"], record.contrd)
    assert np.allclose(payload["states"], record.states)
    assert payload["state_columns"] == record.state_columns
    assert count_unsatisfied(inst.problem, payload["assignment_array"]) == 0


def test_csv_header_matches_columns():
    inst = easy_instance(seed=1)
    record = run(inst.problem, ANALOG, seed=2, config=IntegratorConfig(t_ev=1.0))
    header = run_to_csv(record).splitlines()[0]
    n, m = inst.problem.num_vars, inst.problem.num_clauses
    assert header.split(",")[:4] == ["t", "contra", "contrd", "s1"]
    assert header.split(",")[-1] == f"a{m}"
    assert len(header.split(",")) == 3 + n + m
