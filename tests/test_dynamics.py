import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctsat.cnf import Problem, count_unsatisfied
from ctsat.dynamics import (
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemState,
    analog_rhs,
    clause_products,
    clause_values,
    control_signals,
    energy,
    mem_clause_quantities,
    make_batch_system,
    mem_rhs,
    readout,
    resolve_options,
)
from ctsat.harness import SolverSpec
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import run, run_batch
from ctsat.netlist import NetlistOptions, emit_analog, emit_mem
from ctsat.network import SolverNode

ONE_CLAUSE = Problem.from_dimacs_clauses(3, [(1, 2, 3)])
NEG_CLAUSE = Problem.from_dimacs_clauses(3, [(-1, -2, -3)])


def finite_difference_gradient(problem, state, options, h=1e-6):
    """Central-difference gradient of the energy in s (the oracle for
    analog_rhs: the spin derivatives must equal its negative)."""
    grad = np.zeros_like(state.s)
    for i in range(len(state.s)):
        plus = state.s.copy()
        minus = state.s.copy()
        plus[i] += h
        minus[i] -= h
        v_plus = energy(problem, AnalogState(plus, state.a), options)
        v_minus = energy(problem, AnalogState(minus, state.a), options)
        grad[i] = (v_plus - v_minus) / (2 * h)
    return grad


def random_problem(seed, n=8, ratio=4.0):
    return gen_barthel(BarthelParams(num_vars=n, ratio=ratio, seed=seed)).problem


# -------------------------------------------------------------------------- K_m

def k_m(problem, s, options=AnalogOptions()):
    return clause_products(problem, s, options)[0][0]


def test_k_m_satisfied_literal_zeroes():
    assert k_m(ONE_CLAUSE, np.array([1.0, -0.3, 0.7])) == 0.0


def test_k_m_maximal_violation():
    s = np.array([-1.0, -1.0, -1.0])
    assert k_m(ONE_CLAUSE, s) == 1.0
    assert k_m(ONE_CLAUSE, s, AnalogOptions(one_eighth_factor=False)) == 8.0


def test_k_m_midpoint():
    assert k_m(ONE_CLAUSE, np.zeros(3)) == 0.125


# ------------------------------------------------------------------- analog_rhs

def test_analog_rhs_hand_example():
    # single clause (+1,+2,+3) at s = 0, a = 1: each spin derivative is
    # 2 * 1 * 1 * (1/8) * (1/8), the weight derivative (1/8)^2
    state = AnalogState(np.zeros(3), np.ones(1))
    ds, da = analog_rhs(ONE_CLAUSE, state)
    assert np.allclose(ds, 0.03125, atol=1e-12, rtol=0)
    assert np.allclose(da, 0.015625, atol=1e-12, rtol=0)


def test_analog_rhs_satisfying_corner_is_fixed_point():
    for corner in ([1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, -1.0]):
        state = AnalogState(np.array(corner), np.ones(1))
        ds, da = analog_rhs(ONE_CLAUSE, state)
        assert np.all(ds == 0.0)
        assert np.all(da == 0.0)


def test_analog_rhs_gradient_identity():
    # ds == -dV/ds to relative error < 1e-6 on 50 random interior samples
    rng = np.random.default_rng(42)
    options = AnalogOptions()
    for trial in range(50):
        problem = random_problem(trial % 7, n=8)
        state = AnalogState(rng.uniform(-0.95, 0.95, 8), rng.uniform(0.5, 4.0, problem.num_clauses))
        ds, _ = analog_rhs(problem, state, options)
        grad = finite_difference_gradient(problem, state, options)
        scale = np.maximum(np.abs(grad), 1e-3)
        assert np.max(np.abs(ds + grad) / scale) < 1e-6


def test_analog_rhs_gradient_identity_without_prefactor():
    rng = np.random.default_rng(3)
    options = AnalogOptions(one_eighth_factor=False)
    problem = random_problem(1, n=6)
    state = AnalogState(rng.uniform(-0.9, 0.9, 6), rng.uniform(0.5, 2.0, problem.num_clauses))
    ds, _ = analog_rhs(problem, state, options)
    grad = finite_difference_gradient(problem, state, options)
    assert np.max(np.abs(ds + grad) / np.maximum(np.abs(grad), 1e-3)) < 1e-6


@pytest.mark.parametrize("mode,expect", [
    ("aK2", 2.0 * 0.125 ** 2),
    ("aK", 2.0 * 0.125),
    ("K", 0.125),
    ("K2", 0.125 ** 2),
])
def test_analog_rhs_aux_modes(mode, expect):
    state = AnalogState(np.zeros(3), np.full(1, 2.0))
    _, da = analog_rhs(ONE_CLAUSE, state, AnalogOptions(aux_mode=mode))
    assert da[0] == pytest.approx(expect, abs=1e-15)


def test_analog_rhs_boundary_masking():
    # a clause pushing s_1 upward must be masked once s_1 sits at +1
    state = AnalogState(np.array([1.0 - 1e-12, -0.5, -0.5]), np.ones(1))
    ds_in, _ = analog_rhs(ONE_CLAUSE, state)
    assert ds_in[0] > 0
    state_at = AnalogState(np.array([1.0, -0.5, -0.5]), np.ones(1))
    # at s_1 = +1 the clause is satisfied: derivative is exactly 0 anyway
    ds_at, _ = analog_rhs(ONE_CLAUSE, state_at)
    assert ds_at[0] == 0.0
    # negated clause keeps pushing down at -1? masked as well
    neg = Problem.from_dimacs_clauses(3, [(-1, 2, 3)])
    state2 = AnalogState(np.array([-1.0, 1.0, 1.0]), np.ones(1))
    ds2, _ = analog_rhs(neg, state2)
    assert np.all(ds2 == 0.0)


def test_analog_rhs_finite_at_poles():
    rng = np.random.default_rng(0)
    problem = random_problem(5, n=10)
    s = np.where(rng.random(10) < 0.5, 1.0, -1.0)  # all spins exactly at poles
    state = AnalogState(s, rng.uniform(0.5, 3.0, problem.num_clauses))
    ds, da = analog_rhs(problem, state)
    assert np.all(np.isfinite(ds)) and np.all(np.isfinite(da))


def test_aux_derivative_nonnegative_squared_modes():
    rng = np.random.default_rng(8)
    problem = random_problem(2, n=8)
    for mode in ("aK2", "K2"):
        for _ in range(20):
            state = AnalogState(rng.uniform(-1, 1, 8), rng.uniform(0.1, 5.0, problem.num_clauses))
            _, da = analog_rhs(problem, state, AnalogOptions(aux_mode=mode))
            assert np.all(da >= 0.0)


# ----------------------------------------------------------------------- energy

def test_energy_examples():
    assert energy(ONE_CLAUSE, AnalogState(np.array([1.0, 0.0, 0.0]), np.ones(1))) == 0.0
    v = energy(ONE_CLAUSE, AnalogState(np.zeros(3), np.ones(1)))
    assert v == pytest.approx(1 / 64, abs=1e-15)


def test_energy_decreases_along_gradient_flow():
    # frozen weights, small explicit steps: V must be non-increasing
    problem = random_problem(11, n=8)
    rng = np.random.default_rng(1)
    state = AnalogState(rng.uniform(-0.9, 0.9, 8), np.ones(problem.num_clauses))
    v_prev = energy(problem, state)
    s = state.s.copy()
    for _ in range(200):
        ds, _ = analog_rhs(problem, AnalogState(s, state.a))
        s = np.clip(s + 1e-3 * ds, -1, 1)
        v = energy(problem, AnalogState(s, state.a))
        assert v <= v_prev + 1e-12
        v_prev = v


# ---------------------------------------------------------------- clause_values

def test_clause_value_examples():
    assert clause_values(ONE_CLAUSE, np.array([1.0, -1.0, -1.0]))[0] == 0.0
    assert clause_values(ONE_CLAUSE, np.array([-1.0, -1.0, -1.0]))[0] == 1.0
    assert clause_values(ONE_CLAUSE, np.array([0.5, -0.2, 0.1]))[0] == pytest.approx(0.25)


@given(st.lists(st.floats(min_value=-1, max_value=1), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_clause_value_bounds(vs):
    value = clause_values(ONE_CLAUSE, np.array(vs))[0]
    assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------- mem_rhs

def test_mem_rhs_hand_example_satisfied_corner():
    # v = (1,1,1), x_s = 0.5, x_l = 1: C = 0, dv = 0,
    # dx_s = 20*(0.5+0.001)*(0-0.25) = -2.505 (interior, stands),
    # dx_l = 5*(0-0.05) = -0.25 but x_l sits at its lower bound -> masked
    state = MemState(np.ones(3), np.full(1, 0.5), np.ones(1))
    dv, dx_s, dx_l = mem_rhs(ONE_CLAUSE, state)
    assert np.allclose(dv, 0.0, atol=1e-12, rtol=0)
    assert dx_s[0] == pytest.approx(-2.505, abs=1e-12)
    assert dx_l[0] == 0.0


def test_mem_rhs_hand_example_violated_corner():
    # v = (-1,-1,-1): C = 1, G_n = 1, R_n = 1 for every literal;
    # dv_n = 1*0.5*1 + (1.01)*(0.5)*1 = 1.005
    state = MemState(-np.ones(3), np.full(1, 0.5), np.ones(1))
    dv, dx_s, dx_l = mem_rhs(ONE_CLAUSE, state)
    assert np.allclose(dv, 1.005, atol=1e-12, rtol=0)
    assert dx_s[0] == pytest.approx(7.515, abs=1e-12)
    assert dx_l[0] == pytest.approx(4.75, abs=1e-12)


def test_mem_rhs_rigidity_selects_minimum_literal():
    # v = (0.9, 0.2, -0.5): C = (1-0.9)/2 = 0.05 via literal 1,
    # so R_1 = 0.05 and R_2 = R_3 = 0
    v = np.array([0.9, 0.2, -0.5])
    c, g, r = mem_clause_quantities(ONE_CLAUSE, v)
    assert c[0] == pytest.approx(0.05, abs=1e-12)
    assert r[0, 0] == pytest.approx(0.05, abs=1e-12)
    assert r[0, 1] == 0.0 and r[0, 2] == 0.0
    # isolate R in dv: set x_s = 0 so the gradient-like term vanishes
    state = MemState(v, np.zeros(1), np.ones(1))
    dv, _, _ = mem_rhs(ONE_CLAUSE, state)
    assert dv[0] == pytest.approx(1.01 * 0.05, abs=1e-12)
    assert dv[1] == 0.0 and dv[2] == 0.0


def test_mem_rhs_ties_all_receive_rigidity():
    _, _, r = mem_clause_quantities(ONE_CLAUSE, np.array([-1.0, -1.0, -1.0]))
    assert np.allclose(r[0], 1.0, atol=0)


def test_mem_rhs_satisfying_corner_fixed_point():
    # readout satisfies and all v at poles: dv = 0 after masking
    problem = random_problem(4, n=8)
    rng = np.random.default_rng(0)
    from ctsat.oracle import solve_dpll
    witness = solve_dpll(problem).witness
    v = np.where(witness, 1.0, -1.0)
    state = MemState(v, rng.uniform(0.1, 0.9, problem.num_clauses),
                     rng.uniform(1.0, 10.0, problem.num_clauses))
    dv, _, _ = mem_rhs(problem, state)
    assert np.all(dv == 0.0)


def test_mem_rhs_no_outward_derivative_on_boundary():
    rng = np.random.default_rng(5)
    problem = random_problem(6, n=8)
    for _ in range(50):
        v = rng.uniform(-1, 1, 8)
        poles = rng.random(8) < 0.5
        v[poles] = np.sign(rng.standard_normal(poles.sum()))
        x_s = rng.choice([0.0, 1.0, 0.4], size=problem.num_clauses)
        x_l = rng.choice([1.0, 5.0], size=problem.num_clauses)
        dv, dx_s, dx_l = mem_rhs(problem, MemState(v, x_s, x_l))
        assert np.all(dv[v >= 1.0] <= 0) and np.all(dv[v <= -1.0] >= 0)
        assert np.all(dx_s[x_s >= 1.0] <= 0) and np.all(dx_s[x_s <= 0.0] >= 0)
        assert np.all(dx_l[x_l <= 1.0] >= 0)


def test_mem_rhs_unclamped_allows_outward():
    # with clamp_v off a violated clause keeps pushing v past the pole
    problem = Problem.from_dimacs_clauses(3, [(1, 2, 3)])
    state = MemState(np.array([-1.0, -1.0, -1.0]), np.full(1, 0.5), np.ones(1))
    dv_clamped, _, _ = mem_rhs(problem, state)
    dv_free, _, _ = mem_rhs(problem, state, options=MemOptions(clamp_v=False))
    assert np.allclose(dv_free, dv_clamped)  # inward push: same either way
    sat = MemState(np.array([1.0, -1.0, -1.0]), np.full(1, 0.5), np.ones(1))
    dv_c, _, _ = mem_rhs(problem, sat)
    dv_f, _, _ = mem_rhs(problem, sat, options=MemOptions(clamp_v=False))
    assert dv_c[0] == 0.0
    assert dv_f[0] > 0.0  # outward push survives without the clamp


def test_mem_rhs_finite_everywhere():
    rng = np.random.default_rng(9)
    problem = random_problem(3, n=10)
    m = problem.num_clauses
    for _ in range(30):
        state = MemState(
            rng.uniform(-1, 1, 10), rng.uniform(0, 1, m), rng.uniform(1, 1e4 * m, m)
        )
        for arr in mem_rhs(problem, state):
            assert np.all(np.isfinite(arr))


def mem_reference_rhs(problem, y, params, lo, hi):
    """The memcomputing RHS composed from mem_clause_quantities, clause by
    clause: the definition the fused kernel must reproduce bit for bit."""
    n, m = problem.num_vars, problem.num_clauses
    v, x_s, x_l = y[:n], y[n:n + m], y[n + m:]
    c, g, r = mem_clause_quantities(problem, v)
    contrib = (x_l * x_s)[:, None] * g + ((1.0 + params.zeta * x_l) * (1.0 - x_s))[:, None] * r
    d = np.concatenate((
        np.bincount(problem.var_index.ravel(), weights=contrib.ravel(), minlength=n),
        params.beta * (x_s + params.epsilon) * (c - params.gamma),
        params.alpha * (c - params.delta),
    ))
    d[((y >= hi) & (d > 0)) | ((y <= lo) & (d < 0))] = 0.0
    return d


def _mem_states(rng, n, m, kind):
    v = rng.uniform(-1.0, 1.0, n)
    x_s = rng.uniform(0.0, 1.0, m)
    x_l = rng.uniform(1.0, 50.0, m)
    if kind == "pole":
        v = rng.choice([-1.0, 1.0], n)
    elif kind == "tie":
        # v = 0 makes all three slack terms of a clause equal; poles and
        # zeros mixed give two-way ties as well
        v = rng.choice([-1.0, 0.0, 1.0], n)
        v[rng.random(n) < 0.5] = 0.0
    elif kind == "bound":
        v[rng.random(n) < 0.5] = rng.choice([-1.0, 1.0])
        x_s = rng.choice([0.0, 1.0, 0.3], m)
        x_l = rng.choice([1.0, 1e4 * m, 7.0], m)
    elif kind == "stage":
        # an RK stage state lies a little outside the bounds
        v = rng.uniform(-1.05, 1.05, n)
        x_s = rng.uniform(-0.05, 1.05, m)
        x_l = rng.uniform(0.9, 50.0, m)
    elif kind == "unclamped":
        v = rng.uniform(-3.0, 3.0, n)
    return np.concatenate((v, x_s, x_l))


@pytest.mark.parametrize("kind", ["random", "pole", "tie", "bound", "stage", "unclamped"])
@pytest.mark.parametrize("clamp_v", [True, False])
def test_mem_kernel_matches_clause_reference(kind, clamp_v):
    rng = np.random.default_rng(17)
    params = MemOptions(clamp_v=clamp_v, alpha=3.0, beta=11.0, gamma=0.3, delta=0.07,
                        epsilon=0.002, zeta=0.02)
    for problem in (random_problem(2, n=12), gen_xorsat_3r(10, seed=4).problem):
        system = make_batch_system([problem], "mem", params)
        for _ in range(40):
            y = _mem_states(rng, problem.num_vars, problem.num_clauses, kind)
            got = system.rhs(0.0, y[None])[0]
            want = mem_reference_rhs(problem, y, params, system.lo, system.hi)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("solver,options", [
    ("mem", {}),
    ("mem", {"solver_options": MemOptions(clamp_v=False)}),
    ("analog", {}),
    ("analog", {"solver_options": AnalogOptions(one_eighth_factor=False, aux_mode="K")}),
])
def test_batch_rows_equal_single_systems(solver, options):
    # four problems of equal N and M; each row of the batched RHS equals
    # the RHS of its problem alone and its state-struct view, bit for bit
    problems = [gen_xorsat_3r(10, seed=seed).problem for seed in range(4)]
    n, m = problems[0].num_vars, problems[0].num_clauses
    batch = make_batch_system(problems, solver, **options)
    singles = [make_batch_system([problem], solver, **options) for problem in problems]
    view_options = resolve_options(solver, options.get("solver_options"))
    if solver == "mem":
        view = lambda p, y: mem_rhs(p, MemState(y[:n], y[n:n + m], y[n + m:]), view_options)
    else:
        view = lambda p, y: analog_rhs(p, AnalogState(y[:n], y[n:]), view_options)
    assert batch.columns == singles[0].columns
    rng = np.random.default_rng(29)
    for kind in ("random", "pole", "tie", "bound", "stage", "unclamped"):
        if solver == "mem":
            y = np.stack([_mem_states(rng, n, m, kind) for _ in problems])
        else:
            spins = rng.choice([-1.0, 0.0, 1.0], (4, n)) if kind in ("pole", "tie") else (
                rng.uniform(-1.0, 1.0, (4, n)))
            y = np.hstack((spins, rng.uniform(-2.0, 5.0, (4, m))))
        d = batch.rhs(0.0, y)
        for row, (problem, single) in enumerate(zip(problems, singles)):
            assert d[row].tobytes() == single.rhs(0.0, y[row:row + 1])[0].tobytes()
            assert d[row].tobytes() == np.concatenate(view(problem, y[row])).tobytes()
    with pytest.raises(ValueError, match="equal N and M"):
        make_batch_system([problems[0], gen_xorsat_3r(12, seed=1).problem], solver)


# --------------------------------------------------------------------- options

WRONG_OPTIONS = "^solver 'analog' takes AnalogOptions, got MemOptions$"
UNKNOWN_SOLVER = "^unknown solver 'memm' \\(expected 'analog' or 'mem'\\)$"


@pytest.mark.parametrize("build, message", [
    (lambda p: run(p, "analog", solver_options=MemOptions()), WRONG_OPTIONS),
    (lambda p: run(p, "memm"), UNKNOWN_SOLVER),
    (lambda p: run_batch([p], "analog", [0], solver_options=MemOptions()), WRONG_OPTIONS),
    (lambda p: run_batch([p], "memm", [0]), UNKNOWN_SOLVER),
    (lambda p: make_batch_system([p], "analog", MemOptions()), WRONG_OPTIONS),
    (lambda p: make_batch_system([p], "memm"), UNKNOWN_SOLVER),
    (lambda p: SolverSpec("analog", solver_options=MemOptions()), WRONG_OPTIONS),
    (lambda p: SolverSpec("memm"), UNKNOWN_SOLVER),
    (lambda p: SolverNode(p, "analog", solver_options=MemOptions()), WRONG_OPTIONS),
    (lambda p: SolverNode(p, "memm"), UNKNOWN_SOLVER),
    (lambda p: emit_analog(p, NetlistOptions(solver_options=MemOptions())), WRONG_OPTIONS),
    (lambda p: emit_mem(p, NetlistOptions(solver_options=AnalogOptions())),
     "^solver 'mem' takes MemOptions, got AnalogOptions$"),
], ids=["run-options", "run-solver", "run_batch-options", "run_batch-solver",
        "make_batch_system-options", "make_batch_system-solver", "SolverSpec-options",
        "SolverSpec-solver", "SolverNode-options", "SolverNode-solver", "emit_analog-options",
        "emit_mem-options"])
def test_other_solvers_options_and_unknown_solvers_rejected(build, message):
    # each layer used to take both solvers' options and read only its
    # solver's: run(p, "analog", mem_params=MemParams(alpha=0)) ran the
    # default run, and SolverNode(p, "memm") failed only inside the run
    with pytest.raises(ValueError, match=message):
        build(ONE_CLAUSE)


def test_resolve_options_defaults_and_identity():
    assert resolve_options("analog") == AnalogOptions()
    assert resolve_options("mem") == MemOptions()
    options = MemOptions(clamp_v=False, alpha=2.0)
    assert resolve_options("mem", options) is options
    assert SolverSpec("mem").solver_options == MemOptions()
    assert SolverNode(ONE_CLAUSE, "analog").solver_options == AnalogOptions()


# ---------------------------------------------------------------- boundary mask

def _analog_ds1(problem, s, a):
    return analog_rhs(problem, AnalogState(np.array(s), np.array([a])))[0][0]


def _mem_component(problem, v, x_s=0.5, x_l=1.0, which=0):
    return mem_rhs(problem, MemState(np.array(v), np.array([x_s]), np.array([x_l])))[which][0]


UP, DOWN = [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]   # C = 1 and C = 0 on ONE_CLAUSE
XL_MAX = 1e4  # 1e4 * M with M = 1


# Each case evaluates one component at a lower bound, an upper bound or an
# interior point, where the unmasked derivative points outward or inward
# (up or down in the interior).  A negative clause weight reverses the
# analog spin derivative, the only way to make it point outward at s = +-1.
@pytest.mark.parametrize("derivative,expected", [
    pytest.param(lambda: _analog_ds1(ONE_CLAUSE, UP, -1.0), 0.0, id="s-lower-outward"),
    pytest.param(lambda: _analog_ds1(ONE_CLAUSE, UP, 1.0), 1.0, id="s-lower-inward"),
    pytest.param(lambda: _analog_ds1(NEG_CLAUSE, DOWN, -1.0), 0.0, id="s-upper-outward"),
    pytest.param(lambda: _analog_ds1(NEG_CLAUSE, DOWN, 1.0), -1.0, id="s-upper-inward"),
    pytest.param(lambda: _analog_ds1(ONE_CLAUSE, [0.0] * 3, 1.0), 0.03125, id="s-interior-up"),
    pytest.param(lambda: _analog_ds1(ONE_CLAUSE, [0.0] * 3, -1.0), -0.03125,
                 id="s-interior-down"),
    pytest.param(lambda: _mem_component(NEG_CLAUSE, [-1.0, 1.0, 1.0]), 0.0, id="v-lower-outward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP), 1.005, id="v-lower-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, [1.0, -1.0, -1.0]), 0.0, id="v-upper-outward"),
    pytest.param(lambda: _mem_component(NEG_CLAUSE, DOWN), -1.005, id="v-upper-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, [0.9, 0.2, -0.5], x_s=0.0), 0.0505,
                 id="v-interior-up"),
    pytest.param(lambda: _mem_component(NEG_CLAUSE, [-0.9, -0.2, 0.5], x_s=0.0), -0.0505,
                 id="v-interior-down"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, x_s=0.0, which=1), 0.0,
                 id="x_s-lower-outward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, x_s=0.0, which=1), 0.015,
                 id="x_s-lower-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, x_s=1.0, which=1), 0.0,
                 id="x_s-upper-outward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, x_s=1.0, which=1), -5.005,
                 id="x_s-upper-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, which=1), 7.515, id="x_s-interior-up"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, which=1), -2.505,
                 id="x_s-interior-down"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, which=2), 0.0, id="x_l-lower-outward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, which=2), 4.75, id="x_l-lower-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, x_l=XL_MAX, which=2), 0.0,
                 id="x_l-upper-outward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, x_l=XL_MAX, which=2), -0.25,
                 id="x_l-upper-inward"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, UP, x_l=5.0, which=2), 4.75,
                 id="x_l-interior-up"),
    pytest.param(lambda: _mem_component(ONE_CLAUSE, DOWN, x_l=5.0, which=2), -0.25,
                 id="x_l-interior-down"),
])
def test_rhs_boundary_mask(derivative, expected):
    value = derivative()
    if expected == 0.0:
        assert value == 0.0
    else:
        assert value == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------- control signals

def test_control_signals_satisfied_corner():
    problem = random_problem(12, n=8)
    from ctsat.oracle import solve_dpll
    witness = solve_dpll(problem).witness
    v = np.where(witness, 1.0, -1.0)
    contra, contrd = control_signals(problem, v)
    assert contra == 0.0
    assert contrd == 0


def test_control_signals_at_zero():
    problem = random_problem(13, n=8)
    contra, contrd = control_signals(problem, np.zeros(8))
    assert contra == pytest.approx(0.5 * problem.num_clauses)
    # the zero vector reads out as all-FALSE, so the unsatisfied clauses are
    # exactly the clauses with no negated literal
    all_positive = int(np.sum((problem.sign > 0).all(axis=1)))
    assert contrd == all_positive


def test_contrd_matches_count_unsatisfied():
    problem = random_problem(14, n=10)
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.uniform(-1, 1, 10)
        _, contrd = control_signals(problem, v)
        assert contrd == count_unsatisfied(problem, readout(v))


# ---------------------------------------------------------------------- readout

def test_readout_threshold():
    out = readout(np.array([0.2, -0.9, 0.0]))
    assert out.tolist() == [True, False, False]


def test_readout_recovers_plant_from_poles():
    inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.0, seed=21))
    poles = np.where(inst.plant, 1.0, -1.0)
    assert np.array_equal(readout(poles), inst.plant)
