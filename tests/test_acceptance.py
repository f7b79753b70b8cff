"""Acceptance suite: the end-to-end behaviors this laboratory must
reproduce, each pinned to an explicit threshold.

Every test prints one PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to watch them).  The module takes
a few minutes on a desktop: it runs the complete benchmark grid, three
families by five sizes by two solvers, ten instances per cell, at
t_ev = 300.
"""

import numpy as np
import pytest

from ctsat.cnf import Problem, count_unsatisfied
from ctsat.dynamics import (
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemState,
    analog_rhs,
    energy,
    mem_rhs,
)
from ctsat.harness import (
    ExperimentPlan,
    SolverSpec,
    SummaryTable,
    derive_seed,
    generate_instance,
    run_experiment,
)
from ctsat.instances import (
    BarthelParams,
    XorEquation,
    barthel_type_weights,
    gen_barthel,
    gen_xorsat_3r,
    xor_to_cnf,
)
from ctsat.integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    IntegratorConfig,
    run,
)
from ctsat.netlist import (
    card_histogram,
    emit_analog,
    emit_mem,
    evaluate_deck_rhs,
    serialize,
)
from ctsat.network import SolverNode, Wiring, simulate_network
from ctsat.oracle import solve_dpll, solve_exhaustive

SEED_BASE = 0
T_EV = 300.0


def report(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cell_counts(table: SummaryTable, size, label, family):
    cell = table.cells[(size, label, family)]
    return cell.runs, cell.unsolved, cell.converged_to_zero


@pytest.fixture(scope="module")
def barthel_grid():
    plan = ExperimentPlan(
        families=("B4.3", "B7"),
        sizes=(10, 20, 30, 40, 50),
        instances_per_cell=10,
        solvers=(SolverSpec(ANALOG), SolverSpec(MEM)),
        config=IntegratorConfig(t_ev=T_EV),
        seed_base=SEED_BASE,
        workers=2,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def x_mem_grid():
    plan = ExperimentPlan(
        families=("X",),
        sizes=(10, 20, 50),
        instances_per_cell=10,
        solvers=(SolverSpec(MEM),),
        config=IntegratorConfig(t_ev=T_EV),
        seed_base=SEED_BASE,
        workers=2,
    )
    return run_experiment(plan)


@pytest.fixture(scope="module")
def x_analog_20():
    plan = ExperimentPlan(
        families=("X",),
        sizes=(20,),
        instances_per_cell=10,
        solvers=(SolverSpec(ANALOG),),
        config=IntegratorConfig(t_ev=T_EV),
        seed_base=SEED_BASE,
        workers=2,
    )
    return run_experiment(plan)


def test_criterion_01_barthel_solvability(barthel_grid):
    table, _ = barthel_grid
    failures = []
    for family in ("B4.3", "B7"):
        for size in (10, 20, 30, 40, 50):
            for label in (ANALOG, MEM):
                runs, unsolved, _ = cell_counts(table, size, label, family)
                assert runs == 10
                if runs - unsolved < 9:
                    failures.append((family, size, label, unsolved))
    report(
        "criterion 1 (Barthel solvability >= 9/10 per cell)",
        not failures,
        f"20 cells x 10 runs, failing cells: {failures or 'none'}",
    )


def test_criterion_02_mem_on_3r3x(x_mem_grid):
    table, _ = x_mem_grid
    _, unsolved10, _ = cell_counts(table, 10, MEM, "X")
    _, unsolved20, _ = cell_counts(table, 20, MEM, "X")
    _, unsolved50, _ = cell_counts(table, 50, MEM, "X")
    solved50 = 10 - unsolved50
    ok = (10 - unsolved10 >= 8) and (10 - unsolved20 >= 8) and solved50 <= 3
    report(
        "criterion 2 (memcomputing on 3R3X)",
        ok,
        f"solved N=10: {10 - unsolved10}/10 (need >=8), "
        f"N=20: {10 - unsolved20}/10 (need >=8), N=50: {solved50}/10 (need <=3)",
    )


def test_criterion_03_convergence_to_zero(x_analog_20):
    table, records = x_analog_20
    _, _, ctz = cell_counts(table, 20, ANALOG, "X")
    # the phenomenon must also appear under the three modified weight-growth
    # laws on at least one seed each
    inst = gen_xorsat_3r(20, seed=3)
    found = {}
    for mode in ("aK", "K", "K2"):
        for seed in range(8):
            rec = run(inst.problem, ANALOG, seed=seed,
                      config=IntegratorConfig(t_ev=150.0),
                      solver_options=AnalogOptions(aux_mode=mode))
            if rec.outcome == CONVERGED_TO_ZERO:
                found[mode] = seed
                break
    ok = ctz >= 4 and set(found) == {"aK", "K", "K2"}
    report(
        "criterion 3 (convergence to zero)",
        ok,
        f"detected in {ctz}/10 analog runs on 3R3X N=20 (need >=4); "
        f"modified aux modes with the phenomenon: {found}",
    )


def r_squared(x, y):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    total = np.sum((y - y.mean()) ** 2)
    return 1.0 - np.sum(resid ** 2) / total


def test_criterion_04_auxiliary_growth_character():
    inst = gen_xorsat_3r(20, seed=3)
    n = inst.problem.num_vars
    config = IntegratorConfig(t_ev=120.0, eps_zero=0.0)  # observe past collapse
    results = {}
    for mode, seed in (("aK2", 1), ("K", 1), ("K2", 1)):
        rec = run(inst.problem, ANALOG, seed=seed, config=config,
                  solver_options=AnalogOptions(aux_mode=mode))
        tail = rec.times >= rec.times[-1] / 2
        t = rec.times[tail]
        a = rec.states[tail][:, n:]
        # confirm the trajectory really converged to zero
        assert np.abs(rec.states[tail][:, :n]).max() < 0.05
        if mode == "aK2":
            results[mode] = min(r_squared(t, np.log(a[:, j])) for j in range(a.shape[1]))
        else:
            results[mode] = min(r_squared(t, a[:, j]) for j in range(a.shape[1]))
    ok = all(r2 >= 0.99 for r2 in results.values())
    report(
        "criterion 4 (auxiliary growth character, R^2 >= 0.99)",
        ok,
        "min R^2: " + ", ".join(
            f"{mode} {'log-linear' if mode == 'aK2' else 'linear'} {r2:.5f}"
            for mode, r2 in results.items()
        ),
    )


def test_criterion_05_gradient_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(50):
        problem = gen_barthel(BarthelParams(num_vars=8, ratio=4.0, seed=trial % 7)).problem
        state = AnalogState(rng.uniform(-0.95, 0.95, 8),
                            rng.uniform(0.5, 4.0, problem.num_clauses))
        ds, _ = analog_rhs(problem, state)
        h = 1e-6
        grad = np.zeros(8)
        for i in range(8):
            plus, minus = state.s.copy(), state.s.copy()
            plus[i] += h
            minus[i] -= h
            grad[i] = (
                energy(problem, AnalogState(plus, state.a))
                - energy(problem, AnalogState(minus, state.a))
            ) / (2 * h)
        rel = np.max(np.abs(ds + grad) / np.maximum(np.abs(grad), 1e-3))
        worst = max(worst, rel)
    report(
        "criterion 5 (gradient identity, rel err < 1e-6)",
        worst < 1e-6,
        f"worst relative error over 50 samples: {worst:.3e}",
    )


def test_criterion_06_hand_computed_rhs():
    problem = Problem.from_dimacs_clauses(3, [(1, 2, 3)])
    checks = []

    ds, da = analog_rhs(problem, AnalogState(np.zeros(3), np.ones(1)))
    checks.append(np.max(np.abs(ds - 0.03125)) <= 1e-12)
    checks.append(abs(da[0] - 0.015625) <= 1e-12)

    dv, dxs, dxl = mem_rhs(problem, MemState(np.ones(3), np.full(1, 0.5), np.ones(1)))
    checks.append(np.max(np.abs(dv)) <= 1e-12)
    checks.append(abs(dxs[0] + 2.505) <= 1e-12)
    checks.append(dxl[0] == 0.0)  # masked at the lower bound

    dv, dxs, dxl = mem_rhs(problem, MemState(-np.ones(3), np.full(1, 0.5), np.ones(1)))
    checks.append(np.max(np.abs(dv - 1.005)) <= 1e-12)
    checks.append(abs(dxs[0] - 7.515) <= 1e-12)
    checks.append(abs(dxl[0] - 4.75) <= 1e-12)

    dv, _, _ = mem_rhs(problem, MemState(np.array([0.9, 0.2, -0.5]), np.zeros(1), np.ones(1)))
    checks.append(abs(dv[0] - 1.01 * 0.05) <= 1e-12)
    checks.append(dv[1] == 0.0 and dv[2] == 0.0)

    report(
        "criterion 6 (hand-computed derivative vectors, 1e-12)",
        all(checks),
        f"{sum(checks)}/{len(checks)} vector checks matched",
    )


def test_criterion_07_bound_invariants():
    rng = np.random.default_rng(7)
    violations = 0
    total = 0
    for trial in range(50):
        inst = gen_barthel(BarthelParams(num_vars=8, ratio=4.3, seed=trial))
        n, m = inst.problem.num_vars, inst.problem.num_clauses
        seed = int(rng.integers(0, 1 << 31))
        rec = run(inst.problem, ANALOG, seed=seed, config=IntegratorConfig(t_ev=5.0))
        total += 1
        if np.any(np.abs(rec.states[:, :n]) > 1.0) or np.any(rec.states[:, n:] <= 0.0):
            violations += 1
        rec = run(inst.problem, MEM, seed=seed, config=IntegratorConfig(t_ev=5.0))
        total += 1
        v, xs, xl = rec.states[:, :n], rec.states[:, n:n + m], rec.states[:, n + m:]
        if (np.any(np.abs(v) > 1.0) or np.any((xs < 0) | (xs > 1))
                or np.any((xl < 1) | (xl > 1e4 * m))):
            violations += 1
    report(
        "criterion 7 (bound invariants on 100 trajectories)",
        violations == 0,
        f"{violations} out-of-interval trajectories in {total}",
    )


def test_criterion_08_unclamped_memcomputing():
    inst = generate_instance("B4.3", 40, derive_seed(SEED_BASE, "instance", "B4.3", 40, 0))
    solved = 0
    contrd_zero = 0
    for seed in range(10):
        rec = run(inst.problem, MEM, seed=seed, config=IntegratorConfig(t_ev=T_EV),
                  solver_options=MemOptions(clamp_v=False))
        if rec.outcome == SOLVED:
            solved += 1
        if (rec.contrd == 0).any():
            contrd_zero += 1
    report(
        "criterion 8 (unclamped memcomputing may solve)",
        solved >= 1 and contrd_zero >= 1,
        f"{solved}/10 seeds solved with voltage bounds removed; "
        f"contrd reached 0 in {contrd_zero}/10 runs",
    )


def test_criterion_09_generator_correctness():
    plant_ok = True
    for family in ("B7", "B4.3", "X"):
        for size in (10, 20, 30, 40, 50):
            for index in range(4):
                inst = generate_instance(family, size, derive_seed(1, family, size, index))
                if count_unsatisfied(inst.problem, inst.plant) != 0:
                    plant_ok = False

    # 3R3X structural identities, exact
    xorsat_ok = True
    for n in (10, 20, 50):
        inst = gen_xorsat_3r(n, seed=n)
        counts = np.bincount(inst.problem.var_index.ravel(), minlength=n)
        eq_counts = np.zeros(n, dtype=int)
        for eq in inst.equations:
            for var in eq.variable_indices:
                eq_counts[var] += 1
        if not (len(inst.equations) == n and inst.problem.num_clauses == 4 * n
                and (counts == 12).all() and (eq_counts == 3).all()):
            xorsat_ok = False

    # XOR -> CNF exhaustive 8-assignment equivalence over all masks and rhs
    import itertools
    xor_ok = True
    for mask in itertools.product((False, True), repeat=3):
        for rhs in (False, True):
            eq = XorEquation((0, 1, 2), mask, rhs)
            clauses = xor_to_cnf(eq)
            for values in itertools.product((False, True), repeat=3):
                cnf_sat = all(
                    any((code > 0) == values[abs(code) - 1] for code in c)
                    for c in clauses
                )
                parity = rhs
                xor_sat = eq.holds(np.array(values))
                if cnf_sat != xor_sat:
                    xor_ok = False

    # Barthel pattern-type frequencies: 1e5 clauses, 3-sigma multinomial
    inst = gen_barthel(BarthelParams(num_vars=30, ratio=100_000 / 30, p0=0.08, seed=123))
    sat = inst.plant[inst.problem.var_index] == (inst.problem.sign > 0)
    types = sat.sum(axis=1)
    p0, p1, p2 = barthel_type_weights(0.08)
    m = inst.problem.num_clauses
    freq_ok = (types == 0).sum() == 0
    for t_count, prob in ((3, p0), (2, 3 * p1), (1, 3 * p2)):
        observed = int((types == t_count).sum())
        sigma = np.sqrt(m * prob * (1 - prob))
        if abs(observed - m * prob) > 3 * sigma:
            freq_ok = False

    ok = plant_ok and xorsat_ok and xor_ok and freq_ok
    report(
        "criterion 9 (generator correctness)",
        ok,
        f"plants satisfied: {plant_ok}, 3R3X identities: {xorsat_ok}, "
        f"xor-to-cnf equivalence: {xor_ok}, type frequencies in 3 sigma: {freq_ok}",
    )


def test_criterion_10_netlist_structure():
    problem = gen_barthel(BarthelParams(num_vars=8, ratio=4.3, seed=11)).problem
    n, m = problem.num_vars, problem.num_clauses
    analog_doc = emit_analog(problem)
    mem_doc = emit_mem(problem)
    counts_ok = (
        card_histogram(analog_doc)["C"] == n + m
        and card_histogram(mem_doc)["C"] == n + 2 * m
    )
    deterministic = (
        serialize(emit_analog(problem)) == serialize(emit_analog(problem))
        and serialize(emit_mem(problem)) == serialize(emit_mem(problem))
    )

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        s = rng.uniform(-1, 1, n)
        a = rng.uniform(0.5, 4.0, m)
        volts = {f"s{i + 1}": s[i] for i in range(n)}
        volts |= {f"a{j + 1}": a[j] for j in range(m)}
        volts |= {"contra": 0.0, "contrd": 0.0}
        got = evaluate_deck_rhs(analog_doc, volts)
        ds, da = analog_rhs(problem, AnalogState(s, a))
        ref = np.concatenate([ds, da])
        vals = np.array([got[f"s{i + 1}"] for i in range(n)]
                        + [got[f"a{j + 1}"] for j in range(m)])
        worst = max(worst, float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref)))))

        v = rng.uniform(-1, 1, n)
        xs = rng.uniform(0, 1, m)
        xl = rng.uniform(1, 20, m)
        volts = {f"v{i + 1}": v[i] for i in range(n)}
        volts |= {f"xs{j + 1}": xs[j] for j in range(m)}
        volts |= {f"xl{j + 1}": xl[j] for j in range(m)}
        volts |= {"contra": 0.0, "contrd": 0.0}
        got = evaluate_deck_rhs(mem_doc, volts)
        dv, dxs, dxl = mem_rhs(problem, MemState(v, xs, xl))
        ref = np.concatenate([dv, dxs, dxl])
        vals = np.array([got[f"v{i + 1}"] for i in range(n)]
                        + [got[f"xs{j + 1}"] for j in range(m)]
                        + [got[f"xl{j + 1}"] for j in range(m)])
        worst = max(worst, float(np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref)))))

    ok = counts_ok and deterministic and worst <= 1e-9
    report(
        "criterion 10 (netlist structure and consistency)",
        ok,
        f"capacitor counts N+M/N+2M: {counts_ok}, deterministic: {deterministic}, "
        f"worst expression/engine deviation: {worst:.3e} (tol 1e-9)",
    )


def test_criterion_11_oracle_cross_checks(barthel_grid, x_mem_grid):
    rng = np.random.default_rng(1234)
    agree = True
    for trial in range(200):
        inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.3, seed=trial))
        clauses = inst.problem.dimacs_clauses().tolist()
        if trial % 3 == 0:
            k = int(rng.integers(1, 13))
            others = [x for x in range(1, 13) if x != k]
            f2, f3 = rng.choice(others, size=2, replace=False)
            for sk in (k, -k):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        clauses.append((sk, s2 * int(f2), s3 * int(f3)))
        problem = Problem.from_dimacs_clauses(12, clauses)
        if solve_exhaustive(problem).satisfiable != solve_dpll(problem).satisfiable:
            agree = False

    confirmed = 0
    unconfirmed = 0
    for grid in (barthel_grid, x_mem_grid):
        _, records = grid
        for (family, size, index, label), rec in sorted(records.items()):
            if rec.outcome != SOLVED or size > 26:
                continue
            inst = generate_instance(
                family, size, derive_seed(SEED_BASE, "instance", family, size, index)
            )
            witness_ok = count_unsatisfied(inst.problem, rec.assignment) == 0
            oracle_ok = solve_dpll(inst.problem).satisfiable
            if witness_ok and oracle_ok:
                confirmed += 1
            else:
                unconfirmed += 1
    report(
        "criterion 11 (oracle cross-checks)",
        agree and unconfirmed == 0 and confirmed > 0,
        f"exhaustive/DPLL agree on 200 N=12 problems: {agree}; "
        f"{confirmed} solved records at N<=26 oracle-confirmed, {unconfirmed} failures",
    )


def _forcing_clauses(var, value, f2, f3):
    sgn = var if value else -var
    return [(sgn, s2 * f2, s3 * f3) for s2 in (1, -1) for s3 in (1, -1)]


def _forced_instance(value, seed=9, num_vars=10):
    base = gen_barthel(BarthelParams(num_vars=num_vars, ratio=3.0, seed=seed))
    kept = [c for c in base.problem.dimacs_clauses().tolist()
            if all(abs(code) > 2 for code in c)]
    return Problem.from_dimacs_clauses(
        num_vars, kept + _forcing_clauses(1, value, num_vars - 1, num_vars)
    )


def test_criterion_12_network_properties():
    # (a) ring of two copies of the same easy instance solves
    inst = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, seed=5))
    plant = inst.plant
    p_in, q_out = next(
        (i + 1, j + 1)
        for i in range(10) for j in range(10)
        if i != j and plant[i] == plant[j]
    )
    ring_solved = 0
    for seed in range(10):
        nodes = [
            SolverNode(inst.problem, MEM, input_vars=(p_in,), output_vars=(q_out,)),
            SolverNode(inst.problem, MEM, input_vars=(p_in,), output_vars=(q_out,)),
        ]
        wiring = Wiring(edges=(
            (("node", 0, q_out), (1, p_in)),
            (("node", 1, q_out), (0, p_in)),
        ))
        records = simulate_network(nodes, wiring, IntegratorConfig(t_ev=T_EV),
                                   seeds=[seed, seed + 100])
        if all(r.outcome == SOLVED for r in records):
            ring_solved += 1

    # (b) contradictory forced variable: never jointly solved
    prob_a = _forced_instance(True)
    prob_b = _forced_instance(False)
    joint_solves = 0
    for seed in range(10):
        nodes = [
            SolverNode(prob_a, MEM, input_vars=(2,), output_vars=(1,)),
            SolverNode(prob_b, MEM, input_vars=(1,), output_vars=(2,)),
        ]
        wiring = Wiring(edges=(
            (("node", 0, 1), (1, 1)),
            (("node", 1, 2), (0, 2)),
        ))
        records = simulate_network(nodes, wiring, IntegratorConfig(t_ev=T_EV),
                                   seeds=[seed, seed + 50])
        if all(r.outcome == SOLVED for r in records):
            joint_solves += 1

    # (c) disconnected network reproduces independent runs bit-for-bit
    xa = gen_xorsat_3r(12, seed=40)
    xb = gen_xorsat_3r(12, seed=41)
    config = IntegratorConfig(t_ev=8.0)
    net_records = simulate_network(
        [SolverNode(xa.problem, MEM), SolverNode(xb.problem, MEM)],
        Wiring(), config, seeds=[7, 8],
    )
    solo = [run(xa.problem, MEM, seed=7, config=config),
            run(xb.problem, MEM, seed=8, config=config)]
    bitwise = all(
        np.array_equal(net.states, ind.states)
        and np.array_equal(net.times, ind.times)
        and np.array_equal(net.contrd, ind.contrd)
        for net, ind in zip(net_records, solo)
    )

    ok = ring_solved >= 8 and joint_solves == 0 and bitwise
    report(
        "criterion 12 (network properties)",
        ok,
        f"same-instance ring solved {ring_solved}/10 (need >=8); contradictory ring "
        f"jointly solved {joint_solves}/10 (need 0); disconnected bit-for-bit: {bitwise}",
    )
