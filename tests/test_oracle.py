import numpy as np
import pytest

from ctsat.cnf import Problem, count_unsatisfied
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.oracle import solve_dpll, solve_exhaustive


def all_pattern_problem():
    clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ]
    return Problem.from_dimacs_clauses(3, clauses)


def test_all_patterns_unsatisfiable():
    result = solve_exhaustive(all_pattern_problem())
    assert not result.satisfiable
    assert result.witness is None
    assert result.nodes_explored == 8
    assert not solve_dpll(all_pattern_problem()).satisfiable


def test_planted_instances_satisfiable_with_verified_witness():
    for seed in range(5):
        inst = gen_barthel(BarthelParams(num_vars=10, ratio=4.3, seed=seed))
        result = solve_exhaustive(inst.problem)
        assert result.satisfiable
        assert count_unsatisfied(inst.problem, result.witness) == 0
        dp = solve_dpll(inst.problem)
        assert dp.satisfiable
        assert count_unsatisfied(inst.problem, dp.witness) == 0


def test_exhaustive_returns_lexicographically_first():
    # single clause (x1 v x2 v x3): the lexicographic-first model has
    # x1 = x2 = FALSE, x3 = TRUE (FALSE < TRUE, x1 most significant)
    p = Problem.from_dimacs_clauses(3, [(1, 2, 3)])
    result = solve_exhaustive(p)
    assert result.witness.tolist() == [False, False, True]
    assert result.nodes_explored == 2  # 000 fails, 001 satisfies
    # negated clause: all-FALSE already satisfies
    p2 = Problem.from_dimacs_clauses(3, [(-1, -2, -3)])
    assert solve_exhaustive(p2).witness.tolist() == [False, False, False]


def test_exhaustive_over_cap_rejected():
    inst = gen_barthel(BarthelParams(num_vars=27, ratio=3.0, seed=0))
    with pytest.raises(ValueError):
        solve_exhaustive(inst.problem)


def test_exhaustive_vs_dpll_agree_on_200_random_problems():
    # cross-oracle equivalence at N = 12 (mixed sat and unsat instances:
    # planted ones plus their corruptions by forcing contradictions)
    rng = np.random.default_rng(1234)
    agree = 0
    for trial in range(200):
        inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.3, seed=trial))
        clauses = inst.problem.dimacs_clauses().tolist()
        if trial % 3 == 0:
            # force x_k both ways over random fillers: usually unsatisfiable
            k = int(rng.integers(1, 13))
            others = [x for x in range(1, 13) if x != k]
            f2, f3 = rng.choice(others, size=2, replace=False)
            for sk in (k, -k):
                for s2 in (1, -1):
                    for s3 in (1, -1):
                        clauses.append((sk, s2 * int(f2), s3 * int(f3)))
        problem = Problem.from_dimacs_clauses(12, clauses)
        a = solve_exhaustive(problem)
        b = solve_dpll(problem)
        assert a.satisfiable == b.satisfiable
        if a.satisfiable:
            assert count_unsatisfied(problem, a.witness) == 0
            assert count_unsatisfied(problem, b.witness) == 0
        agree += 1
    assert agree == 200


def test_dpll_on_3r3x_n50():
    inst = gen_xorsat_3r(50, seed=6)
    result = solve_dpll(inst.problem)
    assert result.satisfiable
    assert count_unsatisfied(inst.problem, result.witness) == 0


def test_dpll_counts_nodes():
    inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.3, seed=1))
    result = solve_dpll(inst.problem)
    assert result.nodes_explored >= 0
