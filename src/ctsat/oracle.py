"""Independent ground-truth SAT solving for verification at small N.

Two complete deciders with very different mechanics cross-check each other
and every claim of solvability made elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cnf import Assignment, Problem, count_unsatisfied

__all__ = ["OracleResult", "solve_exhaustive", "solve_dpll", "EXHAUSTIVE_MAX_VARS"]

EXHAUSTIVE_MAX_VARS = 26
_CHUNK = 1 << 13  # assignments evaluated per NumPy pass


@dataclass(frozen=True)
class OracleResult:
    satisfiable: bool
    witness: Optional[Assignment]
    nodes_explored: int


def solve_exhaustive(problem: Problem) -> OracleResult:
    """Enumerate all 2^N assignments in lexicographic order (x1 most
    significant, FALSE < TRUE) and return the first satisfying one.

    nodes_explored counts assignments evaluated. Hard-capped at N=26.
    """
    n = problem.num_vars
    if n > EXHAUSTIVE_MAX_VARS:
        raise ValueError(f"exhaustive search capped at N={EXHAUSTIVE_MAX_VARS}, got N={n}")
    # bit position of variable i when x1 is the most significant bit
    shifts = (n - 1 - problem.var_index).astype(np.uint64)  # (M, 3)
    want_true = problem.sign > 0
    total = 1 << n
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        bits = (codes[:, None, None] >> shifts[None, :, :]) & np.uint64(1)
        lit_sat = (bits == 1) == want_true[None, :, :]
        sat = lit_sat.any(axis=2).all(axis=1)
        hit = np.flatnonzero(sat)
        if hit.size:
            code = int(codes[hit[0]])
            witness = np.array([(code >> (n - 1 - i)) & 1 for i in range(n)], dtype=bool)
            return OracleResult(True, witness, start + int(hit[0]) + 1)
    return OracleResult(False, None, total)


def _simplify(clauses, var, value):
    """Drop satisfied clauses and falsified literals for var := value."""
    sat_lit = var if value else -var
    return [[lit for lit in clause if abs(lit) != var] for clause in clauses
            if sat_lit not in clause]


def solve_dpll(problem: Problem) -> OracleResult:
    """Complete DPLL backtracking with unit propagation.

    Branching picks the variable occurring most often in the remaining
    clauses (lowest index on ties) and tries TRUE first, so the search is
    deterministic. nodes_explored counts branching nodes.
    """
    clauses0 = problem.dimacs_clauses().tolist()
    nodes = 0

    def search(clauses, assignment):
        nonlocal nodes
        # unit propagation to a fixed point
        while True:
            unit = None
            for clause in clauses:
                if not clause:
                    return None
                if len(clause) == 1:
                    unit = clause[0]
                    break
            if unit is None:
                break
            var, value = abs(unit), unit > 0
            assignment = dict(assignment)
            assignment[var] = value
            clauses = _simplify(clauses, var, value)
        if not clauses:
            return assignment
        nodes += 1
        counts: dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        var = min(counts, key=lambda v: (-counts[v], v))
        for value in (True, False):
            result = search(_simplify(clauses, var, value), {**assignment, var: value})
            if result is not None:
                return result
        return None

    model = search(clauses0, {})
    if model is None:
        return OracleResult(False, None, nodes)
    witness = np.zeros(problem.num_vars, dtype=bool)
    for var, value in model.items():
        witness[var - 1] = value
    if count_unsatisfied(problem, witness) != 0:
        raise RuntimeError("DPLL model does not satisfy the formula")
    return OracleResult(True, witness, nodes)
