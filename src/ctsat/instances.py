"""Planted 3-SAT benchmark generators.

Three families, all built around a hidden satisfying assignment (the plant):

* easy planted instances (Barthel-style ensemble, clause ratio M/N = 7),
* difficult planted instances (same ensemble at M/N = 4.3),
* 3-regular 3-XORSAT: N parity equations, three variables each, every
  variable in exactly three equations, each equation expanded into the four
  CNF clauses that forbid its violating assignments (M = 4N).

All randomness comes from numpy's PCG64 generator seeded explicitly, so an
identical seed reproduces the instance byte-for-byte on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnf import Assignment, Problem, check_fields, count_unsatisfied, require_integer

__all__ = [
    "BarthelParams",
    "XorEquation",
    "PlantedInstance",
    "barthel_type_weights",
    "gen_barthel",
    "gen_xorsat_3r",
    "xor_to_cnf",
    "XORSAT_RETRY_BUDGET",
]

XORSAT_RETRY_BUDGET = 10_000


@dataclass(frozen=True)
class BarthelParams:
    """Parameters of the Barthel-style planted ensemble.

    p0 is the probability of drawing the one sign pattern whose three
    literals are all satisfied by the plant; it controls how well the plant
    is hidden. p0 = 0.08 with M/N = 7 gives easy instances, with M/N = 4.3
    difficult ones.
    """

    num_vars: int
    ratio: float
    p0: float = 0.08
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.num_vars < 3:
            raise ValueError("Barthel generator needs N >= 3")
        if self.ratio <= 0:
            raise ValueError("clause ratio must be positive")
        if not 0.0 <= self.p0 <= 0.25:
            raise ValueError("p0 must lie in [0, 0.25]")
        if self.num_clauses < 1:
            raise ValueError("round(ratio * N) must be >= 1")

    @property
    def num_clauses(self) -> int:
        return int(round(self.ratio * self.num_vars))


@dataclass(frozen=True)
class XorEquation:
    """x_a (+) x_b (+) x_c = rhs over GF(2), with per-variable negations.

    variable_indices are 0-based; a True negation flips that variable before
    it enters the parity sum.
    """

    variable_indices: tuple[int, int, int]
    negation_mask: tuple[bool, bool, bool]
    rhs: bool

    def __post_init__(self):
        if len(set(self.variable_indices)) != 3:
            raise ValueError("XOR equation variables must be distinct")

    def holds(self, assignment: Assignment) -> bool:
        total = False
        for var, neg in zip(self.variable_indices, self.negation_mask):
            total ^= bool(assignment[var]) ^ neg
        return total == self.rhs


@dataclass(frozen=True)
class PlantedInstance:
    problem: Problem
    plant: Assignment
    equations: tuple[XorEquation, ...] = field(default=())

    def __post_init__(self):
        plant = np.asarray(self.plant, dtype=bool)
        plant.setflags(write=False)
        object.__setattr__(self, "plant", plant)
        if count_unsatisfied(self.problem, plant) != 0:
            raise ValueError("plant does not satisfy the generated instance")


def barthel_type_weights(p0: float) -> tuple[float, float, float]:
    """Per-pattern weights (p0, p1, p2) for clause types with 3, 2, 1
    literals satisfied by the plant.  The fully violated type has weight 0.

    The two defining constraints of the ensemble are normalization,
    p0 + 3 p1 + 3 p2 = 1, and the per-literal sign balance p2 = p0 + p1
    (each literal is satisfied by the plant with probability 1/2, which
    hides the plant from majority voting).  Solving them gives
    p1 = (1 - 4 p0) / 6 and p2 = (1 + 2 p0) / 6.
    """
    p1 = (1.0 - 4.0 * p0) / 6.0
    p2 = (1.0 + 2.0 * p0) / 6.0
    return p0, p1, p2


# Row b holds the 3 bits of b: a Barthel sign pattern (True where the plant
# satisfies that literal; row 0, all violated, is forbidden) or an assignment
# of a parity equation's 3 variables.
_PATTERNS = (np.arange(8)[:, None] >> np.arange(3)) & 1 == 1


def _pattern_probabilities(p0: float) -> np.ndarray:
    w0, w1, w2 = barthel_type_weights(p0)
    return np.array((0.0, w2, w1, w0))[_PATTERNS.sum(axis=1)]


def _draw_distinct_triples(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """3 distinct variables per clause as an (m, 3) int64 array, uniform
    over the ordered triples, in O(M): draw from n, n - 1 and n - 2 values,
    stepping each draw over the values already taken, smallest first
    (Bentley & Floyd, CACM 30(9), 1987).
    """
    a = rng.integers(n, size=m)
    b = rng.integers(n - 1, size=m)
    b += b >= a
    c = rng.integers(n - 2, size=m)
    c += c >= np.minimum(a, b)
    c += c >= np.maximum(a, b)
    return np.stack((a, b, c), axis=1)


def gen_barthel(params: BarthelParams) -> PlantedInstance:
    """Draw a planted instance from the Barthel-style ensemble.

    A uniformly random plant is fixed first.  Each clause independently
    picks 3 distinct variables uniformly and a sign pattern drawn by the
    type weights of `barthel_type_weights`; the pattern says which literals
    the plant satisfies, so the plant satisfies every clause by
    construction.  Duplicate clauses across the instance are allowed.
    """
    n, m = params.num_vars, params.num_clauses
    rng = np.random.Generator(np.random.PCG64(params.seed))
    plant = rng.random(n) < 0.5

    variables = _draw_distinct_triples(rng, n, m)
    masks = rng.choice(8, size=m, p=_pattern_probabilities(params.p0))

    satisfied = _PATTERNS[masks]
    plant_sign = np.where(plant[variables], 1, -1)
    signs = np.where(satisfied, plant_sign, -plant_sign)
    return PlantedInstance(Problem(n, variables, signs), plant)


def _xor_clauses(variables, negations, rhs) -> np.ndarray:
    """The (4E, 3) int64 DIMACS clauses of E parity equations given as (E, 3)
    variables, (E, 3) negations and (E,) rhs: per equation in order, one
    clause forbidding each assignment whose parity differs from rhs, ascending.
    """
    parity = (_PATTERNS.sum(axis=1) + np.sum(negations, axis=1)[:, None]) % 2 == 1
    literals = np.asarray(variables, dtype=np.int64)[:, None, :] + 1
    # each literal is false exactly at its assignment
    return np.where(_PATTERNS, -literals, literals)[parity != np.asarray(rhs)[:, None]]


def xor_to_cnf(eq: XorEquation) -> np.ndarray:
    """Expand one parity equation into the 4 clauses that forbid exactly
    its 4 violating assignments, as a (4, 3) int64 array of signed 1-based
    DIMACS literals.  An assignment satisfies all 4 clauses iff it
    satisfies the equation.
    """
    return _xor_clauses([eq.variable_indices], [eq.negation_mask], [eq.rhs])


def gen_xorsat_3r(num_vars: int, seed: int = 0) -> PlantedInstance:
    """Generate a 3-regular 3-XORSAT instance with a planted solution.

    The variable-to-equation incidence comes from the configuration model:
    three stubs per variable are matched uniformly into triples, rejecting
    and re-matching whenever a triple repeats a variable.  Negations are
    random and each right-hand side is computed from a random plant, so the
    parity system is consistent.  Expansion gives exactly M = 4N clauses
    and 12 clause occurrences per variable.
    """
    num_vars = require_integer(num_vars, "num_vars")
    if num_vars < 4:
        raise ValueError("3-regular 3-XORSAT generator needs N >= 4")
    rng = np.random.Generator(np.random.PCG64(require_integer(seed, "seed")))

    stubs = np.repeat(np.arange(num_vars), 3)
    for _ in range(XORSAT_RETRY_BUDGET):
        rng.shuffle(stubs)
        triples = stubs.reshape(num_vars, 3)
        a, b, c = triples.T
        if ((a != b) & (a != c) & (b != c)).all():
            break
    else:
        raise RuntimeError(
            f"no valid 3-regular configuration found for N={num_vars} "
            f"after {XORSAT_RETRY_BUDGET} matchings"
        )

    negations = rng.random((num_vars, 3)) < 0.5
    plant = rng.random(num_vars) < 0.5
    rhs = (plant[triples] ^ negations).sum(axis=1) % 2 == 1
    problem = Problem.from_dimacs_clauses(num_vars, _xor_clauses(triples, negations, rhs))
    equations = tuple(
        XorEquation(tuple(variables), tuple(mask), value)
        for variables, mask, value in zip(triples.tolist(), negations.tolist(), rhs.tolist())
    )
    return PlantedInstance(problem, plant, equations)
