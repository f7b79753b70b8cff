import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctsat.cnf import (
    DimacsError,
    Problem,
    assignment_from_bits,
    assignment_to_bits,
    count_unsatisfied,
    parse_dimacs,
    read_dimacs,
    write_dimacs,
)
from ctsat.instances import BarthelParams, gen_barthel


def naive_unsatisfied(problem, assignment):
    """Independent per-clause evaluator (the oracle for count_unsatisfied)."""
    count = 0
    for clause in problem.dimacs_clauses().tolist():
        satisfied = False
        for code in clause:
            value = bool(assignment[abs(code) - 1])
            if (code > 0 and value) or (code < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            count += 1
    return count


def all_pattern_problem():
    """The 8 clauses enumerating every sign pattern over (x1, x2, x3)."""
    clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ]
    return Problem.from_dimacs_clauses(3, clauses)


def test_parse_minimal():
    p = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    assert p.num_vars == 3
    assert p.num_clauses == 1
    assert tuple(p.dimacs_clauses()[0]) == (1, -2, 3)


def test_parse_skips_comments_and_trailer():
    text = "c a comment\nc another\np cnf 3 1\n1 -2 3 0\n%\n0\n"
    p = parse_dimacs(text)
    assert p.num_clauses == 1


def test_parse_accepts_file_object(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 -2 3 0\n")
    with open(path) as handle:
        p = parse_dimacs(handle)
    assert p.num_vars == 3


@pytest.mark.parametrize("text", [
    "p cnf 2 1\n1 2 0\n",              # clause with 2 literals
    "p cnf 4 1\n1 2 3 4 0\n",          # clause with 4 literals
    "p cnf 3 1\n1 -1 3 0\n",           # repeated variable
    "p cnf 3 1\n1 2 4 0\n",            # variable out of range
    "p cnf 3 2\n1 2 3 0\n",            # declared M mismatch
    "p cnf 3 1\n1 2 3\n",              # missing terminator
    "p 3 1\n1 2 3 0\n",                # malformed header
    "1 2 3 0\n",                       # clause before header
    "p cnf 3 1\np cnf 3 1\n1 2 3 0\n", # duplicate header
])
def test_parse_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)



def test_read_dimacs_names_the_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 -2 3 0\n")
    assert read_dimacs(path) == parse_dimacs(path.read_text())
    path.write_text("p cnf 3 1\n1 x 3 0\n")
    with pytest.raises(DimacsError, match=f"^{re.escape(str(path))}: line 2: non-integer token"):
        read_dimacs(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DimacsError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        read_dimacs(path)
    with pytest.raises(FileNotFoundError):
        read_dimacs(tmp_path / "missing.cnf")

def test_write_minimal():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    assert write_dimacs(p) == "p cnf 3 1\n1 -2 3 0\n"


def test_write_with_comments():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    text = write_dimacs(p, comments=["hello"])
    assert text.startswith("c hello\np cnf 3 1\n")


def test_empty_clause_list_rejected_at_construction():
    with pytest.raises(ValueError):
        Problem(3, (), ())
    with pytest.raises(ValueError):
        Problem(3, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Problem.from_dimacs_clauses(3, [])


def test_clause_validation():
    # (var_index, sign) rows for Problem(3, ...); None where no DIMACS code exists
    cases = [
        ([[0, 1]], [[1, 1]], [(1, 2)]),                          # two literals
        ([[0, 1, 2, 0]], [[1, 1, 1, 1]], [(1, 2, 3, 1)]),        # four literals
        ([[0, 0, 1]], [[1, -1, 1]], [(1, -1, 2)]),               # repeated variable
        (None, None, [(0, 1, 2)]),                               # literal 0
        ([[0, 1, 2]], [[2, 1, 1]], None),                        # sign of 2
        ([[-1, 1, 2]], [[1, 1, 1]], None),                       # negative index
        ([[0, 1, 3]], [[1, 1, 1]], [(1, 2, 4)]),                 # index >= N
        ([[0, 1, 1.5]], [[1, 1, 1]], None),                      # fractional index
    ]
    for var_index, sign, codes in cases:
        if var_index is not None:
            with pytest.raises(ValueError):
                Problem(3, np.array(var_index), np.array(sign))
        if codes is not None:
            with pytest.raises(ValueError):
                Problem.from_dimacs_clauses(3, codes)
    # the valid row the cases start from is accepted both ways
    assert Problem(3, np.array([[0, 1, 2]]), np.array([[1, -1, 1]])) == (
        Problem.from_dimacs_clauses(3, [(1, -2, 3)]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_roundtrip_on_generated_problems(seed):
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=3.0, seed=seed))
    text = write_dimacs(inst.problem)
    assert parse_dimacs(text) == inst.problem
    # write . parse is the identity on canonical text
    assert write_dimacs(parse_dimacs(text)) == text


def test_count_unsatisfied_first_clause_example():
    # (x1 v ~x2 v x3) is satisfied by x1 = TRUE whatever the rest
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    for x2 in (False, True):
        for x3 in (False, True):
            assert count_unsatisfied(p, np.array([True, x2, x3])) == 0


def test_count_unsatisfied_all_patterns_is_one():
    p = all_pattern_problem()
    for bits in range(8):
        assignment = np.array([(bits >> k) & 1 == 1 for k in range(3)])
        assert count_unsatisfied(p, assignment) == 1


def test_count_unsatisfied_matches_naive():
    rng = np.random.default_rng(7)
    for seed in range(25):
        inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.0, seed=seed))
        assignment = rng.random(12) < 0.5
        assert count_unsatisfied(inst.problem, assignment) == naive_unsatisfied(
            inst.problem, assignment
        )


def test_count_unsatisfied_zero_iff_satisfying():
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=5))
    p = inst.problem
    for code in range(2 ** 6):
        assignment = np.array([(code >> k) & 1 == 1 for k in range(6)])
        assert (count_unsatisfied(p, assignment) == 0) == (
            naive_unsatisfied(p, assignment) == 0
        )


def test_count_unsatisfied_length_mismatch():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    with pytest.raises(ValueError):
        count_unsatisfied(p, np.array([True, False]))


def test_assignment_bits_roundtrip():
    bits = "0110"
    assert assignment_to_bits(assignment_from_bits(bits)) == bits
    with pytest.raises(ValueError):
        assignment_from_bits("01x")
