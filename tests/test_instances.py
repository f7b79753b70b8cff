import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from ctsat import instances
from ctsat.cnf import count_unsatisfied, write_dimacs
from ctsat.instances import (
    BarthelParams,
    XorEquation,
    barthel_type_weights,
    gen_barthel,
    gen_xorsat_3r,
    xor_to_cnf,
)
from ctsat.oracle import solve_dpll


def clause_satisfies(codes, assignment):
    return any((code > 0) == bool(assignment[abs(code) - 1]) for code in codes)


# ---------------------------------------------------------------------- barthel

def test_barthel_easy_shape():
    inst = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, p0=0.08, seed=0))
    assert inst.problem.num_clauses == 70
    assert count_unsatisfied(inst.problem, inst.plant) == 0


def test_barthel_difficult_shape():
    inst = gen_barthel(BarthelParams(num_vars=40, ratio=4.3, p0=0.08, seed=0))
    assert inst.problem.num_clauses == 172
    assert count_unsatisfied(inst.problem, inst.plant) == 0


def test_barthel_rejects_bad_params():
    with pytest.raises(ValueError):
        BarthelParams(num_vars=2, ratio=7.0)
    with pytest.raises(ValueError):
        BarthelParams(num_vars=10, ratio=-1.0)
    with pytest.raises(ValueError):
        BarthelParams(num_vars=10, ratio=7.0, p0=0.3)


def test_barthel_weights_constraints():
    p0, p1, p2 = barthel_type_weights(0.08)
    assert p0 + 3 * p1 + 3 * p2 == pytest.approx(1.0, abs=1e-15)   # normalization
    assert p2 == pytest.approx(p0 + p1, abs=1e-15)                  # sign balance
    assert p1 == pytest.approx(0.68 / 6)
    assert p2 == pytest.approx(1.16 / 6)


def test_barthel_determinism():
    a = gen_barthel(BarthelParams(num_vars=20, ratio=4.3, seed=99))
    b = gen_barthel(BarthelParams(num_vars=20, ratio=4.3, seed=99))
    assert write_dimacs(a.problem) == write_dimacs(b.problem)
    assert np.array_equal(a.plant, b.plant)
    c = gen_barthel(BarthelParams(num_vars=20, ratio=4.3, seed=100))
    assert write_dimacs(c.problem) != write_dimacs(a.problem)


def test_barthel_type_frequencies_within_three_sigma():
    # 1e5 clauses at p0 = 0.08: per-type counts against the configured
    # weights, three-sigma multinomial bounds
    m_target = 100_000
    params = BarthelParams(num_vars=30, ratio=m_target / 30, p0=0.08, seed=123)
    inst = gen_barthel(params)
    problem, plant = inst.problem, inst.plant
    sat = plant[problem.var_index] == (problem.sign > 0)
    types = sat.sum(axis=1)
    assert (types == 0).sum() == 0  # the fully violated pattern never appears
    p0, p1, p2 = barthel_type_weights(0.08)
    m = problem.num_clauses
    for t_count, prob in ((3, p0), (2, 3 * p1), (1, 3 * p2)):
        observed = int((types == t_count).sum())
        expected = m * prob
        sigma = np.sqrt(m * prob * (1 - prob))
        assert abs(observed - expected) <= 3 * sigma, (t_count, observed, expected)


def test_barthel_per_pattern_frequencies():
    # finer check: each of the 7 allowed sign-pattern classes individually
    params = BarthelParams(num_vars=25, ratio=4000, p0=0.08, seed=321)
    inst = gen_barthel(params)
    problem, plant = inst.problem, inst.plant
    sat = plant[problem.var_index] == (problem.sign > 0)
    masks = sat @ np.array([1, 2, 4])
    p0, p1, p2 = barthel_type_weights(0.08)
    m = problem.num_clauses
    weight_by_popcount = {3: p0, 2: p1, 1: p2}
    for mask in range(1, 8):
        prob = weight_by_popcount[bin(mask).count("1")]
        observed = int((masks == mask).sum())
        sigma = np.sqrt(m * prob * (1 - prob))
        assert abs(observed - m * prob) <= 3 * sigma


def test_barthel_triples_are_distinct_and_uniform():
    # n = 4 has 4 * 3 * 2 = 24 ordered triples of distinct variables; each
    # must appear with probability 1/24 (four-sigma binomial bounds), and
    # no triple with a repeated variable may appear at all
    inst = gen_barthel(BarthelParams(num_vars=4, ratio=25_000, seed=17))
    triples = inst.problem.var_index
    m = len(triples)
    assert m == 100_000
    counts = np.bincount((triples[:, 0] * 4 + triples[:, 1]) * 4 + triples[:, 2],
                         minlength=64)
    distinct = {(a * 4 + b) * 4 + c for a, b, c in itertools.permutations(range(4), 3)}
    prob = 1 / 24
    sigma = np.sqrt(m * prob * (1 - prob))
    for code in range(64):
        if code in distinct:
            assert abs(counts[code] - m * prob) <= 4 * sigma, (code, counts[code])
        else:
            assert counts[code] == 0, code


def test_barthel_memory_is_linear_in_clauses():
    # the draw must keep O(M) state; an (M, N) array at N = 2000 is 137 MB
    params = BarthelParams(num_vars=2000, ratio=4.3, seed=0)
    tracemalloc.start()
    try:
        gen_barthel(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_barthel_generates_at_n_20000():
    inst = gen_barthel(BarthelParams(num_vars=20_000, ratio=4.3, seed=1))
    assert inst.problem.var_index.shape == (86_000, 3)
    assert count_unsatisfied(inst.problem, inst.plant) == 0


# ----------------------------------------------------------------------- xorsat

def test_xorsat_shape_n10():
    inst = gen_xorsat_3r(10, seed=1)
    assert len(inst.equations) == 10
    assert inst.problem.num_clauses == 40
    counts = np.bincount(inst.problem.var_index.ravel(), minlength=10)
    assert (counts == 12).all()  # 3 equations x 4 clauses each
    eq_counts = np.zeros(10, dtype=int)
    for eq in inst.equations:
        for var in eq.variable_indices:
            eq_counts[var] += 1
    assert (eq_counts == 3).all()


def test_xorsat_n20_plant_satisfies():
    inst = gen_xorsat_3r(20, seed=2)
    assert inst.problem.num_clauses == 80
    assert count_unsatisfied(inst.problem, inst.plant) == 0


def test_xorsat_equations_hold_at_plant():
    inst = gen_xorsat_3r(14, seed=3)
    for eq in inst.equations:
        assert eq.holds(inst.plant)


def test_xorsat_determinism_and_seed_sensitivity():
    a = gen_xorsat_3r(12, seed=7)
    b = gen_xorsat_3r(12, seed=7)
    assert write_dimacs(a.problem) == write_dimacs(b.problem)
    c = gen_xorsat_3r(12, seed=8)
    assert write_dimacs(c.problem) != write_dimacs(a.problem)


def test_xorsat_rejects_small_n():
    with pytest.raises(ValueError):
        gen_xorsat_3r(3, seed=0)


def test_xorsat_satisfiable_by_oracle():
    inst = gen_xorsat_3r(16, seed=11)
    assert solve_dpll(inst.problem).satisfiable


# ------------------------------------------------------------------- xor_to_cnf

def xor_satisfied(eq, values):
    total = False
    for value, neg in zip(values, eq.negation_mask):
        total ^= value ^ neg
    return total == eq.rhs


def test_xor_to_cnf_true_rhs_matches_enumeration():
    eq = XorEquation((0, 1, 2), (False, False, False), True)
    clauses = xor_to_cnf(eq)
    got = {tuple(sorted(c)) for c in clauses.tolist()}
    expected = {
        tuple(sorted(c))
        for c in [(1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)]
    }
    assert got == expected


def test_xor_to_cnf_false_rhs_is_complement():
    eq = XorEquation((0, 1, 2), (False, False, False), False)
    got = {tuple(sorted(c)) for c in xor_to_cnf(eq).tolist()}
    expected = {
        tuple(sorted(c))
        for c in [(-1, -2, -3), (-1, 2, 3), (1, -2, 3), (1, 2, -3)]
    }
    assert got == expected


@pytest.mark.parametrize("negations", list(itertools.product((False, True), repeat=3)))
@pytest.mark.parametrize("rhs", (False, True))
def test_xor_to_cnf_exhaustive_equivalence(negations, rhs):
    # for all 8 assignments: clause-set satisfaction <=> XOR satisfaction
    eq = XorEquation((0, 1, 2), negations, rhs)
    clauses = xor_to_cnf(eq)
    assert len(clauses) == 4
    for values in itertools.product((False, True), repeat=3):
        assignment = np.array(values)
        cnf_ok = all(clause_satisfies(c, assignment) for c in clauses.tolist())
        assert cnf_ok == xor_satisfied(eq, values)


def test_xor_to_cnf_gives_each_equations_rows_of_the_instance():
    # gen_xorsat_3r expands all N equations in one batch; xor_to_cnf is that
    # expansion on a batch of one, so equation i gives rows 4i..4i+3
    inst = gen_xorsat_3r(2000, seed=0)
    codes = inst.problem.dimacs_clauses()
    assert len(inst.equations) == 2000 and codes.shape == (8000, 3)
    for i, eq in enumerate(inst.equations):
        clauses = xor_to_cnf(eq)
        assert clauses.dtype == np.int64
        np.testing.assert_array_equal(clauses, codes[4 * i:4 * i + 4])
        assert eq.holds(inst.plant)


# ------------------------------------------------------------ instance stream

def generate(family, num_vars, seed):
    if family == "X":
        return gen_xorsat_3r(num_vars, seed=seed)
    return gen_barthel(BarthelParams(num_vars=num_vars, ratio=float(family[1:]), seed=seed))


def tile_shuffle_triples(rng, n, m):
    # the variable draw gen_barthel used before it became O(M): the first
    # 3 entries of a per-clause shuffle of all n variables
    return rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)[:, :3]


# sha256 of write_dimacs text, recorded before the generators built the
# (M, 3) arrays directly; any change to a generator's RNG call sequence,
# clause order or sign convention fails here.  The Barthel entries run with
# the earlier tile-shuffle variable draw put back, so they pin everything of
# the Barthel stream except the draw itself: plant, RNG call order, sign
# patterns and DIMACS text.
@pytest.mark.parametrize("family,num_vars,seed,digest", [
    ("B4.3", 10, 0, "8536845436b64f4a7b2cab91aa38df44f4f47f85261e591626e3c5b6220be609"),
    ("B4.3", 10, 1, "4ad063b227fa967ba3605af0917865b23971550efefb9396863c5d0fdf966da5"),
    ("B4.3", 50, 0, "c2a609f43b007118954c1f9155dc4745c10706f6f9b0bf777d438f7dc1befc21"),
    ("B4.3", 50, 1, "32492118bcbb2603dbfe996d767019cc4422e9e7b14c54b2b9b830ebaf7f4ed4"),
    ("B4.3", 2000, 0, "8e746626d63bc62096613b916c2cf6da50d7522a91077aa4b3cd14009208f613"),
    ("B4.3", 2000, 1, "45622324e1c4d3c83a93fcb49bdcec878f1c04b271736064b3cff5fdb54ecdd5"),
    ("B7", 10, 0, "6c36766cb3a9c3b0a65864abcc619f66f4749bd6935d7259f82eabf178b81215"),
    ("B7", 10, 1, "9e8e5bc31d5ea36436664bd4d26b0f111fbccf3ac00c6696adfd12fbc5765425"),
    ("B7", 50, 0, "38f2be4e932eb0f8ccd321beb2f13d39c159599d34aea9f992dbb0dc01953852"),
    ("B7", 50, 1, "5653fb1ca83aa13af407c9f2551c622c2fdcde3eba83b3a5b55d0bf30e3c315d"),
    ("B7", 2000, 0, "a6b79ce22a07065df5355dc76bca6aec70a35986d2672d32cdb4645d2af90ecf"),
    ("B7", 2000, 1, "e6ea076ebb1b740b8a5462869d799afecc8d2584fcd59f81b5a0604441a478ec"),
    ("X", 20, 0, "f31952ed8d3a2c6b0d42d3ee9911eaa785faeca6e957f1b115fe3fc03db5d458"),
    ("X", 20, 1, "f157749aa2b7782a1b97905756988587d9ebd6769c3c323396ea538581c453a4"),
    ("X", 50, 0, "5886fd50a568d03f679de8bb805f2394ca0c3ec8aaafd3aa42619d5c4ee1d5a7"),
    ("X", 50, 1, "6c7026507df91e5e7d1cb0915ade7e94a2fa83ae1be14d294f500480e99de656"),
    ("X", 2000, 0, "5ce3f67016aca662762b6904c194d5020f53acf6c4796b17b1851099db52dddb"),
    ("X", 2000, 1, "0d5609d9cad39e5d0e0bae2a01d33592d9ef3bf8b514eae0bf8209fa46e07f7c"),
])
def test_pinned_instance_stream_digests(family, num_vars, seed, digest, monkeypatch):
    monkeypatch.setattr(instances, "_draw_distinct_triples", tile_shuffle_triples)
    text = write_dimacs(generate(family, num_vars, seed).problem)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of write_dimacs text of the Barthel stream with its O(M) variable
# draw, the stream that gen_barthel gives
@pytest.mark.parametrize("family,num_vars,seed,digest", [
    ("B4.3", 10, 0, "79a8aee8d0febab17fdce41304387a046233710d1e96feb1bf4e4be328d0e4c7"),
    ("B4.3", 10, 1, "776f234908ae2716a0bd45c7da7388bc1ba2b936af00fed99cf409e9467318f2"),
    ("B4.3", 50, 0, "0edafa734932a10f38ef7d0ad080641bea8559866f39d8867932aa3f9a4fe991"),
    ("B4.3", 50, 1, "5e542ee446088f6ed4ec71fc7bb97641eb67321caedceda5088e422069a03843"),
    ("B4.3", 2000, 0, "e0c81900b8bd62efadb2086b7a8a9b0e665aaf517d3ee13f00c22aec98b8d680"),
    ("B4.3", 2000, 1, "49c90bf153ac33f64ca46dcaa6b61647222d7d2bd540c72c60fd65eb3ea1dfbc"),
    ("B7", 10, 0, "dff04fc4fcb817cc875ba5d9c12054ff9ab04d910aba6131748cf0d6a9739e81"),
    ("B7", 10, 1, "cb0243d2008928c3815662b2c72cf7baa18766b422ce962c17b1ed79638407e7"),
    ("B7", 50, 0, "5d26a9378585d1f8b756d77932dc430b2c5b3692ba6412e44af63e6d32bed7e9"),
    ("B7", 50, 1, "049db3d78b1240a24c542ca27619f8d40c0f84ff6a5f701856f4e235fbf82313"),
    ("B7", 2000, 0, "84af2f3bda7f8d9afa2541f2b86a00d2467cd26f4db3f7e41f5eec5730feaaf7"),
    ("B7", 2000, 1, "ca00f2a2c0d1963cdd09871311012bde506fb96efda0b977126f3a4e120bf318"),
])
def test_pinned_barthel_stream_digests(family, num_vars, seed, digest):
    text = write_dimacs(generate(family, num_vars, seed).problem)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
