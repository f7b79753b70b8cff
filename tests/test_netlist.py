import hashlib
import operator
import re

import numpy as np
import pytest

from ctsat.cnf import Problem
from ctsat.dynamics import (
    ANALOG,
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemState,
    analog_rhs,
    control_signals,
    mem_rhs,
)
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import MEM, IntegratorConfig, init_analog, init_mem
from ctsat.netlist import (
    LINE_WIDTH,
    Card,
    FuncDef,
    NetlistDocument,
    NetlistOptions,
    SubcircuitSpec,
    card_histogram,
    emit_analog,
    emit_mem,
    evaluate_deck_rhs,
    network_deck,
    serialize,
    undeclared_references,
)
from ctsat.network import SolverNode, SquareWave, Wiring, simulate_network
from ctsat import spice_expr

TINY = Problem.from_dimacs_clauses(3, [(1, -2, 3)])


def sample_problem(seed=11, n=8):
    return gen_barthel(BarthelParams(num_vars=n, ratio=4.3, seed=seed)).problem


def analog_voltages(problem, s, a):
    volts = {f"s{i + 1}": s[i] for i in range(problem.num_vars)}
    volts |= {f"a{j + 1}": a[j] for j in range(problem.num_clauses)}
    return volts | {"contra": 0.0, "contrd": 0.0}


def mem_voltages(problem, v, x_s, x_l):
    volts = {f"v{i + 1}": v[i] for i in range(problem.num_vars)}
    volts |= {f"xs{j + 1}": x_s[j] for j in range(problem.num_clauses)}
    volts |= {f"xl{j + 1}": x_l[j] for j in range(problem.num_clauses)}
    return volts | {"contra": 0.0, "contrd": 0.0}


# ------------------------------------------------------------------- structure

def test_analog_capacitor_count():
    doc = emit_analog(TINY)
    hist = card_histogram(doc)
    assert hist["C"] == 3 + 1          # N + M
    assert hist["R"] == 3 + 1          # every capacitor shunted
    assert hist["B"] == 3 + 1 + 2      # one per state variable + contra/contrd


def test_mem_capacitor_count():
    doc = emit_mem(TINY)
    hist = card_histogram(doc)
    assert hist["C"] == 3 + 2 * 1      # N + 2M
    assert hist["R"] == 3 + 2 * 1
    assert hist["B"] == 3 + 2 * 1 + 2


def test_counts_scale_with_problem():
    problem = sample_problem()
    n, m = problem.num_vars, problem.num_clauses
    assert card_histogram(emit_analog(problem))["C"] == n + m
    assert card_histogram(emit_mem(problem))["C"] == n + 2 * m


def test_factor_flag_strips_prefactor():
    on = serialize(emit_analog(TINY, NetlistOptions(solver_options=AnalogOptions())))
    off = serialize(
        emit_analog(TINY, NetlistOptions(solver_options=AnalogOptions(one_eighth_factor=False)))
    )
    assert "0.125" in on
    assert "0.125" not in off


def test_clamp_flag_changes_only_v_source_cards():
    problem = sample_problem()
    with_clamp = emit_mem(problem, NetlistOptions(solver_options=MemOptions(clamp_v=True)))
    without = emit_mem(problem, NetlistOptions(solver_options=MemOptions(clamp_v=False)))
    assert with_clamp.functions == without.functions
    diff = [
        (a, b) for a, b in zip(with_clamp.elements, without.elements) if a != b
    ]
    assert diff
    for a, b in diff:
        assert a.name.startswith("Bv") and b.name.startswith("Bv")
        assert b.value == f"I=fv{b.name[2:]}()"


def test_unclamped_v_sources_are_bare_functions():
    doc = emit_mem(TINY, NetlistOptions(solver_options=MemOptions(clamp_v=False)))
    for card in doc.elements:
        if card.name.startswith("Bv"):
            assert card.value == f"I=fv{card.name[2:]}()"


def test_serialization_deterministic():
    problem = sample_problem()
    options = NetlistOptions()
    assert serialize(emit_analog(problem, options)) == serialize(emit_analog(problem, options))
    assert serialize(emit_mem(problem, options)) == serialize(emit_mem(problem, options))


def test_line_width_and_continuations():
    problem = sample_problem(n=12)
    text = serialize(emit_mem(problem))
    for line in text.splitlines():
        assert len(line) <= LINE_WIDTH
    assert any(line.startswith("+ ") for line in text.splitlines())


def test_deck_is_ascii_and_ends_with_end():
    text = serialize(emit_analog(sample_problem()))
    text.encode("ascii")
    assert text.rstrip().endswith(".end")


def test_closed_name_check():
    # every variant defines each function above its callers (km before fs
    # and fa, c before fxs and fxl)
    for doc in [emit_analog(sample_problem()), emit_mem(sample_problem()), *_deck_variants()]:
        assert undeclared_references(doc) == []


def test_undeclared_references_lists_every_problem_in_order():
    doc = NetlistDocument(
        title="* hand-built deck",
        functions=(FuncDef("f", "V(s1)*nope()"), FuncDef("g", "V(qq)+f()")),
        elements=(
            Card("Cs1", ("s1", "0"), "1"),
            Card("Bs1", ("0", "s1"), "I=f()*V(zz)"),
            Card("Bprobe", ("probe", "0"), "V=g()+V(yy)+V(xx)+V(probe)"),
        ),
        directives=(),
    )
    assert undeclared_references(doc) == [
        "func f: undeclared function nope",
        "func g: undeclared node qq",
        "source s1: undeclared node zz",
        "source probe: undeclared node xx",
        "source probe: undeclared node yy",
    ]


@pytest.mark.parametrize("functions, elements, message", [
    ((FuncDef("f", "1"), FuncDef("f", "2")), (), "function f\\(\\) is defined twice"),
    ((), (Card("Bs1", ("0", "s1"), "I=1"), Card("Bt1", ("s1", "0"), "V=2")),
     "node s1 is driven by two behavioral sources"),
    ((FuncDef("f", "1 +"), FuncDef("f", "2")), (), "^unexpected 'end of input'$"),
    ((FuncDef("f", "1"),), (Card("Bs1", ("0", "s1"), "I=1"), Card("Bt1", ("s1", "0"), "V=2"),
                            Card("Bs2", ("0", "s2"), "I=1 +")),
     "node s1 is driven by two behavioral sources"),
])
def test_deck_checks_reject_duplicate_definitions(functions, elements, message):
    # the checks key functions by name and sources by target node, so a
    # duplicate would otherwise hide one of the two definitions; whichever
    # of a parse error and a duplicate comes first in deck order is raised
    doc = NetlistDocument("* duplicates", functions, elements, ())
    for check in (undeclared_references, lambda d: evaluate_deck_rhs(d, {})):
        with pytest.raises(ValueError, match=message):
            check(doc)


def starts(doc):
    """{node: start}: the IC= value of each capacitor card, as written."""
    ics = {}
    for card in doc.elements:
        if card.name.startswith("C"):
            capacitance, ic = card.value.split(" ")
            assert capacitance == "1" and ic.startswith("IC=")
            ics[card.nodes[0]] = ic.removeprefix("IC=")
    return ics


def test_ic_cards_match_seeded_initial_conditions():
    problem = sample_problem()
    seed = 77
    doc = emit_analog(problem, NetlistOptions(ic_seed=seed))
    state = init_analog(problem, seed)
    ics = starts(doc)
    for i in range(problem.num_vars):
        assert float(ics[f"s{i + 1}"]) == state.s[i]
    for j in range(problem.num_clauses):
        assert float(ics[f"a{j + 1}"]) == 1.0
    mem_doc = emit_mem(problem, NetlistOptions(ic_seed=seed))
    mem_state = init_mem(problem, seed)
    mem_ics = starts(mem_doc)
    for i in range(problem.num_vars):
        assert float(mem_ics[f"v{i + 1}"]) == mem_state.v[i]


def test_random_ic_mode_uses_simulator_random():
    doc = emit_analog(TINY, NetlistOptions(ic_seed=None))
    ics = starts(doc)
    assert all(ics[f"s{i + 1}"] == "{flat(1)}" for i in range(TINY.num_vars))
    # weights still start at 1 exactly
    assert ics["a1"] == "1"


def test_tran_directive_uses_uic():
    doc = emit_mem(TINY, NetlistOptions(t_ev=120.0))
    tran = [d for d in doc.directives if d.startswith(".tran")]
    assert tran == [".tran 0 120.0 0 uic"]


# ------------------------------------------------------------ engine consistency

@pytest.mark.parametrize("options", [
    AnalogOptions(),
    AnalogOptions(one_eighth_factor=False),
    AnalogOptions(aux_mode="aK"),
    AnalogOptions(aux_mode="K"),
    AnalogOptions(aux_mode="K2"),
])
def test_analog_deck_matches_engine(options):
    problem = sample_problem()
    n, m = problem.num_vars, problem.num_clauses
    doc = emit_analog(problem, NetlistOptions(solver_options=options))
    rng = np.random.default_rng(5)
    for trial in range(10):
        s = rng.uniform(-1, 1, n)
        a = rng.uniform(0.5, 4.0, m)
        got = evaluate_deck_rhs(doc, analog_voltages(problem, s, a))
        ds, da = analog_rhs(problem, AnalogState(s, a), options)
        for i in range(n):
            assert got[f"s{i + 1}"] == pytest.approx(ds[i], rel=1e-9, abs=1e-9)
        for j in range(m):
            assert got[f"a{j + 1}"] == pytest.approx(da[j], rel=1e-9, abs=1e-9)
        contra, contrd = control_signals(problem, s)
        assert got["contra"] == pytest.approx(contra, rel=1e-9, abs=1e-9)
        assert got["contrd"] == contrd


@pytest.mark.parametrize("mem_options", [MemOptions(), MemOptions(clamp_v=False)])
def test_mem_deck_matches_engine(mem_options):
    problem = sample_problem()
    n, m = problem.num_vars, problem.num_clauses
    doc = emit_mem(problem, NetlistOptions(solver_options=mem_options))
    rng = np.random.default_rng(6)
    for trial in range(10):
        v = rng.uniform(-1, 1, n)
        x_s = rng.uniform(0, 1, m)
        x_l = rng.uniform(1, 20, m)
        got = evaluate_deck_rhs(doc, mem_voltages(problem, v, x_s, x_l))
        dv, dx_s, dx_l = mem_rhs(problem, MemState(v, x_s, x_l), mem_options)
        for i in range(n):
            assert got[f"v{i + 1}"] == pytest.approx(dv[i], rel=1e-9, abs=1e-9)
        for j in range(m):
            assert got[f"xs{j + 1}"] == pytest.approx(dx_s[j], rel=1e-9, abs=1e-9)
            assert got[f"xl{j + 1}"] == pytest.approx(dx_l[j], rel=1e-9, abs=1e-9)


def _mem_corner_inputs(problem, rng):
    """(options, v, x_s, x_l) at the memcomputing corners and ties."""
    n, m = problem.num_vars, problem.num_clauses
    poles = np.sign(rng.standard_normal(n))  # all voltages exactly at poles
    return [
        (MemOptions(), poles, np.zeros(m), np.ones(m)),
        (MemOptions(), poles, np.ones(m), np.full(m, 1e4 * m)),
        # v = 0: every clause has three equal slack terms, an exact rigidity tie
        (MemOptions(), np.zeros(n), rng.uniform(0, 1, m), rng.uniform(1, 20, m)),
        (MemOptions(clamp_v=False), poles, np.zeros(m), np.ones(m)),
        (MemOptions(clamp_v=False), poles, np.ones(m), np.full(m, 1e4 * m)),
    ]


def test_deck_matches_engine_on_boundaries():
    problem = sample_problem()
    n, m = problem.num_vars, problem.num_clauses
    rng = np.random.default_rng(7)
    cases = []
    for mem_options, v, x_s, x_l in _mem_corner_inputs(problem, rng):
        doc = emit_mem(problem, NetlistOptions(solver_options=mem_options))
        got = evaluate_deck_rhs(doc, mem_voltages(problem, v, x_s, x_l))
        names = [f"v{i + 1}" for i in range(n)] + [f"xs{j + 1}" for j in range(m)] + [
            f"xl{j + 1}" for j in range(m)]
        ref = np.concatenate(mem_rhs(problem, MemState(v, x_s, x_l), options=mem_options))
        cases.append(([got[name] for name in names], ref))
    spins = np.sign(rng.standard_normal(n))  # all spins exactly at poles
    a = rng.uniform(0.5, 4.0, m)
    for aux_mode in ("aK2", "aK", "K", "K2"):
        options = AnalogOptions(aux_mode=aux_mode)
        doc = emit_analog(problem, NetlistOptions(solver_options=options))
        got = evaluate_deck_rhs(doc, analog_voltages(problem, spins, a))
        names = [f"s{i + 1}" for i in range(n)] + [f"a{j + 1}" for j in range(m)]
        ref = np.concatenate(analog_rhs(problem, AnalogState(spins, a), options))
        cases.append(([got[name] for name in names], ref))
    for vals, ref in cases:
        assert np.all(np.abs(np.array(vals) - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


def test_non_eighth_mem_params_round_trip():
    params = MemOptions(alpha=0.0, beta=12.5, gamma=0.3, delta=0.01, epsilon=0.002, zeta=0.05)
    problem = TINY
    doc = emit_mem(problem, NetlistOptions(solver_options=params))
    rng = np.random.default_rng(8)
    v = rng.uniform(-1, 1, 3)
    got = evaluate_deck_rhs(doc, mem_voltages(problem, v, np.array([0.4]), np.array([2.0])))
    dv, dx_s, dx_l = mem_rhs(problem, MemState(v, np.array([0.4]), np.array([2.0])), params)
    assert got["xs1"] == pytest.approx(dx_s[0], rel=1e-12, abs=1e-12)
    assert got["xl1"] == pytest.approx(dx_l[0], rel=1e-12, abs=1e-12)
    assert got["v1"] == pytest.approx(dv[0], rel=1e-12, abs=1e-12)


# Decks pinned byte for byte: sha256 of serialize() on a fixed formula.
GOLDEN = Problem.from_dimacs_clauses(7, [
    (1, -2, 3), (-1, 2, 4), (2, -3, -4), (1, 3, 5), (-5, -1, 2), (4, 5, -3),
    (-2, -4, -5), (1, 2, 5), (-1, -3, 4), (3, -4, 5), (2, 4, 6),
])


@pytest.mark.parametrize("emit,digest", [
    pytest.param(lambda: emit_analog(GOLDEN),
                 "68487e8ab22cf6a9fb8eecafe4d583ea65fa2ff4f3390bb09cafc84b14d3f1bd",
                 id="analog"),
    pytest.param(lambda: emit_analog(GOLDEN, NetlistOptions(
        solver_options=AnalogOptions(one_eighth_factor=False, aux_mode="K2"))),
                 "d53d57baa0af556432943b1e225cd0b1981c63621cdcd23c538aca1a424cb704",
                 id="analog-K2-no-eighth"),
    pytest.param(lambda: emit_mem(GOLDEN),
                 "ad32fe916ea3839c39fc6d810163a37226fe006c4f63a368eb9dfc8b54716b86",
                 id="mem"),
    pytest.param(lambda: emit_mem(GOLDEN, NetlistOptions(solver_options=MemOptions(clamp_v=False))),
                 "d1fb712cd802bbfaa50be216dd0a1cdad6e46c0c2535d1e4e4dd2497d09e6b53",
                 id="mem-unclamped"),
    pytest.param(lambda: emit_mem(GOLDEN, NetlistOptions(
        subcircuit=SubcircuitSpec(name="nodea", inputs=(1,), outputs=(2, 6)))),
                 "01c9a16cb05e59687af48af2880a69c710b90d9efbdc0b7a7abf03e2fd240dc2",
                 id="mem-subckt"),
])
def test_pinned_deck_digests(emit, digest):
    assert hashlib.sha256(serialize(emit()).encode()).hexdigest() == digest


def _golden_states(solver):
    """A seeded interior state, then one with every bounded component on a bound."""
    rng = np.random.default_rng(12)
    n, m = GOLDEN.num_vars, GOLDEN.num_clauses
    poles = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if solver == "analog":
        return [analog_voltages(GOLDEN, rng.uniform(-1, 1, n), rng.uniform(0.5, 4.0, m)),
                analog_voltages(GOLDEN, poles, rng.uniform(0.5, 4.0, m))]
    return [
        mem_voltages(GOLDEN, rng.uniform(-1, 1, n), rng.uniform(0, 1, m), rng.uniform(1, 20, m)),
        mem_voltages(GOLDEN, poles, np.where(rng.random(m) < 0.5, 0.0, 1.0),
                     np.where(rng.random(m) < 0.5, 1.0, 1e4 * m)),
    ]


def _analog_options(aux_mode, one_eighth_factor):
    return NetlistOptions(solver_options=AnalogOptions(aux_mode=aux_mode,
                                                       one_eighth_factor=one_eighth_factor))


# Deck values pinned bit for bit: sha256 of float.hex of every evaluate_deck_rhs
# value on the GOLDEN decks, at both states of _golden_states.
@pytest.mark.parametrize("solver,options,digest", [
    pytest.param("analog", _analog_options("aK2", True),
                 "c0782735f53c59ed5da24c7864dc9c32fb102361c297bad8779e42490c09de6c",
                 id="analog-aK2"),
    pytest.param("analog", _analog_options("aK2", False),
                 "cb593cce597d9f389207ee200bc7222d43c208deff02bfaee40d4037b1798cb9",
                 id="analog-aK2-no-eighth"),
    pytest.param("analog", _analog_options("aK", True),
                 "ce75d68da6367438de0e3ac3eaf64eadc995ae173795359765760e00c2da0367",
                 id="analog-aK"),
    pytest.param("analog", _analog_options("aK", False),
                 "a60dc7658e8f865562b116843b631225ed9c16e0fe1622c83da0cda8184292b8",
                 id="analog-aK-no-eighth"),
    pytest.param("analog", _analog_options("K", True),
                 "b8b63da4ee19d8f9da93c34e16eecb02dc40f788fe59e4613cf9f601f06e9512",
                 id="analog-K"),
    pytest.param("analog", _analog_options("K", False),
                 "1b4e7d274e246379b509de9aeaa5a0c1194334e586cc441cc6d01f0a7dd81ae6",
                 id="analog-K-no-eighth"),
    pytest.param("analog", _analog_options("K2", True),
                 "4d2779831293233425629d0536dafdbdf6b6bbe5f2a02a29bccf92424888e76f",
                 id="analog-K2"),
    pytest.param("analog", _analog_options("K2", False),
                 "43d8ea5123b67874b79b985b9e40fee6439e9ac8b25c11e3312f8e1a468d07a0",
                 id="analog-K2-no-eighth"),
    pytest.param("mem", NetlistOptions(solver_options=MemOptions(clamp_v=True)),
                 "d2ebe88954ff4bc86855b2656ea02efd66ec02d438ae7878c26ba9d946d7c60f",
                 id="mem"),
    pytest.param("mem", NetlistOptions(solver_options=MemOptions(clamp_v=False)),
                 "3f65a18c96b464be6b20a98b6a04600fa15e96726bf3b7a88b271a73413d3725",
                 id="mem-unclamped"),
])
def test_pinned_deck_rhs_digests(solver, options, digest):
    doc = emit_analog(GOLDEN, options) if solver == "analog" else emit_mem(GOLDEN, options)
    h = hashlib.sha256()
    for volts in _golden_states(solver):
        for node, value in evaluate_deck_rhs(doc, volts).items():
            h.update(f"{node}={float.hex(value)}\n".encode())
    assert h.hexdigest() == digest


def test_deck_checks_scale_past_a_thousand_clauses():
    # the contra/contrd sources are sums of M calls; M = 1075 here
    problem = gen_barthel(BarthelParams(num_vars=250, ratio=4.3, seed=1)).problem
    n, m = problem.num_vars, problem.num_clauses
    doc = emit_mem(problem)
    assert undeclared_references(doc) == []
    rng = np.random.default_rng(12)
    v, x_s, x_l = rng.uniform(-1, 1, n), rng.uniform(0, 1, m), rng.uniform(1, 20, m)
    got = evaluate_deck_rhs(doc, mem_voltages(problem, v, x_s, x_l))
    names = [f"v{i + 1}" for i in range(n)] + [f"xs{j + 1}" for j in range(m)] + [
        f"xl{j + 1}" for j in range(m)]
    ref = np.concatenate(mem_rhs(problem, MemState(v, x_s, x_l)))
    vals = np.array([got[name] for name in names])
    assert np.all(np.abs(vals - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
    contra, contrd = control_signals(problem, v)
    assert got["contra"] == pytest.approx(contra, rel=1e-9, abs=1e-9)
    assert got["contrd"] == contrd


def _deck_texts(doc):
    """Every function body, then every behavioral-source expression, in deck order."""
    return [func.body for func in doc.functions] + [
        card.value.split("=", 1)[1] for card in doc.elements if card.name.startswith("B")]


def test_deck_checks_parse_each_document_once(monkeypatch):
    # one parse_expressions call per document receives each function body
    # and source text once, in deck order, however many checks read it
    parse = spice_expr.parse_expressions
    calls = []
    monkeypatch.setattr(spice_expr, "parse_expressions",
                        lambda texts: calls.append(list(texts)) or parse(calls[-1]))
    problem = sample_problem()
    n, m = problem.num_vars, problem.num_clauses
    doc = emit_mem(problem)
    assert undeclared_references(doc) == []
    rng = np.random.default_rng(13)
    for _ in range(2):
        evaluate_deck_rhs(doc, mem_voltages(problem, rng.uniform(-1, 1, n),
                                            rng.uniform(0, 1, m), rng.uniform(1, 20, m)))
    assert calls == [_deck_texts(doc)]


# ------------------------------------------------------------------ subcircuits

def test_subcircuit_pins_and_omitted_cells():
    problem = sample_problem()
    spec = SubcircuitSpec(name="solva", inputs=(1,), outputs=(2,), expose_contrd=True)
    doc = emit_mem(problem, NetlistOptions(subcircuit=spec))
    name, pins = doc.subckt
    assert name == "solva"
    assert pins == ("v1", "v2", "contrd")
    names = {card.name for card in doc.elements}
    assert "Cv1" not in names and "Bv1" not in names and "Rv1" not in names
    assert "Cv2" in names and "Bv2" in names
    assert undeclared_references(doc) == []
    text = serialize(doc)
    assert text.splitlines()[1].startswith(".subckt solva v1 v2 contrd")
    assert text.rstrip().endswith(".ends solva")
    assert ".tran" not in text and ".ic" not in text
    # the subcircuit's cells carry their own starts, those of a standalone deck
    assert starts(doc) == {node: ic for node, ic in starts(emit_mem(problem)).items()
                           if node != "v1"}


def test_subcircuit_without_inputs_equals_plain_deck_cells():
    problem = TINY
    spec = SubcircuitSpec(name="plain", inputs=(), outputs=(1,), expose_contrd=False)
    sub = emit_mem(problem, NetlistOptions(subcircuit=spec))
    full = emit_mem(problem, NetlistOptions())
    strip = lambda text: text.replace("plain_", "")
    assert [strip(c.value) for c in sub.elements] == [c.value for c in full.elements]
    assert [c.name for c in sub.elements] == [c.name for c in full.elements]
    assert [(f.name.replace("plain_", ""), strip(f.body)) for f in sub.functions] == [
        (f.name, f.body) for f in full.functions
    ]


def test_subcircuit_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        SubcircuitSpec(name="x", inputs=(1,), outputs=(1,))
    with pytest.raises(ValueError):
        SubcircuitSpec(name="x", inputs=(1, 1), outputs=(2,))
    problem = TINY
    spec = SubcircuitSpec(name="x", inputs=(1,), outputs=(9,))
    with pytest.raises(ValueError):
        emit_mem(problem, NetlistOptions(subcircuit=spec))


@pytest.mark.parametrize("pins", [(1.5,), (True,), ("1",)])
def test_subcircuit_pins_must_be_integers(pins):
    # (1.5,) used to emit pin v1.5 that the deck checks accepted
    for inputs, outputs in ((pins, (2,)), ((2,), pins)):
        with pytest.raises(ValueError, match="^subcircuit pin must be an integer, got "):
            SubcircuitSpec(name="x", inputs=inputs, outputs=outputs)


@pytest.mark.parametrize("inputs, outputs, message", [
    ((1.5,), (2,), "{what} must be an integer, got 1.5"),
    ((2,), (True,), "{what} must be an integer, got True"),
    (("1",), (), "{what} must be an integer, got '1'"),
    ((1,), (1,), "{what} 1 is given twice among the inputs and outputs"),
    ((1, 1), (2,), "{what} 1 is given twice among the inputs and outputs"),
    ((), (2, 3, 2), "{what} 2 is given twice among the inputs and outputs"),
    ((7,), (2,), "{what} 7 is out of range 1..6"),
    ((1,), (0,), "{what} 0 is out of range 1..6"),
    ((-1,), (), "{what} -1 is out of range 1..6"),
], ids=["float", "bool", "str", "overlap", "twice-in", "twice-out", "above", "zero", "negative"])
def test_nodes_and_subcircuits_share_one_pin_check(inputs, outputs, message):
    # SubcircuitSpec and SolverNode each restated the integer and disjoint
    # checks with their own messages, and only SolverNode checked the range
    problem = sample_problem(n=6)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(what='variable index'))}$"):
        SolverNode(problem, MEM, input_vars=inputs, output_vars=outputs)
    expected = f"^{re.escape(message.format(what='subcircuit pin'))}$"
    if "out of range" not in message:
        with pytest.raises(ValueError, match=expected):
            SubcircuitSpec("x", inputs, outputs)
        return
    # N is known only when the deck is emitted
    spec = SubcircuitSpec("x", inputs, outputs)
    for emit in (emit_analog, emit_mem):
        with pytest.raises(ValueError, match=expected):
            emit(problem, NetlistOptions(subcircuit=spec))


@pytest.mark.parametrize("name", ["a b", "", "1a", "a-b", "a.b", "n\u00e4", 5, None])
def test_subcircuit_name_must_be_a_spice_identifier(name):
    # "a b" wrote ".subckt a b v1 v2 contrd": a subcircuit named a with a pin b
    message = f"subcircuit name must be a SPICE identifier, got {name!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SubcircuitSpec(name, (1,), (2,))
    for name in ("_", "A", "node_1"):
        assert SubcircuitSpec(name, (1,), (2,)).name == name


@pytest.mark.parametrize("seed", [True, 2.7, "1"])
def test_ic_seed_must_be_an_integer(seed):
    # ic_seed=True used to emit the seed-1 deck; 2.7 failed at emission
    with pytest.raises(ValueError, match="^ic_seed must be an integer, got "):
        NetlistOptions(ic_seed=seed)
    assert NetlistOptions(ic_seed=np.int64(3)).ic_seed == 3


def test_subcircuit_analog_variant():
    problem = TINY
    spec = SubcircuitSpec(name="asat", inputs=(1,), outputs=(3,))
    doc = emit_analog(problem, NetlistOptions(subcircuit=spec))
    assert doc.subckt[1] == ("s1", "s3", "contrd")
    assert "Cs1" not in {c.name for c in doc.elements}


def ring_network():
    """A two-node mem ring on one instance: each node's variable 2 feeds the
    other's input 1."""
    problem = gen_xorsat_3r(10, seed=1).problem
    nodes = [SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,)) for _ in range(2)]
    wiring = Wiring(edges=((("node", 1, 2), (0, 1)), (("node", 0, 2), (1, 1))))
    return nodes, wiring, (11, 12)


def test_ring_deck_instantiates_twice_with_cross_wiring():
    lines = network_deck(*ring_network(), t_ev=250.0).splitlines()
    assert [line for line in lines if line.startswith(".subckt")] == [
        ".subckt node0 v1 v2 contrd", ".subckt node1 v1 v2 contrd"]
    # each input pin sits on its partner's output net
    assert [line for line in lines if line.startswith("X")] == [
        "X0 n1_2 n0_2 contrd0 node0", "X1 n0_2 n1_2 contrd1 node1"]
    assert lines[-2:] == [".tran 0 250.0 0 uic", ".end"]
    default = network_deck(*ring_network()).splitlines()
    assert default[-2] == f".tran 0 {NetlistOptions.t_ev!r} 0 uic"  # the one default


@pytest.mark.parametrize("t_ev, message", [
    (-5, "t_ev must be positive, got -5"), (0, "t_ev must be positive, got 0"),
    (float("nan"), "t_ev must be finite, got nan"), (float("inf"), "t_ev must be finite, got inf"),
], ids=["negative", "zero", "nan", "inf"])
def test_ring_deck_checks_t_ev_as_netlist_options_do(t_ev, message):
    # the ring deck wrote .tran 0 -5.0 0 uic and .tran 0 nan 0 uic unchecked
    for build in (lambda: NetlistOptions(t_ev=t_ev),
                  lambda: network_deck(*ring_network(), t_ev=t_ev)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_ring_deck_starts_where_its_network_does():
    # the ring deck wrote no start for either instance, so under uic every
    # capacitor began at 0 V: each xl below its lower bound 1, each v unseeded
    nodes, wiring, seeds = ring_network()
    lines = network_deck(nodes, wiring, seeds).splitlines()
    records = simulate_network(nodes, wiring, IntegratorConfig(t_ev=0.1), seeds=seeds)
    for i, record in enumerate(records):
        fragment = lines[lines.index(f".subckt node{i} v1 v2 contrd"):lines.index(f".ends node{i}")]
        ics = {card[1]: card[4] for card in map(str.split, fragment) if card[0].startswith("C")}
        assert ics == {node: f"IC={x!r}" for node, x in zip(record.state_columns,
                                                             record.states[0].tolist())
                       if node != "v1"}  # the input pin has no cell, its partner drives it
    assert [line for line in lines if line.startswith(".tran")] == [".tran 0 300.0 0 uic"]
    assert not any(line.startswith(".ic") for line in lines)


def chain_network():
    """mem -> analog (aux_mode "K") -> mem: node 0's variable 2 fans out to
    input 1 of both other nodes, node 1's variable 3 feeds node 2's input 2."""
    problem = gen_xorsat_3r(10, seed=1).problem
    nodes = [SolverNode(problem, MEM, output_vars=(2,)),
             SolverNode(sample_problem(n=8), ANALOG, input_vars=(1,), output_vars=(3,),
                        solver_options=AnalogOptions(aux_mode="K")),
             SolverNode(problem, MEM, input_vars=(1, 2), output_vars=(4,))]
    wiring = Wiring(edges=((("node", 0, 2), (1, 1)), (("node", 0, 2), (2, 1)),
                           (("node", 1, 3), (2, 2))))
    return nodes, wiring, (3, 4, 5)


def test_network_deck_wires_each_input_to_its_source():
    nodes, wiring, seeds = chain_network()
    cards = [line.split() for line in network_deck(nodes, wiring, seeds).splitlines()
             if line.startswith("X")]
    assert cards == [["X0", "n0_2", "contrd0", "node0"],
                     ["X1", "n0_2", "n1_3", "contrd1", "node1"],
                     ["X2", "n0_2", "n1_3", "n2_4", "contrd2", "node2"]]
    input_nets = {(int(card[0][1:]), var): net for card, node in zip(cards, nodes)
                  for var, net in zip(node.input_vars, card[1:])}
    assert input_nets == {target: f"n{source[1]}_{source[2]}" for source, target in wiring.edges}


def test_network_deck_fragments_are_the_emitted_subcircuits():
    # so the deck checks of emit_analog and emit_mem cover every fragment
    nodes, wiring, seeds = chain_network()
    text = network_deck(nodes, wiring, seeds)
    fragments = ""
    for i, (node, seed) in enumerate(zip(nodes, seeds)):
        spec = SubcircuitSpec(f"node{i}", node.input_vars, node.output_vars)
        emit = emit_analog if node.solver == ANALOG else emit_mem
        doc = emit(node.problem, NetlistOptions(solver_options=node.solver_options,
                                                ic_seed=seed, subcircuit=spec))
        assert undeclared_references(doc) == []
        fragments += serialize(doc).split("\n", 1)[1]  # without its title line
    title, body = text.split("\n", 1)
    assert title == "* network of 3 solver nodes"
    assert body.startswith(fragments)
    assert [line.split()[0] for line in body[len(fragments):].splitlines()] == [
        "X0", "X1", "X2", ".tran", ".end"]
    assert network_deck(*chain_network()) == text  # byte-identical on a second call


@pytest.mark.parametrize("network, message", [
    (lambda nodes, wiring, seeds: (nodes, Wiring(wiring.edges[:2]), seeds),
     "input variable 2 of node 2 is unwired"),
    (lambda nodes, wiring, seeds: (nodes, wiring, seeds[:2]),
     "need at least one node and exactly one seed per node"),
    (lambda nodes, wiring, seeds: ([], Wiring(), []),
     "need at least one node and exactly one seed per node"),
    (lambda nodes, wiring, seeds: (nodes, Wiring(((("node", 0), (1, 1)), *wiring.edges[1:])),
                                   seeds),
     "edge ('node', 0) -> (1, 1): a node source has 3 fields, got 2"),
    (lambda nodes, wiring, seeds: (nodes, wiring, (3, 2.7, 5)), "seed must be an integer, got 2.7"),
], ids=["unwired", "seed-count", "no-nodes", "short-source", "float-seed"])
def test_network_deck_rejects_what_simulate_network_rejects(network, message):
    nodes, wiring, seeds = network(*chain_network())
    for build in (network_deck,
                  lambda nodes, wiring, seeds: simulate_network(nodes, wiring, seeds=seeds)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(nodes, wiring, seeds)


def test_network_deck_rejects_drives_by_name():
    nodes, wiring, seeds = chain_network()
    driven = Wiring(((("drive", 0), (1, 1)), (("drive", 1), (2, 1)), wiring.edges[2]),
                    drives=(SquareWave(period=2.0), SquareWave(period=3.0)))
    message = "network_deck cannot emit drives yet, got drive 0, drive 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        network_deck(nodes, driven, seeds)


# -------------------------------------------------------------- expression parser

def test_expression_parser_basics():
    ast = spice_expr.parse_expression("1+2*3")
    assert spice_expr.evaluate(ast, {}) == 7.0
    ast = spice_expr.parse_expression("if(1<=2,min(3,4),9)")
    assert spice_expr.evaluate(ast, {}) == 3.0
    ast = spice_expr.parse_expression("u(0)*5 + u(-1)*7")
    assert spice_expr.evaluate(ast, {}) == 5.0  # u(0) = 1, u(-1) = 0
    ast = spice_expr.parse_expression("V(a)*(1-V(b))")
    assert spice_expr.evaluate(ast, {"a": 2.0, "b": 0.5}) == 1.0


def test_expression_parser_user_functions_and_errors():
    ast = spice_expr.parse_expression("f()+1")
    assert spice_expr.evaluate(ast, {}, {"f": 4.0}) == 5.0
    with pytest.raises(spice_expr.ExprError):
        spice_expr.evaluate(spice_expr.parse_expression("g()"), {}, {})
    with pytest.raises(spice_expr.ExprError):
        spice_expr.parse_expression("1 +")
    with pytest.raises(spice_expr.ExprError):
        spice_expr.evaluate(spice_expr.parse_expression("V(zz)"), {})


def _references(program):
    """(nodes, calls): the names in a program's ("V", node) and ("call",
    name, ...) entries."""
    return tuple({entry[1] for entry in program if isinstance(entry, tuple) and entry[0] == kind}
                 for kind in ("V", "call"))


def test_expression_reference_walkers():
    # the program holds every name the expression references
    refs = _references(spice_expr.parse_expression("f()*V(s1) + if(V(a2)<=0, g(), 0)"))
    assert refs == ({"s1", "a2"}, {"f", "if", "g"})


@pytest.mark.parametrize("text", [
    "u()", "u(1,2)", "if(1,2)", "if(1,2,3,4)", "min()", "f(2)",
])
def test_builtin_arity_is_checked_at_parse_time(text):
    with pytest.raises(spice_expr.ExprError):
        spice_expr.parse_expression(text)


def test_name_check_rejects_arguments_to_a_user_function():
    doc = NetlistDocument(
        title="* hand-built deck",
        functions=(FuncDef("f", "1"),),
        elements=(Card("Cs1", ("s1", "0"), "1"), Card("Bs1", ("0", "s1"), "I=f(2)")),
        directives=(),
    )
    with pytest.raises(spice_expr.ExprError, match="f\\(\\) takes 0"):
        undeclared_references(doc)


@pytest.mark.parametrize("text", [
    "1 +", "2 $ 3", "1<2<3", "1 >= 2 >= 3", "V(1)", "V(a b)", "V()", "f(,)", "1 = 2", "!1",
    "1 ! 2", "", "''", "1..2", "1.5.3", "(1", "1)", "1 2", "1e+", ".e1", "3 & & 4", "x",
    # digits other than ASCII 0-9 (these are Arabic-Indic threes)
    "1\u0663", "1e\u0663", "1.\u0663",
])
def test_expression_parser_rejects(text):
    with pytest.raises(spice_expr.ExprError):
        spice_expr.parse_expression(text)


@pytest.mark.parametrize("text, value", [
    ("2*-3", -6.0), ("--1", 1.0), ("-(--1)", -1.0), ("1-2-3", -4.0),
])
def test_expression_parser_values(text, value):
    assert spice_expr.evaluate(spice_expr.parse_expression(text), {}) == value


def test_long_sum_costs_no_recursion_depth():
    rng = np.random.default_rng(14)
    volts = {"a": 0.3, "b": -1.7}
    terms = [(repr(x), x) for x in rng.uniform(-1e3, 1e3, 20_000).tolist()]
    for k in rng.choice(len(terms), 2000, replace=False):
        name = "a" if k % 2 else "b"
        terms[k] = (f"2.5*V({name})", 2.5 * volts[name])
    for k in rng.choice(len(terms), 500, replace=False):
        terms[k] = ("f()", 0.125)
    ops = rng.choice(["+", "-"], len(terms) - 1)
    text = terms[0][0] + "".join(op + term for op, (term, _) in zip(ops, terms[1:]))
    ast = spice_expr.parse_expression(text)
    refs = _references(ast)
    assert refs == ({"a", "b"}, {"f"})
    expected = terms[0][1]
    for op, (_, x) in zip(ops, terms[1:]):
        expected = expected + x if op == "+" else expected - x
    got = spice_expr.evaluate(ast, volts, {"f": 0.125})
    assert float.hex(got) == float.hex(expected)


@pytest.mark.parametrize("text, value", [
    ("(" * 3000 + "1.5" + ")" * 3000, 1.5),
    ("-" * 3000 + "2", 2.0),
    ("-" * 3001 + "2", -2.0),
    ("-(" * 1500 + "V(a)" + ")" * 1500, -0.25),
], ids=["parentheses", "even-signs", "odd-signs", "mixed-signs"])
def test_deep_nesting_costs_no_recursion_depth(text, value):
    # each of these raised RecursionError in the recursive-descent parser
    got = spice_expr.evaluate(spice_expr.parse_expression(text), {"a": -0.25})
    assert float.hex(got) == float.hex(value)


@pytest.mark.parametrize("text", [
    "if(1, 2, V(zz))", "if(0, V(zz), 3)", "if(V(a), 4, g())", "if(0, g(), 5)",
])
def test_untaken_branches_are_evaluated(text):
    # if is an ordinary builtin on the stack: both branches run, so the
    # undefined node zz or the unknown function g raises either way
    with pytest.raises(spice_expr.ExprError, match="undefined node 'zz'|unknown function 'g'"):
        spice_expr.evaluate(spice_expr.parse_expression(text), {"a": 1.0}, {})


def test_cyclic_deck_functions_raise_an_expression_error():
    # a deck reads top to bottom, so one call of a cycle is a forward call
    doc = NetlistDocument(
        title="* hand-built deck",
        functions=(FuncDef("f", "g()+1"), FuncDef("g", "f()")),
        elements=(Card("Cs1", ("s1", "0"), "1"), Card("Bs1", ("0", "s1"), "I=f()")),
        directives=(),
    )
    assert undeclared_references(doc) == ["func f: undeclared function g"]
    with pytest.raises(spice_expr.ExprError, match="^unknown function 'g'$"):
        evaluate_deck_rhs(doc, {"s1": 0.0})


def _chain_deck(callee_first):
    """f0() {f1()+1} ... f1199() {f1200()+1}, f1200() {0}, and I=f0()."""
    functions = [FuncDef(f"f{k}", f"f{k + 1}()+1") for k in range(1200)] + [FuncDef("f1200", "0")]
    return NetlistDocument(
        title="* hand-built deck",
        functions=tuple(functions[::-1] if callee_first else functions),
        elements=(Card("Cs1", ("s1", "0"), "1"), Card("Bs1", ("0", "s1"), "I=f0()")),
        directives=(),
    )


def test_long_function_chains_cost_no_recursion_depth():
    # each order raised RecursionError when a call ran its callee's body
    doc = _chain_deck(callee_first=True)
    assert undeclared_references(doc) == []
    assert evaluate_deck_rhs(doc, {"s1": 0.0}) == {"s1": 1200.0}
    doc = _chain_deck(callee_first=False)
    assert undeclared_references(doc) == [
        f"func f{k}: undeclared function f{k + 1}" for k in range(1200)]
    with pytest.raises(spice_expr.ExprError, match="^unknown function 'f1'$"):
        evaluate_deck_rhs(doc, {"s1": 0.0})


def _deck_variants():
    """Decks of every solver option that changes a function body, and a
    subcircuit of each solver."""
    problem = sample_problem(n=12)
    decks = [emit_analog(problem, _analog_options(aux_mode, eighth))
             for aux_mode in ("aK2", "aK", "K", "K2") for eighth in (True, False)]
    decks += [emit_mem(problem, NetlistOptions(solver_options=MemOptions(clamp_v=clamp)))
              for clamp in (True, False)]
    sub = NetlistOptions(ic_seed=None, subcircuit=SubcircuitSpec("sx", (1,), (2,)))
    return decks + [emit_analog(problem, sub), emit_mem(problem, sub)]


# Every form the emitter never writes, each rejected at parse time.
_REMOVED_FORMS = ["8/2", "max(1,2)", "1<2", "1>2", "1>=2", "1==2", "1!=2", "1&2", "+1",
                  "+-+1", "v(a)", "V ( a )", "f ( )", "V()"]


def test_parser_accepts_exactly_the_emitted_dialect():
    used = set()
    for doc in _deck_variants():
        functions, sources = deck_programs(doc)
        for program in [*functions.values(), *sources.values()]:
            for entry in program:  # flat: no entry holds a sub-program
                if isinstance(entry, tuple):
                    assert not any(isinstance(part, list) for part in entry)
                    if len(entry) == 3:  # ("call", builtin, argc)
                        used.add(entry[1])
                elif isinstance(entry, str):
                    used.add(entry)
                else:
                    assert isinstance(entry, float)
    accepted = {"neg"} | spice_expr.BUILTINS | {
        op for op in ("+", "-", "*", "/", "<=", "<", ">", ">=", "==", "!=", "&")
        if _parses(f"1{op}2")}
    assert used == accepted == {"+", "-", "*", "<=", "neg", "u", "min", "if"}
    for text in _REMOVED_FORMS:
        with pytest.raises(spice_expr.ExprError):
            spice_expr.parse_expression(text)


def _parses(text):
    try:
        spice_expr.parse_expression(text)
    except spice_expr.ExprError:
        return False
    return True


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_VOLTS = {"a": 0.3, "b": -1.7, "n_1": 2.25, "c0": 0.0}
_USER = {"f": 0.125, "g": 2 * 0.3 - 1, "h": 0.0}  # deck-function values at _VOLTS


def _random_expression(rng, depth, refs):
    """(text, binding power at its top level, value) of a random expression.
    The value is computed here the way the evaluator is documented to:
    a run of + - or of * left to right, <= as 1.0/0.0, min by Python's min
    over the arguments in order."""
    def operand(need):
        text, power, value = _random_expression(rng, depth + 1, refs)
        return (text if power >= need else f"({text})"), value

    kind = rng.integers(8) if depth < 4 else rng.integers(3)
    if kind == 0:
        value = float(rng.choice([rng.uniform(0, 10), rng.integers(0, 4),
                                  10.0 ** rng.integers(-9, 9)]))
        return repr(value), 4, value
    if kind == 1:
        node = rng.choice(list(_VOLTS))
        refs[0].add(node)
        return f"V({node})", 4, _VOLTS[node]
    if kind == 2:
        name = rng.choice(list(_USER))
        refs[1].add(name)
        return f"{name}()", 4, _USER[name]
    if kind == 3:
        sign = rng.choice(["-", "--"])
        text, value = operand(4)
        return sign + text, 4, -value if len(sign) % 2 else value
    if kind in (4, 5):  # a run of + - or of *
        power, ops = (2, "+-") if kind == 4 else (3, "*")
        text, value = operand(power + 1)
        for _ in range(rng.integers(1, 4)):
            op = rng.choice(list(ops))
            term, x = operand(power + 1)
            space = rng.choice(["", " "])
            text += f"{space}{op}{space}{term}"
            value = _ARITH[op](value, x)
        return text, power, value
    if kind == 6:
        (left, x), (right, y) = operand(2), operand(2)
        return f"{left}<={right}", 1, 1.0 if x <= y else 0.0
    name = rng.choice(["u", "min", "if"])
    refs[1].add(name)
    count = {"u": 1, "if": 3}.get(name, rng.integers(1, 5))
    args = [operand(1) for _ in range(count)]
    values = [x for _, x in args]
    if name == "u":
        value = 1.0 if values[0] >= 0.0 else 0.0
    elif name == "if":
        value = values[1] if values[0] != 0.0 else values[2]
    else:
        value = min(values)
    return f"{name}({', '.join(text for text, _ in args)})", 4, value


def test_random_expressions_match_their_python_values():
    rng = np.random.default_rng(18)
    for _ in range(2000):
        refs = (set(), set())
        text, _, value = _random_expression(rng, 0, refs)
        program = spice_expr.parse_expression(text)
        got = spice_expr.evaluate(program, _VOLTS, _USER)
        got_refs = _references(program)
        assert float.hex(got) == float.hex(value), text
        assert got_refs == refs, text


# ------------------------------------------------------ one parse per document

def _leaf_entry(token):
    """The program entry of a leaf token: ("V", node) or ("call", name)."""
    return ("V", token[2:-1]) if token.startswith("V(") else ("call", token[:-2])


def _slots(template):
    """The leaf entries ("V", k) of a template, in program order."""
    return [entry for entry in template if isinstance(entry, tuple) and len(entry) == 2]


def rebuilt_programs(templates, shapes, counts, leaves):
    """parse_expressions' flat lists as one flat program per text: each
    term's template with its leaf k, ("V", k), replaced by the entry of its
    k-th leaf token, and the terms joined t1, t2, "+", t3, "+", ...  Every
    shape and leaf token is read exactly once."""
    programs, shape_ids, tokens = [], iter(shapes), iter(leaves)
    for count in counts:
        program = []
        for k in range(count):
            template = templates[next(shape_ids)]
            term_leaves = [next(tokens) for _ in _slots(template)]
            program += [_leaf_entry(term_leaves[entry[1]])
                        if isinstance(entry, tuple) and len(entry) == 2 else entry
                        for entry in template]
            if k:
                program.append("+")
        programs.append(program)
    assert next(shape_ids, None) is None and next(tokens, None) is None
    return programs


def deck_programs(doc):
    """({function name: program}, {target node: program}) of a document,
    rebuilt from parse_expressions on its texts and keyed by doc.parsed."""
    deck = doc.parsed
    programs = rebuilt_programs(*spice_expr.parse_expressions(_deck_texts(doc)))
    split = deck.num_functions
    return (dict(zip(deck.names[:split], programs[:split])),
            dict(zip(deck.names[split:], programs[split:])))


def test_parse_expressions_returns_flat_lists():
    # one shape id per term, one count per text, one token per template slot
    for doc in _deck_variants():
        texts = _deck_texts(doc)
        templates, shapes, counts, leaves = spice_expr.parse_expressions(texts)
        assert len(counts) == len(texts) and len(shapes) == sum(counts)
        assert len(leaves) == sum(len(_slots(templates[shape])) for shape in shapes)
        assert all(type(shape) is int for shape in shapes)
        assert all(type(count) is int and count >= 1 for count in counts)
        assert all(type(leaf) is str for leaf in leaves)
        assert [_slots(template) for template in templates] == [
            [("V", k) for k in range(len(_slots(template)))] for template in templates]


def _same_as_each(texts):
    """parse_expressions(texts) returns the per-text programs, or raises the
    first per-text ExprError with its message."""
    try:
        want = [spice_expr.parse_expression(text) for text in texts]
    except spice_expr.ExprError as error:
        with pytest.raises(spice_expr.ExprError, match=f"^{re.escape(str(error))}$"):
            spice_expr.parse_expressions(texts)
    else:
        assert rebuilt_programs(*spice_expr.parse_expressions(texts)) == want, texts


def test_every_deck_variant_parses_as_text_by_text():
    for doc in _deck_variants():
        functions, sources = deck_programs(doc)
        assert [*functions.values(), *sources.values()] == [
            spice_expr.parse_expression(text) for text in _deck_texts(doc)]


# Valid texts whose terms share the leaf-free shapes of the pinned cases
# ("V()" is no call: once f()+1 is in the table, V()+1 must still raise).
_PRIMERS = ["1", "2", "3", "g()", "V(b)", "V(b) - g()", "g() - 2", "V(b) <= 1", "V(b) <= 2",
            "f()+1", "g() + 1", "min(V(b) + 1, 2)", "1 + 2"]


@pytest.mark.parametrize("text", [
    "u() + 1", "V(a) - f() + 2", "V(a) + f() - 2", "V(a) <= 1 + 2", "1 + V(a) <= 2",
    "1 + 2 <= 3 <= 4", "min(V(a) + 1, 2)", "( 1 + 2 )", "1 * + 2", "V()+1", *_REMOVED_FORMS,
])
def test_parse_expressions_pinned_cases(text):
    # a term-wise sum joins only where it regroups nothing; alone, and after
    # texts that put its terms' shapes in the table
    _same_as_each([text])
    _same_as_each(_PRIMERS + [text])


def _relabel(rng, text):
    """text with each V(node) and user call replaced by a random one: the
    same leaf-free shape with other leaves."""
    leaves = [f"V({node})" for node in _VOLTS] + [f"{name}()" for name in _USER]
    return re.sub(r"V\(\w+\)|\b[fgh]\(\)", lambda _: leaves[rng.integers(len(leaves))], text)


def test_parse_expressions_equal_parsing_each_text():
    rng = np.random.default_rng(19)
    texts = []
    for _ in range(400):
        terms = [_random_expression(rng, 0, (set(), set()))[0] for _ in range(rng.integers(1, 5))]
        text = terms[0] + "".join(rng.choice([" + ", " - "]) + term for term in terms[1:])
        texts += [text, _relabel(rng, text)]
    valid = [text for text in texts if _parses(text)]
    assert len(valid) < len(texts)  # sums of comparisons chain
    _same_as_each(valid)
    # each text cut or widened by one character, after the text itself
    # has put its shapes in the table
    for text in valid[:300]:
        k = rng.integers(len(text) + 1)
        widened = text[:k] + rng.choice(list("V(u.e1 +-)")) + text[k:]
        for broken in (text[:k] + text[k + 1:], widened):
            _same_as_each([text, broken])
            _same_as_each([_relabel(rng, text), broken])


# ------------------------------------------------------ one pass per shape

_REFERENCE_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                     "<=": lambda a, b: 1.0 if a <= b else 0.0}


def reference_evaluate(code, voltages, values):
    """The Python-float stack loop that spice_expr.evaluate ran before it
    took arrays."""
    stack = []
    for op in code:
        if op.__class__ is str:
            if op == "neg":
                stack[-1] = -stack[-1]
            else:
                right = stack.pop()
                stack[-1] = _REFERENCE_BINARY[op](stack[-1], right)
        elif op.__class__ is float:
            stack.append(op)
        elif op[0] == "V":
            try:
                stack.append(float(voltages[op[1]]))
            except KeyError:
                raise spice_expr.ExprError(f"undefined node {op[1]!r}") from None
        elif len(op) == 3:
            if op[1] == "u":
                stack[-1] = 1.0 if stack[-1] >= 0.0 else 0.0
            else:
                args = stack[-op[2]:]
                del stack[-op[2]:]
                stack.append(min(args) if op[1] == "min"
                             else args[1] if args[0] != 0.0 else args[2])
        else:
            try:
                stack.append(values[op[1]])
            except KeyError:
                raise spice_expr.ExprError(f"unknown function {op[1]!r}") from None
    return stack.pop()


def reference_evaluate_deck_rhs(document, voltages):
    """The per-expression loop that evaluate_deck_rhs replaced (the oracle
    for its values and errors): each text parsed alone, each function run
    once in deck order, then every source."""
    functions, sources = {}, {}
    for func in document.functions:
        if func.name in functions:
            raise ValueError(f"function {func.name}() is defined twice")
        functions[func.name] = spice_expr.parse_expression(func.body)
    for card in document.elements:
        if card.name.startswith("B"):
            kind, expr = card.value.split("=", 1)
            target = card.nodes[1] if kind == "I" else card.nodes[0]
            if target in sources:
                raise ValueError(f"node {target} is driven by two behavioral sources")
            sources[target] = spice_expr.parse_expression(expr)
    values = {}
    for name, code in functions.items():
        values[name] = reference_evaluate(code, voltages, values)
    return {target: reference_evaluate(code, voltages, values)
            for target, code in sources.items()}


def _same_as_reference(doc, volts):
    """evaluate_deck_rhs(doc, volts) equals the reference bit for bit, in
    the same order, or raises its first ExprError."""
    try:
        want = reference_evaluate_deck_rhs(doc, volts)
    except spice_expr.ExprError as error:
        with pytest.raises(spice_expr.ExprError, match=f"^{re.escape(str(error))}$"):
            evaluate_deck_rhs(doc, volts)
        return str(error)
    got = evaluate_deck_rhs(doc, volts)
    assert [(node, float.hex(x)) for node, x in got.items()] == [
        (node, float.hex(x)) for node, x in want.items()]
    return None


def _deck_nodes(doc):
    """The nodes of a document's cards and subcircuit pins, but ground."""
    pins = doc.subckt[1] if doc.subckt else ()
    return sorted({node for card in doc.elements for node in card.nodes}.union(pins) - {"0"})


def test_shape_evaluator_matches_the_reference_on_every_variant():
    # random states, states with every component on 0 or a bound (signed
    # zeros included), and states missing one node
    rng = np.random.default_rng(29)
    # every bound of the variants' cells (x_l's upper one is 1e4*M), signed zeros, others
    marks = np.array([-1.0, -0.0, 0.0, 1.0, 1e4 * sample_problem(n=12).num_clauses, -2.0, 0.5])
    for doc in _deck_variants():
        nodes = _deck_nodes(doc)
        for _ in range(3):
            states = [rng.uniform(-2, 2, len(nodes)), rng.choice(marks, len(nodes)),
                      np.where(rng.random(len(nodes)) < 0.5, rng.uniform(-1, 1, len(nodes)),
                               rng.choice(marks, len(nodes)))]
            for state in states:
                assert _same_as_reference(doc, dict(zip(nodes, state.tolist()))) is None
        volts = dict(zip(nodes, rng.uniform(-1, 1, len(nodes)).tolist()))
        read = [node for node in nodes if not node.startswith("contr")]  # no source reads these
        for node in rng.choice(read, 3, replace=False):
            assert _same_as_reference(doc, {k: x for k, x in volts.items() if k != node})


def _hand_deck(functions, *sources):
    """A deck of the given (name, body) functions and V= sources t0, t1, ..."""
    return NetlistDocument("* hand-built deck", tuple(FuncDef(*f) for f in functions),
                           tuple(Card(f"Bt{k}", (f"t{k}", "0"), f"V={text}")
                                 for k, text in enumerate(sources)), ())


@pytest.mark.parametrize("doc, volts, error", [
    pytest.param(_hand_deck([("f", "V(a) + V(b) - V(c)"), ("g", "f() + V(a) - f() + V(b)"),
                             ("h", "1 + V(a) <= 2 + f()")],
                            "V(a) + V(b) - V(c)", "g() + h() + -V(c) + -f()",
                            "-V(a) + V(b)", "V(b) + -V(b) + -0.0", "V(a)*V(b) + V(c)"),
                 {"a": 0.0, "b": -0.0, "c": 0.5}, None, id="regrouped-sums"),
    pytest.param(_hand_deck([("f", "min(V(a), V(b), V(c)) + min(V(b), V(a))"),
                             ("g", "if(V(a) <= V(b), u(V(c)), u(-V(c))) + f()*f()")],
                            "g() + f()", "min(-0.0, 0.0) + min(0.0, -0.0)", "u(-0.0) + u(V(b))"),
                 {"a": 0.0, "b": -0.0, "c": -0.0}, None, id="signed-zeros"),
    pytest.param(_hand_deck([("f", "g() + V(a)"), ("g", "1")], "f()"), {"a": 1.0},
                 "unknown function 'g'", id="forward-call"),
    pytest.param(_hand_deck([("f", "V(a) + V(zz)*g()"), ("g", "1")], "f()"), {"a": 1.0},
                 "undefined node 'zz'", id="missing-node-first"),
    pytest.param(_hand_deck([("f", "V(a)*g() + V(zz)"), ("g", "1")], "f()"), {"a": 1.0},
                 "unknown function 'g'", id="forward-call-first"),
    pytest.param(_hand_deck([("f", "V(a)")], "f() + V(b)", "nope()"), {"a": 1.0},
                 "undefined node 'b'", id="source-node"),
    pytest.param(_hand_deck([("f", "f() + 1")], "f()"), {}, "unknown function 'f'",
                 id="self-call"),
    pytest.param(_hand_deck([], "V(a) + -V(a)", "2.5"), {"a": float("inf")}, None, id="inf"),
    pytest.param(_chain_deck(callee_first=True), {"s1": 0.0}, None, id="chain"),
    pytest.param(_chain_deck(callee_first=False), {"s1": 0.0}, "unknown function 'f1'",
                 id="forward-chain"),
])
def test_shape_evaluator_matches_the_reference_on_hand_built_decks(doc, volts, error):
    assert _same_as_reference(doc, volts) == error


def test_undeclared_references_order_is_pinned():
    # faults in several shapes, in function bodies and in sources: per
    # expression its nodes, then its functions, each sorted, as the
    # per-program check listed them
    doc = NetlistDocument(
        title="* faults in several shapes",
        functions=(FuncDef("f", "V(s1)*nope() + V(qq)*V(s1) + V(aa)*nope()"),
                   FuncDef("g", "min(V(zz), h(), V(s1)) + f()"),
                   FuncDef("h", "g() + h() + V(s1) - V(yy)"),
                   FuncDef("k", "1 + V(s1) <= f()")),
        elements=(Card("Cs1", ("s1", "0"), "1"),
                  Card("Bs1", ("0", "s1"), "I=f()*V(zz) + missing()*V(xx) + k()"),
                  Card("Bprobe", ("probe", "0"), "V=h()+V(probe)+V(bb)+V(aa)"),
                  Card("Bq", ("q", "0"), "V=if(V(s1) <= 0, V(cc), g()) + -V(bb)")),
        directives=())
    assert undeclared_references(doc) == [
        "func f: undeclared node aa",
        "func f: undeclared node qq",
        "func f: undeclared function nope",
        "func g: undeclared node zz",
        "func g: undeclared function h",
        "func h: undeclared node yy",
        "func h: undeclared function h",
        "source s1: undeclared node xx",
        "source s1: undeclared node zz",
        "source s1: undeclared function missing",
        "source probe: undeclared node aa",
        "source probe: undeclared node bb",
        "source q: undeclared node bb",
        "source q: undeclared node cc",
    ]
    assert _same_as_reference(doc, {"s1": 0.0}) == "unknown function 'nope'"
    assert _same_as_reference(doc, {}) == "undefined node 's1'"


def test_templates_run_on_arrays_as_on_each_state():
    # one template over a column of states gives each state's value
    rng = np.random.default_rng(30)
    text = "min(V(a), V(b))*if(V(c) <= 0, u(V(a)), -V(b)) - V(c)"
    (template,), shapes, counts, leaves = spice_expr.parse_expressions([text])
    assert shapes == [0] and counts == [1]
    states = np.concatenate([rng.uniform(-1, 1, (3, 40)),
                             rng.choice([-0.0, 0.0, 1.0, -1.0], (3, 40))], axis=1)
    got = spice_expr.evaluate(template, states[["abc".index(leaf[2]) for leaf in leaves]])
    program = spice_expr.parse_expression(text)
    want = [reference_evaluate(program, dict(zip("abc", column)), {})
            for column in states.T.tolist()]
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want))
