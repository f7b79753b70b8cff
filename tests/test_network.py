import io
import json
import math
import re
import time

import numpy as np
import pytest

import ctsat.integrate as integrate
from ctsat.cnf import Problem, write_dimacs
from ctsat.dynamics import MemOptions, make_batch_system
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    TIMEOUT,
    IntegratorConfig,
    run,
)
from ctsat.network import (
    SolverNode,
    SquareWave,
    Wiring,
    load_network_config,
    simulate_network,
)
from ctsat.oracle import solve_dpll


def forcing_clauses(var, value, f2, f3):
    """Four clauses over (var, f2, f3) forcing var to the given value."""
    sgn = var if value else -var
    return [(sgn, s2 * f2, s3 * f3) for s2 in (1, -1) for s3 in (1, -1)]


def forced_instance(forced_var, value, seed=9, num_vars=10):
    """A planted base (vars 3..N only) plus clauses forcing one variable."""
    base = gen_barthel(BarthelParams(num_vars=num_vars, ratio=3.0, seed=seed))
    kept = [c for c in base.problem.dimacs_clauses().tolist()
            if all(abs(code) > 2 for code in c)]
    clauses = kept + forcing_clauses(forced_var, value, num_vars - 1, num_vars)
    return Problem.from_dimacs_clauses(num_vars, clauses)


# ------------------------------------------------------------------ square wave

def test_square_wave_value_convention():
    wave = SquareWave(period=10, duty=0.5, phase=0)
    assert wave.value(2.0) == 1.0     # high on [0, 5)
    assert wave.value(5.0) == -1.0    # transition carries the new level
    assert wave.value(17.0) == -1.0   # second period, second half
    assert wave.value(10.0) == 1.0


def test_square_wave_phase_and_duty():
    wave = SquareWave(period=8, duty=0.25, phase=1.0)
    assert wave.value(1.0) == 1.0
    assert wave.value(2.99) == 1.0
    assert wave.value(3.0) == -1.0
    assert wave.value(8.99) == -1.0
    assert wave.value(9.0) == 1.0


def test_square_wave_next_transition():
    wave = SquareWave(period=10, duty=0.5, phase=0)
    assert wave.next_transition(0.0) == 5.0
    assert wave.next_transition(5.0) == 10.0
    assert wave.next_transition(7.3) == 10.0


@pytest.mark.parametrize("wave,t", [
    (SquareWave(period=2.5, duty=0.3, phase=0.05), 0.04999999999999982),
    (SquareWave(period=0.37), 0.5549999999999999),
    (SquareWave(period=0.5, phase=0.03), 4.029999999999999),
])
def test_square_wave_transitions_always_advance(wave, t):
    # rounding in (t - phase) % period used to return t itself here, which
    # made the drive-cut loop of the integration loop spin without end
    assert wave.next_transition(t) > t
    for _ in range(2000):
        t_next = wave.next_transition(t)
        assert t < t_next <= t + wave.period
        t = t_next


def test_square_wave_value_holds_until_next_transition():
    # the integration loop pins value(t) at every stop t and holds it until
    # the next stop, so value at a transition must be the level after it;
    # it used to be the level before on 643 of these 1,663 transitions of
    # the first wave.  Transitions closer than 1e-12 to the next one are
    # rounding slivers of one edge, which the loop does not integrate.
    rng = np.random.default_rng(0)
    waves = [SquareWave(period=0.37), SquareWave(period=3.3, duty=0.25, phase=1.1)]
    waves += [SquareWave(period=rng.uniform(0.1, 5.0), duty=rng.uniform(0.05, 0.95),
                         phase=rng.uniform(0.0, 3.0)) for _ in range(40)]
    wrong = []
    for wave in waves:
        edge = wave.next_transition(0.0)
        while edge < 300.0:
            after = wave.next_transition(edge)
            if after - edge >= 1e-12 and wave.value(edge) != wave.value((edge + after) / 2):
                wrong.append((wave, edge))
            edge = after
    assert wrong == []


def test_square_wave_validation():
    with pytest.raises(ValueError):
        SquareWave(period=0)
    with pytest.raises(ValueError):
        SquareWave(period=10, duty=1.5)
    with pytest.raises(ValueError):
        SquareWave(period=10, low=1.0, high=-1.0)
    for name in ("period", "phase", "low", "high"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SquareWave(**{"period": 10, name: value})


# ------------------------------------------------------------------- validation

def test_wiring_validation():
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=0))
    node = SolverNode(inst.problem, MEM, input_vars=(1,), output_vars=(2,))
    with pytest.raises(ValueError, match="unwired"):
        simulate_network([node], Wiring(), IntegratorConfig(t_ev=1.0), seeds=[0])
    bad = Wiring(edges=((("node", 0, 3), (0, 1)),))  # 3 is not an output
    with pytest.raises(ValueError, match="non-output"):
        simulate_network([node], bad, IntegratorConfig(t_ev=1.0), seeds=[0])
    doubled = Wiring(
        edges=((("node", 0, 2), (0, 1)), (("node", 0, 2), (0, 1))),
    )
    with pytest.raises(ValueError, match="more than one"):
        simulate_network([node], doubled, IntegratorConfig(t_ev=1.0), seeds=[0])
    with pytest.raises(ValueError, match="at least one node"):
        simulate_network([], Wiring(), IntegratorConfig(t_ev=1.0), seeds=[])


@pytest.mark.parametrize("edge, message", [
    ((("drive", 0), (5, 1)), "edge targets unknown node 5"),
    ((("drive", 0), (-1, 1)), "edge targets unknown node -1"),
    ((("drive", 0), (0, 2)), "edge targets non-input variable 2 of node 0"),
    ((("drive", 3), (0, 1)), "edge references unknown drive 3"),
    ((("node", 4, 2), (0, 1)), "edge sources unknown node 4"),
    ((("pin", 0, 2), (0, 1)), "unknown source kind 'pin'"),
    # each ended in a TypeError inside the integration loop, or was read as drive 1
    ((("drive", 0.0), (0, 1)),
     "index in edge ('drive', 0.0) -> (0, 1) must be an integer, got 0.0"),
    ((("drive", 0), (0.0, 1)),
     "index in edge ('drive', 0) -> (0.0, 1) must be an integer, got 0.0"),
    ((("drive", True), (0, 1)),
     "index in edge ('drive', True) -> (0, 1) must be an integer, got True"),
    ((("node", 0, 2.0), (0, 1)),
     "index in edge ('node', 0, 2.0) -> (0, 1) must be an integer, got 2.0"),
    # the first two ended in an IndexError, the third ran as drive 0
    ((("node", 0), (0, 1)), "edge ('node', 0) -> (0, 1): a node source has 3 fields, got 2"),
    ((("drive",), (0, 1)), "edge ('drive',) -> (0, 1): a drive source has 2 fields, got 1"),
    ((("drive", 0, 5), (0, 1)),
     "edge ('drive', 0, 5) -> (0, 1): a drive source has 2 fields, got 3"),
    # an empty source ended in an IndexError, a short or long target in an
    # unpacking error that did not name the edge
    (((), (0, 1)), "unknown source kind None"),
    ((("drive", 0), (0,)), "edge ('drive', 0) -> (0,): a target has 2 fields, got 1"),
    ((("drive", 0), (0, 1, 7)), "edge ('drive', 0) -> (0, 1, 7): a target has 2 fields, got 3"),
])
def test_wiring_rejects_bad_edges(edge, message):
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=0))
    node = SolverNode(inst.problem, MEM, input_vars=(1,), output_vars=(2,))
    wiring = Wiring(edges=(edge,), drives=(SquareWave(period=2.0), SquareWave(period=3.0)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_network([node], wiring, IntegratorConfig(t_ev=1.0), seeds=[0])


_WAVES = (SquareWave(period=2.0), SquareWave(period=0.37))


@pytest.mark.parametrize("input_vars, edges, drives, message", [
    ((), (), _WAVES[1:], "drive 0 feeds no input"),
    ((1,), ((("drive", 0), (0, 1)),), _WAVES, "drive 1 feeds no input"),
    ((1,), ((("drive", 1), (0, 1)),), _WAVES, "drive 0 feeds no input"),
], ids=["no-edge", "second-unwired", "first-unwired"])
def test_every_drive_must_feed_an_input(input_vars, edges, drives, message):
    # an unwired drive still put its transitions among the stops: with
    # SquareWave(period=0.37) beside gen_xorsat_3r(10, seed=1) (node seed 3,
    # t_ev=5) the states moved by up to 0.418 and n_rhs went 1572 -> 1474
    node = SolverNode(gen_xorsat_3r(10, seed=1).problem, MEM, input_vars=input_vars)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_network([node], Wiring(edges=edges, drives=drives), IntegratorConfig(t_ev=5.0),
                         seeds=[3])


@pytest.mark.parametrize("seed", [2.7, True, "0"])
def test_network_rejects_non_integer_seeds(seed):
    # int() used to truncate 2.7 to seed 2 and run True as seed 1
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=0))
    message = f"seed must be an integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_network([SolverNode(inst.problem)], Wiring(), IntegratorConfig(t_ev=1.0),
                         seeds=[seed])


@pytest.mark.parametrize("inputs", [(1.5,), (True,), ("1",), (1.0,)])
def test_node_pins_must_be_integers(inputs):
    # (True,) used to run and record "inputs": [true]
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=0))
    with pytest.raises(ValueError, match="^variable index must be an integer, got "):
        SolverNode(inst.problem, MEM, input_vars=inputs)
    with pytest.raises(ValueError, match="^variable index must be an integer, got "):
        SolverNode(inst.problem, MEM, output_vars=inputs)
    node = SolverNode(inst.problem, MEM, input_vars=(np.int64(1),))
    assert node.input_vars == (1,) and type(node.input_vars[0]) is int


def test_node_validation():
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=0))
    with pytest.raises(ValueError):
        SolverNode(inst.problem, MEM, input_vars=(1,), output_vars=(1,))
    with pytest.raises(ValueError):
        SolverNode(inst.problem, MEM, input_vars=(1, 1), output_vars=(2,))
    with pytest.raises(ValueError):
        SolverNode(inst.problem, MEM, input_vars=(7,))


# ---------------------------------------------------------------- disconnected

def test_disconnected_network_equals_independent_runs_bitwise():
    xa = gen_xorsat_3r(12, seed=40)
    xb = gen_xorsat_3r(12, seed=41)
    config = IntegratorConfig(t_ev=8.0)
    nodes = [SolverNode(xa.problem, MEM), SolverNode(xb.problem, MEM)]
    records = simulate_network(nodes, Wiring(), config, seeds=[7, 8])
    independent = [
        run(xa.problem, MEM, seed=7, config=config),
        run(xb.problem, MEM, seed=8, config=config),
    ]
    for net_rec, solo_rec in zip(records, independent):
        assert net_rec.outcome == solo_rec.outcome == TIMEOUT
        assert np.array_equal(net_rec.states, solo_rec.states)
        assert np.array_equal(net_rec.times, solo_rec.times)
        assert np.array_equal(net_rec.contrd, solo_rec.contrd)
        assert np.array_equal(net_rec.contra, solo_rec.contra)


def assert_same_trajectory(net_rec, solo_rec):
    for field in ("times", "states", "contra", "contrd"):
        assert np.array_equal(getattr(net_rec, field), getattr(solo_rec, field)), field


def test_disconnected_analog_node_matches_independent():
    # run() is a one-node network, converged-to-zero detection included
    inst = gen_xorsat_3r(20, seed=3)
    config = IntegratorConfig(t_ev=150.0)
    net = simulate_network([SolverNode(inst.problem, ANALOG)], Wiring(), config, seeds=[5])[0]
    solo = run(inst.problem, ANALOG, seed=5, config=config)
    assert net.outcome == solo.outcome == CONVERGED_TO_ZERO
    assert net.t_detect == solo.t_detect
    assert net.t_solve is None and net.assignment is None
    assert_same_trajectory(net, solo)


def test_node_converging_to_zero_stops_the_network():
    # the analog node converges to zero at t = 75.4; the mem node solves on
    # its own at t = 7.7, but the network never solved jointly
    spins = gen_xorsat_3r(20, seed=3).problem
    other = gen_xorsat_3r(16, seed=9).problem
    config = IntegratorConfig(t_ev=150.0)
    records = simulate_network([SolverNode(spins, ANALOG), SolverNode(other, MEM)],
                               Wiring(), config, seeds=[5, 0])
    solo = run(spins, ANALOG, seed=5, config=config)
    assert records[0].outcome == CONVERGED_TO_ZERO
    assert records[0].t_detect == solo.t_detect
    assert_same_trajectory(records[0], solo)
    assert records[1].outcome == TIMEOUT
    assert records[1].t_solve is None and records[1].t_detect is None
    assert records[1].times[-1] == solo.t_detect
    alone = run(other, MEM, seed=0, config=config)
    assert alone.outcome == SOLVED
    assert np.array_equal(records[1].states[:len(alone.times)], alone.states)
    assert records[0].options["network"]["joint_solve_time"] is None


def test_wall_time_is_per_node():
    small = gen_xorsat_3r(12, seed=40).problem
    large = gen_xorsat_3r(40, seed=41).problem
    start = time.perf_counter()
    records = simulate_network([SolverNode(small, MEM), SolverNode(large, MEM)],
                               Wiring(), IntegratorConfig(t_ev=8.0), seeds=[7, 8])
    elapsed = time.perf_counter() - start
    walls = [r.stats["wall_time"] for r in records]
    assert walls[0] != walls[1]
    assert sum(walls) <= elapsed


def test_aborting_node_is_named_on_every_record(monkeypatch):
    # the first aborting node's message went on every node's record without
    # naming that node; node 1's derivative turns non-finite once a long
    # memory passes 3, in the network and alone alike
    problems = [gen_xorsat_3r(12, seed=seed).problem for seed in (40, 41, 42)]
    n, m = problems[1].num_vars, problems[1].num_clauses
    batch_system = integrate.make_batch_system

    def poisoned(batch, *args):
        system = batch_system(batch, *args)
        rows = [i for i, p in enumerate(batch) if p is problems[1]]

        def rhs(t, y):
            d = system.rhs(t, y)
            for i in rows:
                if y[i, n + m:].max() > 3.0:
                    d[i] = np.nan
            return d
        return system._replace(rhs=rhs)

    monkeypatch.setattr(integrate, "make_batch_system", poisoned)
    config = IntegratorConfig(t_ev=20.0)
    records = simulate_network([SolverNode(p, MEM) for p in problems], Wiring(), config,
                               seeds=[7, 8, 9])
    alone = run(problems[1], MEM, seed=8, config=config)
    message = alone.stats["abort_message"]  # a run's message names no node
    assert re.fullmatch(r"non-finite state at t=[0-9.]+ \(error ratio nan\)", message)
    assert 0.0 < alone.times[-1] < 20.0
    for record in records:
        assert record.outcome == TIMEOUT and not record.stats["dt_underflow"]
        assert record.stats["abort_message"] == "node 1: " + message
        assert record.times[-1] == alone.times[-1]
    assert_same_trajectory(records[1], alone)


# -------------------------------------------------------------------- coupling

def ring_nodes(inst, p_in, q_out):
    make = lambda: SolverNode(inst.problem, MEM, input_vars=(p_in,), output_vars=(q_out,))
    wiring = Wiring(edges=(
        (("node", 0, q_out), (1, p_in)),
        (("node", 1, q_out), (0, p_in)),
    ))
    return [make(), make()], wiring


def test_same_instance_ring_solves():
    inst = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, seed=5))
    plant = inst.plant
    p_in, q_out = next(
        (i + 1, j + 1)
        for i in range(10) for j in range(10)
        if i != j and plant[i] == plant[j]
    )
    nodes, wiring = ring_nodes(inst, p_in, q_out)
    records = simulate_network(nodes, wiring, IntegratorConfig(t_ev=300.0), seeds=[1, 2])
    assert all(r.outcome == SOLVED for r in records)
    for r in records:
        assert r.t_solve is not None
    # exchanged variable agrees at the end
    va = records[0].states[-1][p_in - 1]
    vb = records[1].states[-1][p_in - 1]
    assert (va > 0) == (vb > 0)
    # every RK step has one first stage, computed or reused (FSAL), and
    # three more per attempt
    for r in records:
        st = r.stats
        assert st["n_rhs"] + st["n_rhs_reused"] == (
            st["n_accepted"] + 3 * (st["n_accepted"] + st["n_rejected"]))
        assert 0 < st["n_rhs_reused"] < st["n_accepted"]


def test_contradictory_ring_never_jointly_solves():
    prob_a = forced_instance(1, True)
    prob_b = forced_instance(1, False)
    assert solve_dpll(prob_a).satisfiable and solve_dpll(prob_b).satisfiable
    node_a = SolverNode(prob_a, MEM, input_vars=(2,), output_vars=(1,))
    node_b = SolverNode(prob_b, MEM, input_vars=(1,), output_vars=(2,))
    wiring = Wiring(edges=(
        (("node", 0, 1), (1, 1)),
        (("node", 1, 2), (0, 2)),
    ))
    for seed in range(3):
        records = simulate_network([node_a, node_b], wiring,
                                   IntegratorConfig(t_ev=60.0), seeds=[seed, seed + 50])
        assert not all(r.outcome == SOLVED for r in records)


def test_driven_node_tracks_square_wave_exactly():
    prob = forced_instance(1, False)
    node = SolverNode(prob, MEM, input_vars=(1,), output_vars=(2,),
                      solver_options=MemOptions(alpha=0.0))
    wave = SquareWave(period=20, duty=0.5, phase=0)
    wiring = Wiring(edges=((("drive", 0), (0, 1)),), drives=(wave,))
    records = simulate_network([node], wiring, IntegratorConfig(t_ev=50.0),
                               seeds=[4], stop_on_solve=False)
    r = records[0]
    expected = np.array([wave.value(t) for t in r.times])
    assert np.array_equal(r.states[:, 0], expected)


def test_driven_node_solves_during_low_half_period():
    # x1 is forced FALSE, so the formula is satisfiable only while the
    # drive sits at logic zero (-1); the solve lands in a low half-period
    prob = forced_instance(1, False)
    node = SolverNode(prob, MEM, input_vars=(1,), output_vars=(2,),
                      solver_options=MemOptions(alpha=0.0))
    wave = SquareWave(period=20, duty=0.5, phase=0)
    wiring = Wiring(edges=((("drive", 0), (0, 1)),), drives=(wave,))
    records = simulate_network([node], wiring, IntegratorConfig(t_ev=300.0), seeds=[4])
    r = records[0]
    assert r.outcome == SOLVED
    assert (r.t_solve % 20) >= 10.0
    # full-length run: contrd reaches 0 only in low half-periods
    full = simulate_network([node], wiring, IntegratorConfig(t_ev=100.0),
                            seeds=[4], stop_on_solve=False)[0]
    low = (full.times % 20) >= 10.0
    assert full.contrd[low].min() == 0
    assert full.contrd[~low].min() >= 1


def test_network_states_respect_bounds():
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=4.3, seed=2))
    nodes, wiring = ring_nodes(inst, 1, 2)
    records = simulate_network(nodes, wiring, IntegratorConfig(t_ev=10.0), seeds=[0, 1])
    n, m = inst.problem.num_vars, inst.problem.num_clauses
    system = make_batch_system([inst.problem], MEM)
    for r in records:
        assert np.all(np.abs(r.states[:, :n]) <= 1.0)
        assert np.all((r.states[:, n:n + m] >= 0.0) & (r.states[:, n:n + m] <= 1.0))
        assert np.all(r.states[:, n + m:] >= 1.0)
        assert np.all((r.states >= system.lo) & (r.states <= system.hi))


# ------------------------------------------------------------------ JSON config

def test_load_network_config_roundtrip(tmp_path):
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=7.0, seed=3))
    (tmp_path / "a.cnf").write_text(write_dimacs(inst.problem))
    (tmp_path / "b.cnf").write_text(write_dimacs(inst.problem))
    config = {
        "t_ev": 40.0,
        "seed": 5,
        "stop_on_solve": True,
        "nodes": [
            {"cnf": "a.cnf", "solver": "mem", "inputs": [1], "outputs": [2],
             "solver_options": {"alpha": 0.0}, "seed": 11},
            {"cnf": "b.cnf", "solver": "mem", "inputs": [1], "outputs": [2]},
        ],
        "edges": [
            {"from": "node:0:2", "to": "node:1:1"},
            {"from": "node:1:2", "to": "node:0:1"},
        ],
    }
    (tmp_path / "net.json").write_text(json.dumps(config))
    nodes, wiring, cfg, seeds, stop = load_network_config(tmp_path / "net.json")
    assert cfg.t_ev == 40.0
    assert seeds == [11, 6]  # explicit, then base seed + index
    assert nodes[0].solver_options.alpha == 0.0
    assert nodes[1].solver_options.alpha == 5.0
    assert len(wiring.edges) == 2
    records = simulate_network(nodes, wiring, cfg, seeds, stop_on_solve=stop)
    assert len(records) == 2


def test_load_network_config_with_drive(tmp_path):
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=7.0, seed=3))
    (tmp_path / "a.cnf").write_text(write_dimacs(inst.problem))
    config = {
        "t_ev": 5.0,
        "nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": 1}],
        "drives": [{"kind": "square", "period": 4.0, "duty": 0.5}],
        "edges": [{"from": "drive:0", "to": "node:0:1"}],
    }
    (tmp_path / "net.json").write_text(json.dumps(config))
    nodes, wiring, cfg, seeds, stop = load_network_config(tmp_path / "net.json")
    assert len(wiring.drives) == 1
    records = simulate_network(nodes, wiring, cfg, seeds, stop_on_solve=False)
    wave = wiring.drives[0]
    r = records[0]
    assert np.array_equal(r.states[:, 0], [wave.value(t) for t in r.times])


def test_network_configs_are_utf8_whatever_the_locale(tmp_path, monkeypatch):
    # a Latin-1 locale for every read and write that names no encoding: the
    # config read the node CNF caf\u00e9.cnf as 'caf\u00c3\u00a9.cnf'
    monkeypatch.setattr(io, "text_encoding", lambda encoding, stacklevel=2: encoding or "latin-1")
    problem = gen_barthel(BarthelParams(num_vars=8, ratio=7.0, seed=3)).problem
    (tmp_path / "caf\u00e9.cnf").write_text(write_dimacs(problem), encoding="utf-8")
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"t_ev": 5.0, "nodes": [{"cnf": "caf\u00e9.cnf"}]},
                               ensure_ascii=False), encoding="utf-8")
    nodes, *_ = load_network_config(path)
    assert nodes[0].problem == problem
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not JSON: 'utf-8' codec"):
        load_network_config(path)


def write_config(tmp_path, **changes):
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=7.0, seed=3))
    (tmp_path / "a.cnf").write_text(write_dimacs(inst.problem))
    config = {
        "t_ev": 5.0,
        "nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": 1}],
        "drives": [{"kind": "square", "period": 4.0, "duty": 0.5}],
        "edges": [{"from": "drive:0", "to": "node:0:1"}],
    }
    config.update(changes)  # a change to None drops the key
    config = {key: value for key, value in config.items() if value is not None}
    (tmp_path / "net.json").write_text(json.dumps(config))
    return tmp_path / "net.json"


def test_load_network_config_rejects_unknown_drive_kind(tmp_path):
    # a dropped sine drive would silently rewire drive:0 to the square wave
    path = write_config(tmp_path, drives=[{"kind": "sine"},
                                          {"kind": "square", "period": 7}])
    with pytest.raises(ValueError, match="unknown kind 'sine' of drive 0"):
        load_network_config(path)


@pytest.mark.parametrize("changes, where", [
    ({"sampl_interval": 0.1}, "network config: sampl_interval"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "sede": 1}]},
     "node 0: sede"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2],
                 "expose_contrd": True}]}, "node 0: expose_contrd"),
    ({"drives": [{"kind": "square", "period": 4.0, "dutty": 0.5}]}, "drive 0: dutty"),
    ({"edges": [{"from": "drive:0", "too": "node:0:1"}]}, "edge 0: too"),
    # an unknown option field used to raise TypeError from the constructor
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2],
                 "solver_options": {"alhpa": 1.0}}]}, "node 0 solver_options: alhpa"),
    ({"nodes": [{"cnf": "a.cnf", "solver": "analog",
                 "solver_options": {"aux": "K"}}]}, "node 0 solver_options: aux"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2],
                 "solver_options": {"clamp": False}}]}, "node 0 solver_options: clamp"),
    # the option fields of the other solver are read as unknown, not ignored
    ({"nodes": [{"cnf": "a.cnf", "solver": "analog", "solver_options": {"alpha": 1}}]},
     "node 0 solver_options: alpha"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2],
                 "solver_options": {"aux_mode": "K"}}]}, "node 0 solver_options: aux_mode"),
])
def test_load_network_config_rejects_unknown_keys(tmp_path, changes, where):
    with pytest.raises(ValueError, match=f"unknown key\\(s\\) in {where}"):
        load_network_config(write_config(tmp_path, **changes))


@pytest.mark.parametrize("changes, message", [
    ({"edges": [{"from": "node:1", "to": "node:0:1"}]},
     "bad signal reference 'node:1' in edge 0"),
    ({"edges": [{"from": "node:0:1:5", "to": "node:0:1"}]},
     "bad signal reference 'node:0:1:5' in edge 0"),
    ({"edges": [{"from": "drive:0:1", "to": "node:0:1"}]},
     "bad signal reference 'drive:0:1' in edge 0"),
    ({"edges": [{"from": "drive:zero", "to": "node:0:1"}]},
     "bad signal reference 'drive:zero' in edge 0"),
    ({"edges": [{"from": "drive:0", "to": "pin:0:1"}]},
     "bad signal reference 'pin:0:1' in edge 0"),
    ({"nodes": None}, "missing key 'nodes' in network config"),
    ({"nodes": [{"inputs": [1], "outputs": [2]}]}, "missing key 'cnf' in node 0"),
    ({"edges": [{"to": "node:0:1"}]}, "missing key 'from' in edge 0"),
    ({"edges": [{"from": "drive:0"}]}, "missing key 'to' in edge 0"),
    # json.loads accepts NaN and Infinity
    ({"t_ev": math.nan}, "t_ev must be finite, got nan"),
    ({"drives": [{"kind": "square", "period": math.inf}]}, "period must be finite, got inf"),
    # bool("false") is True and int(2.7) is 2; a JSON boolean is not a seed
    ({"stop_on_solve": "false"},
     "'stop_on_solve' in network config must be a JSON boolean, got 'false'"),
    ({"stop_on_solve": 0}, "'stop_on_solve' in network config must be a JSON boolean, got 0"),
    ({"seed": 2.7}, "'seed' in network config must be a JSON integer, got 2.7"),
    ({"seed": True}, "'seed' in network config must be a JSON integer, got True"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": "1"}]},
     "'seed' in node 0 must be a JSON integer, got '1'"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "seed": False}]},
     "'seed' in node 0 must be a JSON integer, got False"),
    ({"edges": [{"from": "drive:0", "to": "drive:0"}]}, "edge targets must be node inputs"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [True], "outputs": [2]}]},
     "variable index must be an integer, got True"),
    ({"t_ev": True}, "t_ev must be a real number, got True"),
    # bool("false") is True: the voltage bounds stayed and "false" was recorded
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2],
                 "solver_options": {"clamp_v": "false"}}]}, "clamp_v must be a bool, got 'false'"),
    # each used to raise TypeError
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "solver_options": [1]}]},
     "'solver_options' in node 0 must be a JSON object, got [1]"),
    ({"nodes": [{"cnf": "a.cnf", "solver": "analog", "solver_options": "aK2"}]},
     "'solver_options' in node 0 must be a JSON object, got 'aK2'"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": 5, "outputs": [2]}]},
     "'inputs' in node 0 must be a JSON array, got 5"),
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": {"2": 1}}]},
     "'outputs' in node 0 must be a JSON array, got {'2': 1}"),
    ({"nodes": [5]}, "node 0 must be a JSON object, got 5"),
    ({"nodes": 5}, "'nodes' in network config must be a JSON array, got 5"),
    ({"edges": 5}, "'edges' in network config must be a JSON array, got 5"),
    ({"edges": [7]}, "edge 0 must be a JSON object, got 7"),
    ({"drives": [3]}, "drive 0 must be a JSON object, got 3"),
    ({"nodes": [{"cnf": 5, "inputs": [1], "outputs": [2]}]},
     "'cnf' in node 0 must be a JSON string, got 5"),
    # the option objects of the old layout are unknown keys now
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "mem_params": {"alpha": 0}}]},
     "unknown key(s) in node 0: mem_params"),
    ({"nodes": [{"cnf": "a.cnf", "solver": "memm"}]},
     "unknown solver 'memm' (expected 'analog' or 'mem')"),
    # a list label was written into the record as its instance
    ({"nodes": [{"cnf": "a.cnf", "inputs": [1], "outputs": [2], "label": ["x"]}]},
     "'label' in node 0 must be a JSON string, got ['x']"),
    ({"nodes": [{"cnf": "a.cnf", "solver": 5}]}, "'solver' in node 0 must be a JSON string, got 5"),
    # int() reads each of these as 0; an index is ASCII -?[0-9]+, as in DIMACS
    *[({"edges": [{"from": "drive:0", "to": ref}]}, f"bad signal reference {ref!r} in edge 0")
      for ref in ("node:+0:1", "node: 0:1", "node:0_0:1", "node:\u0660:1", "node:0:1 ")],
    ({"edges": [{"from": "drive:+0", "to": "node:0:1"}]},
     "bad signal reference 'drive:+0' in edge 0"),
])
def test_load_network_config_rejects_malformed_references(tmp_path, changes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_network_config(write_config(tmp_path, **changes))


@pytest.mark.parametrize("stop_on_solve", ["no", 0, 1, None, np.True_])
def test_simulate_network_rejects_non_bool_stop_on_solve(stop_on_solve):
    # "no" used to stop at the joint solve, as True does
    node = SolverNode(gen_barthel(BarthelParams(num_vars=8, ratio=7.0, seed=3)).problem)
    with pytest.raises(ValueError, match=f"^stop_on_solve must be a bool, got "
                                         f"{re.escape(repr(stop_on_solve))}$"):
        simulate_network([node], Wiring(), IntegratorConfig(t_ev=40.0), [0],
                         stop_on_solve=stop_on_solve)
