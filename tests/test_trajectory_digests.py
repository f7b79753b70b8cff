"""Bit-identity guard: sha256 digests of pinned trajectories.

The trajectory digests cover the bytes of a record's times, states, contra
and contrd, as recorded before the fused memcomputing kernel and the FSAL
step went in; a change to the RHS, the stepper or the sample-grid loop that
moves any bit of any sample fails here.  The record digests add the
outcome, t_solve, t_detect and every stat but wall_time, and pin the stops
of the integration loop: drive transitions (one pair of drives puts stops
closer than 1e-12 to the next), network barriers, an Euler run, a member
of a batched cell, and network nodes that share a batch with nodes waiting
at a barrier (recorded while each node was a batch of its own).  They hold for a fixed numpy version (2.4 on x86-64 when
recorded).  The cases on Barthel instances were re-recorded when the
generator's variable draw changed, and only those.
"""

import hashlib

import pytest

from ctsat.dynamics import MemOptions, MemParams
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import ANALOG, MEM, IntegratorConfig, run, run_batch
from ctsat.network import SolverNode, SquareWave, Wiring, simulate_network
from test_network import forced_instance


def trajectory_digest(record) -> str:
    h = hashlib.sha256()
    for arr in (record.times, record.states, record.contra, record.contrd):
        h.update(arr.tobytes())
    return h.hexdigest()


def mem_xorsat():
    problem = gen_xorsat_3r(20, seed=1).problem
    return run(problem, MEM, seed=7, config=IntegratorConfig(t_ev=30.0))


def mem_unclamped():
    problem = gen_barthel(BarthelParams(num_vars=30, ratio=4.3, seed=7)).problem
    return run(problem, MEM, seed=3, config=IntegratorConfig(t_ev=100.0),
               mem_options=MemOptions(clamp_v=False))


def analog_xorsat():
    problem = gen_xorsat_3r(20, seed=3).problem
    return run(problem, ANALOG, seed=5, config=IntegratorConfig(t_ev=150.0))


def ring_node():
    """Node 0 of a two-node ring on one Barthel instance, exchanging two
    variables with equal planted values."""
    problem = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, seed=5)).problem
    make = lambda: SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,))
    wiring = Wiring(edges=((("node", 0, 2), (1, 1)), (("node", 1, 2), (0, 1))))
    return simulate_network([make(), make()], wiring, IntegratorConfig(t_ev=300.0),
                            seeds=[1, 2])[0]


@pytest.mark.parametrize("make_record,digest", [
    (mem_xorsat, "7bf3c8eeb457804a301432f080bc0d345ba5f34a8a6bc0decbef61c76ff22451"),
    (mem_unclamped, "06d6a0ed1cc20d70834ef7b8d358fad2048f75c67cfca656fc267a467e04eb8c"),
    (analog_xorsat, "c70d0f1832f700d645d5555bc4591253ba9c24d01a53c4860e448da7c5f85f28"),
    (ring_node, "5a680bcfa952c5a6538d7494c58b0d24101dace948a3f6c7673558c8aa680c5b"),
], ids=["mem-xorsat", "mem-unclamped", "analog-xorsat", "ring-node"])
def test_pinned_trajectory_digests(make_record, digest):
    assert trajectory_digest(make_record()) == digest


def record_digest(record) -> str:
    stats = {key: value for key, value in record.stats.items() if key != "wall_time"}
    summary = (record.outcome, record.t_solve, record.t_detect, sorted(stats.items()))
    return hashlib.sha256(f"{trajectory_digest(record)} {summary!r}".encode()).hexdigest()


def driven(*waves, t_ev):
    """A forced-instance node whose first inputs follow the given drives."""
    inputs = tuple(range(1, len(waves) + 1))
    node = SolverNode(forced_instance(1, False), MEM, input_vars=inputs,
                      output_vars=(len(waves) + 1,), mem_params=MemParams(alpha=0.0))
    wiring = Wiring(edges=tuple((("drive", k), (0, var)) for k, var in enumerate(inputs)),
                    drives=waves)
    return simulate_network([node], wiring, IntegratorConfig(t_ev=t_ev), seeds=[4],
                            stop_on_solve=False)[0]


def driven_node():
    return driven(SquareWave(period=20), t_ev=100.0)


def two_drive_node():
    return driven(SquareWave(period=0.37), SquareWave(period=0.74, duty=0.25), t_ev=20.0)


def contradictory_ring_node():
    """Node 1 of a ring whose nodes force the shared variable apart."""
    node_a = SolverNode(forced_instance(1, True), MEM, input_vars=(2,), output_vars=(1,))
    node_b = SolverNode(forced_instance(1, False), MEM, input_vars=(1,), output_vars=(2,))
    wiring = Wiring(edges=((("node", 0, 1), (1, 1)), (("node", 1, 2), (0, 2))))
    return simulate_network([node_a, node_b], wiring, IntegratorConfig(t_ev=60.0),
                            seeds=[0, 50])[1]


def mixed_network_node():
    """The mem node of a network stopped when its analog partner converges
    to zero."""
    spins = gen_xorsat_3r(20, seed=3).problem
    other = gen_xorsat_3r(16, seed=9).problem
    return simulate_network([SolverNode(spins, ANALOG), SolverNode(other, MEM)], Wiring(),
                            IntegratorConfig(t_ev=150.0), seeds=[5, 0])[1]


def mem_euler():
    problem = gen_barthel(BarthelParams(num_vars=20, ratio=4.3, seed=2)).problem
    return run(problem, MEM, seed=1, config=IntegratorConfig(method="euler", t_ev=20.0))


def batch_member():
    problems = [gen_xorsat_3r(12, seed=seed).problem for seed in range(4)]
    return run_batch(problems, MEM, [10, 11, 12, 13], config=IntegratorConfig(t_ev=30.0))[2]


def ring(size, method="rk23"):
    """A ring of one Barthel instance, node i's variable 2 feeding node
    i+1's variable 1; all nodes share one batch."""
    problem = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, seed=5)).problem
    nodes = [SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,)) for _ in range(size)]
    wiring = Wiring(edges=tuple((("node", i, 2), ((i + 1) % size, 1)) for i in range(size)))
    return simulate_network(nodes, wiring, IntegratorConfig(method=method, t_ev=10.0),
                            seeds=list(range(size)))


def ring8_node():
    return ring(8)[5]


def euler_ring_node():
    return ring(3, method="euler")[1]


def two_shape_chain_node():
    """Node 2 of a driven chain X12 -> X16 -> X12 -> X12 whose last node is
    unclamped: three batches, nodes 0 and 2 sharing one."""
    x12 = gen_xorsat_3r(12, seed=40).problem
    x16 = gen_xorsat_3r(16, seed=41).problem
    nodes = [SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,),
                        mem_options=MemOptions(clamp_v=i != 3))
             for i, problem in enumerate((x12, x16, x12, x12))]
    edges = ((("drive", 0), (0, 1)),) + tuple((("node", i, 2), (i + 1, 1)) for i in range(3))
    wiring = Wiring(edges=edges, drives=(SquareWave(period=3.3),))
    return simulate_network(nodes, wiring, IntegratorConfig(t_ev=10.0), seeds=[1, 2, 3, 4],
                            stop_on_solve=False)[2]


@pytest.mark.parametrize("make_record,digest", [
    (driven_node, "afa18683d0512f8f62485519726b35fef23d8580bf27ce71289e51e2699e625b"),
    (two_drive_node, "f4c151cf3c91200b693d742e6905bb38e4834a4079805791b1129079362cbe75"),
    (contradictory_ring_node, "2850596a28dca67625b7031335eb51f96b0a4868553cc6c1b929c847bac8a189"),
    (mixed_network_node, "25d2a81ad00faa876327d15902e59c98166a5ad2a25052c5d4924800ee0ad35d"),
    (mem_euler, "21238f14f1c452a4f48edde2d7f1c5b50917d365b09dd3840cd372f7202944fd"),
    (batch_member, "b015fa97e9b5258bb7d3fc5bacbf4b02324a01d572f7324968bc6756dbc180ea"),
    (ring8_node, "7d6387c621ca4f0783d0478606c155032f78ed5f8eb2521836a72176e95aa3ad"),
    (euler_ring_node, "0bac711fecbcc53fd6991823f724e49b57469c3c9b5e0748b919fb415733605b"),
    (two_shape_chain_node, "192977b60b2319a44ef7b998c922394807a528314f969e47d8b610633e3f3c42"),
], ids=["driven-node", "two-drive-node", "contradictory-ring-node", "mixed-network-node",
        "mem-euler", "batch-member", "ring8-node", "euler-ring-node", "two-shape-chain-node"])
def test_pinned_record_digests(make_record, digest):
    assert record_digest(make_record()) == digest
