"""Bit-identity guard: sha256 digests of pinned trajectories.

The digests cover the bytes of a record's times, states, contra and
contrd, as recorded before the fused memcomputing kernel and the FSAL step
went in; a change to the RHS, the stepper or the sample-grid loop that moves
any bit of any sample fails here.  They hold for a fixed numpy version
(2.4 on x86-64 when recorded).
"""

import hashlib

import pytest

from ctsat.dynamics import MemOptions
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import ANALOG, MEM, IntegratorConfig, run
from ctsat.network import SolverNode, Wiring, simulate_network


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
    (mem_unclamped, "118e2663ae63e01d3ac0a8120fb4f5a9a7835f6541908d78c24d3ca016b71c9d"),
    (analog_xorsat, "c70d0f1832f700d645d5555bc4591253ba9c24d01a53c4860e448da7c5f85f28"),
    (ring_node, "174bf9024bf3956faae65b2da0a4e46288ed31015afc07afc3e25e6a1c4fd5bf"),
], ids=["mem-xorsat", "mem-unclamped", "analog-xorsat", "ring-node"])
def test_pinned_trajectory_digests(make_record, digest):
    assert trajectory_digest(make_record()) == digest
