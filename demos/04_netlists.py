"""Emit LTspice netlists for both solvers and check them against the
native dynamics with the built-in expression evaluator.

Writes .cir decks under ./demo-out/netlists.  Import them into LTspice
directly; the .tran line already selects uic.  For the --random-ic style
decks (initial conditions {flat(1)}), enable "Use the clock to reseed the
MC generator" in the LTspice control panel so each run draws fresh values.
"""

from pathlib import Path

import numpy as np

from ctsat.dynamics import AnalogState, analog_rhs
from ctsat.instances import BarthelParams, gen_barthel
from ctsat.integrate import MEM
from ctsat.netlist import (
    NetlistOptions,
    card_histogram,
    emit_analog,
    emit_mem,
    evaluate_deck_rhs,
    network_deck,
    serialize,
)
from ctsat.network import SolverNode, Wiring

out = Path("demo-out/netlists")
out.mkdir(parents=True, exist_ok=True)

inst = gen_barthel(BarthelParams(num_vars=10, ratio=4.3, seed=2))
problem = inst.problem
n, m = problem.num_vars, problem.num_clauses

analog_doc = emit_analog(problem, NetlistOptions(ic_seed=2))
mem_doc = emit_mem(problem, NetlistOptions(ic_seed=2))
(out / "analog.cir").write_text(serialize(analog_doc))
(out / "mem.cir").write_text(serialize(mem_doc))
print("analog deck cards:", card_histogram(analog_doc), f"(expect C = N+M = {n + m})")
print("mem deck cards:   ", card_histogram(mem_doc), f"(expect C = N+2M = {n + 2 * m})")

# the deck's behavioral sources agree with the native right-hand sides
rng = np.random.default_rng(0)
s, a = rng.uniform(-1, 1, n), np.ones(m)
volts = {f"s{i + 1}": s[i] for i in range(n)} | {f"a{j + 1}": a[j] for j in range(m)}
volts |= {"contra": 0.0, "contrd": 0.0}
deck_rhs = evaluate_deck_rhs(analog_doc, volts)
ds, _ = analog_rhs(problem, AnalogState(s, a))
err = max(abs(deck_rhs[f"s{i + 1}"] - ds[i]) for i in range(n))
print(f"max |deck - engine| on spin derivatives: {err:.2e}")

# a two-solver ring, stated as the network simulate_network integrates: each
# node's output variable 2 feeds the other's input 1, and each node's
# capacitor cards carry its own seeded start (seeds 11 and 12)
nodes = [SolverNode(problem, MEM, input_vars=(1,), output_vars=(2,)) for _ in range(2)]
ring = Wiring(edges=((("node", 1, 2), (0, 1)), (("node", 0, 2), (1, 1))))
(out / "ring.cir").write_text(network_deck(nodes, ring, seeds=(11, 12)))
print("wrote", out / "ring.cir")
