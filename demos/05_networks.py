"""Networks of memcomputing solvers simulated natively.

Part 1: one solver driven by a square wave on v1.  The instance forces
x1 = FALSE, so the formula is only satisfiable while the drive sits at
logic zero (-1 V); the solver locks in during a low half-period.

Part 2: two solvers in a ring (output variable of each feeds the input
variable of the other), once compatible and once with the exchanged
variable forced to opposite values, which makes a joint solution
impossible.
"""

import numpy as np

from ctsat import IntegratorConfig, MEM, Problem
from ctsat.dynamics import MemOptions
from ctsat.instances import BarthelParams, gen_barthel
from ctsat.network import SolverNode, SquareWave, Wiring, simulate_network


def forcing_clauses(var, value, f2, f3):
    sgn = var if value else -var
    return [(sgn, s2 * f2, s3 * f3) for s2 in (1, -1) for s3 in (1, -1)]


def forced_instance(value):
    base = gen_barthel(BarthelParams(num_vars=10, ratio=3.0, seed=9))
    kept = [c for c in base.problem.dimacs_clauses().tolist()
            if all(abs(code) > 2 for code in c)]
    return Problem.from_dimacs_clauses(10, kept + forcing_clauses(1, value, 9, 10))


# --- part 1: square-wave response (memory decay alpha = 0) -----------------
prob = forced_instance(False)
node = SolverNode(prob, MEM, input_vars=(1,), output_vars=(2,),
                  solver_options=MemOptions(alpha=0.0))
wave = SquareWave(period=20, duty=0.5, phase=0)
wiring = Wiring(edges=((("drive", 0), (0, 1)),), drives=(wave,))

records = simulate_network([node], wiring, IntegratorConfig(t_ev=100.0),
                           seeds=[4], stop_on_solve=False)
r = records[0]
low = (r.times % wave.period) >= wave.duty * wave.period
print("square-wave drive on v1 (x1 forced FALSE):")
print(f"  min unsatisfied count while drive low:  {r.contrd[low].min()}")
print(f"  min unsatisfied count while drive high: {r.contrd[~low].min()}")

# --- part 2: two-solver rings ----------------------------------------------
inst = gen_barthel(BarthelParams(num_vars=10, ratio=7.0, seed=5))
pq = next((i + 1, j + 1) for i in range(10) for j in range(10)
          if i != j and inst.plant[i] == inst.plant[j])
p_in, q_out = pq
ring = Wiring(edges=((("node", 0, q_out), (1, p_in)),
                     (("node", 1, q_out), (0, p_in))))
nodes = [SolverNode(inst.problem, MEM, input_vars=(p_in,), output_vars=(q_out,))
         for _ in range(2)]
records = simulate_network(nodes, ring, IntegratorConfig(t_ev=300.0), seeds=[1, 2])
print("compatible ring:", [(r.outcome, r.t_solve) for r in records])

prob_a, prob_b = forced_instance(True), forced_instance(False)
nodes = [SolverNode(prob_a, MEM, input_vars=(2,), output_vars=(1,)),
         SolverNode(prob_b, MEM, input_vars=(1,), output_vars=(2,))]
contra_ring = Wiring(edges=((("node", 0, 1), (1, 1)), (("node", 1, 2), (0, 2))))
records = simulate_network(nodes, contra_ring, IntegratorConfig(t_ev=300.0), seeds=[1, 2])
print("contradictory ring:", [(r.outcome, r.t_solve) for r in records])
print("  (x1 must be TRUE in one solver and FALSE in the other: the network",
      "cannot settle)")
