"""Shared-step twins (shared_step.py): the reference half is run() bit for
bit, an identical candidate never separates from it, and a 1e-15 leak
pins how the exact bound mask separates mem runs today."""

import numpy as np
import pytest

from ctsat.harness import generate_instance
from ctsat.integrate import ANALOG, MEM, IntegratorConfig, run
from shared_step import leak, run_twin, separation


@pytest.mark.parametrize("family,num_vars,gen_seed,seed,solver,t_ev", [
    ("X", 20, 1, 1, MEM, 60.0),
    ("X", 10, 3, 3, MEM, 20.0),
    ("B4.3", 50, 4, 4, MEM, 50.0),
    ("B4.3", 40, 2, 2, ANALOG, 60.0),
    ("X", 20, 3, 5, ANALOG, 60.0),
], ids=["X20-mem", "X10-mem", "B4.3-50-mem", "B4.3-40-analog", "X20-analog"])
def test_identical_twin_steps_as_run_and_never_separates(family, num_vars, gen_seed, seed,
                                                         solver, t_ev):
    # the error ratio reads only the reference half, so the twin takes
    # run()'s steps; n_rhs may differ where only the candidate half is clipped
    problem = generate_instance(family, num_vars, gen_seed).problem
    config = IntegratorConfig(t_ev=t_ev)
    twin, alone = run_twin(problem, solver, seed, config), run(problem, solver, seed=seed,
                                                               config=config)
    width = alone.states.shape[1]
    assert twin.states.shape == (len(alone.times), 2 * width)
    for key in ("times", "contra", "contrd"):
        assert getattr(twin, key).tobytes() == getattr(alone, key).tobytes(), key
    assert twin.states[:, :width].tobytes() == alone.states.tobytes()  # sign bits too
    assert (twin.outcome, twin.t_solve) == (alone.outcome, alone.t_solve)
    for key in ("n_accepted", "n_rejected"):
        assert twin.stats[key] == alone.stats[key], key
    assert twin.state_columns == (*alone.state_columns,
                                  *(f"cand_{c}" for c in alone.state_columns))
    assert np.all(separation(twin) == 0.0)


@pytest.mark.parametrize("family,num_vars,seed", [("X", 10, 3), ("X", 20, 1), ("B4.3", 20, 4)],
                         ids=["X10", "X20", "B4.3-20"])
def test_a_leak_that_unclips_x_s_separates_mem_runs(family, num_vars, seed):
    # This pins a defect, not a wanted property.  The mem kernel masks an
    # outward derivative only where a component sits exactly on its bound,
    # so a -y/1e15 leak that moves a clipped x_s 1e-15 inside [0, 1]
    # unmasks it, its stages overshoot, and the voltages separate by 1e-6
    # within t = 2 on the reference run's own steps.  The same leak on x_l
    # pushes it outward at its lower bound, where the clip returns it.  The
    # bound rule of ROADMAP.md's "Bounds that do not hinge on one ulp" is
    # meant to end this: the x_s assertion then fails on purpose and turns
    # into that rule's gate.  Instance and run seed are equal in each case.
    problem = generate_instance(family, num_vars, seed).problem
    voltages = slice(0, problem.num_vars)
    x_s = run_twin(problem, MEM, seed, IntegratorConfig(t_ev=2.0), leak("xs"))
    assert separation(x_s, voltages).max() >= 1e-6
    x_l = run_twin(problem, MEM, seed, IntegratorConfig(t_ev=5.0), leak("xl"))
    assert separation(x_l, voltages).max() < 1e-12
