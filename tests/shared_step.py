"""Shared-step twins: a candidate right-hand side stepped on the reference
run's own steps.

twin(candidate) is a kernel factory, called as dynamics.make_batch_system
is, whose System steps rows [y_ref, y_cand] of width 2D: make_batch_system's
kernel on the left half and the candidate's on the right, with doubled
bounds, the reference column names followed by the candidate's prefixed
"cand_", and an error ratio that reads the first D columns.  So the
reference half takes exactly the steps run() takes, the outcome windows
read it, and the candidate half follows it along the same step sequence:
how far the two halves of the record's states drift apart is what the
candidate changes, with no step-size control of its own to hide it.
A change to the stepper cannot be gated this way; it needs a two-sample
comparison over seeds.
"""

import numpy as np

from ctsat import integrate
from ctsat.dynamics import System, initial_state, make_batch_system


def twin(candidate=make_batch_system):
    """The twin kernel factory of make_batch_system and candidate."""
    def factory(problems, solver, solver_options=None):
        ref = make_batch_system(problems, solver, solver_options)
        cand = candidate(problems, solver, solver_options)
        width = ref.lo.size

        def rhs(t, y):
            return np.concatenate((ref.rhs(t, y[:, :width]), cand.rhs(t, y[:, width:])), axis=1)
        return System(rhs, np.concatenate((ref.lo, cand.lo)), np.concatenate((ref.hi, cand.hi)),
                      ref.columns + tuple(f"cand_{c}" for c in cand.columns),
                      error_columns=width)
    return factory


def run_with(system, problem, solver, seed, config, start=None):
    """run(problem, solver, seed=seed, config=config) as a group of one whose
    member's kernel factory is system and, unless start is None, whose row
    at t = 0 is start."""
    member = integrate._Member(problem, solver, seed, config, None)
    member.system = system
    if start is not None:
        member.start = start
    group = integrate._Group([member], config)
    integrate._integrate([group])
    return group.records[0]


def run_twin(problem, solver, seed, config, candidate=make_batch_system):
    """The record of one twin run from run()'s seeded start in both halves."""
    return run_with(twin(candidate), problem, solver, seed, config,
                    start=np.tile(initial_state(problem, solver, seed), 2))


def separation(record, columns=slice(None)):
    """The largest |reference - candidate| at every sample of a twin record,
    over the given columns of a half (all of them by default)."""
    half = record.states.shape[1] // 2
    ref, cand = record.states[:, :half], record.states[:, half:]
    return np.abs(ref[:, columns] - cand[:, columns]).max(axis=1)


def leak(block, resistance=1e15):
    """A mem candidate: make_batch_system's kernel minus y / resistance on
    one block, "v", "xs" or "xl", added after its bound mask."""
    def factory(problems, solver, solver_options=None):
        system = make_batch_system(problems, solver, solver_options)
        n, m = problems[0].num_vars, problems[0].num_clauses
        cols = {"v": slice(0, n), "xs": slice(n, n + m), "xl": slice(n + m, None)}[block]

        def rhs(t, y):
            d = system.rhs(t, y)
            d[:, cols] -= y[:, cols] / resistance
            return d
        return system._replace(rhs=rhs)
    return factory
