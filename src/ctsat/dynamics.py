"""Right-hand sides of the two continuous-time SAT solver dynamical systems.

Analog SAT: continuous spins s in [-1, 1]^N descend the clause-weighted
energy V(s, a) = sum_m a_m K_m(s)^2 while the auxiliary clause weights a_m
grow on unsatisfied clauses:

    ds_i/dt = sum_m 2 a_m c_mi K_mi(s) K_m(s)        (= -dV/ds_i)
    da_m/dt = a_m K_m(s)^2                            (default aux mode)

with K_m(s) = (1/2^3) prod_j (1 - c_mj s_j) over the clause's three
literals and K_mi = K_m with literal i's factor removed.  K_mi is always
computed as the product of the other two factors, never as a division, so
states with s_i exactly at a satisfying pole stay finite.

Digital memcomputing: voltages v in [-1, 1]^N plus per-clause short and
long memories x_s in [0, 1], x_l in [1, 1e4*M]:

    dv_n/dt   = sum_m  x_lm x_sm G_nm + (1 + zeta x_lm)(1 - x_sm) R_nm
    dx_sm/dt  = beta (x_sm + eps) (C_m - gamma)
    dx_lm/dt  = alpha (C_m - delta)

where C_m = (1/2) min over the clause's literals of (1 - q v), the
gradient-like term G_nm = (1/2) q_nm min of the other two literals' terms,
and the rigidity term R_nm = (1/2)(q_nm - v_n) for every literal achieving
the clause minimum (zero otherwise).

One kernel per solver evaluates a batch of flat state vectors of problems
with equal N and M (make_batch_system); make_system() is that kernel on a
batch of one, and analog_rhs() and mem_rhs() are views of it on the state
structs.  Each solver has one options object, matched to it by
resolve_options().  Each solver's state (block names and order, bounds, start
values) is described once, in _blocks(): the kernel's outward-push mask,
the integrator's projection, the seeded start of initial_state() and the
netlist's node names, source masks and capacitor starts all read it.
All functions are pure; derivative outputs already include the boundary
masks that keep bounded variables from being pushed outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cnf import Assignment, Problem, check_fields, count_unsatisfied

__all__ = [
    "ANALOG",
    "MEM",
    "AUX_MODES",
    "AnalogOptions",
    "MemOptions",
    "resolve_options",
    "AnalogState",
    "MemState",
    "clause_products",
    "analog_rhs",
    "energy",
    "clause_values",
    "mem_clause_quantities",
    "mem_rhs",
    "System",
    "make_system",
    "make_batch_system",
    "initial_state",
    "control_signals",
    "readout",
]

ANALOG = "analog"
MEM = "mem"

# Auxiliary-variable growth laws da/dt of the analog solver.
_AUX_GROWTH = {
    "aK2": lambda a, km: a * km * km,
    "aK": lambda a, km: a * km,
    "K": lambda a, km: km,
    "K2": lambda a, km: km * km,
}
AUX_MODES = tuple(_AUX_GROWTH)


@dataclass(frozen=True)
class AnalogOptions:
    one_eighth_factor: bool = True  # keep the 1/2^3 prefactor in K_m and K_mi
    aux_mode: str = "aK2"

    def __post_init__(self):
        check_fields(self)
        if self.aux_mode not in AUX_MODES:
            raise ValueError(f"aux_mode must be one of {AUX_MODES}, got {self.aux_mode!r}")


@dataclass(frozen=True)
class MemOptions:
    clamp_v: bool = True  # keep v in [-1, 1]; False is the unconstrained-voltage variant
    alpha: float = 5.0
    beta: float = 20.0
    gamma: float = 0.25
    delta: float = 0.05
    epsilon: float = 0.001
    zeta: float = 0.01

    def __post_init__(self):
        check_fields(self)


def resolve_options(solver: str, options: AnalogOptions | MemOptions | None = None):
    """The options object of one solver: options, or the solver's defaults for
    None; an unknown solver or the other solver's options raise ValueError."""
    if solver not in (ANALOG, MEM):  # by equality, so an unhashable solver is unknown too
        raise ValueError(f"unknown solver {solver!r} (expected {ANALOG!r} or {MEM!r})")
    cls = AnalogOptions if solver == ANALOG else MemOptions
    if not isinstance(options, (cls, type(None))):
        raise ValueError(f"solver {solver!r} takes {cls.__name__}, got {type(options).__name__}")
    return cls() if options is None else options


@dataclass(frozen=True)
class AnalogState:
    s: np.ndarray  # (N,) spins in [-1, 1]
    a: np.ndarray  # (M,) positive clause weights


@dataclass(frozen=True)
class MemState:
    v: np.ndarray    # (N,) voltages in [-1, 1]
    x_s: np.ndarray  # (M,) short memory in [0, 1]
    x_l: np.ndarray  # (M,) long memory in [1, 1e4*M]


def _literal_factors(problem: Problem, s: np.ndarray) -> np.ndarray:
    """(M, 3) array of the per-literal factors 1 - c s."""
    return 1.0 - problem.sign * np.asarray(s, dtype=float)[problem.var_index]


def _products(f: np.ndarray, pref: float):
    """K_m and K_mi from the literal factors f (..., 3): division-free."""
    km = pref * (f[..., 0] * f[..., 1] * f[..., 2])
    kmi = np.empty_like(f)
    kmi[..., 0] = f[..., 1] * f[..., 2]
    kmi[..., 1] = f[..., 0] * f[..., 2]
    kmi[..., 2] = f[..., 0] * f[..., 1]
    kmi *= pref
    return km, kmi


def clause_products(problem: Problem, s, options: AnalogOptions = AnalogOptions()):
    """K_m and K_mi for all clauses: shapes (M,) and (M, 3).

    K_mi is formed from the other two literal factors (division-free).
    """
    return _products(_literal_factors(problem, s), 0.125 if options.one_eighth_factor else 1.0)


def energy(problem: Problem, state: AnalogState,
           options: AnalogOptions = AnalogOptions()) -> float:
    """Clause-weighted energy V(s, a) = sum_m a_m K_m(s)^2 (>= 0)."""
    km, _ = clause_products(problem, state.s, options)
    return float(np.dot(np.asarray(state.a, dtype=float), km * km))


def clause_values(problem: Problem, v) -> np.ndarray:
    """C_m for all clauses: half the minimum literal slack, in [0, 1]."""
    t = _literal_factors(problem, v)
    return 0.5 * t.min(axis=1)


def mem_clause_quantities(problem: Problem, v):
    """Per-clause quantities of the memcomputing dynamics.

    Returns (C, G, R): C is (M,), G and R are (M, 3) aligned with the
    clause literal slots.  R is assigned to every literal whose slack term
    equals the clause minimum, so exact ties all receive the rigidity
    contribution.
    """
    v = np.asarray(v, dtype=float)
    t = _literal_factors(problem, v)          # (M, 3), t = 1 - q v
    tmin = t.min(axis=1)
    c = 0.5 * tmin
    other_min = np.empty_like(t)
    other_min[:, 0] = np.minimum(t[:, 1], t[:, 2])
    other_min[:, 1] = np.minimum(t[:, 0], t[:, 2])
    other_min[:, 2] = np.minimum(t[:, 0], t[:, 1])
    g = 0.5 * problem.sign * other_min
    at_min = t == tmin[:, None]
    r = np.where(at_min, 0.5 * (problem.sign - v[problem.var_index]), 0.0)
    return c, g, r


class System(NamedTuple):
    """One solver's dynamics over its flat state vector."""

    rhs: Callable[[float, np.ndarray], np.ndarray]  # rhs(t, y) -> dy, boundary-masked
    lo: np.ndarray                  # per-component lower bound, -inf if unbounded
    hi: np.ndarray                  # per-component upper bound, +inf if unbounded
    columns: tuple[str, ...]        # component names, equal to the deck's node names
    error_columns: int | None = None  # the leading columns the step error reads; None: all


def _blocks(problem: Problem, solver: str, options: AnalogOptions | MemOptions | None = None):
    """Each solver's flat state under its options (None for the defaults),
    block by block: (name, size, lo, hi, start).  Spins and clamped
    voltages lie in [-1, 1], x_s in [0, 1], x_l in [1, 1e4*M]; the weights
    and unclamped voltages are unbounded.  A start of None draws U[-1, 1];
    a number is every component's start, and the deck's capacitor cards
    write it as given (1, 0.5, 1.0)."""
    options = resolve_options(solver, options)
    n, m = problem.num_vars, problem.num_clauses
    if solver == ANALOG:
        return (("s", n, -1.0, 1.0, None), ("a", m, -np.inf, np.inf, 1))
    v_bound = 1.0 if options.clamp_v else np.inf
    return (("v", n, -v_bound, v_bound, None), ("xs", m, 0.0, 1.0, 0.5),
            ("xl", m, 1.0, 1e4 * m, 1.0))


def initial_state(problem: Problem, solver: str, seed: int) -> np.ndarray:
    """The seeded flat start of one solver: U[-1, 1]^N from a PCG64 stream
    for the spins or voltages, then the constant blocks of _blocks()."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.concatenate([rng.uniform(-1.0, 1.0, size) if start is None
                           else np.full(size, float(start))
                           for _, size, _, _, start in _blocks(problem, solver)])


def make_batch_system(problems: Sequence[Problem], solver: str,
                      solver_options: AnalogOptions | MemOptions | None = None) -> System:
    """The dynamics of one solver under its options (None for the defaults,
    see resolve_options) on B problems of equal N and M: rhs(t, y)
    maps the (B, D) stack of their flat states, row b for problems[b], to
    its (B, D) derivatives; the bounds and component names are those every
    row shares.  The dynamics are autonomous, so t is ignored.

    The analog state is y = (s, a), the memcomputing state (v, x_s, x_l).
    rhs zeroes every derivative that would push a component at its bound
    outward; inward pushes at the bound pass unchanged.  Row b reads only
    its own components, through literal indices offset by b*D into the
    flat rows, and its spin or voltage derivatives are one bincount over
    bins offset by b*N, fed clause-major as for one problem alone; so each
    row equals the RHS of its problem evaluated by itself, bit for bit.
    """
    n, m = problems[0].num_vars, problems[0].num_clauses
    if any((p.num_vars, p.num_clauses) != (n, m) for p in problems[1:]):
        raise ValueError("a batch needs problems of equal N and M")
    b = len(problems)
    options = resolve_options(solver, solver_options)
    names, sizes, lows, highs, _ = zip(*_blocks(problems[0], solver, options))
    lo, hi = np.repeat(lows, sizes), np.repeat(highs, sizes)
    columns = tuple(f"{name}{k}" for name, size in zip(names, sizes) for k in range(1, size + 1))
    # clauses of all rows in one (B*M, 3) run, clause-major
    var = np.concatenate([p.var_index for p in problems])
    sign = np.concatenate([p.sign for p in problems])
    row = np.repeat(np.arange(b), m)[:, None]
    gather = var + row * lo.size                # into the flat (B*D) rows
    bins = (var + row * n).ravel()              # into the flat (B*N) bins
    lo_rows, hi_rows = np.concatenate([lo] * b), np.concatenate([hi] * b)

    if solver == ANALOG:
        growth = _AUX_GROWTH[options.aux_mode]
        pref = 0.125 if options.one_eighth_factor else 1.0

        def derivatives(y):
            a = y[:, n:].reshape(-1)
            km, kmi = _products(1.0 - sign * y.reshape(-1)[gather], pref)
            contrib = (2.0 * a * km)[:, None] * sign * kmi
            dv = np.bincount(bins, weights=contrib.ravel(), minlength=b * n)
            return np.concatenate((dv.reshape(b, n), growth(a, km).reshape(b, m)), axis=1)
    else:
        p = options
        # mem_clause_quantities fused into few NumPy calls, with the same
        # floating-point results.  Slot-major (3, B*M) copies make row j the
        # j-th literal of every clause, so each per-slot step is one
        # contiguous call.
        gather3 = np.ascontiguousarray(gather.T)
        sign3 = np.ascontiguousarray(sign.T)
        half_sign3 = 0.5 * sign3

        def derivatives(y):
            x_s, x_l = y[:, n:n + m].reshape(-1), y[:, n + m:].reshape(-1)
            t = 1.0 - sign3 * y.reshape(-1)[gather3]
            other_min = np.empty_like(t)
            np.minimum(t[1], t[2], out=other_min[0])
            np.minimum(t[0], t[2], out=other_min[1])
            np.minimum(t[0], t[1], out=other_min[2])
            tmin = np.minimum(t[0], other_min[0])
            c = 0.5 * tmin
            g = half_sign3 * other_min
            g *= x_l * x_s
            # R = 0.5 (q - v) = (0.5 q) t for q = +-1, exactly up to the sign
            # of a zero, which the sum below drops
            r = np.where(t == tmin, half_sign3 * t, 0.0)
            r *= (1.0 + p.zeta * x_l) * (1.0 - x_s)
            contrib = np.empty((b * m, 3))  # clause-major: bincount's summation order
            np.add(g, r, out=contrib.T)
            dv = np.bincount(bins, weights=contrib.ravel(), minlength=b * n)
            return np.concatenate((dv.reshape(b, n),
                                   (p.beta * (x_s + p.epsilon) * (c - p.gamma)).reshape(b, m),
                                   (p.alpha * (c - p.delta)).reshape(b, m)), axis=1)

    def rhs(t, y):
        d = derivatives(y)
        flat_y, flat_d = y.reshape(-1), d.reshape(-1)
        np.copyto(flat_d, 0.0, where=((flat_y >= hi_rows) & (flat_d > 0))
                  | ((flat_y <= lo_rows) & (flat_d < 0)))
        return d

    return System(rhs, lo, hi, columns)


def make_system(problem: Problem, solver: str,
                solver_options: AnalogOptions | MemOptions | None = None) -> System:
    """The flat-vector dynamics of one solver on one problem: the RHS, the
    bounds that its mask, the integrator's projection and the deck's
    source masks all read, and the component names.  The RHS is the batch
    kernel of make_batch_system on a batch of one."""
    system = make_batch_system([problem], solver, solver_options)
    return system._replace(rhs=lambda t, y: system.rhs(t, np.asarray(y)[None])[0])


def analog_rhs(problem: Problem, state: AnalogState,
               options: AnalogOptions = AnalogOptions()):
    """Time derivatives (ds, da) of the analog SAT system, with the spin
    derivatives boundary-masked at s = +-1."""
    y = np.concatenate((state.s, state.a), dtype=float)
    d = make_system(problem, ANALOG, options).rhs(0.0, y)
    return d[:problem.num_vars], d[problem.num_vars:]


def mem_rhs(problem: Problem, state: MemState, options: MemOptions = MemOptions()):
    """Time derivatives (dv, dx_s, dx_l) of the memcomputing system.

    Boundary masks are applied to x_s and x_l always, and to v unless
    options.clamp_v is False (the unconstrained-voltage variant).
    """
    y = np.concatenate((state.v, state.x_s, state.x_l), dtype=float)
    d = make_system(problem, MEM, options).rhs(0.0, y)
    n, m = problem.num_vars, problem.num_clauses
    return d[:n], d[n:n + m], d[n + m:]


def readout(values) -> Assignment:
    """Digitize a continuous vector: TRUE iff strictly positive (0 -> FALSE)."""
    return np.asarray(values, dtype=float) > 0.0


def control_signals(problem: Problem, v) -> tuple[float, int]:
    """The two solver-progress signals.

    contra sums the clause functions C_m over all clauses (continuous);
    contrd counts clauses unsatisfied by the sign readout of v (integer).
    """
    contra = float(clause_values(problem, v).sum())
    contrd = count_unsatisfied(problem, readout(v))
    return contra, contrd
