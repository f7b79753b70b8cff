"""Time-stepping of the solver dynamics from seeded initial conditions.

The default integrator is an embedded adaptive Runge-Kutta pair
(Bogacki-Shampine 3(2)) with mixed absolute/relative per-component error
control; a fixed-step forward Euler baseline is kept for comparison.
Accepted steps are followed by a projection onto the variable bounds to
absorb integrator overshoot (the right-hand sides already mask outward
derivatives at the boundaries).

One integration loop runs every run.  Runs of one solver on problems of
equal N and M form a batch whose states are the rows of one (B, D) array:
each loop iteration makes one step attempt for every running member, with
one batched RHS call per stage, while each member keeps its own time, step
size, accept/reject decision and sample grid.  run_batch() integrates a
harness cell this way, run() is a batch of one, and the nodes of a network
(see network.py) are batches of one that wait for each other at every
sample and drive transition; all share the initial state, the outcome
windows, the stats and the record.  A run ends at the first of:

* Solved: the digital control signal contrd is 0 and stays 0 for a
  confirmation window (t_solve is the entry into the window); a network
  needs every node solved at the same sample,
* ConvergedToZero (analog solver only): max_i |s_i| stays below eps_zero
  for a sustained window,
* Timeout: t reached t_ev.

Steps are aligned to the sampling grid, so recorded samples are exact
integrator states and the detector windows are evaluated on that grid.
Time is dimensionless ("circuit seconds": the 1 F capacitor convention
makes one SPICE second equal one integration time unit).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cnf import (
    Assignment,
    Problem,
    assignment_from_bits,
    assignment_to_bits,
    count_unsatisfied,
)
from .dynamics import (
    ANALOG,
    MEM,
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemParams,
    MemState,
    control_signals,
    make_batch_system,
    readout,
)

__all__ = [
    "ANALOG",
    "MEM",
    "SOLVED",
    "CONVERGED_TO_ZERO",
    "TIMEOUT",
    "IntegratorConfig",
    "RunRecord",
    "IntegrationAborted",
    "NonFiniteState",
    "StepSizeUnderflow",
    "init_analog",
    "init_mem",
    "run",
    "run_batch",
    "save_run",
    "load_run",
]

SOLVED = "solved"
CONVERGED_TO_ZERO = "converged_to_zero"
TIMEOUT = "timeout"


class IntegrationAborted(RuntimeError):
    """The integrator cannot continue; the run ends early as a timeout."""

    def __init__(self, message: str, t: float, err: float):
        super().__init__(message)
        self.t = t
        self.err = err


class StepSizeUnderflow(IntegrationAborted):
    """dt shrank to dt_min while the local error stayed above tolerance."""

    def __init__(self, t: float, err: float):
        super().__init__(f"step size underflow at t={t:.6g} (error ratio {err:.3g})", t, err)


class NonFiniteState(IntegrationAborted):
    """A step's error ratio (RK) or derivative (Euler) is NaN or infinite:
    some stage derivative or state is no longer finite."""

    def __init__(self, t: float, err: float):
        super().__init__(f"non-finite state at t={t:.6g} (error ratio {err})", t, err)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk23"            # "rk23" (adaptive embedded pair) or "euler"
    dt_init: float = 0.01
    dt_min: float = 1e-10
    dt_max: float = 1.0
    error_tol: float = 1e-4
    t_ev: float = 300.0
    sample_interval: float = 0.1
    eps_zero: float = 0.01          # convergence-to-zero threshold; 0 disables
    window_zero: float = 5.0        # sustain time for convergence-to-zero
    window_confirm: float = 1.0     # sustain time for contrd == 0

    def __post_init__(self):
        if self.method not in ("rk23", "euler"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.error_tol <= 0 or self.t_ev <= 0 or self.sample_interval <= 0:
            raise ValueError("error_tol, t_ev and sample_interval must be positive")


@dataclass
class RunRecord:
    """One integration run: outcome, sampled trajectory, bookkeeping."""

    solver: str
    seed: int
    outcome: str
    t_solve: Optional[float]
    t_detect: Optional[float]
    assignment: Optional[Assignment]
    times: np.ndarray
    states: np.ndarray              # (samples, state dim)
    contra: np.ndarray
    contrd: np.ndarray
    state_columns: tuple[str, ...]
    config: IntegratorConfig
    options: dict
    stats: dict
    instance: Optional[str] = None  # instance label/path, set by the harness
    readout_rule: str = "value > 0 -> TRUE, value == 0 -> FALSE"


def init_analog(problem: Problem, seed: int) -> AnalogState:
    """Seeded initial conditions: s ~ U[-1, 1]^N, a = 1^M (PCG64 stream)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s = rng.uniform(-1.0, 1.0, problem.num_vars)
    return AnalogState(s, np.ones(problem.num_clauses))


def init_mem(problem: Problem, seed: int) -> MemState:
    """Seeded initial conditions: v ~ U[-1, 1]^N, x_s = 0.5, x_l = 1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.uniform(-1.0, 1.0, problem.num_vars)
    m = problem.num_clauses
    return MemState(v, np.full(m, 0.5), np.ones(m))


def _sample_times(config: IntegratorConfig):
    """The sampling grid: multiples of sample_interval, ending exactly at t_ev."""
    times = [0.0]
    k = 1
    while True:
        t = k * config.sample_interval
        if t >= config.t_ev - 1e-12:
            times.append(config.t_ev)
            return times
        times.append(t)
        k += 1


class _OutcomeDetector:
    """Tracks one node's solved / converged-to-zero windows on the sample grid."""

    def __init__(self, problem: Problem, solver: str, config: IntegratorConfig):
        self.problem = problem
        self.solver = solver
        self.config = config
        self.solved_enter: Optional[float] = None
        self.solved_assignment: Optional[Assignment] = None
        self.zero_enter: Optional[float] = None

    def observe(self, t: float, y: np.ndarray, contrd: int) -> Optional[str]:
        """Updates both windows; returns the outcome whose window is complete
        (SOLVED before CONVERGED_TO_ZERO) or None."""
        cfg = self.config
        n = self.problem.num_vars
        if contrd == 0:
            if self.solved_enter is None:
                self.solved_enter = t
                self.solved_assignment = readout(y[:n]).copy()
        else:
            self.solved_enter = None
            self.solved_assignment = None
        if self.solver == ANALOG and cfg.eps_zero > 0:
            if float(np.max(np.abs(y[:n]))) < cfg.eps_zero:
                if self.zero_enter is None:
                    self.zero_enter = t
            else:
                self.zero_enter = None
        if self.solved_enter is not None and t - self.solved_enter >= cfg.window_confirm - 1e-9:
            return SOLVED
        if self.zero_enter is not None and t - self.zero_enter >= cfg.window_zero - 1e-9:
            return CONVERGED_TO_ZERO
        return None


class _Member:
    """One run, or one node of a network: its problem, solver, seed and
    options, its step state (time, next stop, proposed step size, the size
    of a step being retried, whether the first stage can be reused), its
    stats, detector and recorded samples.  Its state vector is a row of its
    batch's (B, D) array.

    pins are 1-based variable indices held fixed by the caller (network
    inputs); their derivatives are forced to zero.
    """

    def __init__(self, problem: Problem, solver: str, seed: int, config: IntegratorConfig,
                 analog_options: AnalogOptions, mem_options: MemOptions,
                 mem_params: MemParams, pins: tuple[int, ...] = ()):
        if solver == ANALOG:
            state0 = init_analog(problem, seed)
            self.y0 = np.concatenate((state0.s, state0.a))
            self.options = {"analog": asdict(analog_options)}
        else:
            state0 = init_mem(problem, seed)
            self.y0 = np.concatenate((state0.v, state0.x_s, state0.x_l))
            self.options = {"mem": asdict(mem_options), "params": asdict(mem_params)}
        self.problem = problem
        self.solver = solver
        self.seed = seed
        self.config = config
        self.kernel_options = (analog_options, mem_options, mem_params)
        self.pins = sorted(v - 1 for v in pins)
        self.detector = _OutcomeDetector(problem, solver, config)
        self.times, self.states, self.contra, self.contrd = [], [], [], []
        self.stats = {
            "n_accepted": 0,
            "n_rejected": 0,
            "n_rhs": 0,           # right-hand-side evaluations made
            "n_rhs_reused": 0,    # first stages taken from the last step's k4 (FSAL)
            "dt_smallest": np.inf,
            "dt_largest": 0.0,
        }
        self.wall = 0.0
        self.t = 0.0
        self.t_stop: Optional[float] = None   # None while waiting at a stop
        self.h = config.dt_init               # the next step's proposed size
        self.retry: Optional[float] = None    # the size of a rejected step's next attempt
        self.fresh_k1 = True                  # the next step evaluates its first stage
        self.key = b""                        # the state's bytes when it reached its stop
        self.aborted: Optional[IntegrationAborted] = None
        self.done = False
        self.group = self.batch = self.row = None

    @property
    def y(self) -> np.ndarray:
        return self.batch.y[self.row]

    def resume(self, t: float, t_stop: float):
        """Steps on from t toward t_stop.  FSAL: the RHS is autonomous, so
        the last step's k4 is the next step's k1 while the state is still
        the state it was evaluated at, bit for bit; the group may have
        written into it (network pins) since it stopped, so its bytes are
        compared, not its identity."""
        self.t, self.t_stop = t, t_stop
        if self.y.tobytes() != self.key:
            self.fresh_k1 = True

    def note_step(self, h: float):
        self.stats["n_accepted"] += 1
        if h < self.stats["dt_smallest"]:
            self.stats["dt_smallest"] = h
        if h > self.stats["dt_largest"]:
            self.stats["dt_largest"] = h

    def record(self, t: float) -> Optional[str]:
        start = time.perf_counter()
        y = self.y
        contra, contrd = control_signals(self.problem, y[:self.problem.num_vars])
        self.times.append(t)
        self.states.append(y.copy())
        self.contra.append(contra)
        self.contrd.append(contrd)
        hit = self.detector.observe(t, y, contrd)
        self.wall += time.perf_counter() - start
        return hit


class _Batch:
    """Members of one solver, options, N and M whose states are the rows of
    one (B, D) array, integrated by one batched RHS call per stage.

    attempt() makes one step attempt for every member: RK 3(2) stages on all
    rows at once, then each member's own accept/reject decision and step-size
    control in Python floats (NumPy's vectorised power is not bit-identical
    to Python's **), so every member steps exactly as it would alone.  Every
    accepted step is clipped onto the bounds [lo, hi].  stats["n_rhs"]
    counts the rows that needed their first stage evaluated and
    stats["n_rhs_reused"] the steps that reused the previous step's last
    stage (FSAL); each RK step takes one first stage plus three per attempt,
    so n_rhs + n_rhs_reused == n_accepted + 3 (n_accepted + n_rejected) for
    a run that is not aborted."""

    def __init__(self, members: list[_Member]):
        self.members = members
        self.config = members[0].config
        self.y = np.stack([m.y0 for m in members])
        self.k1 = np.empty_like(self.y)
        self._bind()

    def _bind(self):
        """Builds the kernel for the current members and numbers their rows."""
        first = self.members[0]
        system = make_batch_system([m.problem for m in self.members], first.solver,
                                   *first.kernel_options)
        self.lo, self.hi, self.columns = system.lo, system.hi, system.columns
        self.rhs = system.rhs
        width = self.y.shape[1]
        pinned = []  # flat indices into the (B, D) rows
        for row, member in enumerate(self.members):
            member.batch, member.row = self, row
            pinned += [row * width + i for i in member.pins]
        if pinned:
            pinned = np.array(pinned)

            def rhs(t, y):
                d = system.rhs(t, y)
                d.reshape(-1)[pinned] = 0.0
                return d
            self.rhs = rhs

    def prune(self) -> bool:
        """Drops the members whose run has ended; False when none is left."""
        keep = [row for row, m in enumerate(self.members) if not m.done]
        if len(keep) < len(self.members):
            self.members = [self.members[row] for row in keep]
            if keep:
                self.y, self.k1 = self.y[keep], self.k1[keep]
                self._bind()
        return bool(self.members)

    def attempt(self) -> list[_Member]:
        """One step attempt for every member; returns the members that
        reached their stop or aborted.  A member waiting at a network
        barrier is a batch of one, which then makes no attempt."""
        members = self.members
        if members[0].t_stop is None:
            return []
        start = time.perf_counter()
        if self.config.method == "euler":
            stopped = self._attempt_euler()
        else:
            stopped = self._attempt_rk23()
        for member in stopped:
            if member.t_stop is None:
                member.key = self.y[member.row].tobytes()
        share = (time.perf_counter() - start) / len(members)
        for member in members:
            member.wall += share
        return stopped

    def _attempt_euler(self):
        cfg = self.config
        hs = [min(cfg.dt_init, m.t_stop - m.t) for m in self.members]
        dy = self.rhs(0.0, self.y)
        finite = np.isfinite(dy).all(axis=1).tolist()
        self.y = np.clip(self.y + np.array(hs)[:, None] * dy, self.lo, self.hi)
        stopped = []
        for m, h, ok in zip(self.members, hs, finite):
            m.stats["n_rhs"] += 1
            if not ok:
                m.aborted = NonFiniteState(m.t, math.nan)  # Euler has no error ratio
                stopped.append(m)
                continue
            m.t += h
            m.note_step(h)
            if m.t >= m.t_stop - 1e-12:
                m.t_stop = None
                stopped.append(m)
        return stopped

    def _attempt_rk23(self):
        cfg = self.config
        tol = cfg.error_tol
        members, rhs, y = self.members, self.rhs, self.y
        hs, fresh = [], []
        for row, m in enumerate(members):
            h = m.retry
            if h is None:  # a new step
                h = min(m.h, cfg.dt_max, m.t_stop - m.t)
                if m.fresh_k1:
                    fresh.append(row)
                    m.stats["n_rhs"] += 1
                    m.fresh_k1 = False
                else:
                    m.stats["n_rhs_reused"] += 1
            hs.append(h)
        if len(fresh) == len(members):
            self.k1 = rhs(0.0, y)
        elif fresh:
            self.k1[fresh] = rhs(0.0, y)[fresh]
        k1 = self.k1
        # one row steps with its h as a scalar, which broadcasts faster
        h = hs[0] if len(hs) == 1 else np.array(hs)[:, None]
        k2 = rhs(0.0, y + (0.5 * h) * k1)
        k3 = rhs(0.0, y + (0.75 * h) * k2)
        y_new = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
        k4 = rhs(0.0, y_new)
        err_vec = h * ((-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * k4)
        e = err_vec / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        sum_sq = np.add.reduce(e * e, axis=1).tolist()
        accepted, stopped = [], []
        for row, m in enumerate(members):
            h = hs[row]
            err = math.sqrt(sum_sq[row] / e.shape[1])  # RMS, as np.mean computes it
            m.stats["n_rhs"] += 3
            if not math.isfinite(err):
                m.aborted = NonFiniteState(m.t, err)
                stopped.append(m)
            elif err > 1.0:
                m.stats["n_rejected"] += 1
                if h <= cfg.dt_min * (1 + 1e-12):
                    m.aborted = StepSizeUnderflow(m.t, err)
                    stopped.append(m)
                else:
                    m.retry = max(cfg.dt_min, h * max(0.2, 0.9 * err ** (-1.0 / 3.0)))
            else:
                m.retry = None
                m.t += h
                accepted.append(row)
                m.note_step(h)
                factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))
                m.h = min(cfg.dt_max, max(cfg.dt_min, h * factor))
                if m.t >= m.t_stop - 1e-12:
                    m.t_stop = None
                    stopped.append(m)
        if not accepted:
            return stopped
        y_clip = np.clip(y_new, self.lo, self.hi)
        reuse = []
        for row in accepted:
            # k4 is the next step's k1 unless the step was clipped
            if y_clip[row].tobytes() == y_new[row].tobytes():
                reuse.append(row)
            else:
                members[row].fresh_k1 = True
        if len(accepted) == len(members):
            self.y = y_clip
        else:
            y[accepted] = y_clip[accepted]
        if len(reuse) == len(members):
            self.k1 = k4
        elif reuse:
            k1[reuse] = k4[reuse]
        return stopped


class _Group:
    """Members that stop together at every sample point and drive cut: one
    run, or every node of a network.

    fed maps (member index, 1-based input variable) to its source,
    ("drive", k) or ("node", i, 1-based output variable); drives[k] has
    value(t) and next_transition(t).  Partner values are copied at every
    sample; drive values at every sample and drive transition, which also
    split the sample interval.  The group solves jointly at the first sample
    where every member's detector reports SOLVED; it stops there (with
    stop_on_solve), at the first sample where some member converges to
    zero, at t_ev, or when a member aborts.  finish() leaves the records in
    self.records.
    """

    def __init__(self, members: list[_Member], config: IntegratorConfig,
                 fed: Optional[dict] = None, drives=(), stop_on_solve: bool = True):
        fed = fed or {}
        self.members = members
        self.config = config
        self.from_nodes = [(target, source) for target, source in fed.items()
                           if source[0] == "node"]
        self.from_drives = [(target, source) for target, source in fed.items()
                            if source[0] == "drive"]
        self.drives = drives
        self.stop_on_solve = stop_on_solve
        self.grid = _sample_times(config)
        self.k = 0              # index of the last sample point
        self.stops: list[float] = []
        self.joint_at: Optional[float] = None
        self.joint: list = []
        self.zero: list[int] = []
        self.records: Optional[list[RunRecord]] = None
        for member in members:
            member.group = self

    def start(self):
        if self.sample(0.0):
            self.finish(None)
        else:
            self._plan_interval()
            self._pass_stops()

    def step(self):
        """Called when some member stopped: acts once all are at the stop."""
        aborted = next((m.aborted for m in self.members if m.aborted is not None), None)
        if aborted is not None:
            self.finish(aborted)
        elif all(m.t_stop is None for m in self.members):
            self._pass_stops()

    def _pin_drives(self, t):
        for (i, var), source in self.from_drives:
            self.members[i].y[var - 1] = self.drives[source[1]].value(t)

    def _plan_interval(self):
        """The stops from the last sample point to the next: the sample
        point itself, the drive transitions between, the next sample."""
        t_prev, t_next = self.grid[self.k], self.grid[self.k + 1]
        cuts = [t_prev]
        for drive in self.drives:
            t_cut = drive.next_transition(t_prev)
            while t_cut < t_next - 1e-12:
                cuts.append(t_cut)
                t_cut = drive.next_transition(t_cut)
        self.stops = sorted(set(cuts)) + [t_next]

    def _pass_stops(self):
        """Acts on the stops the members are at, up to the first one they
        must integrate to, and sends them there; or finishes."""
        while True:
            t = self.stops.pop(0)
            if not self.stops:  # the next sample point
                self.k += 1
                if self.sample(t) or self.k == len(self.grid) - 1:
                    self.finish(None)
                    return
                self._plan_interval()
                continue
            self._pin_drives(t)
            if t < self.stops[0] - 1e-12:
                for member in self.members:
                    member.resume(t, self.stops[0])
                return

    def sample(self, t) -> bool:
        """Pins and records every member; True when the group should stop."""
        members = self.members
        values = [members[source[1]].y[source[2] - 1] for _, source in self.from_nodes]
        for ((i, var), _), value in zip(self.from_nodes, values):
            members[i].y[var - 1] = value
        self._pin_drives(t)
        hits = [member.record(t) for member in members]
        if self.joint_at is None and all(hit == SOLVED for hit in hits):
            self.joint_at = t
            self.joint = [(m.detector.solved_enter, m.detector.solved_assignment)
                          for m in members]
        self.zero = [i for i, hit in enumerate(hits) if hit == CONVERGED_TO_ZERO]
        return bool(self.zero) or (self.joint_at is not None and self.stop_on_solve)

    def finish(self, aborted: Optional[IntegrationAborted]):
        records = []
        for i, m in enumerate(self.members):
            outcome, t_solve, t_detect, assignment = TIMEOUT, None, None, None
            if i in self.zero:
                outcome, t_detect = CONVERGED_TO_ZERO, m.times[-1]
            elif self.joint_at is not None:
                outcome, (t_solve, assignment) = SOLVED, self.joint[i]
                if count_unsatisfied(m.problem, assignment) != 0:
                    raise RuntimeError(
                        f"node {i}: readout at t={t_solve:g} does not satisfy the formula"
                    )
            stats = dict(m.stats)
            if stats["dt_smallest"] is np.inf:
                stats["dt_smallest"] = None
            stats["wall_time"] = m.wall
            stats["dt_underflow"] = isinstance(aborted, StepSizeUnderflow)
            if aborted is not None:
                stats["abort_message"] = str(aborted)
            records.append(RunRecord(
                solver=m.solver,
                seed=m.seed,
                outcome=outcome,
                t_solve=t_solve,
                t_detect=t_detect,
                assignment=assignment,
                times=np.asarray(m.times),
                states=np.asarray(m.states),
                contra=np.asarray(m.contra),
                contrd=np.asarray(m.contrd, dtype=int),
                state_columns=m.batch.columns,
                config=self.config,
                options=m.options,
                stats=stats,
            ))
            m.done = True
        self.records = records


def _integrate(batches: list[_Batch], groups: list[_Group]):
    """The one integration loop behind run(), run_batch() and simulate_network().

    Each iteration makes one step attempt for every running member of every
    batch; then each group whose members all reached their stop acts on it
    (pins, samples, outcome windows) and sends them on, or finishes, and
    finished members leave their batch.  The members of a run_batch() cell
    are groups of one, so none waits for another; the nodes of a network
    share one group, so they wait for each other at every stop.
    """
    for group in groups:
        group.start()
    batches = [batch for batch in batches if batch.prune()]
    while batches:
        stopped = []
        for batch in batches:
            stopped += batch.attempt()
        if stopped:  # a run ends only at a stop or an abort
            for group in dict.fromkeys(member.group for member in stopped):
                group.step()
            batches = [batch for batch in batches if batch.prune()]


def _simulate(nodes: list[_Member], config: IntegratorConfig, fed: Optional[dict] = None,
              drives=(), stop_on_solve: bool = True) -> tuple[list[RunRecord], Optional[float]]:
    """Integrates the nodes of a network, each a batch of one, as one group.
    Returns the per-node records and the joint solve time."""
    group = _Group(nodes, config, fed, drives, stop_on_solve)
    _integrate([_Batch([node]) for node in nodes], [group])
    return group.records, group.joint_at


def run_batch(problems: Sequence[Problem], solver: str, seeds: Sequence[int], *,
              config: IntegratorConfig = IntegratorConfig(),
              analog_options: AnalogOptions = AnalogOptions(),
              mem_options: MemOptions = MemOptions(),
              mem_params: MemParams = MemParams()) -> list[RunRecord]:
    """run() for every (problem, seed) pair, integrated as the rows of one
    (B, D) state: the problems share N and M.  Every member steps on its
    own and leaves the batch when its run ends, and its record equals
    run(problem, solver, seed=seed, ...) in every field but
    stats["wall_time"], which is its share of the batch's step time plus its
    own recording time."""
    if not problems or len(problems) != len(seeds):
        raise ValueError("need at least one problem and exactly one seed per problem")
    members = [_Member(problem, solver, int(seed), config, analog_options, mem_options,
                       mem_params) for problem, seed in zip(problems, seeds)]
    groups = [_Group([member], config) for member in members]
    _integrate([_Batch(members)], groups)
    return [group.records[0] for group in groups]


def run(problem: Problem, solver: str, *, seed: int = 0,
        config: IntegratorConfig = IntegratorConfig(),
        analog_options: AnalogOptions = AnalogOptions(),
        mem_options: MemOptions = MemOptions(),
        mem_params: MemParams = MemParams()) -> RunRecord:
    """Integrate one solver on one problem from seeded initial conditions:
    a batch of one.

    Deterministic: (problem, solver, options, config, seed) fully determine
    the returned record.  A step-size underflow or a non-finite state
    aborts the run; it is reported as a Timeout with stats["abort_message"]
    naming the cause (and stats["dt_underflow"] set for an underflow).
    """
    return run_batch([problem], solver, [seed], config=config, analog_options=analog_options,
                     mem_options=mem_options, mem_params=mem_params)[0]


# ---------------------------------------------------------------------------
# Persistence: <name>.json holds the metadata and outcome, <name>.npz the
# sampled trajectory as plain arrays (no pickled objects).

_TRAJECTORY = ("times", "contra", "contrd", "states")


def save_run(record: RunRecord, directory, name: str) -> tuple[Path, Path]:
    """Writes <name>.json and <name>.npz into directory; returns both paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{name}.json"
    npz_path = directory / f"{name}.npz"
    payload = {
        "solver": record.solver,
        "seed": record.seed,
        "instance": record.instance,
        "outcome": record.outcome,
        "t_solve": record.t_solve,
        "t_detect": record.t_detect,
        "assignment": (
            assignment_to_bits(record.assignment)
            if record.assignment is not None
            else None
        ),
        "readout_rule": record.readout_rule,
        "options": record.options,
        "config": asdict(record.config),
        "stats": record.stats,
        "samples": int(len(record.times)),
        "state_columns": list(record.state_columns),
        "trajectory": npz_path.name,
    }
    json_path.write_text(json.dumps(payload, indent=1) + "\n")
    np.savez(npz_path, **{key: getattr(record, key) for key in _TRAJECTORY})
    return json_path, npz_path


def load_run(json_path) -> dict:
    """Load a run written by save_run.

    Returns a plain dict: the JSON payload, 'state_columns' as a tuple,
    'assignment_array' for a solved run, and the 'times', 'contra',
    'contrd' and 'states' arrays.  A missing trajectory file raises
    FileNotFoundError; one holding object arrays raises ValueError (it is
    never unpickled)."""
    json_path = Path(json_path)
    payload = json.loads(json_path.read_text())
    if payload["assignment"] is not None:
        payload["assignment_array"] = assignment_from_bits(payload["assignment"])
    payload["state_columns"] = tuple(payload["state_columns"])
    with np.load(json_path.parent / payload["trajectory"]) as arrays:
        payload.update((key, arrays[key]) for key in _TRAJECTORY)
    return payload
