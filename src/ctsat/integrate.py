"""Time-stepping of the solver dynamics from seeded initial conditions.

The default integrator is an embedded adaptive Runge-Kutta pair
(Bogacki-Shampine 3(2)) with mixed absolute/relative per-component error
control; a fixed-step forward Euler baseline is kept for comparison.
Accepted steps are followed by a projection onto the variable bounds to
absorb integrator overshoot (the right-hand sides already mask outward
derivatives at the boundaries).

One integration loop runs every run.  Runs of one solver and its
options on problems of equal N and M share a batch whose states are the
rows of one (B, D) array: each loop iteration makes one step attempt for
every running member, with one batched RHS call per stage, while each
member keeps its own time, step size, accept/reject decision and stops.  A
harness cell (run_batch), a run and the nodes of a network (network.py),
which wait for each other at every stop, all step this way and share the
initial state, the outcome windows, the stats and the record.
A run ends at the first of:

* Solved: the digital control signal contrd is 0 and stays 0 for a
  confirmation window (t_solve is the entry into the window); a network
  needs every node solved at the same sample,
* ConvergedToZero (analog solver only): max_i |s_i| stays below eps_zero
  for a sustained window,
* Timeout: t reached t_ev.

Steps end exactly on every stop (the sample points, the last one exactly
t_ev, and a network's drive transitions), so recorded samples are exact
integrator states; an interval between stops under 1e-12 is skipped.
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
    check_fields,
    count_unsatisfied,
    require_integer,
)
from .dynamics import (
    ANALOG,
    MEM,
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemState,
    control_signals,
    initial_state,
    make_batch_system,
    readout,
    resolve_options,
)

__all__ = [
    "ANALOG",
    "MEM",
    "METHODS",
    "SOLVED",
    "CONVERGED_TO_ZERO",
    "TIMEOUT",
    "IntegratorConfig",
    "RunRecord",
    "init_analog",
    "init_mem",
    "run",
    "run_batch",
    "save_run",
    "load_run",
]

METHODS = ("rk23", "euler")  # IntegratorConfig.method values, also ctsat's --method choices
SOLVED = "solved"
CONVERGED_TO_ZERO = "converged_to_zero"
TIMEOUT = "timeout"


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
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_fields(self)
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.error_tol <= 0 or self.t_ev <= 0 or self.sample_interval <= 0:
            raise ValueError("error_tol, t_ev and sample_interval must be positive")
        for name in ("eps_zero", "window_zero", "window_confirm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")


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
    """Seeded initial conditions: s ~ U[-1, 1]^N, a = 1^M (PCG64 stream),
    a view of dynamics.initial_state."""
    y = initial_state(problem, ANALOG, seed)
    return AnalogState(y[:problem.num_vars], y[problem.num_vars:])


def init_mem(problem: Problem, seed: int) -> MemState:
    """Seeded initial conditions: v ~ U[-1, 1]^N, x_s = 0.5, x_l = 1, a view
    of dynamics.initial_state."""
    y = initial_state(problem, MEM, seed)
    n, m = problem.num_vars, problem.num_clauses
    return MemState(y[:n], y[n:n + m], y[n + m:])


def _stops(config: IntegratorConfig, drives):
    """The stops of a group after t = 0, as (t, is_sample): the sample points
    k * sample_interval, the last one exactly t_ev, each preceded by the
    drive transitions chained from the sample point before it."""
    t, k = 0.0, 0
    while t < config.t_ev:
        k += 1
        t_next = k * config.sample_interval
        if t_next >= config.t_ev - 1e-12:
            t_next = config.t_ev
        cuts = set()
        for drive in drives:
            t_cut = drive.next_transition(t)
            while t_cut < t_next - 1e-12:
                cuts.add(t_cut)
                t_cut = drive.next_transition(t_cut)
        for t_cut in sorted(cuts):
            yield t_cut, False
        yield t_next, True
        t = t_next


class _Member:
    """One run, or one node of a network: its problem, solver, seed and
    options, its step state (time, next stop, proposed and retried step
    sizes, the bytes its last accepted step ended on), its stats, outcome
    windows and recorded samples.  Its state vector is a row of its batch's
    (B, D) array; its pins are the 0-based variables its group writes.  Its
    seed is a Python or NumPy integer; a bool, float or str is a ValueError.
    Its batch reads the solver only from system, its kernel factory, and start."""

    def __init__(self, problem: Problem, solver: str, seed: int, config: IntegratorConfig,
                 solver_options: AnalogOptions | MemOptions | None):
        self.solver_options = resolve_options(solver, solver_options)
        self.seed = require_integer(seed, "seed")
        self.problem = problem
        self.solver = solver
        self.config = config
        self.system, self.start = make_batch_system, initial_state(problem, solver, self.seed)
        self.pins: list[int] = []
        # the outcome windows: where contrd == 0 began and the readout there,
        # and where max |s_i| < eps_zero began (None while outside)
        self.solved_enter = self.solved_assignment = self.zero_enter = None
        self.times, self.states, self.contra, self.contrd = [], [], [], []
        self.stats = {
            "n_accepted": 0,
            "n_rejected": 0,
            "n_rhs": 0,           # right-hand-side evaluations made
            "n_rhs_reused": 0,    # first stages taken from the last step's k4 (FSAL)
            "dt_smallest": np.inf,
            "dt_largest": 0.0,
            "wall_time": 0.0,     # its share of its batch's step time plus its recording time
        }
        self.t = 0.0
        self.t_stop: Optional[float] = None   # None while waiting at a stop
        self.h = config.dt_init               # the next step's proposed size
        self.retry: Optional[float] = None    # the size of a rejected step's next attempt
        self.k4_at = b""                      # the last accepted y_new's bytes (FSAL)
        self.aborted: Optional[tuple[str, bool]] = None  # (message, is_underflow)
        self.group = self.batch = self.row = None

    @property
    def y(self) -> np.ndarray:
        return self.batch.y[self.row]

    def record(self, t: float) -> Optional[str]:
        """Records the sample at t and updates both outcome windows; returns
        the outcome whose window is complete (SOLVED before
        CONVERGED_TO_ZERO) or None."""
        start = time.perf_counter()
        cfg = self.config
        s = self.y[:self.problem.num_vars]
        contra, contrd = control_signals(self.problem, s)
        self.times.append(t)
        self.states.append(self.y.copy())
        self.contra.append(contra)
        self.contrd.append(contrd)
        if contrd != 0:
            self.solved_enter = self.solved_assignment = None
        elif self.solved_enter is None:
            self.solved_enter = t
            self.solved_assignment = readout(s)
        if self.solver == ANALOG and cfg.eps_zero > 0:
            if float(np.max(np.abs(s))) < cfg.eps_zero:
                if self.zero_enter is None:
                    self.zero_enter = t
            else:
                self.zero_enter = None
        hit = None
        if self.solved_enter is not None and t - self.solved_enter >= cfg.window_confirm - 1e-9:
            hit = SOLVED
        elif self.zero_enter is not None and t - self.zero_enter >= cfg.window_zero - 1e-9:
            hit = CONVERGED_TO_ZERO
        self.stats["wall_time"] += time.perf_counter() - start
        return hit


class _Batch:
    """Members of one kernel factory, solver, options, config, N and M whose
    states are the rows of one (B, D) array, stepped by one batched RHS call per stage.

    attempt() runs the method's stages on all rows at once, then each
    member's own accept/reject decision and step-size control in Python
    floats (NumPy's vectorised power is not bit-identical to Python's **),
    so every member steps exactly as it would alone.  A member waiting at
    its group's stop has h = 0: its row, first stage and stats stay
    untouched, as only accepted rows are clipped onto [lo, hi] and written.
    FSAL: the RHS is autonomous, so an accepted step's last stage k4, taken
    at y_new, is the next step's first stage while the row holds y_new bit
    for bit: each accepted step stores y_new's bytes, and a new step reuses
    k1 only when its row has them (a clip or a group's write that changes
    the row evaluates it afresh).  stats["n_rhs"] counts the rows that
    needed their first stage evaluated and stats["n_rhs_reused"] the steps
    that reused it; each RK step takes one first stage plus three per
    attempt, so n_rhs + n_rhs_reused == n_accepted + 3 (n_accepted +
    n_rejected) for a run that is not aborted."""

    def __init__(self, members: list[_Member]):
        self.members = members
        self.config = members[0].config
        self.y = np.stack([m.start for m in members])
        self.k1 = np.empty_like(self.y)
        self._bind()

    def _bind(self):
        """Builds the kernel for the current members and numbers their rows."""
        first = self.members[0]
        system = first.system([m.problem for m in self.members], first.solver,
                              first.solver_options)
        self.system, self.rhs = system, system.rhs
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
        keep = [row for row, m in enumerate(self.members) if m.group.records is None]
        if len(keep) < len(self.members):
            self.members = [self.members[row] for row in keep]
            if keep:
                self.y, self.k1 = self.y[keep], self.k1[keep]
                self._bind()
        return bool(self.members)

    def attempt(self) -> list[_Member]:
        """One step attempt for every running member; returns the members
        that reached their stop or aborted.  A batch whose members all wait
        makes no attempt."""
        running = [m for m in self.members if m.t_stop is not None]
        if not running:
            return []
        start = time.perf_counter()
        cfg = self.config
        hs, y_new, errs, last, calls = (self._euler if cfg.method == "euler" else self._rk23)()
        accepted = []
        for row, m in enumerate(self.members):
            if m.t_stop is None:
                continue
            h, err = hs[row], errs[row]
            m.stats["n_rhs"] += calls
            if not math.isfinite(err):
                # some stage derivative or state is no longer finite
                m.aborted = (f"non-finite state at t={m.t:.6g} (error ratio {err})", False)
                continue
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))
            if err > 1.0:
                m.stats["n_rejected"] += 1
                if h <= cfg.dt_min * (1 + 1e-12):
                    m.aborted = (f"step size underflow at t={m.t:.6g} "
                                 f"(error ratio {err:.3g})", True)
                else:
                    m.retry = max(cfg.dt_min, h * factor)
            else:
                m.retry = None
                m.k4_at = y_new[row].tobytes()
                m.t += h
                accepted.append(row)
                m.stats["n_accepted"] += 1
                m.stats["dt_smallest"] = min(m.stats["dt_smallest"], h)
                m.stats["dt_largest"] = max(m.stats["dt_largest"], h)
                m.h = min(cfg.dt_max, max(cfg.dt_min, h * factor))
                if m.t >= m.t_stop - 1e-12:
                    m.t_stop = None
        if accepted:
            if last is not None:
                self.k1[accepted] = last[accepted]
            self.y[accepted] = np.clip(y_new[accepted], self.system.lo, self.system.hi)
        share = (time.perf_counter() - start) / len(running)
        for member in running:
            member.stats["wall_time"] += share
        return [m for m in running if m.t_stop is None or m.aborted is not None]

    def _euler(self):
        """Forward Euler: (h per row, new rows, error ratios, no last stage,
        RHS calls per attempt); the error ratio is NaN where dy/dt is not finite."""
        hs = [0.0 if m.t_stop is None else min(self.config.dt_init, m.t_stop - m.t)
              for m in self.members]
        dy = self.rhs(0.0, self.y)
        errs = [0.0 if ok else math.nan for ok in np.isfinite(dy).all(axis=1).tolist()]
        return hs, self.y + np.array(hs)[:, None] * dy, errs, None, 1

    def _rk23(self):
        """Bogacki-Shampine 3(2): (h per row, new rows, RMS error ratios, the
        last stage k4, RHS calls per attempt); a new step evaluates or reuses k1."""
        cfg = self.config
        tol = cfg.error_tol
        rhs, y = self.rhs, self.y
        hs, fresh = [], []
        for row, m in enumerate(self.members):
            if m.t_stop is None:  # waiting at its group's stop
                hs.append(0.0)
                continue
            h = m.retry
            if h is None:  # a new step
                h = min(m.h, cfg.dt_max, m.t_stop - m.t)
                if y[row].tobytes() == m.k4_at:
                    m.stats["n_rhs_reused"] += 1
                else:
                    fresh.append(row)
                    m.stats["n_rhs"] += 1
            hs.append(h)
        if fresh:
            self.k1[fresh] = rhs(0.0, y)[fresh]
        k1, h = self.k1, np.array(hs)[:, None]
        k2 = rhs(0.0, y + (0.5 * h) * k1)
        k3 = rhs(0.0, y + (0.75 * h) * k2)
        y_new = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
        k4 = rhs(0.0, y_new)
        err_vec = h * ((-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * k4)
        e = err_vec / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
        e = e[:, slice(self.system.error_columns)]
        width = e.shape[1]  # RMS, as np.mean computes it
        errs = [math.sqrt(sum_sq / width) for sum_sq in np.add.reduce(e * e, axis=1).tolist()]
        return hs, y_new, errs, k4, 3


class _Group:
    """Members that stop together at every sample point and drive cut: one
    run, or every node of a network.  Its first advance() records t = 0.

    fed maps (member index, 1-based input variable) to its source,
    ("drive", k) or ("node", i, 1-based output variable); drives[k] has
    value(t) and next_transition(t); its keys are the members' pins, as a
    variable is pinned exactly when the group writes it.  Partner values
    are copied at every sample; drive values at every sample and drive
    transition, which also split the sample interval.  The group solves
    jointly at the first sample where every member reports SOLVED; it stops
    there (with stop_on_solve), at the first sample where some member
    converges to zero, at t_ev, or when a member aborts.  The records are
    then left in self.records.
    """

    def __init__(self, members: list[_Member], config: IntegratorConfig,
                 fed: Optional[dict] = None, drives=(), stop_on_solve: bool = True):
        fed = fed or {}
        self.members = members
        self.config = config
        self.from_nodes = [(target, source) for target, source in fed.items()
                           if source[0] == "node"]
        self.from_drives = [(target, drives[source[1]]) for target, source in fed.items()
                            if source[0] == "drive"]
        self.stop_on_solve = stop_on_solve
        self.stops = _stops(config, drives)
        self.stop: Optional[tuple[float, bool]] = (0.0, True)  # (t, is_sample) ahead
        self.joint_at: Optional[float] = None
        self.joint: list = []
        self.zero: list[int] = []
        self.records: Optional[list[RunRecord]] = None
        for member in members:
            member.group = self
        for i, var in fed:
            members[i].pins.append(var - 1)

    def advance(self):
        """Acts once every member is at the stop, or one aborted: pins the
        drives there and samples at a sample point, passes on over intervals
        shorter than 1e-12, and sends the members on to the next stop; or
        finishes.  Drive and partner inputs are distinct variables, so the
        order of the two writes does not matter."""
        if any(m.aborted is not None for m in self.members):
            self.finish()
            return
        if any(m.t_stop is not None for m in self.members):
            return
        t, is_sample = self.stop
        while True:
            for (i, var), drive in self.from_drives:
                self.members[i].y[var - 1] = drive.value(t)
            if is_sample and self.sample(t):
                break
            self.stop = next(self.stops, None)
            if self.stop is None:
                break
            if t < self.stop[0] - 1e-12:
                for member in self.members:
                    member.t, member.t_stop = t, self.stop[0]
                return
            t, is_sample = self.stop
        self.finish()

    def sample(self, t) -> bool:
        """Copies the partners' outputs into the inputs they feed and records
        every member; True when the group should stop.  A node's inputs and
        outputs are disjoint, so no variable written here is read as a source."""
        members = self.members
        for (i, var), (_, j, out) in self.from_nodes:
            members[i].y[var - 1] = members[j].y[out - 1]
        hits = [member.record(t) for member in members]
        if self.joint_at is None and all(hit == SOLVED for hit in hits):
            self.joint_at = t
            self.joint = [(m.solved_enter, m.solved_assignment) for m in members]
        self.zero = [i for i, hit in enumerate(hits) if hit == CONVERGED_TO_ZERO]
        return bool(self.zero) or (self.joint_at is not None and self.stop_on_solve)

    def finish(self):
        """Leaves one record per member in self.records, each with the first
        aborted member's message, prefixed "node <i>: " in a larger group."""
        aborted = [(i, m.aborted) for i, m in enumerate(self.members) if m.aborted is not None]
        abort = {"dt_underflow": False}
        if aborted:
            i, (message, abort["dt_underflow"]) = aborted[0]
            abort["abort_message"] = (f"node {i}: " if len(self.members) > 1 else "") + message
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
            stats.update(abort)
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
                state_columns=m.batch.system.columns,
                config=self.config,
                options={m.solver: asdict(m.solver_options)},
                stats=stats,
            ))
        self.records = records


def _integrate(groups: list[_Group]):
    """The one integration loop behind run(), run_batch() and simulate_network().

    The members of one kernel factory, solver, options, config, N and M
    share a batch, whatever their group.  Each group then records t = 0, and each
    iteration makes one step attempt for every running member of every
    batch; each group whose members all reached their stop acts on it
    (pins, samples, outcome windows) and sends them on, or finishes, and
    finished members leave their batch.  The members of a run_batch() cell
    are groups of one, so none waits for another; the nodes of a network
    share one group, so they wait for each other at every stop.
    """
    shapes: dict = {}
    for group in groups:
        for m in group.members:
            key = (m.system, m.solver, m.solver_options, m.config,
                   m.problem.num_vars, m.problem.num_clauses)
            shapes.setdefault(key, []).append(m)
    batches = [_Batch(members) for members in shapes.values()]
    for group in groups:
        group.advance()
    batches = [batch for batch in batches if batch.prune()]
    while batches:
        stopped = []
        for batch in batches:
            stopped += batch.attempt()
        if stopped:  # a run ends only at a stop or an abort
            for group in dict.fromkeys(member.group for member in stopped):
                group.advance()
            batches = [batch for batch in batches if batch.prune()]


def run_batch(problems: Sequence[Problem], solver: str, seeds: Sequence[int], *,
              config: IntegratorConfig = IntegratorConfig(),
              solver_options: AnalogOptions | MemOptions | None = None) -> list[RunRecord]:
    """run() for every (problem, seed) pair, integrated as the rows of one
    (B, D) state per shape: problems of equal N and M share a batch, and
    problems of mixed sizes form one batch per shape.  Every member steps
    on its own and leaves its batch when its run ends, and its record
    equals run(problem, solver, seed=seed, ...) in every field but
    stats["wall_time"], which is its share of its batch's step time plus
    its own recording time."""
    if not problems or len(problems) != len(seeds):
        raise ValueError("need at least one problem and exactly one seed per problem")
    groups = [_Group([_Member(problem, solver, seed, config, solver_options)], config)
              for problem, seed in zip(problems, seeds)]
    _integrate(groups)
    return [group.records[0] for group in groups]


def run(problem: Problem, solver: str, *, seed: int = 0,
        config: IntegratorConfig = IntegratorConfig(),
        solver_options: AnalogOptions | MemOptions | None = None) -> RunRecord:
    """Integrate one solver on one problem from seeded initial conditions:
    a batch of one.

    Deterministic: (problem, solver, options, config, seed) fully determine
    the returned record.  A step-size underflow or a non-finite state
    aborts the run; it is reported as a Timeout with stats["abort_message"]
    naming the cause (and stats["dt_underflow"] set for an underflow).
    """
    return run_batch([problem], solver, [seed], config=config, solver_options=solver_options)[0]


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
