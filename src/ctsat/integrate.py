"""Time-stepping of the solver dynamics from seeded initial conditions.

The default integrator is an embedded adaptive Runge-Kutta pair
(Bogacki-Shampine 3(2)) with mixed absolute/relative per-component error
control; a fixed-step forward Euler baseline is kept for comparison.
Accepted steps are followed by a projection onto the variable bounds to
absorb integrator overshoot (the right-hand sides already mask outward
derivatives at the boundaries).

One sample-grid loop drives every integration.  A single run() is a
network (see network.py) of one node with no edges and no drives, so the
two share the initial state, the outcome windows, the stats and the
record.  The loop ends at the first of:

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
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .cnf import (
    Assignment,
    Problem,
    assignment_from_bits,
    assignment_to_bits,
    count_unsatisfied,
)
from .dynamics import (
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemParams,
    MemState,
    analog_rhs,
    control_signals,
    mem_rhs,
    readout,
    x_long_upper_bound,
)

__all__ = [
    "ANALOG",
    "MEM",
    "SOLVED",
    "CONVERGED_TO_ZERO",
    "TIMEOUT",
    "IntegratorConfig",
    "RunRecord",
    "StepSizeUnderflow",
    "init_analog",
    "init_mem",
    "run",
    "run_to_json_dict",
    "run_to_csv",
    "save_run",
    "load_run",
]

ANALOG = "analog"
MEM = "mem"

SOLVED = "solved"
CONVERGED_TO_ZERO = "converged_to_zero"
TIMEOUT = "timeout"


class StepSizeUnderflow(RuntimeError):
    """dt shrank to dt_min while the local error stayed above tolerance."""

    def __init__(self, t: float, err: float):
        super().__init__(f"step size underflow at t={t:.6g} (error ratio {err:.3g})")
        self.t = t
        self.err = err


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


def make_system(problem: Problem, solver: str,
                analog_options: AnalogOptions = AnalogOptions(),
                mem_options: MemOptions = MemOptions(),
                mem_params: MemParams = MemParams()):
    """Flat-vector view of one solver's dynamics.

    Returns (rhs, project, columns): rhs(t, y) -> dy with boundary masking
    already applied, project(y) clips a state in place onto the variable
    bounds, columns names the flat components (matching netlist nodes).
    """
    n, m = problem.num_vars, problem.num_clauses
    if solver == ANALOG:
        def rhs(t, y):
            ds, da = analog_rhs(problem, AnalogState(y[:n], y[n:]), analog_options)
            return np.concatenate((ds, da))

        def project(y):
            np.clip(y[:n], -1.0, 1.0, out=y[:n])
            return y

        columns = tuple(f"s{i}" for i in range(1, n + 1)) + tuple(
            f"a{j}" for j in range(1, m + 1)
        )
    elif solver == MEM:
        xl_max = x_long_upper_bound(problem)

        def rhs(t, y):
            dv, dxs, dxl = mem_rhs(
                problem, MemState(y[:n], y[n:n + m], y[n + m:]), mem_params, mem_options
            )
            return np.concatenate((dv, dxs, dxl))

        def project(y):
            if mem_options.clamp_v:
                np.clip(y[:n], -1.0, 1.0, out=y[:n])
            np.clip(y[n:n + m], 0.0, 1.0, out=y[n:n + m])
            np.clip(y[n + m:], 1.0, xl_max, out=y[n + m:])
            return y

        columns = (
            tuple(f"v{i}" for i in range(1, n + 1))
            + tuple(f"xs{j}" for j in range(1, m + 1))
            + tuple(f"xl{j}" for j in range(1, m + 1))
        )
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return rhs, project, columns


class SegmentIntegrator:
    """Advances a state between sample points, keeping its step size as
    persistent state so consecutive segments continue seamlessly."""

    def __init__(self, rhs: Callable, project: Callable, config: IntegratorConfig):
        self.rhs = rhs
        self.project = project
        self.config = config
        self.h = config.dt_init
        self.stats = {
            "n_accepted": 0,
            "n_rejected": 0,
            "n_rhs": 0,
            "dt_smallest": np.inf,
            "dt_largest": 0.0,
        }

    def advance(self, t0: float, y: np.ndarray, t1: float) -> np.ndarray:
        if self.config.method == "euler":
            return self._advance_euler(t0, y, t1)
        return self._advance_rk23(t0, y, t1)

    def _advance_euler(self, t0, y, t1):
        cfg = self.config
        t = t0
        while t < t1 - 1e-12:
            h = min(cfg.dt_init, t1 - t)
            dy = self.rhs(t, y)
            self.stats["n_rhs"] += 1
            y = self.project(y + h * dy)
            t += h
            self._note_step(h)
        return y

    def _advance_rk23(self, t0, y, t1):
        cfg = self.config
        rhs = self.rhs
        t = t0
        while t < t1 - 1e-12:
            h = min(self.h, cfg.dt_max, t1 - t)
            k1 = rhs(t, y)
            self.stats["n_rhs"] += 1
            while True:
                k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
                k3 = rhs(t + 0.75 * h, y + (0.75 * h) * k2)
                y_new = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
                k4 = rhs(t + h, y_new)
                self.stats["n_rhs"] += 3
                err_vec = h * (
                    (-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * k4
                )
                scale = cfg.error_tol + cfg.error_tol * np.maximum(np.abs(y), np.abs(y_new))
                err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
                if err <= 1.0:
                    break
                self.stats["n_rejected"] += 1
                if h <= cfg.dt_min * (1 + 1e-12):
                    raise StepSizeUnderflow(t, err)
                h = max(cfg.dt_min, h * max(0.2, 0.9 * err ** (-1.0 / 3.0)))
            t += h
            y = self.project(y_new)
            self._note_step(h)
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-1.0 / 3.0)))
            self.h = min(cfg.dt_max, max(cfg.dt_min, h * factor))
        return y

    def _note_step(self, h):
        self.stats["n_accepted"] += 1
        if h < self.stats["dt_smallest"]:
            self.stats["dt_smallest"] = h
        if h > self.stats["dt_largest"]:
            self.stats["dt_largest"] = h


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


class _NodeRun:
    """One node's state, integrator, detector and recorded samples.

    pins are 1-based variable indices held fixed by the caller (network
    inputs); their derivatives are forced to zero.  Without pins the bare
    RHS is used.
    """

    def __init__(self, problem: Problem, solver: str, seed: int, config: IntegratorConfig,
                 analog_options: AnalogOptions, mem_options: MemOptions,
                 mem_params: MemParams, pins: tuple[int, ...] = ()):
        rhs, project, self.columns = make_system(
            problem, solver, analog_options, mem_options, mem_params
        )
        if solver == ANALOG:
            state0 = init_analog(problem, seed)
            self.y = np.concatenate((state0.s, state0.a))
            self.options = {"analog": asdict(analog_options)}
        else:
            state0 = init_mem(problem, seed)
            self.y = np.concatenate((state0.v, state0.x_s, state0.x_l))
            self.options = {"mem": asdict(mem_options), "params": asdict(mem_params)}
        if pins:
            fixed = np.array(sorted(v - 1 for v in pins), dtype=int)
            bare_rhs = rhs

            def rhs(t, y):
                d = bare_rhs(t, y)
                d[fixed] = 0.0
                return d

        self.problem = problem
        self.solver = solver
        self.seed = seed
        self.integrator = SegmentIntegrator(rhs, project, config)
        self.detector = _OutcomeDetector(problem, solver, config)
        self.times, self.states, self.contra, self.contrd = [], [], [], []
        self.wall = 0.0

    def advance(self, t0: float, t1: float):
        start = time.perf_counter()
        try:
            self.y = self.integrator.advance(t0, self.y, t1)
        finally:
            self.wall += time.perf_counter() - start

    def record(self, t: float) -> Optional[str]:
        start = time.perf_counter()
        contra, contrd = control_signals(self.problem, self.y[:self.problem.num_vars])
        self.times.append(t)
        self.states.append(self.y.copy())
        self.contra.append(contra)
        self.contrd.append(contrd)
        hit = self.detector.observe(t, self.y, contrd)
        self.wall += time.perf_counter() - start
        return hit


def _simulate(nodes: list[_NodeRun], config: IntegratorConfig, fed: Optional[dict] = None,
              drives=(), stop_on_solve: bool = True) -> tuple[list[RunRecord], Optional[float]]:
    """The sample-grid driver behind run() and simulate_network().

    fed maps (node index, 1-based input variable) to its source,
    ("drive", k) or ("node", i, 1-based output variable); drives[k] has
    value(t) and next_transition(t).  Partner values are copied at every
    sample; drive values at every sample and drive transition, which also
    split the macro step.  The network solves jointly at the first sample
    where every node's detector reports SOLVED; the loop stops there (with
    stop_on_solve) or at the first sample where some node converges to
    zero.  Returns the per-node records and the joint solve time.
    """
    fed = fed or {}
    from_nodes = [(target, source) for target, source in fed.items() if source[0] == "node"]
    from_drives = [(target, source) for target, source in fed.items() if source[0] == "drive"]

    def pin_drives(t):
        for (i, var), source in from_drives:
            nodes[i].y[var - 1] = drives[source[1]].value(t)

    joint_at: Optional[float] = None
    joint: list = []
    zero: list[int] = []

    def sample(t) -> bool:
        """Pins and records every node; True when the loop should stop."""
        nonlocal joint_at, joint, zero
        values = [nodes[source[1]].y[source[2] - 1] for _, source in from_nodes]
        for ((i, var), _), value in zip(from_nodes, values):
            nodes[i].y[var - 1] = value
        pin_drives(t)
        hits = [node.record(t) for node in nodes]
        if joint_at is None and all(hit == SOLVED for hit in hits):
            joint_at = t
            joint = [(node.detector.solved_enter, node.detector.solved_assignment)
                     for node in nodes]
        zero = [i for i, hit in enumerate(hits) if hit == CONVERGED_TO_ZERO]
        return bool(zero) or (joint_at is not None and stop_on_solve)

    aborted = None
    if not sample(0.0):
        grid = _sample_times(config)
        for t_prev, t_next in zip(grid[:-1], grid[1:]):
            cuts = [t_prev]
            for drive in drives:
                t_cut = drive.next_transition(t_prev)
                while t_cut < t_next - 1e-12:
                    cuts.append(t_cut)
                    t_cut = drive.next_transition(t_cut)
            cuts = sorted(set(cuts)) + [t_next]
            try:
                for c_prev, c_next in zip(cuts[:-1], cuts[1:]):
                    pin_drives(c_prev)
                    for node in nodes:
                        node.advance(c_prev, c_next)
            except StepSizeUnderflow as exc:
                aborted = str(exc)
                break
            if sample(t_next):
                break

    records = []
    for i, node in enumerate(nodes):
        outcome, t_solve, t_detect, assignment = TIMEOUT, None, None, None
        if i in zero:
            outcome, t_detect = CONVERGED_TO_ZERO, node.times[-1]
        elif joint_at is not None:
            outcome, (t_solve, assignment) = SOLVED, joint[i]
            if count_unsatisfied(node.problem, assignment) != 0:
                raise RuntimeError(
                    f"node {i}: readout at t={t_solve:g} does not satisfy the formula"
                )
        stats = dict(node.integrator.stats)
        if stats["dt_smallest"] is np.inf:
            stats["dt_smallest"] = None
        stats["wall_time"] = node.wall
        stats["dt_underflow"] = aborted is not None
        if aborted:
            stats["abort_message"] = aborted
        records.append(RunRecord(
            solver=node.solver,
            seed=node.seed,
            outcome=outcome,
            t_solve=t_solve,
            t_detect=t_detect,
            assignment=assignment,
            times=np.asarray(node.times),
            states=np.asarray(node.states),
            contra=np.asarray(node.contra),
            contrd=np.asarray(node.contrd, dtype=int),
            state_columns=node.columns,
            config=config,
            options=node.options,
            stats=stats,
        ))
    return records, joint_at


def run(problem: Problem, solver: str, *, seed: int = 0,
        config: IntegratorConfig = IntegratorConfig(),
        analog_options: AnalogOptions = AnalogOptions(),
        mem_options: MemOptions = MemOptions(),
        mem_params: MemParams = MemParams()) -> RunRecord:
    """Integrate one solver on one problem from seeded initial conditions:
    a network of one node with no edges and no drives.

    Deterministic: (problem, solver, options, config, seed) fully determine
    the returned record.  A step-size underflow aborts the run; it is
    reported as a Timeout with stats["dt_underflow"] set.
    """
    node = _NodeRun(problem, solver, seed, config, analog_options, mem_options, mem_params)
    return _simulate([node], config)[0][0]


# ---------------------------------------------------------------------------
# Persistence: JSON for metadata/outcome, CSV for the sampled trajectory.

def run_to_json_dict(record: RunRecord) -> dict:
    return {
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
    }


def run_to_csv(record: RunRecord) -> str:
    header = "t,contra,contrd," + ",".join(record.state_columns)
    lines = [header]
    for i in range(len(record.times)):
        row = [repr(float(record.times[i])), repr(float(record.contra[i])),
               str(int(record.contrd[i]))]
        row.extend(repr(float(v)) for v in record.states[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def save_run(record: RunRecord, directory, name: str) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{name}.json"
    csv_path = directory / f"{name}.csv"
    payload = run_to_json_dict(record)
    payload["trajectory_csv"] = csv_path.name
    json_path.write_text(json.dumps(payload, indent=1) + "\n")
    csv_path.write_text(run_to_csv(record))
    return json_path, csv_path


def load_run(json_path) -> dict:
    """Load persisted run metadata (and the trajectory if its CSV exists).

    Returns a plain dict: the JSON payload plus, when available, 'times',
    'contra', 'contrd', 'states' and 'state_columns' arrays."""
    json_path = Path(json_path)
    payload = json.loads(json_path.read_text())
    if payload.get("assignment") is not None:
        payload["assignment_array"] = assignment_from_bits(payload["assignment"])
    csv_name = payload.get("trajectory_csv")
    if csv_name and (json_path.parent / csv_name).exists():
        rows = (json_path.parent / csv_name).read_text().strip().splitlines()
        columns = rows[0].split(",")
        data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
        payload["state_columns"] = tuple(columns[3:])
        payload["times"] = data[:, 0]
        payload["contra"] = data[:, 1]
        payload["contrd"] = data[:, 2].astype(int)
        payload["states"] = data[:, 3:]
    return payload
