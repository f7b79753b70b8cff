"""Networks of solver instances coupled through shared variables.

Nodes advance together from stop to stop: the sample points and the
transitions of the square-wave drives.  At every sample each input fed by
a partner node is overwritten with the partner's current output and holds
it until the next sample (a one-sample delay, which resolves cyclic wirings
deterministically); input derivatives are forced to zero.
simulate_network() validates the wiring and hands the nodes to the
integration loop of integrate.py, the same loop that runs run() and the
harness's batched cells: nodes of one solver, kernel options, N and M
share a batch, and the nodes wait for each other at every stop.  A
network without inter-node edges therefore reproduces independent runs
exactly.

A driven input is overwritten with its drive's value at every stop.
Drives are piecewise constant, value(t) is the level held until the next
transition, and steps never straddle a transition, so a driven variable
tracks its source exactly.

Per-node outcomes: the network counts as solved when every node's contrd
is simultaneously 0 and stays so for the confirmation window; per-node
records then carry the node's own entry time into that window and its
own readout.  An analog node whose spins converge to zero stops the
network: that node reports converged_to_zero, the others timeout (or
solved, if the network had already solved jointly).  stats["wall_time"]
is that node's share of its batch's step attempts while it was not
waiting, plus its own recording time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence, Union

from .cnf import Problem, parse_dimacs, require_finite
from .dynamics import AnalogOptions, MemOptions, MemParams
from .integrate import MEM, IntegratorConfig, RunRecord, _Group, _integrate, _Member

__all__ = [
    "SquareWave",
    "SolverNode",
    "Wiring",
    "simulate_network",
    "load_network_config",
]


@dataclass(frozen=True)
class SquareWave:
    """Periodic two-level drive.  The value at a transition instant is the
    new level: high on [phase, phase + duty*period), low until the period
    ends, repeating."""

    period: float
    duty: float = 0.5
    phase: float = 0.0
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.period <= 0 or not 0.0 < self.duty < 1.0:
            raise ValueError("need period > 0 and duty in (0, 1)")
        if not self.low < self.high:
            raise ValueError("need low < high")

    def value(self, t: float) -> float:
        """The level held from t until next_transition(t)."""
        return self._edge(t)[1]

    def next_transition(self, t: float) -> float:
        """The first transition strictly after t."""
        return self._edge(t)[0]

    def _edge(self, t: float) -> tuple[float, float]:
        """The first transition strictly after t and the level until it."""
        tau = (t - self.phase) % self.period
        base = t - tau
        if tau < self.duty * self.period:
            edge = base + self.duty * self.period
            # rounding in tau can put the edge on t itself; the next one follows
            return (edge, self.high) if edge > t else (base + self.period, self.low)
        edge = base + self.period
        return (edge, self.low) if edge > t else (edge + self.duty * self.period, self.high)


@dataclass(frozen=True)
class SolverNode:
    """One solver instance in a network.

    input_vars / output_vars are 1-based variable indices (disjoint sets);
    input variables are pinned by the wiring, outputs are readable by other
    nodes.
    """

    problem: Problem
    solver: str = MEM
    input_vars: tuple[int, ...] = ()
    output_vars: tuple[int, ...] = ()
    analog_options: AnalogOptions = AnalogOptions()
    mem_options: MemOptions = MemOptions()
    mem_params: MemParams = MemParams()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "input_vars", tuple(self.input_vars))
        object.__setattr__(self, "output_vars", tuple(self.output_vars))
        pins = (*self.input_vars, *self.output_vars)
        if len(set(pins)) != len(pins):
            raise ValueError("input and output variable sets must be disjoint")
        for i in pins:
            if not 1 <= i <= self.problem.num_vars:
                raise ValueError(f"variable index {i} out of range")


# A signal source is ("drive", drive_index) or ("node", node_index, var_index);
# an edge feeds a source into (node_index, input_var_index).  Variable
# indices are 1-based throughout.
Source = Union[tuple[str, int], tuple[str, int, int]]


@dataclass(frozen=True)
class Wiring:
    edges: tuple[tuple[Source, tuple[int, int]], ...] = ()
    drives: tuple[SquareWave, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((tuple(s), tuple(t)) for s, t in self.edges))
        object.__setattr__(self, "drives", tuple(self.drives))


def _validate(nodes: Sequence[SolverNode], wiring: Wiring):
    fed: dict[tuple[int, int], Source] = {}
    for source, target in wiring.edges:
        t_node, t_var = target
        if not 0 <= t_node < len(nodes):
            raise ValueError(f"edge targets unknown node {t_node}")
        if t_var not in nodes[t_node].input_vars:
            raise ValueError(f"edge targets non-input variable {t_var} of node {t_node}")
        if target in fed:
            raise ValueError(f"input {target} fed by more than one source")
        if source[0] == "drive":
            if not 0 <= source[1] < len(wiring.drives):
                raise ValueError(f"edge references unknown drive {source[1]}")
        elif source[0] == "node":
            s_node, s_var = source[1], source[2]
            if not 0 <= s_node < len(nodes):
                raise ValueError(f"edge sources unknown node {s_node}")
            if s_var not in nodes[s_node].output_vars:
                raise ValueError(f"edge sources non-output variable {s_var} of node {s_node}")
        else:
            raise ValueError(f"unknown source kind {source[0]!r}")
        fed[target] = source
    for i, node in enumerate(nodes):
        for var in node.input_vars:
            if (i, var) not in fed:
                raise ValueError(f"input variable {var} of node {i} is unwired")
    return fed


def simulate_network(nodes: Sequence[SolverNode], wiring: Wiring,
                     config: IntegratorConfig = IntegratorConfig(),
                     seeds: Sequence[int] = (), *,
                     stop_on_solve: bool = True) -> list[RunRecord]:
    """Advance all nodes on a common clock and return per-node records.

    seeds gives one initial-condition seed per node.  With
    stop_on_solve=False the network integrates the full t_ev even after a
    joint solve (useful for drive-response studies).
    """
    nodes = list(nodes)
    if not nodes or len(seeds) != len(nodes):
        raise ValueError("need at least one node and exactly one seed per node")
    fed = _validate(nodes, wiring)
    runs = [
        _Member(node.problem, node.solver, int(seed), config, node.analog_options,
                node.mem_options, node.mem_params, pins=node.input_vars)
        for node, seed in zip(nodes, seeds)
    ]
    group = _Group(runs, config, fed, wiring.drives, stop_on_solve)
    _integrate([group])
    for i, (node, record) in enumerate(zip(nodes, group.records)):
        record.options["network"] = {
            "inputs": list(node.input_vars),
            "outputs": list(node.output_vars),
            "joint_solve_time": group.joint_at,
        }
        record.instance = node.label or f"node{i}"
    return group.records


_CONFIG_KEYS = {f.name for f in fields(IntegratorConfig)}
_TOP_KEYS = _CONFIG_KEYS | {"seed", "stop_on_solve", "nodes", "edges", "drives"}
_NODE_KEYS = {"cnf", "solver", "inputs", "outputs", "mem_params", "mem_options",
              "analog_options", "label", "seed"}
_DRIVE_KEYS = {"kind"} | {f.name for f in fields(SquareWave)}
_EDGE_KEYS = {"from", "to"}


def _check_keys(spec: dict, allowed: set, where: str):
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _typed(spec: dict, key: str, kind: type, default, where: str):
    """spec[key] or default, which must be a JSON integer (kind int; true and
    2.7 are not) or boolean (kind bool; "false" is not)."""
    value = spec.get(key, default)
    if type(value) is not kind:
        noun = {int: "integer", bool: "boolean"}[kind]
        raise ValueError(f"{key!r} in {where} must be a JSON {noun}, got {value!r}")
    return value


def _required(spec: dict, key: str, where: str):
    if key not in spec:
        raise ValueError(f"missing key {key!r} in {where}")
    return spec[key]


def load_network_config(path) -> tuple[list[SolverNode], Wiring, IntegratorConfig,
                                       list[int], bool]:
    """Parse the JSON network description (see README for the schema).

    Returns (nodes, wiring, config, seeds, stop_on_solve).  CNF paths are
    resolved relative to the config file.  Unknown keys and drive kinds,
    seeds that are not JSON integers and a stop_on_solve that is not a
    JSON boolean raise ValueError.
    """
    path = Path(path)
    spec = json.loads(path.read_text())
    base = path.parent
    _check_keys(spec, _TOP_KEYS, "network config")
    config = IntegratorConfig(**{key: spec[key] for key in _CONFIG_KEYS if key in spec})

    seed = _typed(spec, "seed", int, 0, "network config")
    nodes = []
    seeds = []
    for i, node_spec in enumerate(_required(spec, "nodes", "network config")):
        _check_keys(node_spec, _NODE_KEYS, f"node {i}")
        cnf = _required(node_spec, "cnf", f"node {i}")
        problem = parse_dimacs((base / cnf).read_text())
        nodes.append(SolverNode(
            problem=problem,
            solver=node_spec.get("solver", MEM),
            input_vars=tuple(node_spec.get("inputs", ())),
            output_vars=tuple(node_spec.get("outputs", ())),
            analog_options=AnalogOptions(**node_spec.get("analog_options", {})),
            mem_options=MemOptions(**node_spec.get("mem_options", {})),
            mem_params=MemParams(**node_spec.get("mem_params", {})),
            label=node_spec.get("label", cnf),
        ))
        seeds.append(_typed(node_spec, "seed", int, seed + i, f"node {i}"))

    drives = []
    for k, drive_spec in enumerate(spec.get("drives", ())):
        _check_keys(drive_spec, _DRIVE_KEYS, f"drive {k}")
        kind = drive_spec.get("kind", "square")
        if kind != "square":
            raise ValueError(f"unknown kind {kind!r} of drive {k}")
        drives.append(SquareWave(**{key: value for key, value in drive_spec.items()
                                    if key != "kind"}))

    def parse_ref(edge: dict, key: str, where: str):
        """Parse drive:<k> into ("drive", k) and node:<i>:<var> into ("node", i, var)."""
        ref = _required(edge, key, where)
        kind, *indices = str(ref).split(":")
        try:
            if len(indices) == {"drive": 1, "node": 2}[kind]:
                return (kind, *map(int, indices))
        except (KeyError, ValueError):
            pass
        raise ValueError(f"bad signal reference {ref!r} in {where}")

    edges = []
    for k, edge in enumerate(spec.get("edges", ())):
        _check_keys(edge, _EDGE_KEYS, f"edge {k}")
        source = parse_ref(edge, "from", f"edge {k}")
        target = parse_ref(edge, "to", f"edge {k}")
        if target[0] != "node":
            raise ValueError("edge targets must be node inputs")
        edges.append((source, (target[1], target[2])))
    wiring = Wiring(tuple(edges), tuple(drives))

    stop_on_solve = _typed(spec, "stop_on_solve", bool, True, "network config")
    return nodes, wiring, config, seeds, stop_on_solve
