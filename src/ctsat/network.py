"""Networks of solver instances coupled through shared variables.

Nodes advance together from stop to stop: the sample points and the
transitions of the square-wave drives.  At every sample each input fed by
a partner node is overwritten with the partner's current output and holds
it until the next sample (a one-sample delay, which resolves cyclic wirings
deterministically); input derivatives are forced to zero.
simulate_network() validates the wiring and hands the nodes to the
integration loop of integrate.py, the same loop that runs run() and the
harness's batched cells: nodes of one solver, options, N and M
share a batch, and the nodes wait for each other at every stop.  A
network without inter-node edges therefore reproduces independent runs
exactly.

A driven input is overwritten with its drive's value at every stop.
Drives are piecewise constant, value(t) is the level held until the next
transition, and steps never straddle a transition, so a driven variable
tracks its source exactly.  Every drive must feed an input: a drive's
transitions are stops for the whole network, so an unwired one would
still change the trajectories.

Per-node outcomes: the network counts as solved when every node's contrd is
simultaneously 0 and stays so for the confirmation window; per-node records
then carry the node's own entry time into that window and its own readout.
An analog node whose spins converge to zero stops the network: that node
reports converged_to_zero, the others timeout (or solved, if the network
had already solved jointly).  The first aborting node stops the network,
and every record's abort_message is its message prefixed "node <i>: ".
stats["wall_time"] is a node's share of its batch's step attempts while it
was not waiting, plus its own recording time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence, Union

from .cnf import Problem, _integers, check_fields, read_dimacs, require_integer, require_pins
from .dynamics import AnalogOptions, MemOptions, resolve_options
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
        check_fields(self)
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

    input_vars / output_vars are 1-based variable indices checked by
    cnf.require_pins, as SubcircuitSpec pins are: a bool or float, an index
    given twice or one outside 1..N raises ValueError.  Input variables are
    pinned by the wiring, outputs are readable by other nodes.
    solver_options is the solver's options object, its defaults for None.
    """

    problem: Problem
    solver: str = MEM
    input_vars: tuple[int, ...] = ()
    output_vars: tuple[int, ...] = ()
    solver_options: AnalogOptions | MemOptions | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "solver_options",
                           resolve_options(self.solver, self.solver_options))
        inputs, outputs = require_pins(self.input_vars, self.output_vars, "variable index",
                                       self.problem.num_vars)
        object.__setattr__(self, "input_vars", inputs)
        object.__setattr__(self, "output_vars", outputs)


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


def _validate(nodes: Sequence[SolverNode], wiring: Wiring, seeds: Sequence[int]):
    if not nodes or len(seeds) != len(nodes):
        raise ValueError("need at least one node and exactly one seed per node")
    fed: dict[tuple[int, int], Source] = {}
    for source, target in wiring.edges:
        edge = f"edge {source} -> {target}"
        what = f"index in {edge}"  # a float or bool is no index
        if len(target) != 2:
            raise ValueError(f"{edge}: a target has 2 fields, got {len(target)}")
        t_node, t_var = target = tuple(require_integer(i, what) for i in target)
        if not 0 <= t_node < len(nodes):
            raise ValueError(f"edge targets unknown node {t_node}")
        if t_var not in nodes[t_node].input_vars:
            raise ValueError(f"edge targets non-input variable {t_var} of node {t_node}")
        if target in fed:
            raise ValueError(f"input {target} fed by more than one source")
        kind = source[0] if source else None
        if kind not in ("drive", "node"):
            raise ValueError(f"unknown source kind {kind!r}")
        size = 2 if kind == "drive" else 3
        if len(source) != size:
            raise ValueError(f"{edge}: a {kind} source has {size} fields, got {len(source)}")
        source = (kind, *(require_integer(i, what) for i in source[1:]))
        if source[0] == "drive":
            if not 0 <= source[1] < len(wiring.drives):
                raise ValueError(f"edge references unknown drive {source[1]}")
        else:
            s_node, s_var = source[1], source[2]
            if not 0 <= s_node < len(nodes):
                raise ValueError(f"edge sources unknown node {s_node}")
            if s_var not in nodes[s_node].output_vars:
                raise ValueError(f"edge sources non-output variable {s_var} of node {s_node}")
        fed[target] = source
    for i, node in enumerate(nodes):
        for var in node.input_vars:
            if (i, var) not in fed:
                raise ValueError(f"input variable {var} of node {i} is unwired")
    used = {source[1] for source in fed.values() if source[0] == "drive"}
    for k in range(len(wiring.drives)):
        if k not in used:
            raise ValueError(f"drive {k} feeds no input")
    return fed


def simulate_network(nodes: Sequence[SolverNode], wiring: Wiring,
                     config: IntegratorConfig = IntegratorConfig(),
                     seeds: Sequence[int] = (), *,
                     stop_on_solve: bool = True) -> list[RunRecord]:
    """Advance all nodes on a common clock and return per-node records.

    seeds gives one initial-condition seed per node.  With
    stop_on_solve=False the network integrates the full t_ev even after a
    joint solve (useful for drive-response studies); it must be a bool.
    """
    if not isinstance(stop_on_solve, bool):
        raise ValueError(f"stop_on_solve must be a bool, got {stop_on_solve!r}")
    nodes = list(nodes)
    fed = _validate(nodes, wiring, seeds)
    runs = [_Member(node.problem, node.solver, seed, config, node.solver_options)
            for node, seed in zip(nodes, seeds)]
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
_NODE_KEYS = {"cnf", "solver", "inputs", "outputs", "label", "seed", "solver_options"}
_DRIVE_KEYS = {"kind"} | {f.name for f in fields(SquareWave)}
_EDGE_KEYS = {"from", "to"}


def _check_keys(spec, allowed: set, where: str):
    """spec must be a JSON object whose keys are all allowed."""
    if type(spec) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {spec!r}")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _typed(spec: dict, key: str, kind: type, default, where: str):
    """spec[key] or default (None: the key is required), which must be a JSON
    integer (kind int; true and 2.7 are not), boolean (bool; "false" is
    not), string (str), array (list) or object (dict)."""
    if default is None and key not in spec:
        raise ValueError(f"missing key {key!r} in {where}")
    value = spec.get(key, default)
    if type(value) is not kind:
        noun = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}[kind]
        raise ValueError(f"{key!r} in {where} must be a JSON {noun}, got {value!r}")
    return value


def load_network_config(path) -> tuple[list[SolverNode], Wiring, IntegratorConfig,
                                       list[int], bool]:
    """Parse the JSON network description (see README for the schema).

    Returns (nodes, wiring, config, seeds, stop_on_solve).  CNF paths are
    resolved relative to the config file, and a node's solver_options are
    read as its solver's options class.  The file is read as UTF-8, whatever
    the locale.  A config that is not JSON, or a
    malformed node CNF, raises ValueError naming the file; unknown keys and
    drive kinds, and values of the wrong JSON type, raise ValueError naming the key.
    """
    path = Path(path)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ValueError(f"{path} is not JSON: {exc}") from None
    base = path.parent
    _check_keys(spec, _TOP_KEYS, "network config")
    config = IntegratorConfig(**{key: spec[key] for key in _CONFIG_KEYS if key in spec})

    seed = _typed(spec, "seed", int, 0, "network config")
    nodes = []
    seeds = []
    for i, node_spec in enumerate(_typed(spec, "nodes", list, None, "network config")):
        where = f"node {i}"
        _check_keys(node_spec, _NODE_KEYS, where)
        cnf = _typed(node_spec, "cnf", str, None, where)
        problem = read_dimacs(base / cnf)
        solver = _typed(node_spec, "solver", str, MEM, where)
        options = resolve_options(solver)
        values = _typed(node_spec, "solver_options", dict, {}, where)
        _check_keys(values, {f.name for f in fields(options)}, f"{where} solver_options")
        nodes.append(SolverNode(
            problem=problem,
            solver=solver,
            input_vars=_typed(node_spec, "inputs", list, [], where),
            output_vars=_typed(node_spec, "outputs", list, [], where),
            solver_options=replace(options, **values),
            label=_typed(node_spec, "label", str, cnf, where),
        ))
        seeds.append(_typed(node_spec, "seed", int, seed + i, where))

    drives = []
    for k, drive_spec in enumerate(_typed(spec, "drives", list, [], "network config")):
        _check_keys(drive_spec, _DRIVE_KEYS, f"drive {k}")
        kind = drive_spec.get("kind", "square")
        if kind != "square":
            raise ValueError(f"unknown kind {kind!r} of drive {k}")
        drives.append(SquareWave(**{key: value for key, value in drive_spec.items()
                                    if key != "kind"}))

    def parse_ref(edge: dict, key: str, where: str):
        """Parse drive:<k> into ("drive", k) and node:<i>:<var> into ("node", i, var),
        each index ASCII -?[0-9]+ as in DIMACS."""
        ref = _typed(edge, key, str, None, where)
        kind, *indices = ref.split(":")
        numbers = _integers(indices)
        if numbers is not None and len(numbers) == {"drive": 1, "node": 2}.get(kind):
            return (kind, *numbers)
        raise ValueError(f"bad signal reference {ref!r} in {where}")

    edges = []
    for k, edge in enumerate(_typed(spec, "edges", list, [], "network config")):
        _check_keys(edge, _EDGE_KEYS, f"edge {k}")
        source = parse_ref(edge, "from", f"edge {k}")
        target = parse_ref(edge, "to", f"edge {k}")
        if target[0] != "node":
            raise ValueError("edge targets must be node inputs")
        edges.append((source, (target[1], target[2])))
    wiring = Wiring(tuple(edges), tuple(drives))

    stop_on_solve = _typed(spec, "stop_on_solve", bool, True, "network config")
    return nodes, wiring, config, seeds, stop_on_solve
