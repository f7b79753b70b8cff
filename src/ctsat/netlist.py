"""LTspice-compatible netlist emission for both solvers.

Every dynamical variable becomes the voltage on a 1 F capacitor driven by
a behavioral current source whose expression is the variable's right-hand
side; the capacitor card carries the variable's start (IC=, which
.tran ... uic reads), and a high-resistance shunt gives each capacitor a
DC path to ground.  Analog decks use N+M capacitors (nodes s1..sN,
a1..aM), memcomputing decks N+2M (v1..vN, xs1..xsM, xl1..xlM).  Two extra
behavioral voltage sources expose the control signals: node "contra" sums
the clause functions, node "contrd" counts clauses unsatisfied by the sign
readout (built from unit step functions).

Node names, bounds, starts and cell order come from the solver's block
table, dynamics._blocks, which also lays out the native flat state.
Boundary clamping appears in the source expressions as unit-step masks
that suppress only outward pushes, one factor per finite bound:

    f()*(1-u(V(x)-hi)*u(f()))*(1-u(lo-V(x))*u(-f()))

The deck as emitted is self-contained ASCII text with deterministic card
ordering (variables ascending, then clauses ascending, then directives),
so emitting twice yields byte-identical output.  It reads top to bottom:
each .func is defined above every function that calls it (km before fs
and fa, c before fxs and fxl), and sources may call any function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .cnf import Problem, check_fields, require_integer, require_pins
from .dynamics import (ANALOG, MEM, AnalogOptions, MemOptions, _blocks, initial_state,
                       resolve_options)
from .network import SolverNode, Wiring, _validate
from . import spice_expr

__all__ = [
    "Card",
    "FuncDef",
    "NetlistDocument",
    "ParsedDeck",
    "SubcircuitSpec",
    "NetlistOptions",
    "emit_analog",
    "emit_mem",
    "serialize",
    "card_histogram",
    "undeclared_references",
    "evaluate_deck_rhs",
    "network_deck",
    "LINE_WIDTH",
]

LINE_WIDTH = 120


@dataclass(frozen=True)
class Card:
    """One element card: name, node tuple, value/expression field."""

    name: str
    nodes: tuple[str, ...]
    value: str

    def line(self) -> str:
        return " ".join((self.name, *self.nodes, self.value))


@dataclass(frozen=True)
class FuncDef:
    name: str  # without the () suffix
    body: str

    def line(self) -> str:
        return f".func {self.name}() {{{self.body}}}"


@dataclass(frozen=True)
class NetlistDocument:
    title: str
    functions: tuple[FuncDef, ...]
    elements: tuple[Card, ...]
    directives: tuple[str, ...]
    subckt: Optional[tuple[str, tuple[str, ...]]] = None  # (name, pins)

    @cached_property
    def parsed(self) -> "ParsedDeck":
        """Every function body and behavioral-source expression of the deck,
        in deck order, parsed by one spice_expr.parse_expressions call per
        document and compiled by shape (ParsedDeck).  A duplicate name or
        target raises after every expression above it has parsed, so the
        first error in deck order wins."""
        functions, sources = {}, {}

        def expressions():
            for func in self.functions:
                if func.name in functions:
                    raise ValueError(f"function {func.name}() is defined twice")
                functions[func.name] = None
                yield func.body
            for card in self.elements:
                if card.name.startswith("B"):
                    kind, expr = card.value.split("=", 1)
                    target = card.nodes[1] if kind == "I" else card.nodes[0]
                    if target in sources:
                        raise ValueError(f"node {target} is driven by two behavioral sources")
                    sources[target] = None
                    yield expr

        parsed = spice_expr.parse_expressions(expressions())  # fills functions and sources
        return ParsedDeck.compile((*functions, *sources), len(functions), *parsed)


@dataclass(frozen=True, eq=False)
class ParsedDeck:
    """A deck's expressions compiled by shape, functions first and then
    sources, each in deck order: expression e is the function names[e] for
    e < num_functions, else the source driving node names[e].

    compile reads spice_expr.parse_expressions' flat lists.  Leaf k, in
    deck order and then program order, is tokens[k] (V(node) or name()) in
    expression leaf_expr[k], with id leaf_id[k]: node nodes[j] is j, a call
    of expression e's function len(nodes) + e, and a call of a function the
    deck does not define an id past every expression.  forward marks each
    call of a function not defined above its caller: a deck reads top to
    bottom, so a function may call only those above it, a source any.

    An expression's depth is 1 + the deepest depth among the functions it
    calls.  levels holds, per depth, (groups, start, stop, starts, ids).
    A group is (template, positions, leaf ids) for the terms of one shape:
    the leaf ids a (slots, count) array, the positions those of its terms
    in a buffer of every term's value laid out by depth and then in deck
    order.  The level's terms are start:stop there, its expressions' first
    terms at starts from start, and ids are those expressions' ids.
    """

    names: tuple[str, ...]
    num_functions: int
    nodes: list[str]
    tokens: list[str]
    leaf_expr: np.ndarray
    leaf_id: np.ndarray
    forward: np.ndarray
    levels: list

    @classmethod
    def compile(cls, names, num_functions, templates, shapes, counts, tokens) -> "ParsedDeck":
        count = len(names)
        unique = dict.fromkeys(tokens)
        nodes = [token[2:-1] for token in unique if token[:2] == "V("]
        base = len(nodes)
        ids = {f"V({node})": k for k, node in enumerate(nodes)}
        ids |= {f"{name}()": base + e for e, name in enumerate(names[:num_functions])}
        unknown = [token for token in unique if token not in ids]  # calls of undefined functions
        ids |= zip(unknown, range(base + count, base + count + len(unknown)))
        sizes = np.array(counts, dtype=np.intp)
        term_expr = np.repeat(np.arange(count), sizes)
        shape = np.array(shapes, dtype=np.intp)
        width = np.array([sum(entry.__class__ is tuple and entry[0] == "V" for entry in template)
                          for template in templates], dtype=np.intp)[shape]  # slots per term
        leaf_expr = np.repeat(term_expr, width)
        leaf_id = np.fromiter(map(ids.__getitem__, tokens), np.intp, len(tokens))
        limit = base + np.minimum(np.arange(count), num_functions)
        forward = leaf_id >= limit[leaf_expr]
        # depth by relaxation: a call reaches only expressions above it
        call = ~forward & (leaf_id >= base)
        caller, callee = leaf_expr[call], leaf_id[call] - base
        depth = np.ones(count, dtype=np.intp)
        while len(caller):
            deeper = np.ones(count, dtype=np.intp)
            np.maximum.at(deeper, caller, depth[callee] + 1)
            if np.array_equal(deeper, depth):
                break
            depth = deeper
        term_depth = depth[term_expr]
        first_leaf = np.cumsum(width) - width
        position = np.empty(len(shape), dtype=np.intp)
        position[np.argsort(term_depth, kind="stable")] = np.arange(len(shape))
        order = np.lexsort((shape, term_depth))
        cut = np.flatnonzero(np.diff(term_depth[order]) | np.diff(shape[order])) + 1
        groups = {}
        for run in np.split(order, cut) if len(order) else ():
            first = run[0]
            idx = leaf_id[first_leaf[run] + np.arange(width[first])[:, None]]
            groups.setdefault(term_depth[first], []).append(
                (templates[shape[first]], position[run], idx))
        levels, stop = [], 0
        for level, level_groups in sorted(groups.items()):
            exprs = np.flatnonzero(depth == level)
            start, stop = stop, stop + int(sizes[exprs].sum())
            levels.append((level_groups, start, stop, np.cumsum(sizes[exprs]) - sizes[exprs],
                           base + exprs))
        return cls(names, num_functions, nodes, tokens, leaf_expr, leaf_id, forward, levels)

    def faults(self, node_fault):
        """(expression, "V", node) or (expression, "call", function) for each
        leaf that fails, in order: each forward call and each node leaf whose
        node node_fault marks (one flag per node)."""
        fault = np.zeros(self.leaf_id.max(initial=-1) + 1, dtype=bool)  # nodes come first
        fault[:len(self.nodes)] = node_fault
        for k in np.flatnonzero(self.forward | fault[self.leaf_id]).tolist():
            token = self.tokens[k]
            kind, name = ("V", token[2:-1]) if token[:2] == "V(" else ("call", token[:-2])
            yield int(self.leaf_expr[k]), kind, name


@dataclass(frozen=True)
class SubcircuitSpec:
    """P input pins and Q output pins over the deck's variable nodes.

    name is a SPICE identifier ([A-Za-z_][A-Za-z_0-9]*).  Pins are 1-based
    variable indices (variable i <-> node v<i> / s<i>) checked by
    cnf.require_pins: a non-integer or a pin given twice raises ValueError
    here, a pin outside 1..N at emission.  Input variables lose their
    capacitor cell and their derivative function; the node becomes a pin
    whose voltage the surrounding circuit dictates.  Output pins simply
    alias internal nodes, and expose_contrd adds contrd as the last pin.
    emit_analog and emit_mem with options.subcircuit set return the
    .subckt block; its capacitor cards carry their cells' starts, and the
    .tran card belongs to the instantiating deck.
    """

    name: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    expose_contrd: bool = True

    def __post_init__(self):
        check_fields(self)
        # an ASCII Python identifier is exactly [A-Za-z_][A-Za-z_0-9]*
        if not (isinstance(self.name, str) and self.name.isascii() and self.name.isidentifier()):
            raise ValueError(f"subcircuit name must be a SPICE identifier, got {self.name!r}")
        inputs, outputs = require_pins(self.inputs, self.outputs, "subcircuit pin")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)


@dataclass(frozen=True)
class NetlistOptions:
    t_ev: float = 300.0
    shunt_resistance: float = 1e9
    solver_options: AnalogOptions | MemOptions | None = None  # None: the solver's defaults
    # Seed of the capacitor cards' explicit IC= starts (reproducible decks).
    # None emits the simulator-side random form {flat(1)} instead; that
    # variant needs "Use the clock to reseed the MC generator" enabled in
    # LTspice for run-to-run randomness.
    ic_seed: Optional[int] = 0
    subcircuit: Optional[SubcircuitSpec] = None

    def __post_init__(self):
        check_fields(self)  # a NaN shunt would be written into the deck
        for name in ("t_ev", "shunt_resistance"):  # else a .tran to a negative time, a short
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.ic_seed is not None:  # the integrator's seed rule: True is not seed 1
            object.__setattr__(self, "ic_seed", require_integer(self.ic_seed, "ic_seed"))


def _fmt(x: float) -> str:
    """Shortest exact decimal for a float (SPICE-parsable, no SI suffixes)."""
    return repr(float(x))


def _masked(d: str, node: str, lo: float, hi: float) -> str:
    """Direction-sensitive boundary mask around derivative expression d,
    one factor per finite bound."""
    expr = d
    if np.isfinite(hi):
        expr += f"*(1-u(V({node})-{_fmt(hi)})*u({d}))"
    if np.isfinite(lo):
        expr += f"*(1-u({_fmt(lo)}-V({node}))*u(-{d}))"
    return expr


def _build(problem: Problem, options: NetlistOptions, solver: str) -> NetlistDocument:
    """The deck of one solver, laid out by its one block table (_blocks):
    node names, bounds, starts and cell order all come from there."""
    n, m = problem.num_vars, problem.num_clauses
    sub = options.subcircuit
    prefix = f"{sub.name}_" if sub is not None else ""
    if sub is not None:
        require_pins(sub.inputs, sub.outputs, "subcircuit pin", n)
    opts = resolve_options(solver, options.solver_options)
    blocks = _blocks(problem, solver, opts)
    var, *aux = (name for name, *_ in blocks)  # s, a or v, xs, xl

    def volt(name: str, k: int) -> str:
        return f"V({name}{k + 1})"

    def call(name: str) -> str:
        return f"{prefix}{name}()"

    rows = list(zip(problem.var_index.tolist(), problem.sign.tolist()))
    # the slack term 1 - q*v of every clause slot, and each variable's
    # (clause, slot) occurrences in ascending order
    lits = [[f"(1-{volt(var, i)})" if q > 0 else f"(1+{volt(var, i)})" for i, q in zip(*row)]
            for row in rows]
    occurrences: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for mi, (row, _) in enumerate(rows):
        for j, i in enumerate(row):
            occurrences[i].append((mi, j))
    # c<m>() is the clause function, d<m>() 1 when the sign readout leaves
    # every literal unsatisfied: v <= 0 for a positive literal, v > 0 for a
    # negated one (the readout maps 0 to FALSE)
    clause_defs = {f"c{mi + 1}": f"0.5*min({t[0]},min({t[1]},{t[2]}))"
                   for mi, t in enumerate(lits)}
    clause_defs |= {f"d{mi + 1}": "*".join(f"u(-{volt(var, i)})" if q > 0
                                           else f"(1-u(-{volt(var, i)}))" for i, q in zip(*row))
                    for mi, row in enumerate(rows)}
    if solver == ANALOG:
        pref = "0.125*" if opts.one_eighth_factor else ""
        functions = {f"km{mi + 1}": f"{pref}{t[0]}*{t[1]}*{t[2]}" for mi, t in enumerate(lits)}
        tail = clause_defs

        def var_term(i: int, mi: int, j: int) -> str:
            factors = "*".join(lits[mi][k] for k in range(3) if k != j)
            coeff = "2" if rows[mi][1][j] > 0 else "(-2)"
            return f"{coeff}*{volt(aux[0], mi)}*({pref}{factors})*{call(f'km{mi + 1}')}"

        def aux_terms(mi: int) -> tuple[str, ...]:
            a, km = volt(aux[0], mi), call(f"km{mi + 1}")
            return ({"aK2": f"{a}*{km}*{km}", "aK": f"{a}*{km}", "K": km,
                     "K2": f"{km}*{km}"}[opts.aux_mode],)
    else:
        functions, tail = dict(clause_defs), {}
        xs, xl = aux

        def var_term(i: int, mi: int, j: int) -> str:
            other_min = f"min({','.join(lits[mi][k] for k in range(3) if k != j)})"
            v = volt(var, i)
            if rows[mi][1][j] > 0:
                g, r_val = f"0.5*{other_min}", f"0.5*(1-{v})"
            else:
                g, r_val = f"(-0.5)*{other_min}", f"0.5*(-1-{v})"
            r = f"if({lits[mi][j]}<={other_min},{r_val},0)"
            return (f"{volt(xl, mi)}*{volt(xs, mi)}*{g} + "
                    f"(1+{_fmt(opts.zeta)}*{volt(xl, mi)})*(1-{volt(xs, mi)})*{r}")

        def aux_terms(mi: int) -> tuple[str, ...]:
            c = call(f"c{mi + 1}")
            return (f"{_fmt(opts.beta)}*({volt(xs, mi)}+{_fmt(opts.epsilon)})"
                    f"*({c}-{_fmt(opts.gamma)})", f"{_fmt(opts.alpha)}*({c}-{_fmt(opts.delta)})")

    cells = [(f"{name}{k}", lo, hi, start)
             for name, size, lo, hi, start in blocks for k in range(1, size + 1)]
    omitted = set(sub.inputs) if sub is not None else set()
    # the variables with a cell, then clause by clause across the clause
    # blocks: clause mi's component in block b is n + b*m + mi
    order = [i for i in range(n) if i + 1 not in omitted]
    order += [k for mi in range(m) for k in range(n + mi, len(cells), m)]
    y0 = initial_state(problem, solver, options.ic_seed or 0)
    shunt = f"{options.shunt_resistance:g}"  # component value, e.g. 1e+09
    elements = []
    for k in order:  # derivative, started capacitor, shunt and masked source of component k
        node, lo, hi, start = cells[k]
        functions[f"f{node}"] = (" + ".join(var_term(k, mi, j) for mi, j in occurrences[k]) or "0"
                                 if k < n else aux_terms((k - n) % m)[(k - n) // m])
        d = call(f"f{node}")
        value = (repr(start) if start is not None
                 else "{flat(1)}" if options.ic_seed is None else _fmt(y0[k]))
        elements += [Card(f"C{node}", (node, "0"), f"1 IC={value}"),
                     Card(f"R{node}", (node, "0"), shunt),
                     Card(f"B{node}", ("0", node), f"I={_masked(d, node, lo, hi)}")]
    functions |= tail
    for signal, letter in (("contra", "c"), ("contrd", "d")):
        total = " + ".join(call(f"{letter}{mi + 1}") for mi in range(m))
        elements.append(Card(f"B{signal}", (signal, "0"), f"V={total}"))

    title = f"* {'analog SAT' if solver == ANALOG else 'digital memcomputing'} solver, N={n} M={m}"
    subckt, directives = None, (f".tran 0 {_fmt(options.t_ev)} 0 uic",)
    if sub is not None:  # the instantiating deck holds the .tran card
        pins = tuple(f"{var}{i}" for i in (*sub.inputs, *sub.outputs))
        if sub.expose_contrd:
            pins += ("contrd",)
        subckt, directives = (sub.name, pins), ()
    return NetlistDocument(title=title,
                           functions=tuple(FuncDef(prefix + name, body)
                                           for name, body in functions.items()),
                           elements=tuple(elements), directives=directives, subckt=subckt)


def emit_analog(problem: Problem, options: NetlistOptions = NetlistOptions()) -> NetlistDocument:
    """Netlist integrating the analog SAT equations (N+M capacitors)."""
    return _build(problem, options, ANALOG)


def emit_mem(problem: Problem, options: NetlistOptions = NetlistOptions()) -> NetlistDocument:
    """Netlist integrating the memcomputing equations (N+2M capacitors)."""
    return _build(problem, options, MEM)


def _wrap_line(line: str) -> list[str]:
    out = []
    current = line
    while len(current) > LINE_WIDTH:
        cut = current.rfind(" ", 1, LINE_WIDTH)
        if cut <= 0:
            break
        out.append(current[:cut])
        current = "+ " + current[cut + 1:]
    out.append(current)
    return out


def _fragment_lines(document: NetlistDocument) -> list[str]:
    lines: list[str] = []
    if document.subckt is not None:
        name, pins = document.subckt
        lines.extend(_wrap_line(f".subckt {name} " + " ".join(pins)))
    for func in document.functions:
        lines.extend(_wrap_line(func.line()))
    for card in document.elements:
        lines.extend(_wrap_line(card.line()))
    for directive in document.directives:
        lines.extend(_wrap_line(directive))
    if document.subckt is not None:
        lines.append(f".ends {document.subckt[0]}")
    return lines


def serialize(document: NetlistDocument) -> str:
    """Deterministic ASCII text of the deck, newline-terminated.

    Long cards are split with '+' continuation lines.  Stand-alone decks end
    with .end; subcircuit documents end with .ends so they can be embedded.
    """
    lines = [document.title]
    lines.extend(_fragment_lines(document))
    if document.subckt is None:
        lines.append(".end")
    text = "\n".join(lines) + "\n"
    text.encode("ascii")  # emitted decks are ASCII by construction
    return text


def card_histogram(document: NetlistDocument) -> dict[str, int]:
    """Count element cards by SPICE element letter."""
    hist: dict[str, int] = {}
    for card in document.elements:
        key = card.name[0]
        hist[key] = hist.get(key, 0) + 1
    return hist


def undeclared_references(document: NetlistDocument) -> list[str]:
    """Names referenced by expressions but not declared in the deck.

    Reads the leaves of every parsed function body and behavioral-source
    expression, functions first and each in deck order, against the deck's
    node set and the functions declared before it: a deck reads top to
    bottom, so a function may call only those defined above it, and a
    source any function.  Returns a list of problems (empty when the deck
    is closed), per expression its nodes and then its functions, each
    sorted by name.
    """
    nodes = {"0"}
    for card in document.elements:
        nodes.update(card.nodes)
    if document.subckt is not None:
        nodes.update(document.subckt[1])
    deck = document.parsed
    refs = {}  # expression -> its undeclared (kind, name) pairs, in deck order
    for e, kind, name in deck.faults([node not in nodes for node in deck.nodes]):
        refs.setdefault(e, set()).add((kind, name))
    return [f"{'func' if e < deck.num_functions else 'source'} {deck.names[e]}: "
            f"undeclared {'node' if kind == 'V' else 'function'} {name}"
            for e, found in refs.items() for kind, name in sorted(found)]


def evaluate_deck_rhs(document: NetlistDocument, voltages: dict[str, float]) -> dict[str, float]:
    """Evaluate every behavioral source at the given node voltages.

    Returns {target node: value}; for state nodes this is the would-be
    capacitor charging current, i.e. the netlist's claim about the
    right-hand side at that state.  The deck is evaluated top to bottom,
    one depth level at a time: each shape's template runs once on the
    leaf values of all its terms, the terms of a sum are added left to
    right and the function values are written back for the next level, so
    every value equals that of running each expression's program in deck
    order.  A node missing from voltages, or a call of a function not
    defined above its caller, raises the ExprError of the first such leaf
    in deck order, then program order.
    """
    deck = document.parsed
    base = len(deck.nodes)
    vec = np.empty(base + len(deck.names))
    try:
        vec[:base] = np.fromiter(map(voltages.__getitem__, deck.nodes), float, base)
    except KeyError:
        missing = [node not in voltages for node in deck.nodes]
    else:
        missing = False
    if missing or deck.forward.any():
        _, kind, name = next(deck.faults(missing))
        raise spice_expr.ExprError(f"undefined node {name!r}" if kind == "V"
                                   else f"unknown function {name!r}")
    values = np.empty(deck.levels[-1][2] if deck.levels else 0)  # every term's, level by level
    for groups, start, stop, starts, targets in deck.levels:
        for template, positions, idx in groups:
            values[positions] = spice_expr.evaluate(template, vec[idx])
        with np.errstate(all="ignore"):  # object addition: left to right, as Python adds
            vec[targets] = np.add.reduceat(values[start:stop].astype(object), starts)
    return dict(zip(deck.names[deck.num_functions:], vec[base + deck.num_functions:].tolist()))


def network_deck(nodes: Sequence[SolverNode], wiring: Wiring, seeds: Sequence[int],
                 t_ev: float = NetlistOptions.t_ev) -> str:
    """Top-level deck of the network simulate_network(nodes, wiring,
    seeds=seeds) integrates, checked by network._validate with its messages
    (t_ev by NetlistOptions' rule).  Node i is subcircuit node{i}: its
    solver, options and pins, seeds[i] as ic_seed, so each cell starts at
    the network's first record row.  Instance X{i} ties each output v to
    net n{i}_v, each input to its source's net, contrd to contrd{i}.
    Drives have no deck form yet (ValueError).  In the deck an input shares
    one net with its source, so partners couple continuously; in
    simulate_network each partner value is held for one sample_interval.
    """
    fed = _validate(nodes, wiring, seeds)
    if wiring.drives:
        raise ValueError("network_deck cannot emit drives yet, got "
                         + ", ".join(f"drive {k}" for k in range(len(wiring.drives))))
    lines, instances = [f"* network of {len(nodes)} solver nodes"], []
    for i, (node, seed) in enumerate(zip(nodes, seeds)):
        spec = SubcircuitSpec(f"node{i}", node.input_vars, node.output_vars)
        options = NetlistOptions(t_ev, solver_options=node.solver_options,
                                 ic_seed=require_integer(seed, "seed"), subcircuit=spec)
        lines += _fragment_lines(_build(node.problem, options, node.solver))
        nets = [f"n{fed[i, var][1]}_{fed[i, var][2]}" for var in node.input_vars]
        nets += [f"n{i}_{var}" for var in node.output_vars]
        instances += _wrap_line(" ".join((f"X{i}", *nets, f"contrd{i}", spec.name)))
    lines += [*instances, f".tran 0 {_fmt(t_ev)} 0 uic", ".end"]
    return "\n".join(lines) + "\n"
