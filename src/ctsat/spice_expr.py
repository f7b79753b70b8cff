"""A small evaluator for the behavioral-source expression dialect the
netlist emitter writes.

It exists so the emitted decks can be checked numerically against the
native dynamics: parse the expression of each behavioral source, evaluate
it at a test state, and compare with the right-hand-side engine.

Supported syntax: floating point literals (plain or exponent notation, no
SI suffixes), V(node), zero-argument user functions, the builtins u(x),
min(a, ...), max(a, ...) and if(cond, a, b), arithmetic + - * /, unary
minus and plus, comparisons > < >= <= == != (returning 1/0, not chained)
and the logical &.  Arity is checked at parse time: u takes one argument,
if three, min and max at least one, and every other (user) function none.

The step function uses u(x) = 1 for x >= 0 and 0 otherwise, matching the
boundary-mask convention of the dynamics module (a derivative is blocked
when the variable sits exactly on its bound).
"""

from __future__ import annotations

import math
import operator
import re
import string
from typing import Mapping

__all__ = [
    "BUILTINS",
    "ExprError",
    "parse_expression",
    "evaluate",
]


class ExprError(ValueError):
    pass


# One token per match: a number, a name, a two-character comparison, or any
# other single character (an operator, or one the parser rejects).
_TOKEN = re.compile(
    r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*|>=|<=|==|!=|\S)"
)
_NAME_START = frozenset(string.ascii_letters + "_")
_NUMBER_START = frozenset(string.digits + ".")
# Binding power of each binary operator.  A run of operators of one power
# becomes one flat node (see _combine).
_POWER = {"&": 1, ">": 2, "<": 2, ">=": 2, "<=": 2, "==": 2, "!=": 2,
          "+": 3, "-": 3, "*": 4, "/": 4}
_ARITY = {"u": (1, 1), "if": (3, 3), "min": (1, math.inf), "max": (1, math.inf)}
BUILTINS = frozenset(_ARITY)  # the builtin function names


def parse_expression(text: str, references: tuple[set[str], set[str]] | None = None):
    """Parse expression text into an AST (nested tuples).

    A run of + - (or of * /) becomes one flat node ("chain", a, "+", b,
    "-", c, ...), evaluated left to right, so a sum of any length costs no
    recursion depth; a run of & becomes ("and", a, b, ...).

    references, a pair of sets (nodes, calls), receives the node names in
    V(...) terms and the names of all user and builtin functions called.
    """
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end marker
    tokens.reverse()  # the next token is tokens[-1]
    node = _binary(tokens, 1, (set(), set()) if references is None else references)
    if tokens[-1]:
        raise ExprError(f"trailing input at {tokens[-1]!r}")
    return node


def _expect(tokens, token):
    if tokens[-1] != token:
        raise ExprError(f"expected {token!r}, got {tokens[-1] or 'end of input'!r}")
    tokens.pop()


def _binary(tokens, min_power, refs):
    """Precedence climbing over the binary operators of at least min_power."""
    node = _atom(tokens, refs)
    power = _POWER.get(tokens[-1], 0)
    while power >= min_power:
        rest = []  # op, operand, op, operand, ...
        while _POWER.get(tokens[-1]) == power:
            rest.append(tokens.pop())
            rest.append(_binary(tokens, power + 1, refs))
        node = _combine(power, node, rest)
        power = _POWER.get(tokens[-1], 0)
    return node


def _combine(power, first, rest):
    if power == 1:
        return ("and", first, *rest[1::2])
    if power == 2:
        if len(rest) > 2:
            raise ExprError("comparisons do not chain")
        return ("cmp", rest[0], first, rest[1])
    return ("chain", first, *rest)


def _atom(tokens, refs):
    """A signed operand: unary - and + bind tighter than any binary operator."""
    token = tokens.pop()
    if token in ("-", "+"):
        node = _atom(tokens, refs)
        return ("neg", node) if token == "-" else node
    if token == "(":
        node = _binary(tokens, 1, refs)
        _expect(tokens, ")")
        return node
    if token[:1] in _NAME_START:
        _expect(tokens, "(")
        if token in ("V", "v"):  # exactly one node name
            node = tokens.pop()
            if node[:1] not in _NAME_START:
                raise ExprError(f"expected a node name in V(), got {node!r}")
            _expect(tokens, ")")
            refs[0].add(node)
            return ("V", node)
        args = []
        if tokens[-1] != ")":
            args.append(_binary(tokens, 1, refs))
            while tokens[-1] == ",":
                tokens.pop()
                args.append(_binary(tokens, 1, refs))
        _expect(tokens, ")")
        low, high = _ARITY.get(token, (0, 0))  # user functions take none
        if not low <= len(args) <= high:
            raise ExprError(f"{token}() takes {low}{'' if low == high else ' or more'}"
                            f" argument(s), got {len(args)}")
        refs[1].add(token)
        return ("call", token, tuple(args))
    if token[:1] in _NUMBER_START:
        try:
            return ("num", float(token))
        except ValueError:
            pass
    raise ExprError(f"unexpected {token or 'end of input'!r}")


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge,
            "<=": operator.le, "==": operator.eq, "!=": operator.ne}


def evaluate(ast, voltages: Mapping[str, float],
             functions: Mapping[str, tuple] | None = None,
             values: dict[str, float] | None = None) -> float:
    """Evaluate an AST given node voltages and zero-argument user functions
    (mapping name -> parsed body).

    Each user function is evaluated at most once: its value is kept in
    `values` (name -> value, a new dict when None).  Callers evaluating
    several expressions at the same voltages may share one dict.
    """
    functions = functions or {}
    values = {} if values is None else values

    def ev(node):
        kind = node[0]
        if kind == "num":
            return node[1]
        if kind == "V":
            try:
                return float(voltages[node[1]])
            except KeyError:
                raise ExprError(f"undefined node {node[1]!r}") from None
        if kind == "chain":
            value = ev(node[1])
            for op, operand in zip(node[2::2], node[3::2]):
                value = _ARITH[op](value, ev(operand))
            return value
        if kind == "neg":
            return -ev(node[1])
        if kind == "cmp":
            return 1.0 if _COMPARE[node[1]](ev(node[2]), ev(node[3])) else 0.0
        if kind == "and":
            return 1.0 if all(ev(operand) != 0.0 for operand in node[1:]) else 0.0
        if kind == "call":
            name, args = node[1], node[2]
            if name == "u":
                (x,) = args
                return 1.0 if ev(x) >= 0.0 else 0.0
            if name == "min":
                return min(ev(arg) for arg in args)
            if name == "max":
                return max(ev(arg) for arg in args)
            if name == "if":
                cond, then, other = args
                return ev(then) if ev(cond) != 0.0 else ev(other)
            if name in functions:
                if name not in values:
                    values[name] = ev(functions[name])
                return values[name]
            raise ExprError(f"unknown function {name!r}")
        raise ExprError(f"bad AST node {node!r}")

    return ev(ast)

