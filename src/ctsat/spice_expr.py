"""A small evaluator for the behavioral-source expression dialect the
netlist emitter writes.

It exists so the emitted decks can be checked numerically against the
native dynamics: parse the expression of each behavioral source, evaluate
it at a test state, and compare with the right-hand-side engine.

Supported syntax: floating point literals (plain or exponent notation, no
SI suffixes), V(node), zero-argument user functions, the builtins
u(x), min(a, b), if(cond, a, b), arithmetic + - * /, unary minus,
comparisons > < >= <= == != (returning 1/0) and the logical &.

The step function uses u(x) = 1 for x >= 0 and 0 otherwise, matching the
boundary-mask convention of the dynamics module (a derivative is blocked
when the variable sits exactly on its bound).
"""

from __future__ import annotations

import operator
import re
from typing import Mapping

__all__ = [
    "ExprError",
    "parse_expression",
    "evaluate",
    "references",
]


class ExprError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>>=|<=|==|!=|[-+*/(),<>&])"
    r")"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ExprError(f"cannot tokenize {text[pos:pos + 20]!r}")
        pos = match.end()
        if match.lastgroup == "num":
            tokens.append(("num", float(match.group("num"))))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        else:
            tokens.append(("op", match.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind}, got {tok}")
        if value is not None and tok[1] != value:
            raise ExprError(f"expected {value!r}, got {tok}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.parse_and()
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input at token {self.peek()}")
        return node

    def parse_and(self):
        node = self.parse_cmp()
        while self.peek() == ("op", "&"):
            self.take()
            node = ("and", node, self.parse_cmp())
        return node

    def parse_cmp(self):
        node = self.parse_add()
        tok = self.peek()
        if tok[0] == "op" and tok[1] in (">", "<", ">=", "<=", "==", "!="):
            self.take()
            node = ("cmp", tok[1], node, self.parse_add())
        return node

    def parse_add(self):
        node = self.parse_mul()
        while self.peek()[0] == "op" and self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            node = ("bin", op, node, self.parse_mul())
        return node

    def parse_mul(self):
        node = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            node = ("bin", op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.parse_unary())
        if self.peek() == ("op", "+"):
            self.take()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", tok[1])
        if tok[0] == "name":
            name = self.take()[1]
            self.take("op", "(")
            if name in ("V", "v"):  # exactly one node name
                node = self.take("name")[1]
                self.take("op", ")")
                return ("V", node)
            args = []
            if self.peek() != ("op", ")"):
                args.append(self.parse_and())
                while self.peek() == ("op", ","):
                    self.take()
                    args.append(self.parse_and())
            self.take("op", ")")
            return ("call", name, tuple(args))
        if tok == ("op", "("):
            self.take()
            node = self.parse_and()
            self.take("op", ")")
            return node
        raise ExprError(f"unexpected token {tok}")


def parse_expression(text: str):
    """Parse expression text into an AST (nested tuples)."""
    return _Parser(_tokenize(text)).parse()


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
        if kind == "neg":
            return -ev(node[1])
        if kind == "bin":
            return _ARITH[node[1]](ev(node[2]), ev(node[3]))
        if kind == "cmp":
            return 1.0 if _COMPARE[node[1]](ev(node[2]), ev(node[3])) else 0.0
        if kind == "and":
            return 1.0 if (ev(node[1]) != 0.0 and ev(node[2]) != 0.0) else 0.0
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
                if args:
                    raise ExprError(f"user function {name}() takes no arguments")
                if name not in values:
                    values[name] = ev(functions[name])
                return values[name]
            raise ExprError(f"unknown function {name!r}")
        raise ExprError(f"bad AST node {node!r}")

    return ev(ast)


def references(ast) -> tuple[set[str], set[str]]:
    """(nodes, calls): the node names in V(...) terms and the names of all
    user and builtin functions called."""
    nodes: set[str] = set()
    calls: set[str] = set()

    def walk(node):
        if node[0] == "V":
            nodes.add(node[1])
        elif node[0] == "call":
            calls.add(node[1])
            for arg in node[2]:
                walk(arg)
        else:
            for child in node[1:]:
                if isinstance(child, tuple):
                    walk(child)

    walk(ast)
    return nodes, calls
