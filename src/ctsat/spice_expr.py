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

import operator
import re
import string
from typing import Mapping

__all__ = ["BUILTINS", "ExprError", "parse_expression", "evaluate"]


class ExprError(ValueError):
    pass


# One token per match: one of + - * / ( ) , &, a whole V(node) or name(), a
# number, a name, a two-character comparison, or any other character.  With
# spaces inside, V ( a ) and f ( ) come in pieces and take a longer path.
_TOKEN = re.compile(
    r"\s*([-+*/(),&]|[Vv]\([A-Za-z_][A-Za-z_0-9]*\)|[A-Za-z_][A-Za-z_0-9]*\(\)"
    r"|[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[A-Za-z_][A-Za-z_0-9]*|>=|<=|==|!=|\S)"
)
_NAME_START = frozenset(string.ascii_letters + "_")
_NUMBER_START = frozenset(string.digits + ".")
# Binding power of each binary operator; the unary signs bind tighter.
_POWER = {"&": 1, ">": 2, "<": 2, ">=": 2, "<=": 2, "==": 2, "!=": 2,
          "+": 3, "-": 3, "*": 4, "/": 4}
_PENDING = {op: (power, op) for op, power in _POWER.items()}  # operator-stack entries
_SIGNS = {"-": (5, "neg"), "+": (5, None)}
_OPEN = (-1, None)  # a "(" on the operator stack; a call's "(" is (-1, frame)
BUILTINS = frozenset(("u", "if", "min", "max"))  # the builtin function names
_ARITY = {"u": (1, 1), "if": (3, 3), "min": (1, float("inf")), "max": (1, float("inf")),
          "V": (1, 1), "v": (1, 1)}  # V takes a node name, not an expression


def _call(name, argc, calls):
    """The program entry of a call, once its argument count is checked."""
    low, high = _ARITY.get(name, (0, 0))  # user functions take none
    if not low <= argc <= high:
        raise ExprError(f"{name}() takes {low}{'' if low == high else ' or more'}"
                        f" argument(s), got {argc}")
    calls.add(name)
    return ("call", name, argc) if argc else ("call", name)


def parse_expression(text: str, references: tuple[set[str], set[str]] | None = None):
    """Parse expression text, with one loop and no recursion, into a flat
    postfix program: a list of floats, ("V", node), ("call", name) for a
    user function, ("call", name, argc) for u, min and max, and operators
    (+ - * /, the comparisons, "neg").  The branches of if and the right
    operand of & are sub-programs, ("if", then, other) and ("&", right).

    references, a pair of sets (nodes, calls), receives the node names in
    V(...) terms and the names of all user and builtin functions called.
    """
    nodes, calls = (set(), set()) if references is None else references
    out = []  # the program being built: a sub-program inside & or an if branch
    # Pending (power, entry) above a floor of -2: operators, and "(" at -1.  A
    # call's "(" holds [name, commas seen, and for if: outer program, then].
    ops = [(-2, None)]
    operand = True  # an operand comes next, else an operator or the end
    tokens = iter(_TOKEN.findall(text) + [""])  # "" marks the end
    for token in tokens:
        if operand:
            if token == "(":
                ops.append(_OPEN)
                continue
            if token[-1:] == ")" and len(token) > 1:  # a whole V(node) or name()
                if token[-2] != "(":
                    nodes.add(token[2:-1])
                    out.append(("V", token[2:-1]))
                else:
                    out.append(_call(token[:-2], 0, calls))
            elif token[:1] in _NUMBER_START and token != ".":  # "." alone is no number
                out.append(float(token))
            elif token in _SIGNS:
                ops.append(_SIGNS[token])
                continue
            elif token[:1] in _NAME_START:
                if next(tokens) != "(":
                    raise ExprError(f"expected '(' after {token}")
                if token not in ("V", "v"):
                    ops.append((-1, [token, 0]))
                    continue
                node = next(tokens)
                if node[:1] not in _NAME_START or node[-1] == ")" or next(tokens) != ")":
                    raise ExprError(f"expected V(node name), got V({node}")
                nodes.add(node)
                out.append(("V", node))
            elif token == ")" and ops[-1][0] == -1 and ops[-1][1] and not ops[-1][1][1]:
                out.append(_call(ops.pop()[1][0], 0, calls))  # name ( )
            else:
                raise ExprError(f"unexpected {token or 'end of input'!r}")
            operand = False
            continue
        power = _POWER.get(token, 0)
        while ops[-1][0] >= power:
            rank, entry = ops.pop()
            if rank == 1:  # the right operand of & ends here
                entry.append(("&", out))
                out = entry
            elif rank == power == 2:
                raise ExprError("comparisons do not chain")
            elif entry:
                out.append(entry)
        if power == 1:
            ops.append((1, out))
            out = []
        elif power:
            ops.append(_PENDING[token])
        elif token == ")" and ops[-1][0] == -1:
            frame = ops.pop()[1]
            if frame and frame[0] == "if":
                _call("if", frame[1] + 1, calls)
                frame[2].append(("if", frame[3], out))
                out = frame[2]
            elif frame:
                out.append(_call(frame[0], frame[1] + 1, calls))
            continue
        elif token == "," and ops[-1][1]:
            frame = ops[-1][1]
            frame[1] += 1
            if frame[0] == "if":  # the condition stays in the outer program
                frame.append(out)
                out = []
        elif token or ops[-1][0] != -2:
            raise ExprError(f"expected ')', got {token or 'end of input'!r}"
                            if ops[-1][0] == -1 else f"trailing input at {token!r}")
        operand = True
    return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_BINARY.update((op, lambda a, b, test=test: 1.0 if test(a, b) else 0.0) for op, test in (
    (">", operator.gt), ("<", operator.lt), (">=", operator.ge), ("<=", operator.le),
    ("==", operator.eq), ("!=", operator.ne)))


def evaluate(code, voltages: Mapping[str, float],
             functions: Mapping[str, list] | None = None,
             values: dict[str, float] | None = None) -> float:
    """Run a program given node voltages and zero-argument user functions
    (mapping name -> parsed body).

    Each user function is evaluated at most once: its value is kept in
    `values` (name -> value, a new dict when None).  Callers evaluating
    several expressions at the same voltages may share one dict.
    """
    functions = functions or {}
    values = {} if values is None else values
    stack = []
    for op in code:
        if op.__class__ is str:
            if op == "neg":
                stack[-1] = -stack[-1]
            else:
                right = stack.pop()
                stack[-1] = _BINARY[op](stack[-1], right)
        elif op.__class__ is float:
            stack.append(op)
        elif op[0] == "V":
            try:
                stack.append(float(voltages[op[1]]))
            except KeyError:
                raise ExprError(f"undefined node {op[1]!r}") from None
        elif op[0] == "call" and len(op) == 3:
            if op[1] == "u":
                stack[-1] = 1.0 if stack[-1] >= 0.0 else 0.0
            else:
                args = stack[-op[2]:]
                del stack[-op[2]:]
                stack.append(min(args) if op[1] == "min" else max(args))
        elif op[0] == "call":
            if op[1] not in functions:
                raise ExprError(f"unknown function {op[1]!r}")
            if op[1] not in values:
                values[op[1]] = evaluate(functions[op[1]], voltages, functions, values)
            stack.append(values[op[1]])
        elif op[0] == "if":
            stack[-1] = evaluate(op[1] if stack[-1] != 0.0 else op[2], voltages, functions, values)
        else:  # "&"
            stack[-1] = (1.0 if stack[-1] != 0.0
                         and evaluate(op[1], voltages, functions, values) != 0.0 else 0.0)
    return stack.pop()
