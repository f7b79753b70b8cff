"""A small evaluator for the behavioral-source expression dialect the
netlist emitter writes.

It exists so the emitted decks can be checked numerically against the
native dynamics: parse the expression of each behavioral source, evaluate
it at a test state, and compare with the right-hand-side engine.

The dialect is exactly what the emitter writes: floating point literals
(plain or exponent notation, no SI suffixes), V(node), zero-argument user
functions name(), the builtins u(x), min(a, ...) and if(cond, a, b),
arithmetic + - *, unary minus and an unchained <= (returning 1/0), with
spaces only between tokens.  Any other form (/, max, another comparison,
&, unary plus, v(node), V ( a ), f ( )) raises ExprError at parse time, as
does a wrong argument count: u takes one, if three, min at least one and
every user function none.  Without division no value can fail, so if
evaluates all three arguments, like every other builtin.

parse_expressions parses all of a deck's texts in one call, each into
terms, and each expression shape once: it returns one template per shape
(a program whose k-th leaf, a node voltage or a user function's value,
reads slot k) and, as flat lists, every term's shape id, each text's term
count and every leaf token.  evaluate is the one stack loop, and it runs
templates only: it reads each leaf from the values it is given and never
looks a name up, so a user function is a leaf whose value the caller has
already computed.  It runs on floats or on NumPy arrays with the same IEEE
results, so a template runs once on the leaf values of every term of its
shape; netlist evaluates a deck this way, top to bottom, a function's
value before any caller reads it.  Nothing here recurses.

The step function uses u(x) = 1 for x >= 0 and 0 otherwise, matching the
boundary-mask convention of the dynamics module (a derivative is blocked
when the variable sits exactly on its bound).
"""

from __future__ import annotations

import operator
import re
import string

import numpy as np

__all__ = ["BUILTINS", "ExprError", "parse_expression", "parse_expressions", "evaluate"]


class ExprError(ValueError):
    pass


# One token per match: one of + - * ( ) , <=, a whole V(node), a call name()
# or name( (no call is named V), a number, or any other character.
_TOKEN = re.compile(
    r"\s*([-+*(),]|<=|V\([A-Za-z_][A-Za-z_0-9]*\)|(?!V\()[A-Za-z_][A-Za-z_0-9]*\(\)?"
    r"|[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?|\S)"
)
_NUMBER_START = frozenset(string.digits + ".")
# Binding power of each binary operator.
_POWER = {"<=": 1, "+": 2, "-": 2, "*": 3}
_PENDING = {op: (power, op) for op, power in _POWER.items()}  # operator-stack entries
# Operator-stack entries of an operand's prefixes: unary minus binds tighter
# than any binary operator, and a "(" waits at -1 (a call's at (-1, [name, commas])).
_PREFIX = {"-": (4, "neg"), "(": (-1, None)}
_ARITY = {"u": (1, 1), "if": (3, 3), "min": (1, float("inf"))}
BUILTINS = frozenset(_ARITY)  # the builtin function names


def _call(name, argc):
    """The program entry of a call, once its argument count is checked."""
    low, high = _ARITY.get(name, (0, 0))  # user functions take none
    if not low <= argc <= high:
        raise ExprError(f"{name}() takes {low}{'' if low == high else ' or more'}"
                        f" argument(s), got {argc}")
    return ("call", name, argc) if argc else ("call", name)


def parse_expression(text: str):
    """Parse expression text, with one loop and no recursion, into a flat
    postfix program: a list of floats, ("V", node), ("call", name) for a
    user function, ("call", name, argc) for u, min and if, and the
    operators "+", "-", "*", "<=" and "neg".  The program is the whole
    result: the nodes and functions an expression references are its
    ("V", node) and ("call", name, ...) entries.
    """
    out = []
    ops = [(-2, None)]  # pending (power, entry) above a floor of -2
    operand = True  # an operand comes next, else an operator or the end
    for token in _TOKEN.findall(text) + [""]:  # "" marks the end
        if operand:
            if token in _PREFIX:
                ops.append(_PREFIX[token])
                continue
            if token[:1] in _NUMBER_START and token != ".":  # "." alone is no number
                out.append(float(token))
            elif token[:2] == "V(":
                out.append(("V", token[2:-1]))
            elif token[-1:] == "(":  # name( opens a call with arguments
                ops.append((-1, [token[:-1], 0]))
                continue
            elif token[-2:] == "()":
                out.append(_call(token[:-2], 0))
            else:
                raise ExprError(f"unexpected {token or 'end of input'!r}")
            operand = False
            continue
        power = _POWER.get(token, 0)
        while ops[-1][0] >= power:
            if ops[-1][0] == power == 1:
                raise ExprError("comparisons do not chain")
            out.append(ops.pop()[1])
        if power:
            ops.append(_PENDING[token])
        elif token == ")" and ops[-1][0] == -1:
            frame = ops.pop()[1]
            if frame:
                out.append(_call(frame[0], frame[1] + 1))
            continue
        elif token == "," and ops[-1][1]:
            ops[-1][1][1] += 1
        elif token or ops[-1][0] != -2:
            raise ExprError(f"expected ')', got {token or 'end of input'!r}"
                            if ops[-1][0] == -1 else f"trailing input at {token!r}")
        operand = True
    return out


# A leaf token as _TOKEN cuts it: a whole V(node) or a user call name(),
# never V( or a builtin.  In a text that parses, the matches are exactly its
# leaf tokens, and another text with the same pieces between its matches
# tokenizes the same up to those leaves.  (The leading lookahead only lets
# the scan skip positions where neither alternative can start.)
_LEAF = re.compile(r"(?=[A-Za-z_])(V\([A-Za-z_][A-Za-z_0-9]*\)"
                   r"|(?!(?:V|u|min|if)\()[A-Za-z_][A-Za-z_0-9]*\(\))")
_SUM_BREAKERS = ("+", "-", "<=")  # a term ending in one regroups a term-wise sum


def parse_expressions(texts):
    """(templates, shapes, counts, leaves): every text parsed as
    parse_expression parses it, or the first text's ExprError, with each
    expression shape parsed once, as four flat lists.

    A template is the program of one shape with its k-th leaf entry,
    ("V", node) or ("call", name), replaced by ("V", k).  shapes holds the
    shape id of every term, text by text, counts each text's number of
    terms and leaves every leaf token, V(node) or name(), in text order.  A
    term takes as many tokens as its template has slots, and its program is
    the template with ("V", k) read from its k-th token; a text's program
    is its terms' programs joined as t1, t2, "+", t3, "+", ...

    A text the emitter writes as a sum, t1 + t2 + ..., is split into terms
    when every term parses, the first does not end in "<=" and no later one
    ends in "+", "-" or "<=": exactly the grouping of the whole text.  Any
    other text is one term.  Each term is keyed by its text with the leaf
    tokens cut out; only a key not seen before in this call reaches
    parse_expression.  texts is drawn one at a time, so whatever drawing
    the next text raises comes after every earlier text is parsed.
    """
    ids = {}  # leaf-free text -> shape id
    templates, shapes, counts, leaves = [], [], [], []

    def shaped(text):
        parts = _LEAF.split(text)
        key = tuple(parts[::2])
        shape = ids.get(key)
        if shape is None:
            program = parse_expression(text)
            at = [k for k, entry in enumerate(program)
                  if entry.__class__ is tuple and len(entry) == 2]
            for slot, k in enumerate(at):
                program[k] = ("V", slot)
            shape = ids[key] = len(templates)
            templates.append(program)
        shapes.append(shape)
        leaves.extend(parts[1::2])
        return templates[shape][-1]  # the entry the sum-splitting rule reads

    for text in texts:
        pieces = text.split(" + ")
        if len(pieces) > 1:
            terms, mark = len(shapes), len(leaves)
            try:
                ends = [shaped(piece) for piece in pieces]
            except ExprError:  # some term is no expression alone
                ends = None
            if ends and ends[0] != "<=" and all(end not in _SUM_BREAKERS for end in ends[1:]):
                counts.append(len(ends))
                continue
            del shapes[terms:], leaves[mark:]  # the sum falls back to one term
        shaped(text)
        counts.append(1)
    return templates, shapes, counts, leaves


def _where(condition, a, b):
    """a where condition holds, else b, elementwise; a scalar for scalars."""
    return np.where(condition, a, b)[()]


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "<=": lambda a, b: _where(a <= b, 1.0, 0.0)}


def evaluate(template, leaves):
    """Run a template on its leaf values: leaf k, ("V", k), reads leaves[k].

    The leaf values may be floats or NumPy arrays of one shape: each
    operation is elementwise and gives the IEEE result Python floats give
    (u, <= and if select with np.where, min keeps the first of equal
    values, as Python's min does), so an array of states evaluates to the
    values the states give one at a time, bit for bit.
    """
    stack = []
    with np.errstate(all="ignore"):  # inf and nan arise as with Python floats
        for op in template:
            if op.__class__ is str:
                if op == "neg":
                    stack[-1] = -stack[-1]
                else:
                    right = stack.pop()
                    stack[-1] = _BINARY[op](stack[-1], right)
            elif op.__class__ is float:
                stack.append(op)
            elif op[0] == "V":
                stack.append(leaves[op[1]])
            elif op[1] == "u":
                stack[-1] = _where(stack[-1] >= 0.0, 1.0, 0.0)
            else:  # min or if on the top op[2] values
                args = stack[-op[2]:]
                del stack[-op[2]:]
                if op[1] == "min":
                    low = args[0]
                    for arg in args[1:]:
                        low = _where(arg < low, arg, low)
                    stack.append(low)
                else:  # if(cond, a, b)
                    stack.append(_where(args[0] != 0.0, args[1], args[2]))
    return stack.pop()
