"""3-SAT problems in DIMACS CNF form: parse, validate, evaluate, serialize.

Every clause has exactly three literals over three distinct variables.
Variable indices are 0-based inside the library; the 1-based DIMACS
convention exists only at the parse/write boundary (and in file formats,
SPICE node names and CLI arguments derived from them).
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "DimacsError",
    "Problem",
    "Assignment",
    "assignment_from_bits",
    "assignment_to_bits",
    "parse_dimacs",
    "read_dimacs",
    "write_dimacs",
    "count_unsatisfied",
    "check_fields",
    "require_integer",
    "require_pins",
]

# An assignment is a boolean vector of length Problem.num_vars.
Assignment = np.ndarray


class DimacsError(ValueError):
    """Raised for malformed DIMACS input."""


def check_fields(params) -> None:
    """Raise ValueError naming the first field of the dataclass instance
    params whose value does not fit its declared type: a float field
    holding a bool, a str or another non-number (an int is valid, any other
    number is stored back as a Python float), an int field holding a bool, a
    float or another non-integer (a NumPy integer is valid, and stored back
    as a Python int), a bool field holding anything but a bool, or any
    field holding a NaN or infinite number.  Parameter, option and
    configuration classes call it first thing, so a bad value fails where it
    is given instead of being read by truthiness or failing inside a run."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.type == "float" and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ValueError(f"{f.name} must be a real number, got {value!r}")
        if f.type == "float" and type(value) is not int:  # a Python float, which JSON writes
            object.__setattr__(params, f.name, float(value))
        if f.type == "int":  # a Python int, so repr (seeds) and JSON read it as one
            object.__setattr__(params, f.name, require_integer(value, f.name))
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be a bool, got {value!r}")
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def require_integer(value, what: str) -> int:
    """value as a Python int: a Python or NumPy integer passes, a bool,
    float, str or anything else raises ValueError naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_pins(inputs, outputs, what: str, num_vars: int | None = None):
    """(inputs, outputs) as tuples of Python ints; ValueError naming what for
    a pin that fails require_integer, one given twice (inputs and outputs
    are disjoint) or, once num_vars is known, one outside 1..num_vars."""
    inputs, outputs = (tuple(require_integer(i, what) for i in pins) for pins in (inputs, outputs))
    pins = (*inputs, *outputs)
    for k, i in enumerate(pins):
        if i in pins[:k]:
            raise ValueError(f"{what} {i} is given twice among the inputs and outputs")
        if num_vars is not None and not 1 <= i <= num_vars:
            raise ValueError(f"{what} {i} is out of range 1..{num_vars}")
    return inputs, outputs


@dataclass(frozen=True, eq=False)
class Problem:
    """A 3-SAT instance: N variables and an ordered list of M clauses.

    var_index holds the 0-based variables of each clause (int64) and sign
    their polarities, +1 or -1 (float64); both have shape (M, 3) and are
    read-only copies.  Clause order is part of the identity of the
    instance; it defines the clause index m used by the dynamics, netlists
    and trajectory records.  Instances are immutable and safe to share
    between concurrent runs.
    """

    num_vars: int
    var_index: np.ndarray
    sign: np.ndarray

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        var_index = np.array(self.var_index, dtype=np.int64)
        sign = np.array(self.sign, dtype=np.float64)
        if var_index.ndim != 2 or var_index.shape[1] != 3 or sign.shape != var_index.shape:
            raise ValueError(
                f"var_index and sign must have shape (M, 3), got {var_index.shape} and {sign.shape}"
            )
        if len(var_index) == 0:
            raise ValueError("a problem needs at least one clause")
        if not np.array_equal(var_index, self.var_index):
            raise ValueError("var_index must hold integers")
        out_of_range = (var_index < 0) | (var_index >= self.num_vars)
        if out_of_range.any():
            raise ValueError(
                f"variable index {var_index[out_of_range][0]} out of range [0, {self.num_vars})"
            )
        a, b, c = var_index.T
        repeated = (a == b) | (a == c) | (b == c)
        if repeated.any():
            raise ValueError(
                f"clause variables must be distinct, got {var_index[repeated][0].tolist()}"
            )
        if not (np.abs(sign) == 1.0).all():
            raise ValueError("literal signs must be +1 or -1")
        var_index.setflags(write=False)
        sign.setflags(write=False)
        object.__setattr__(self, "var_index", var_index)
        object.__setattr__(self, "sign", sign)

    def __eq__(self, other):
        if not isinstance(other, Problem):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and np.array_equal(self.var_index, other.var_index)
                and np.array_equal(self.sign, other.sign))

    def __hash__(self):
        return hash((self.num_vars, self.var_index.tobytes(), self.sign.tobytes()))

    @property
    def num_clauses(self) -> int:
        return len(self.var_index)

    @classmethod
    def from_dimacs_clauses(cls, num_vars: int, clauses: Sequence[Sequence[int]]) -> "Problem":
        """Build from clauses given as triples of signed 1-based integers
        (a list of triples or an (M, 3) integer array)."""
        codes = np.array(clauses, dtype=np.int64)
        if (codes == 0).any():
            raise DimacsError("0 is a clause terminator, not a literal")
        return cls(num_vars, np.abs(codes) - 1, np.sign(codes))

    def dimacs_clauses(self) -> np.ndarray:
        """The clauses as an (M, 3) int64 array of signed 1-based literals."""
        return (self.var_index + 1) * self.sign.astype(np.int64)


def assignment_from_bits(bits: str) -> Assignment:
    """Decode a '0101...' string (x1 leftmost) into a boolean vector."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return np.array([b == "1" for b in bits], dtype=bool)


def assignment_to_bits(assignment: Assignment) -> str:
    return "".join("1" if v else "0" for v in np.asarray(assignment, dtype=bool))


_INTEGER = re.compile(r"-?[0-9]+")
_MAX_DIGITS = 18  # every integer of at most 18 decimal digits fits an int64
_INT64_MAX = 2**63 - 1


def _integers(tokens: list[str]) -> list[int] | None:
    """tokens as ints, or None when one is not an ASCII -?[0-9]+ (int() alone
    would also read '+1', '1_0' and non-ASCII digits)."""
    if all(_INTEGER.fullmatch(tok) for tok in tokens):
        return [int(tok) for tok in tokens]
    return None


class _LineRules:
    """The format's rules, applied to one line at a time.  parse_dimacs runs
    them on every line that its array checks do not settle: the lines up to
    the header, comments, blank lines, the trailer, a lone final 0, a clause
    line that is not four tokens between spaces and tabs, and the first
    clause line that fails an array check, whose fault they name."""

    def __init__(self):
        self.num_vars = None
        self.declared = None
        self.in_trailer = False

    def read(self, lineno: int, raw: str, clauses: int) -> list[int] | None:
        """The three literals of a clause line, None for any other line;
        clauses counts the clause lines before it."""
        line = raw.strip()
        if not line or line.startswith("c"):
            return None
        if line == "%":
            self.in_trailer = True
            return None
        if self.in_trailer:
            if line == "0":
                return None
            raise DimacsError(f"line {lineno}: unexpected content after '%' trailer: {line!r}")
        if line.startswith("p"):
            if self.num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem header")
            parts = line.split()
            sizes = _integers(parts[2:])
            if len(parts) != 4 or parts[:2] != ["p", "cnf"] or sizes is None:
                raise DimacsError(f"line {lineno}: malformed header: {line!r}")
            self.num_vars, self.declared = sizes
            if self.num_vars < 1 or self.declared < 1:
                raise DimacsError(f"line {lineno}: header declares empty problem: {line!r}")
            if max(sizes) > _INT64_MAX:  # then a literal up to N might not fit either
                raise DimacsError(f"line {lineno}: header sizes must fit in int64: {line!r}")
            return None
        if self.num_vars is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        if clauses == self.declared and line == "0":
            # some writers emit a lone trailing 0
            return None
        codes = _integers(line.split())
        if codes is None:
            raise DimacsError(f"line {lineno}: non-integer token in clause: {line!r}")
        if not codes or codes[-1] != 0:
            raise DimacsError(f"line {lineno}: clause line must end with 0: {line!r}")
        codes = codes[:-1]
        if 0 in codes:
            raise DimacsError(f"line {lineno}: literal 0 inside clause: {line!r}")
        if len(codes) != 3:
            raise DimacsError(
                f"line {lineno}: clause has {len(codes)} literals, exactly 3 required"
            )
        if len({abs(c) for c in codes}) != 3:
            raise DimacsError(f"line {lineno}: repeated variable within clause: {line!r}")
        for c in codes:
            if abs(c) > self.num_vars:
                raise DimacsError(
                    f"line {lineno}: variable {abs(c)} out of range (header N={self.num_vars})"
                )
        return codes


def _four_token_lines(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(four, codes): which lines hold exactly four tokens of -?[0-9]+, each
    of at most 18 digits, with only spaces and tabs around them, and those
    tokens as a (K, 4) int64 array in line order, read from the lines' bytes
    in one pass of array operations."""
    # 'replace' keeps one byte per character: each non-ASCII one becomes '?'
    data = np.frombuffer(("\n".join(lines) + "\n").encode("ascii", "replace"), np.uint8)
    space = (data == 32) | (data == 9) | (data == 10)
    first = ~space
    first[1:] &= space[:-1]
    last = ~space
    last[:-1] &= space[1:]
    start, end = np.flatnonzero(first), np.flatnonzero(last)
    minus = data[start] == 45
    width = end - start + 1 - minus  # digits of each token
    stray = ~space & ((data < 48) | (data > 57))
    stray[start[minus]] = False  # a token's leading minus
    ends = np.flatnonzero(data == 10)  # the newline that ends each line
    line = np.searchsorted(ends, start)
    four = np.bincount(line, minlength=len(lines)) == 4
    four[np.searchsorted(ends, np.flatnonzero(stray))] = False
    four[line[(width < 1) | (width > _MAX_DIGITS)]] = False
    keep = four[line]
    first_digit, end, minus = (start + minus)[keep], end[keep], minus[keep]
    codes = np.zeros(len(end), dtype=np.int64)
    for k in range(int((end - first_digit).max(initial=-1)) + 1):  # digits right to left
        at = end - k
        codes += 10**k * np.where(at >= first_digit, data[at] - 48, 0).astype(np.int64)
    codes = np.where(minus, -codes, codes)
    return four, codes.reshape(-1, 4)


def parse_dimacs(text) -> Problem:
    """Parse DIMACS CNF text into a Problem.

    Accepts a string or a file-like object. The format is strict: optional
    'c' comment lines, a single 'p cnf N M' header, then M clause lines of
    exactly three distinct literals terminated by 0. Every header field and
    clause token is an ASCII integer, -?[0-9]+; lines end at the
    str.splitlines breaks. Legacy SATLIB '%' / '0' trailer lines after the
    clauses are tolerated and ignored.

    The lines after the header that hold four integer tokens are read and
    checked as one (K, 4) array; _LineRules reads every other line, and the
    first one that fails an array check, so each rule and message is stated
    once.
    """
    if hasattr(text, "read"):
        text = text.read()
    lines = text.splitlines()
    rules = _LineRules()
    head = 0
    while rules.num_vars is None:
        if head == len(lines):
            raise DimacsError("missing 'p cnf' header")
        rules.read(head + 1, lines[head], 0)
        head += 1
    body = lines[head:]
    four, codes = _four_token_lines(body)
    rows = np.flatnonzero(four)
    trailer = next((i for i in np.flatnonzero(~four).tolist() if body[i].strip() == "%"),
                   len(body))
    literals = codes[:, :3]
    var = np.abs(literals)
    a, b, c = var.T
    fault = ((codes[:, 3] != 0) | (literals == 0).any(axis=1) | (a == b) | (a == c) | (b == c)
             | (var > rules.num_vars).any(axis=1) | (rows > trailer))
    rows, literals = rows[~fault], literals[~fault]
    settled = np.zeros(len(body), dtype=bool)
    settled[rows] = True
    extra = {}  # body index -> literals of a clause line that only the line rules read
    for k, i in enumerate(np.flatnonzero(~settled).tolist()):
        # before line i come i - k settled clause lines and every extra one
        found = rules.read(head + i + 1, body[i], i - k + len(extra))
        if found is not None:
            extra[i] = found
    if extra:
        order = np.argsort(np.concatenate([rows, list(extra)]))
        literals = np.concatenate([literals, np.array(list(extra.values()), dtype=np.int64)])
        literals = literals[order]
    if len(literals) != rules.declared:
        raise DimacsError(
            f"header declares {rules.declared} clauses, file has {len(literals)}"
        )
    return Problem.from_dimacs_clauses(rules.num_vars, literals)


def read_dimacs(path) -> Problem:
    """Parse the DIMACS file at path; a malformed one raises DimacsError naming it."""
    try:
        return parse_dimacs(Path(path).read_text(encoding="utf-8"))
    except (DimacsError, UnicodeDecodeError) as exc:
        raise DimacsError(f"{path}: {exc}") from None


def write_dimacs(problem: Problem, comments: Sequence[str] = ()) -> str:
    """Serialize a Problem to canonical DIMACS text (newline line endings).
    A comment that holds a line break (any str.splitlines break) raises
    ValueError, since its text would no longer read as one comment line."""
    head = []
    for comment in comments:
        line = f"c {comment}"
        if line.splitlines() != [line]:
            raise ValueError(f"comment {comment!r} holds a line break")
        head.append(line + "\n")
    head.append(f"p cnf {problem.num_vars} {problem.num_clauses}\n")
    codes = tuple(problem.dimacs_clauses().ravel().tolist())
    return "".join(head) + "%d %d %d 0\n" * problem.num_clauses % codes


def count_unsatisfied(problem: Problem, assignment: Assignment) -> int:
    """Number of clauses with no satisfied literal; 0 iff the formula holds."""
    assignment = np.asarray(assignment, dtype=bool)
    if assignment.shape != (problem.num_vars,):
        raise ValueError(
            f"assignment length {assignment.shape} does not match N={problem.num_vars}"
        )
    want_true = problem.sign > 0  # literal satisfied when value matches polarity
    lit_sat = assignment[problem.var_index] == want_true
    return int(problem.num_clauses - np.count_nonzero(lit_sat.any(axis=1)))
