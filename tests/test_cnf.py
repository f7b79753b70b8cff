import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctsat.cnf import (
    DimacsError,
    Problem,
    assignment_from_bits,
    assignment_to_bits,
    count_unsatisfied,
    parse_dimacs,
    read_dimacs,
    write_dimacs,
)
from ctsat.harness import generate_instance, save_instance
from ctsat.instances import BarthelParams, gen_barthel


# the breaks that end a line for str.splitlines, so for the DIMACS parser
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029")


def reference_parse_dimacs(text):
    """The line-by-line parser that parse_dimacs replaced (the oracle for its
    results and messages); it reads tokens with int(), so it also takes
    '+1', '1_0' and non-ASCII digits."""
    if hasattr(text, "read"):
        text = text.read()

    num_vars = None
    declared_clauses = None
    clauses = []
    in_trailer = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line == "%":
            in_trailer = True
            continue
        if in_trailer:
            if line == "0":
                continue
            raise DimacsError(f"line {lineno}: unexpected content after '%' trailer: {line!r}")
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header: {line!r}")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header: {line!r}") from None
            if num_vars < 1 or declared_clauses < 1:
                raise DimacsError(f"line {lineno}: header declares empty problem: {line!r}")
            if max(num_vars, declared_clauses) > 2**63 - 1:  # the one rule added since
                raise DimacsError(f"line {lineno}: header sizes must fit in int64: {line!r}")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before 'p cnf' header")
        if len(clauses) == declared_clauses and line == "0":
            continue
        try:
            codes = [int(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError(f"line {lineno}: non-integer token in clause: {line!r}") from None
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
            if abs(c) > num_vars:
                raise DimacsError(
                    f"line {lineno}: variable {abs(c)} out of range (header N={num_vars})"
                )
        clauses.append(codes)

    if num_vars is None:
        raise DimacsError("missing 'p cnf' header")
    if len(clauses) != declared_clauses:
        raise DimacsError(
            f"header declares {declared_clauses} clauses, file has {len(clauses)}"
        )
    return Problem.from_dimacs_clauses(num_vars, clauses)


def naive_unsatisfied(problem, assignment):
    """Independent per-clause evaluator (the oracle for count_unsatisfied)."""
    count = 0
    for clause in problem.dimacs_clauses().tolist():
        satisfied = False
        for code in clause:
            value = bool(assignment[abs(code) - 1])
            if (code > 0 and value) or (code < 0 and not value):
                satisfied = True
                break
        if not satisfied:
            count += 1
    return count


def all_pattern_problem():
    """The 8 clauses enumerating every sign pattern over (x1, x2, x3)."""
    clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)
    ]
    return Problem.from_dimacs_clauses(3, clauses)


def test_parse_minimal():
    p = parse_dimacs("p cnf 3 1\n1 -2 3 0\n")
    assert p.num_vars == 3
    assert p.num_clauses == 1
    assert tuple(p.dimacs_clauses()[0]) == (1, -2, 3)


def test_parse_skips_comments_and_trailer():
    text = "c a comment\nc another\np cnf 3 1\n1 -2 3 0\n%\n0\n"
    p = parse_dimacs(text)
    assert p.num_clauses == 1


def test_parse_accepts_file_object(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 -2 3 0\n")
    with open(path) as handle:
        p = parse_dimacs(handle)
    assert p.num_vars == 3


@pytest.mark.parametrize("text", [
    "p cnf 2 1\n1 2 0\n",              # clause with 2 literals
    "p cnf 4 1\n1 2 3 4 0\n",          # clause with 4 literals
    "p cnf 3 1\n1 -1 3 0\n",           # repeated variable
    "p cnf 3 1\n1 2 4 0\n",            # variable out of range
    "p cnf 3 2\n1 2 3 0\n",            # declared M mismatch
    "p cnf 3 1\n1 2 3\n",              # missing terminator
    "p 3 1\n1 2 3 0\n",                # malformed header
    "1 2 3 0\n",                       # clause before header
    "p cnf 3 1\np cnf 3 1\n1 2 3 0\n", # duplicate header
    "p cnf 10 1\n1_0 -2 3 0\n",       # int() reads 1_0 as 10
    "p cnf 3 1\n1 -2 \u0663 0\n",      # Arabic-Indic three
    "p cnf 3 1\n\uff11 -2 3 0\n",      # fullwidth one
    "p cnf 3 1\n+1 -2 3 0\n",         # leading plus
    "p cnf 1_0 4\n1 2 3 0\n",         # header field 1_0
    "p cnf 3 1\n1 2 3 -\n",            # a minus without digits
    "p cnf 3 1\n%\n1 2 3 0\n",         # clause after the trailer
    "p cnf 99999999999999999999 1\n1 2 3 0\n",                     # N beyond int64
    "p cnf 99999999999999999999 1\n99999999999999999998 2 3 0\n",  # and a literal below it
    "p cnf 3 99999999999999999999\n1 2 3 0\n",                     # M beyond int64
    "p cnf 9223372036854775807 1\n-9223372036854775808 2 3 0\n",   # a literal beyond int64
])
def test_parse_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


_BIG_HEADER = "p cnf 99999999999999999999 1"


@pytest.mark.parametrize("text, message", [
    (f"{_BIG_HEADER}\n1 2 3 0\n", f"line 1: header sizes must fit in int64: {_BIG_HEADER!r}"),
    (f"{_BIG_HEADER}\n99999999999999999998 2 3 0\n",
     f"line 1: header sizes must fit in int64: {_BIG_HEADER!r}"),
    ("p cnf 9223372036854775807 1\n-9223372036854775808 2 3 0\n",
     "line 2: variable 9223372036854775808 out of range (header N=9223372036854775807)"),
])
def test_numbers_beyond_int64_are_named_by_line(text, message):
    # a header N beyond int64 was accepted, and a literal below it then
    # ended in a bare OverflowError
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


def test_first_fault_in_line_order_is_named():
    # the clause block is checked before the trailer's lines are read, so
    # its repeated variable is named, not the trailer's stray 5 on line 5
    message = "line 3: repeated variable within clause: '1 1 2 0'"
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs("p cnf 3 2\n1 2 3 0\n1 1 2 0\n%\n5\n")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "+1"])
def test_tokens_are_ascii_integers(token):
    """A token int() reads but -?[0-9]+ does not match gets the message of
    any other non-integer token, in a clause or in the header."""
    line = f"{token} -2 3 0"
    with pytest.raises(DimacsError, match=f"^line 2: non-integer token in clause: {re.escape(repr(line))}$"):
        parse_dimacs(f"p cnf 10 1\n{line}\n")
    header = f"p cnf {token} 1"
    with pytest.raises(DimacsError, match=f"^line 1: malformed header: {re.escape(repr(header))}$"):
        parse_dimacs(f"{header}\n1 2 3 0\n")


def test_read_dimacs_names_the_file(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 3 1\n1 -2 3 0\n")
    assert read_dimacs(path) == parse_dimacs(path.read_text())
    path.write_text("p cnf 3 1\n1 x 3 0\n")
    with pytest.raises(DimacsError, match=f"^{re.escape(str(path))}: line 2: non-integer token"):
        read_dimacs(path)
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DimacsError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
        read_dimacs(path)
    with pytest.raises(FileNotFoundError):
        read_dimacs(tmp_path / "missing.cnf")

def test_write_minimal():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    assert write_dimacs(p) == "p cnf 3 1\n1 -2 3 0\n"


def test_write_with_comments():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    text = write_dimacs(p, comments=["hello"])
    assert text.startswith("c hello\np cnf 3 1\n")


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_write_rejects_comments_with_line_breaks(brk):
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    for comment in (f"two{brk}1 2 3 0", f"trailing{brk}"):
        with pytest.raises(ValueError, match=f"^comment {re.escape(repr(comment))} holds a line break$"):
            write_dimacs(p, comments=["fine", comment])
    assert write_dimacs(p, comments=["", "tab\tand\x1fspace"]).startswith("c \nc tab")


def test_dimacs_files_are_utf8_whatever_the_locale(tmp_path, monkeypatch):
    # a Latin-1 locale for every read and write that names no encoding
    monkeypatch.setattr(io, "text_encoding", lambda encoding, stacklevel=2: encoding or "latin-1")
    inst = generate_instance("B4.3", 10, 1)
    path = save_instance(inst, tmp_path, "caf\u00e9", "B4.3", 1)
    assert path.read_bytes().startswith("c B4.3 instance caf\u00e9\n".encode("utf-8"))
    assert read_dimacs(path) == inst.problem
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DimacsError, match="'utf-8' codec"):
        read_dimacs(path)


def test_empty_clause_list_rejected_at_construction():
    with pytest.raises(ValueError):
        Problem(3, (), ())
    with pytest.raises(ValueError):
        Problem(3, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Problem.from_dimacs_clauses(3, [])


def test_clause_validation():
    # (var_index, sign) rows for Problem(3, ...); None where no DIMACS code exists
    cases = [
        ([[0, 1]], [[1, 1]], [(1, 2)]),                          # two literals
        ([[0, 1, 2, 0]], [[1, 1, 1, 1]], [(1, 2, 3, 1)]),        # four literals
        ([[0, 0, 1]], [[1, -1, 1]], [(1, -1, 2)]),               # repeated variable
        (None, None, [(0, 1, 2)]),                               # literal 0
        ([[0, 1, 2]], [[2, 1, 1]], None),                        # sign of 2
        ([[-1, 1, 2]], [[1, 1, 1]], None),                       # negative index
        ([[0, 1, 3]], [[1, 1, 1]], [(1, 2, 4)]),                 # index >= N
        ([[0, 1, 1.5]], [[1, 1, 1]], None),                      # fractional index
    ]
    for var_index, sign, codes in cases:
        if var_index is not None:
            with pytest.raises(ValueError):
                Problem(3, np.array(var_index), np.array(sign))
        if codes is not None:
            with pytest.raises(ValueError):
                Problem.from_dimacs_clauses(3, codes)
    # the valid row the cases start from is accepted both ways
    assert Problem(3, np.array([[0, 1, 2]]), np.array([[1, -1, 1]])) == (
        Problem.from_dimacs_clauses(3, [(1, -2, 3)]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_roundtrip_on_generated_problems(seed):
    inst = gen_barthel(BarthelParams(num_vars=8, ratio=3.0, seed=seed))
    text = write_dimacs(inst.problem)
    assert parse_dimacs(text) == inst.problem
    # write . parse is the identity on canonical text
    assert write_dimacs(parse_dimacs(text)) == text


_PAD = st.sampled_from(["", " ", "\t", "  ", " \t "])
_GAP = st.sampled_from([" ", "\t", "  ", " \t", "\x1f", "\xa0"])
_COMMENT = st.sampled_from(["", "c", "c hello", "c 1 2 3 0", "cnf", "c\t%", "c p cnf 3 1"])


@st.composite
def dimacs_texts(draw):
    """Valid DIMACS texts: comments before and between the clauses, blank
    lines, any line break, tabs and trailing spaces, and a '%' / '0'
    trailer or a lone final 0."""
    num_vars = draw(st.integers(3, 9))
    clauses = draw(st.lists(st.permutations(range(1, num_vars + 1)).map(lambda v: v[:3]),
                            min_size=1, max_size=6))

    def line(*fields):
        gaps = [draw(_GAP) for _ in fields[1:]]
        inner = fields[0] + "".join(gap + f for gap, f in zip(gaps, fields[1:]))
        return draw(_PAD) + inner + draw(_PAD)

    lines = draw(st.lists(_COMMENT, max_size=2))
    lines.append(line("p", "cnf", str(num_vars), str(len(clauses))))
    for variables in clauses:
        lines += draw(st.lists(_COMMENT, max_size=1))
        lines.append(line(*(str(v * draw(st.sampled_from([1, -1]))) for v in variables), "0"))
    lines += draw(st.sampled_from([[], ["%"], ["%", "0"], ["%", "0", ""], ["0"], [" 0 ", "c"]]))
    breaks = [draw(st.sampled_from(LINE_BREAKS)) for _ in lines]
    if not draw(st.booleans()):
        breaks[-1] = ""
    return "".join(text + brk for text, brk in zip(lines, breaks))


_TOKENS = ["0", "-0", "00", "1", "-1", "2", "-3", "9", "10", "-10", "x", "-", "--1", "1-",
           "p", "cnf", "c", "%", "", "99999999999999999999", "1.0",
           "+1", "1_0", "\u0663", "\uff11"]  # the last four only int() reads
_CHARS = ["0", "1", "9", "-", "+", "_", " ", "\t", "c", "p", "%", "x", "\xa0", "\x1f", "\x00",
          "\u0663", "\uff11", *LINE_BREAKS]


@st.composite
def corrupted(draw, texts):
    """A text from texts, as it is, with one token or one character
    replaced, inserted or deleted, or with one line moved."""
    text = draw(texts)
    kind = draw(st.sampled_from(["none", "token", "insert", "delete", "replace", "line"]))
    if kind == "line":
        lines = text.splitlines(keepends=True)
        lines.insert(draw(st.integers(0, len(lines) - 1)),
                     lines.pop(draw(st.integers(0, len(lines) - 1))))
        return "".join(lines)
    if kind == "token":
        parts = re.split(r"(\s+)", text)
        k = draw(st.integers(0, len(parts) - 1))
        parts[k] = draw(st.sampled_from(_TOKENS))
        return "".join(parts)
    if kind == "none" or not text:
        return text
    k = draw(st.integers(0, len(text) - 1))
    char = "" if kind == "delete" else draw(st.sampled_from(_CHARS))
    return text[:k] + char + text[k + (kind != "insert"):]


def _only_int_reads(token):
    """Whether int() reads token although -?[0-9]+ does not match it."""
    try:
        int(token)
    except ValueError:
        return False
    return not re.fullmatch(r"-?[0-9]+", token)


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(corrupted(dimacs_texts()))
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_line_by_line_reference(text):
    """parse_dimacs gives the reference's Problem or its exact error, except
    on a line holding a token that only int() reads, where it names that
    token as malformed."""
    got, want = _outcome(parse_dimacs, text), _outcome(reference_parse_dimacs, text)
    if isinstance(want, Problem) and isinstance(got, Problem):
        assert got == want
        return
    if got == want:
        return
    assert not isinstance(got, Problem) and got[0] is DimacsError, (got, want)
    named = re.match(r"line (\d+): (?:non-integer token in clause|malformed header): ", got[1])
    assert named, (got, want)
    assert any(map(_only_int_reads, text.splitlines()[int(named.group(1)) - 1].split()))


@pytest.mark.parametrize("num_vars", [10, 50, 2000, 10_000])
@pytest.mark.parametrize("family", ["B4.3", "B7", "X"])
def test_roundtrip_on_instance_streams(family, num_vars):
    problem = generate_instance(family, num_vars, 1).problem
    text = write_dimacs(problem)
    assert parse_dimacs(text) == problem
    assert write_dimacs(parse_dimacs(text)) == text
    # a trailer after the clause block, and a comment line that sends every
    # line after the header to the line rules
    header, clauses = text.split("\n", 1)
    for variant in (text + "%\n0\n", f"{header}\nc after the header\n{clauses}"):
        assert parse_dimacs(variant) == problem


def test_count_unsatisfied_first_clause_example():
    # (x1 v ~x2 v x3) is satisfied by x1 = TRUE whatever the rest
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    for x2 in (False, True):
        for x3 in (False, True):
            assert count_unsatisfied(p, np.array([True, x2, x3])) == 0


def test_count_unsatisfied_all_patterns_is_one():
    p = all_pattern_problem()
    for bits in range(8):
        assignment = np.array([(bits >> k) & 1 == 1 for k in range(3)])
        assert count_unsatisfied(p, assignment) == 1


def test_count_unsatisfied_matches_naive():
    rng = np.random.default_rng(7)
    for seed in range(25):
        inst = gen_barthel(BarthelParams(num_vars=12, ratio=4.0, seed=seed))
        assignment = rng.random(12) < 0.5
        assert count_unsatisfied(inst.problem, assignment) == naive_unsatisfied(
            inst.problem, assignment
        )


def test_count_unsatisfied_zero_iff_satisfying():
    inst = gen_barthel(BarthelParams(num_vars=6, ratio=3.0, seed=5))
    p = inst.problem
    for code in range(2 ** 6):
        assignment = np.array([(code >> k) & 1 == 1 for k in range(6)])
        assert (count_unsatisfied(p, assignment) == 0) == (
            naive_unsatisfied(p, assignment) == 0
        )


def test_count_unsatisfied_length_mismatch():
    p = Problem.from_dimacs_clauses(3, [(1, -2, 3)])
    with pytest.raises(ValueError):
        count_unsatisfied(p, np.array([True, False]))


def test_assignment_bits_roundtrip():
    bits = "0110"
    assert assignment_to_bits(assignment_from_bits(bits)) == bits
    with pytest.raises(ValueError):
        assignment_from_bits("01x")
