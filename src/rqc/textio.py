"""Line-oriented circuit text format (.rqc files).

Grammar, one statement per line:

    qubits <n>                      header, required first statement
    <mnemonic> <operand...> [<angle>]

'#' starts a comment running to the end of the line; blank lines are
skipped; operands are qubit indices, control first; angles are plain
decimal literals in radians. Counts, operands and angles take ASCII
digits only. Emission is canonical: LF line endings, angles at 17
significant digits, trailing newline. The parser also accepts CRLF
input. Both directions handle a run of identical lines once, and the
text is byte for byte that of line-by-line handling.

parse finds a run's extent by galloping: startswith on copies of its
line doubled up to _GALLOP_MAX (4 KiB), then back down. A line that
comes in a run of two or more keeps, for the rest of the call, its
doubled copies (under 8 KiB per distinct line) and, for a gate line,
its checked Gate fields, so a later run of it builds no copies and is
not tokenized; each run gets one Gate, shared across it. Lines that
only come singly keep nothing. A line is tokenized by str.split, and a
token's column is found only for a ParseError. emit lets groupby skip
each run of equal gates in C and reads the run's bounds off the list
iterator, then formats one line per run, by its kind's %-template, and
repeats it. Python steps thus scale with runs (times the log of the
run length, plus one step per 2-4 KiB of a long run); only C
comparisons and copies scale with bytes and lines.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import chain, groupby, pairwise, repeat
from operator import length_hint

from .circuit import Circuit, Gate, GateKind

_MNEMONICS = {k.value: k for k in GateKind}
# literals are ASCII, as emit writes them: without re.ASCII, \d would
# also take Arabic-Indic and full-width digits, which int and float read
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)
# an unsigned angle literal; cli reads a dash before one as a sign
_DECIMAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z"
_FLOAT_RE = re.compile(r"[+-]?" + _DECIMAL, re.ASCII)
# parse's gallop doubles a line's copies up to this many characters: a
# line's cached copies then take under 8 KiB, and a long run costs one
# startswith per 2-4 KiB of it
_GALLOP_MAX = 1 << 12


class ParseError(ValueError):
    """Parse failure at a 1-based line and column of the offending token."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _tokens(raw: str) -> list[str]:
    # the runs of non-whitespace before any '#': str.split and the regex
    # \S+ take the same whitespace, str.isspace's, at every code point
    return raw.partition("#")[0].split()


def _column(raw: str, toks: list[str], i: int) -> int:
    # the 1-based column of toks[i] in raw, found only for an error: only
    # whitespace lies between two tokens, so each is the first match of
    # itself past the end of the one before
    end = 0
    for tok in toks[: i + 1]:
        end = raw.index(tok, end) + len(tok)
    return end - len(toks[i]) + 1


def _run_end(text: str, blocks: list[str], pos: int) -> int:
    # end of the run of copies of blocks[0] that starts at pos (one copy
    # at least). blocks[j] is blocks[0] * 2**j: gallop up them, doubling
    # the top block while it fits in _GALLOP_MAX, then walk back down.
    # A block is appended only when the gallop reaches it, so the
    # caller's list keeps it for the line's later runs
    pos += len(blocks[0])
    j = 0
    while text.startswith(blocks[j], pos):
        pos += len(blocks[j])
        if 2 * len(blocks[j]) <= _GALLOP_MAX:
            j += 1
            if j == len(blocks):
                blocks.append(blocks[-1] * 2)
    for block in reversed(blocks[:j]):
        if text.startswith(block, pos):
            pos += len(block)
    return pos


def _runs(text: str) -> Iterator[tuple[str, int]]:
    # (line, count) for each run of groupby(text.split("\n")), without
    # the split: the line is what precedes each "\n" (a CR stays in it)
    pos, end = 0, len(text)
    blocks_of: dict[str, list[str]] = {}
    while True:
        nl = text.find("\n", pos)
        if nl < 0:
            yield text[pos:], 1
            return
        unit = text[pos:nl + 1]
        blocks = blocks_of.get(unit) or [unit]
        stop = _run_end(text, blocks, pos)
        if len(blocks) > 1:
            # the line repeated: keep its doubled copies for its next run
            blocks_of[unit] = blocks
        raw, run = unit[:-1], (stop - pos) // len(unit)
        if end - stop == len(raw) and text.startswith(raw, stop):
            # the unterminated last line repeats the run
            yield raw, run + 1
            return
        yield raw, run
        pos = stop


def parse(text: str) -> Circuit:
    """Parse .rqc text into a validated circuit; raises ParseError at the
    first problem, with the line and column of the offending token."""
    circuit: Circuit | None = None
    next_line = 1
    # the Gate fields of each gate line that came in a run of two or
    # more: a later run of that line is not tokenized or checked again
    fields_of: dict[str, tuple] = {}
    for raw, run in _runs(text):
        lineno = next_line
        next_line += run
        fields = fields_of.get(raw)
        if fields is not None:
            circuit.gates.extend(repeat(Gate(*fields), run))
            continue
        toks = _tokens(raw)
        if not toks:
            continue
        head = toks[0]
        if circuit is None:
            if head != "qubits":
                col0 = _column(raw, toks, 0)
                raise ParseError(lineno, col0, "first statement must be 'qubits <n>'")
            if len(toks) != 2:
                raise ParseError(lineno, _column(raw, toks, 0), "'qubits' takes exactly one count")
            tok = toks[1]
            if not _INT_RE.match(tok) or int(tok) < 1:
                raise ParseError(
                    lineno, _column(raw, toks, 1),
                    f"qubit count must be a positive integer, got '{tok}'",
                )
            circuit = Circuit(int(tok))
            if run > 1:
                raise ParseError(lineno + 1, _column(raw, toks, 0), "duplicate 'qubits' header")
            continue
        if head == "qubits":
            raise ParseError(lineno, _column(raw, toks, 0), "duplicate 'qubits' header")
        kind = _MNEMONICS.get(head)
        if kind is None:
            raise ParseError(lineno, _column(raw, toks, 0), f"unknown gate '{head}'")
        if len(toks) - 1 != kind.num_operands + kind.num_params:
            raise ParseError(
                lineno, _column(raw, toks, 0),
                f"'{head}' takes {kind.num_operands} operand(s) and "
                f"{kind.num_params} angle(s), got {len(toks) - 1} token(s)",
            )
        qubits = []
        for i in range(1, 1 + kind.num_operands):
            tok = toks[i]
            if not _INT_RE.match(tok):
                raise ParseError(
                    lineno, _column(raw, toks, i), f"operand must be an integer, got '{tok}'"
                )
            q = int(tok)
            if q < 0 or q >= circuit.num_qubits:
                raise ParseError(
                    lineno, _column(raw, toks, i),
                    f"operand {q} out of range for {circuit.num_qubits} qubit(s)",
                )
            qubits.append(q)
        if kind.num_operands == 2 and qubits[0] == qubits[1]:
            raise ParseError(lineno, _column(raw, toks, 2), "duplicate operands")
        param = None
        if kind.num_params:
            i = len(toks) - 1
            tok = toks[i]
            if not _FLOAT_RE.match(tok):
                raise ParseError(
                    lineno, _column(raw, toks, i), f"angle must be a decimal literal, got '{tok}'"
                )
            param = float(tok)
            if param in (float("inf"), float("-inf")):
                raise ParseError(lineno, _column(raw, toks, i), "angle overflows to infinity")
        fields = (kind, tuple(qubits), param)
        if run > 1:
            fields_of[raw] = fields
        circuit.gates.extend(repeat(Gate(*fields), run))
    if circuit is None:
        raise ParseError(1, 1, "missing 'qubits' header")
    return circuit


def emit(c: Circuit) -> str:
    """Canonical text for a valid circuit; parse(emit(c)) == c. Each run of
    equal gates is formatted once; groupby compares them in C, by identity
    first, and skips through each run without a copy of it, while the
    gate list's iterator tells where each run starts. f(0.0) == f(-0.0)
    prints two ways, so a run of zero angles is split again by Gate
    identity."""
    gates = c.gates
    it = iter(gates)
    # groupby has taken each run's first gate when it yields the run
    starts = ((g, len(gates) - 1 - length_hint(it)) for g, _ in groupby(it))
    out = [f"qubits {c.num_qubits}\n"]
    for (g, start), (_, stop) in pairwise(chain(starts, [(None, len(gates))])):
        if g.param == 0:
            for _, same in groupby(gates[start:stop], key=id):
                same = list(same)
                out.append(_line(same[0]) * len(same))
        else:
            out.append(_line(g) * (stop - start))
    return "".join(out)


# one %-template per kind, indexed by GateKind.ordinal: "f %d %d %.17g\n".
# %d writes an int as str does, and %.17g a float as format(x, ".17g")
_LINES = tuple(
    " ".join([k.value] + ["%d"] * k.num_operands + ["%.17g"] * k.num_params) + "\n"
    for k in GateKind
)


def _line(g: Gate) -> str:
    k = g.kind
    return _LINES[k.ordinal] % ((*g.qubits, g.param) if k.num_params else g.qubits)
