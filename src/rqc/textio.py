"""Line-oriented circuit text format (.rqc files).

Grammar, one statement per line:

    qubits <n>                      header, required first statement
    <mnemonic> <operand...> [<angle>]

'#' starts a comment running to the end of the line; blank lines are
skipped; operands are qubit indices, control first; angles are plain
decimal literals in radians. Counts, operands and angles take ASCII
digits only. Emission is canonical: LF line endings, angles at 17
significant digits, trailing newline. The parser also accepts CRLF
input. Both directions handle a run of identical lines once: parse
finds a run's extent by galloping (startswith on doubled copies of its
line) and shares one Gate across it, and emit formats one line per run
of equal gates. The text is byte for byte that of
line-by-line handling. Python steps scale with runs (times log of the
run length in parse); only C comparisons and copies scale with bytes.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import groupby, repeat

from .circuit import Circuit, Gate, GateKind

_MNEMONICS = {k.value: k for k in GateKind}
_TOKEN_RE = re.compile(r"\S+")
# literals are ASCII, as emit writes them: without re.ASCII, \d would
# also take Arabic-Indic and full-width digits, which int and float read
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)
# parse's gallop stops doubling at this many characters, so a huge run
# costs about 2 MB of scratch text and one step per megabyte beyond it
_GALLOP_MAX = 1 << 20


class ParseError(ValueError):
    """Parse failure at a 1-based line and column of the offending token."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


def _tokens(raw: str) -> list[tuple[int, str]]:
    # (column, token) pairs; columns are 1-based into the original line
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(raw.partition("#")[0])]


def _run_end(text: str, unit: str, pos: int) -> int:
    # end of the run of copies of unit that starts at pos (one copy at
    # least): gallop up the powers of two, then walk back down them
    blocks = [unit]
    while text.startswith(blocks[-1], pos):
        pos += len(blocks[-1])
        if len(blocks[-1]) < _GALLOP_MAX:
            blocks.append(blocks[-1] * 2)
    for block in reversed(blocks[:-1]):
        if text.startswith(block, pos):
            pos += len(block)
    return pos


def _runs(text: str) -> Iterator[tuple[str, int]]:
    # (line, count) for each run of groupby(text.split("\n")), without
    # the split: the line is what precedes each "\n" (a CR stays in it)
    pos, end = 0, len(text)
    while True:
        nl = text.find("\n", pos)
        if nl < 0:
            yield text[pos:], 1
            return
        unit = text[pos:nl + 1]
        stop = _run_end(text, unit, pos)
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
    for raw, run in _runs(text):
        lineno = next_line
        next_line += run
        toks = _tokens(raw)
        if not toks:
            continue
        col0, head = toks[0]
        if circuit is None:
            if head != "qubits":
                raise ParseError(lineno, col0, "first statement must be 'qubits <n>'")
            if len(toks) != 2:
                raise ParseError(lineno, col0, "'qubits' takes exactly one count")
            col, tok = toks[1]
            if not _INT_RE.match(tok) or int(tok) < 1:
                raise ParseError(lineno, col, f"qubit count must be a positive integer, got '{tok}'")
            circuit = Circuit(int(tok))
            if run > 1:
                raise ParseError(lineno + 1, col0, "duplicate 'qubits' header")
            continue
        if head == "qubits":
            raise ParseError(lineno, col0, "duplicate 'qubits' header")
        kind = _MNEMONICS.get(head)
        if kind is None:
            raise ParseError(lineno, col0, f"unknown gate '{head}'")
        if len(toks) - 1 != kind.num_operands + kind.num_params:
            raise ParseError(
                lineno, col0,
                f"'{head}' takes {kind.num_operands} operand(s) and "
                f"{kind.num_params} angle(s), got {len(toks) - 1} token(s)",
            )
        qubits = []
        for col, tok in toks[1:1 + kind.num_operands]:
            if not _INT_RE.match(tok):
                raise ParseError(lineno, col, f"operand must be an integer, got '{tok}'")
            q = int(tok)
            if q < 0 or q >= circuit.num_qubits:
                raise ParseError(
                    lineno, col,
                    f"operand {q} out of range for {circuit.num_qubits} qubit(s)",
                )
            qubits.append(q)
        if kind.num_operands == 2 and qubits[0] == qubits[1]:
            raise ParseError(lineno, toks[2][0], "duplicate operands")
        param = None
        if kind.num_params:
            col, tok = toks[-1]
            if not _FLOAT_RE.match(tok):
                raise ParseError(lineno, col, f"angle must be a decimal literal, got '{tok}'")
            param = float(tok)
            if param in (float("inf"), float("-inf")):
                raise ParseError(lineno, col, "angle overflows to infinity")
        circuit.gates.extend(repeat(Gate(kind, tuple(qubits), param), run))
    if circuit is None:
        raise ParseError(1, 1, "missing 'qubits' header")
    return circuit


def emit(c: Circuit) -> str:
    """Canonical text for a valid circuit; parse(emit(c)) == c. Each run of
    equal gates is formatted once; groupby compares them in C, by identity
    first. f(0.0) == f(-0.0) prints two ways, so a run of zero angles is
    split again by Gate identity."""
    out = [f"qubits {c.num_qubits}\n"]
    for g, run in groupby(c.gates):
        if g.param == 0:
            for _, same in groupby(run, key=id):
                same = list(same)
                out.append(_line(same[0]) * len(same))
        else:
            out.append(_line(g) * len(list(run)))
    return "".join(out)


def _line(g: Gate) -> str:
    parts = [g.kind.value, *map(str, g.qubits)]
    if g.kind.num_params:
        parts.append(format(g.param, ".17g"))
    return " ".join(parts) + "\n"
