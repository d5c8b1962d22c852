import math
import time
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqc.textio as textio
from rqc import (
    Circuit,
    Gate,
    GateKind,
    LoweringLevel,
    ParseError,
    emit,
    parse,
    qft,
    random_circuit,
    transpile,
)

from _oracles import char_tokens, join_line, line_emit, line_parse, regex_tokens


def test_parse_minimal():
    c = parse("qubits 2\nh 0\ncx 0 1\n")
    assert c == Circuit(2).h(0).cx(0, 1)


def test_parse_accepts_comments_blanks_and_crlf():
    text = (
        "# leading comment\r\n"
        "\r\n"
        "qubits 3   # inline comment\r\n"
        "  rz 1 -0.5\r\n"
        "\n"
        "f 2 0 1.25e-1 # trailing\n"
        "gphase 3.0\n"
    )
    c = parse(text)
    assert c == Circuit(3).rz(1, -0.5).f(2, 0, 0.125).gphase(3.0)


def test_parse_without_trailing_newline():
    assert parse("qubits 1\nx 0") == Circuit(1).x(0)


def test_emit_canonical_form():
    c = Circuit(2).h(0).rz(1, math.pi).f(0, 1, 0.5).gphase(-1.0)
    assert emit(c) == (
        "qubits 2\n"
        "h 0\n"
        "rz 1 3.1415926535897931\n"
        "f 0 1 0.5\n"
        "gphase -1\n"
    )


def test_emit_angles_survive_the_round_trip_bit_exactly():
    angles = [math.pi, -math.tau, 1e-300, 0.1 + 0.2, 5.551115123125783e-17]
    c = Circuit(1)
    for a in angles:
        c.rz(0, a)
    back = parse(emit(c))
    assert [g.param for g in back.gates] == angles


def test_round_trip_on_random_circuits():
    for seed in range(40):
        c = random_circuit(1 + seed % 5, 20, seed)
        assert parse(emit(c)) == c
        assert emit(parse(emit(c))) == emit(c)


@settings(max_examples=60, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["rz", "ry", "rx", "gphase", "f"]))
def test_round_trip_angle_property(angle, mnemonic):
    kind = GateKind(mnemonic)
    qubits = (0, 1)[: kind.num_operands]
    c = Circuit(2)
    c.gates.append(Gate(kind, qubits, angle))
    assert parse(emit(c)) == c


def err(text):
    with pytest.raises(ParseError) as e:
        parse(text)
    return e.value


def test_missing_header():
    e = err("")
    assert (e.line, e.column) == (1, 1)
    assert e.message == "missing 'qubits' header"
    e = err("# only comments\n\n")
    assert (e.line, e.column) == (1, 1)


def test_header_must_come_first():
    e = err("h 0\nqubits 2\n")
    assert (e.line, e.column) == (1, 1)
    assert "first statement must be 'qubits <n>'" in e.message


def test_header_arity_and_value():
    assert err("qubits\n").message == "'qubits' takes exactly one count"
    assert err("qubits 2 3\n").message == "'qubits' takes exactly one count"
    for bad in ("0", "-1", "two", "3.0", "0x3", "1_0"):
        e = err(f"qubits {bad}\n")
        assert "positive integer" in e.message
        assert e.column == 8


def test_duplicate_header():
    e = err("qubits 2\nqubits 2\n")
    assert (e.line, e.column) == (2, 1)
    assert e.message == "duplicate 'qubits' header"


def test_unknown_gate():
    e = err("qubits 2\nh 0\nhadamard 1\n")
    assert (e.line, e.column) == (3, 1)
    assert e.message == "unknown gate 'hadamard'"


def test_gate_arity_errors():
    e = err("qubits 2\nh\n")
    assert e.message == "'h' takes 1 operand(s) and 0 angle(s), got 0 token(s)"
    e = err("qubits 2\ncx 0\n")
    assert e.message == "'cx' takes 2 operand(s) and 0 angle(s), got 1 token(s)"
    e = err("qubits 2\nrz 0\n")
    assert e.message == "'rz' takes 1 operand(s) and 1 angle(s), got 1 token(s)"
    e = err("qubits 2\nf 0 1 0.5 0.6\n")
    assert e.message == "'f' takes 2 operand(s) and 1 angle(s), got 4 token(s)"


def test_operand_errors_point_at_the_token():
    e = err("qubits 2\n  h q0\n")
    assert (e.line, e.column) == (2, 5)
    assert e.message == "operand must be an integer, got 'q0'"
    e = err("qubits 2\ncx 0 7\n")
    assert (e.line, e.column) == (2, 6)
    assert e.message == "operand 7 out of range for 2 qubit(s)"
    e = err("qubits 2\ncx 1 1\n")
    assert (e.line, e.column) == (2, 6)
    assert e.message == "duplicate operands"


def test_angle_must_be_plain_decimal():
    for bad in ("nan", "inf", "-inf", "0x1p3", "1_000.0", "1e", "..5", "0.5j"):
        e = err(f"qubits 1\nrz 0 {bad}\n")
        assert e.message == f"angle must be a decimal literal, got '{bad}'"
        assert (e.line, e.column) == (2, 6)


def test_angle_overflow():
    e = err("qubits 1\nrz 0 1e999\n")
    assert e.message == "angle overflows to infinity"


def test_first_error_wins():
    e = err("qubits 2\nbogus 0\ncx 1 1\n")
    assert e.line == 2


def test_parse_error_string_format():
    e = err("qubits 2\nh 9\n")
    assert str(e) == "line 2, column 3: operand 9 out of range for 2 qubit(s)"
    assert isinstance(e, ValueError)


# every character class the tokenizer must agree on with str.isspace:
# ASCII and Unicode whitespace, comment marks, CR, and token characters
_LINE_PIECES = [
    " ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
    "\u2028", "\u3000", "#", "f", "0", "12", "-0.5e3", "qubits", "\xe9", "\u200b",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_LINE_PIECES), st.text(max_size=3)), max_size=12))
def test_tokens_match_the_character_walk(pieces):
    raw = "".join(pieces)
    assert _token_columns(raw) == char_tokens(raw) == regex_tokens(raw)


def test_tokens_on_unicode_whitespace():
    raw = "\xa0f\x1c0\u3000 1\x85-0.5\r # 2 3"
    assert _token_columns(raw) == [(2, "f"), (4, "0"), (7, "1"), (9, "-0.5")]
    assert _token_columns(raw) == char_tokens(raw)


def _token_columns(raw):
    # parse's tokens, each with the column an error at it reports
    toks = textio._tokens(raw)
    return [(textio._column(raw, toks, i), tok) for i, tok in enumerate(toks)]


# whitespace that str.split and \S+ must both take, and tokens of
# statements valid and malformed, with comments
_SPACES = " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"
_STATEMENTS = [
    "qubits 3", "h 0", "cx 0 1", "f 1 0 0.5", "rz 2 -1e-3", "gphase 2", "f 1 1 0.5",
    "f 0 9 0.5", "h q0", "rz 0 nan", "bogus 1", "cx 0", "rz 0 1e999", "qubits 0",
    "h", "", "x \xe9", "rz 0 0.5\u200b",
    # Arabic-Indic and full-width digits as count, operand and angle,
    # which int() and float() read but parse refuses
    "qubits \u0663", "h \u0661", "rz 0 \u0661.\u0665",
    "qubits \uff13", "h \uff11", "rz 0 \uff11.\uff15",
]


@st.composite
def _spaced_line(draw):
    toks = draw(st.sampled_from(_STATEMENTS)).split(" ")
    spaces = st.text(alphabet=_SPACES, min_size=1, max_size=3)
    line = draw(st.text(alphabet=_SPACES, max_size=2)) + toks[0]
    for tok in toks[1:]:
        line += draw(spaces) + tok
    line += draw(st.text(alphabet=_SPACES, max_size=2))
    if draw(st.booleans()):
        line += "#" + draw(st.text(st.characters(blacklist_characters="\n"), max_size=4))
    return line


@settings(max_examples=300, deadline=None)
@given(
    st.booleans(),
    st.lists(st.tuples(_spaced_line(), st.integers(1, 3), st.sampled_from(["\n", "\r\n"])),
             max_size=8),
)
@example(True, [("\tcx\xa00\u3000 9 # c", 1, "\n")])
@example(False, [("qubits \u0663", 1, "\n")])
@example(True, [("h \u0661", 1, "\n")])
@example(True, [("rz 0 \u0661.\u0665", 1, "\n")])
@example(False, [("qubits \uff13", 1, "\n")])
@example(True, [("h \uff11", 1, "\n")])
@example(True, [("rz 0 \uff11.\uff15", 1, "\n")])
def test_parse_equals_the_regex_tokenizer(header, lines):
    # the gates, or the first ParseError's line, column and message, of
    # a parse whose lines were split by the regex parse once used
    text = "qubits 3\t# h\n" if header else ""
    for line, run, ending in lines:
        text += (line + ending) * run

    def regex_parse(t):
        return line_parse(t, regex_tokens)

    assert outcome(parse, text) == outcome(regex_parse, text)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(GateKind)),
    st.tuples(st.integers(0, 10**20 - 1), st.integers(0, 10**20 - 1)),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, -1e300]),
    ),
)
@example(GateKind.F, (10**20 - 1, 0), -0.0)
@example(GateKind.GPHASE, (0, 0), 5e-324)
def test_line_equals_the_joined_parts(kind, operands, param):
    g = Gate(kind, operands[: kind.num_operands], param if kind.num_params else None)
    assert textio._line(g) == join_line(g)


def outcome(parser, text):
    """(line, column, message) of the error, or the circuit and its text."""
    try:
        c = parser(text)
    except ParseError as e:
        return (e.line, e.column, e.message)
    return c, line_emit(c)


def level_g(c):
    return transpile(c, LoweringLevel.G_ONLY)[0]


def test_emit_equals_the_line_emitter():
    f0, f1 = Gate(GateKind.F, (0, 1), 0.5), Gate(GateKind.F, (0, 1), 0.5)
    assert f0 == f1 and f0 is not f1
    zero, neg = Gate(GateKind.F, (1, 0), 0.0), Gate(GateKind.F, (1, 0), -0.0)
    c = Circuit(2)
    c.gates += [f0, f1, f1, f0] + [zero] * 2 + [neg] * 3 + [zero]
    assert emit(c) == line_emit(c)
    assert emit(c).count("f 1 0 -0\n") == 3
    # one equal run of distinct zero and negative-zero objects
    other_zero = Gate(GateKind.F, (1, 0), 0.0)
    assert other_zero == zero == neg and other_zero is not zero
    c = Circuit(2)
    c.gates += [zero, neg, other_zero, zero, neg, neg, other_zero, f0]
    assert emit(c) == line_emit(c)
    assert emit(c).count("f 1 0 -0\n") == 3
    g = level_g(qft(4))
    assert len(g.gates) > 50_000
    assert emit(g) == line_emit(g)
    for seed in range(20):
        c = random_circuit(1 + seed % 5, 20, seed)
        assert emit(c) == line_emit(c)


_GOOD_LINES = [
    "h 0", "cx 0 1", "f 1 0 0.5", "f 1 0 -0", "f 1 0 0", "rz 2 1e-3 # c",
    "  f 0 2 2.5", "", "# comment", "\xa0", "gphase -1",
]
_BAD_LINES = [
    "qubits 3", "f 1 1 0.5", "f 0 9 0.5", "h q0", "rz 0 nan", "bogus 1",
    "cx 0", "rz 0 1e999",
]


def _text(header_run, runs):
    out = "qubits 3\r\n" * header_run
    for line, n, ending in runs:
        out += (line + ending) * n
    return out


_runs = st.lists(
    st.tuples(
        st.sampled_from(_GOOD_LINES),
        # lengths that cross the doubling steps of parse's gallop; at
        # 1100-1400 copies, a run of 3-13 character lines crosses its
        # 4 KiB cap
        st.one_of(
            st.integers(1, 6),
            st.sampled_from([7, 8, 9, 15, 16, 17, 63, 64, 65, 129, 1100, 1237, 1400]),
        ),
        st.sampled_from(["\n", "\r\n"]),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(_runs, st.booleans())
def test_parse_equals_the_line_parser_on_repeated_lines(runs, final_newline):
    # the runs come twice, so each line recurs in a separate run
    text = _text(1, runs + [("cx 0 1", 1, "\n")] + runs)
    if not final_newline:
        text = text.rstrip("\n")
    assert outcome(parse, text) == outcome(line_parse, text)
    # each run of identical gate lines shares one Gate, and no two runs do
    gate_runs = sum(1 for raw, _ in groupby(text.split("\n")) if char_tokens(raw.rstrip("\r")))
    assert sum(1 for _ in groupby(parse(text).gates, key=id)) == gate_runs - 1


@settings(max_examples=200, deadline=None)
@given(_runs, st.integers(0, 12), st.sampled_from(_BAD_LINES), st.integers(1, 4),
       st.sampled_from(["\n", "\r\n"]), st.integers(0, 2))
def test_parse_errors_equal_the_line_parser(runs, at, bad, n, ending, header_run):
    runs.insert(min(at, len(runs)), (bad, n, ending))
    text = _text(header_run, runs)
    assert outcome(parse, text) == outcome(line_parse, text)


def test_parse_errors_on_runs_point_at_the_first_line_of_the_run():
    cases = [
        "qubits 2\nh 0\ncx 0 5\ncx 0 5\ncx 0 5\n",
        "qubits 2\nqubits 2\nqubits 2\nh 0\n",
        "qubits 2\r\nqubits 2\nh 0\n",
        "qubits 0\nqubits 0\n",
        "qubits 2\nrz 0 1e999\nrz 0 1e999\r\n",
        "h 0\nh 0\nqubits 2\n",
    ]
    want = [
        (3, 6, "operand 5 out of range for 2 qubit(s)"),
        (2, 1, "duplicate 'qubits' header"),
        (2, 1, "duplicate 'qubits' header"),
        (1, 8, "qubit count must be a positive integer, got '0'"),
        (2, 6, "angle overflows to infinity"),
        (1, 1, "first statement must be 'qubits <n>'"),
    ]
    for text, w in zip(cases, want, strict=True):
        assert outcome(parse, text) == outcome(line_parse, text) == w


def test_parse_runs_at_the_ends_of_the_text():
    cases = [
        # the unterminated last line repeats the run before it
        "qubits 2\nh 0\nh 0\nh 0",
        "qubits 2\n" + "f 0 1 0.5\n" * 64 + "f 0 1 0.5",
        "qubits 2\nh 0\r\nh 0\r\nh 0\r",
        # ... or differs from it only by the CR
        "qubits 2\nh 0\r\nh 0\r\nh 0",
        # trailing runs of blank lines
        "qubits 2\nh 0\n\n\n\n",
        "qubits 2\nh 0\n" + "\r\n" * 17 + "\n" * 9,
        "qubits 2\nh 0\n" + "  \n" * 16 + "  ",
        "qubits 1\n" + "\n" * 129,
    ]
    for text in cases:
        assert outcome(parse, text) == outcome(line_parse, text)
    g = parse(cases[1]).gates
    assert len(g) == 65 and all(x is g[0] for x in g)


def test_parse_runs_longer_than_the_gallop_cap(monkeypatch):
    monkeypatch.setattr(textio, "_GALLOP_MAX", 32)
    for n in (7, 8, 9, 15, 16, 17, 63, 64, 65, 129):
        for last in ("", "f 0 1 0.5", "h 0\n"):
            text = "qubits 2\n" + "f 0 1 0.5\n" * n + last
            assert outcome(parse, text) == outcome(line_parse, text)
            g = parse(text).gates
            assert all(x is g[0] for x in g[:n + (last == "f 0 1 0.5")])


def test_parse_splits_a_crlf_run_from_the_same_line_with_lf():
    text = "qubits 2\n" + "f 0 1 0.5\r\n" * 9 + "f 0 1 0.5\n" * 9
    assert outcome(parse, text) == outcome(line_parse, text)
    g = parse(text).gates
    assert len(g) == 18
    assert g[0] is g[8] and g[9] is g[17] and g[8] is not g[9]


def test_parse_error_inside_a_long_run():
    text = "qubits 2\n" + "h 0\n" * 10 + "cx 0 5\n" * 65 + "h 0\n"
    assert outcome(parse, text) == outcome(line_parse, text) == (
        12, 6, "operand 5 out of range for 2 qubit(s)"
    )


def test_parse_peak_memory_on_level_g_text():
    # qft(7) gives 4.65 MB of level-'g' text
    text = emit(level_g(qft(7)))
    assert len(text) > 4_000_000
    tracemalloc.start()
    try:
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gate list alone takes 1.42 MB; one string per line took 15.7 MB
    # on 4.6 MB of text
    assert peak < 3_000_000, f"parse peaked at {peak / 1e6:.1f} MB"


def test_parse_shares_one_gate_across_a_run():
    g = parse("qubits 2\nf 0 1 0.5\nf 0 1 0.5\nf 0 1 0.5\r\nf 0 1 0.5\n").gates
    assert g[0] is g[1]
    # a CR makes the raw line differ, so a new run starts on each side
    assert g[1] is not g[2] and g[2] is not g[3]
    assert g[0] == g[2] == g[3]


def test_parse_tokenizes_each_distinct_line_once(monkeypatch):
    text = emit(level_g(qft(3)))
    runs = sum(1 for _ in groupby(text.split("\n")))
    distinct = len(set(text.split("\n")))
    assert runs * 100 < text.count("\n")
    assert distinct * 3 < runs
    calls = []
    tokens = textio._tokens

    def counting(raw):
        calls.append(raw)
        return tokens(raw)

    monkeypatch.setattr(textio, "_tokens", counting)
    assert parse(text) == line_parse(text)
    # one call per distinct line: the header's, each fixed gate's, and
    # the empty string after the final newline; so at most one per run
    assert len(calls) <= distinct
    assert len(calls) <= runs


def test_emit_peak_memory_on_level_g_text():
    c = level_g(qft(7))
    tracemalloc.start()
    try:
        text = emit(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 4_000_000
    # one string per run and their join, each as long as the text; one
    # object per gate would take several times that
    assert peak < 2.1 * len(text), f"emit peaked at {peak / len(text):.2f}x its text"


def test_a_million_fixed_gates_round_trip_quickly():
    c = Circuit(4)
    phi = 0.7853981633974483
    for i in range(1000):
        pair = (i % 4, (i + 1) % 4)
        c.gates.extend([Gate(GateKind.F, pair, phi)] * 1000)
    start = time.process_time()
    text = emit(c)
    back = parse(text)
    cpu = time.process_time() - start
    assert len(back.gates) == 10**6
    assert back.gates[::1000] == c.gates[::1000]
    assert cpu < 2.0, f"{cpu:.2f} s of CPU for 1e6 fixed gates"
