"""Independent oracles the tests compare production code against.

Everything here recomputes results through a different route than the
package: gate application walks basis states one amplitude at a time
or gathers and scatters whole index arrays, distances are summed
exactly by math.fsum, the orbit table is evaluated per entry in
high-precision arithmetic, the synthesis window is formed in mpmath in
units of 2^-P turns and every angular distance is taken in mpmath from
the unreduced target, the transform matrices come from their defining
formulas, and .rqc text is tokenized, parsed and emitted one character
and one line at a time. The package's earlier tokenizer (a regex) and
line formatter (a join of parts) are kept here as references for the
forms that replaced them.
"""

from __future__ import annotations

import math
import re

import numpy as np
from mpmath import mp, mpf

from rqc import (
    Circuit,
    Gate,
    GateKind,
    NotReachable,
    ParseError,
    SynthConfig,
    SynthesisResult,
    gate_matrix,
)
from rqc.synth import _closest_k, _first_hit


def random_complex_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    """Haar-ish normalized complex vector of length 2^num_qubits."""
    v = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return v / np.linalg.norm(v)


def dense_apply(gate: Gate, vec: np.ndarray) -> np.ndarray:
    """Apply one gate by explicit per-basis-state bookkeeping."""
    vec = np.asarray(vec, dtype=np.complex128)
    m = gate_matrix(gate)
    out = np.zeros_like(vec)
    for x, a in enumerate(vec):
        if a == 0:
            continue
        if gate.kind.num_operands == 0:
            out[x] += m[0, 0] * a
        elif gate.kind.num_operands == 1:
            q = gate.qubits[0]
            b = (x >> q) & 1
            for b2 in (0, 1):
                out[(x & ~(1 << q)) | (b2 << q)] += m[b2, b] * a
        else:
            qc, qt = gate.qubits
            col = 2 * ((x >> qc) & 1) + ((x >> qt) & 1)
            base = x & ~(1 << qc) & ~(1 << qt)
            for cb in (0, 1):
                for tb in (0, 1):
                    out[base | (cb << qc) | (tb << qt)] += m[2 * cb + tb, col] * a
        # a zero amplitude contributes nothing, skipping it is exact
    return out


def gather_apply(gate: Gate, amps: np.ndarray) -> np.ndarray:
    """Apply one gate by index gather and scatter over the whole register.

    The engines' earlier kernels, kept as their exact reference: same
    products in the same order, so on float64 or complex128 input the
    result must equal run_real's or run_complex's bit for bit. A float
    input uses the real part of the matrix, as the real engine does.
    """
    m = gate_matrix(gate)
    if amps.dtype.kind == "f":
        m = m.real
    amps = amps.copy()
    if gate.kind.num_operands == 0:
        amps *= m[0, 0]
    elif gate.kind.num_operands == 1:
        # base indices with bit q clear, paired with bit q set
        q = gate.qubits[0]
        base = np.arange(len(amps) >> 1)
        i0 = ((base >> q) << (q + 1)) | (base & ((1 << q) - 1))
        i1 = i0 | (1 << q)
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = m[0, 0] * a0 + m[0, 1] * a1
        amps[i1] = m[1, 0] * a0 + m[1, 1] * a1
    else:
        # base indices with both operand bits clear; matrix index is 2c + t
        qc, qt = gate.qubits
        base = np.arange(len(amps) >> 2)
        lo, hi = sorted((qc, qt))
        x = ((base >> lo) << (lo + 1)) | (base & ((1 << lo) - 1))
        i00 = ((x >> hi) << (hi + 1)) | (x & ((1 << hi) - 1))
        idx = (i00, i00 | (1 << qt), i00 | (1 << qc), i00 | (1 << qc) | (1 << qt))
        a = [amps[i] for i in idx]
        for r, i in enumerate(idx):
            amps[i] = m[r, 0] * a[0] + m[r, 1] * a[1] + m[r, 2] * a[2] + m[r, 3] * a[3]
    return amps


def fsum_distance(amps: np.ndarray, ref: np.ndarray) -> float:
    """State distance of a data + tag register from a complex reference,
    as encoding.encoded_distance defines it.

    Each term is rounded as the package rounds it, one float operation at
    a time, but the sum is exact: math.fsum rounds it once.
    """
    refs = ref.real.tolist() + ref.imag.tolist()
    diffs = [a - b for a, b in zip(amps.tolist(), refs, strict=True)]
    return math.sqrt(math.fsum(d * d for d in diffs))


def dense_run(c: Circuit, vec: np.ndarray) -> np.ndarray:
    for g in c.gates:
        vec = dense_apply(g, vec)
    return vec


def dense_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of a circuit, column by column."""
    dim = 1 << c.num_qubits
    cols = [dense_run(c, np.eye(dim, dtype=np.complex128)[:, j]) for j in range(dim)]
    return np.column_stack(cols)


def dft_matrix(num_qubits: int) -> np.ndarray:
    """Entry (k, j) = e^{2 pi i jk / N} / sqrt(N)."""
    dim = 1 << num_qubits
    j, k = np.meshgrid(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def exact_orbit_table(phi: float, k_max: int) -> np.ndarray:
    """k*phi mod 2pi for k = 1..k_max, every entry evaluated exactly and
    rounded once to float64."""
    out = np.empty(k_max, dtype=np.float64)
    with mp.workdps(40):
        p = mpf(phi)
        two_pi = 2 * mp.pi
        for k in range(1, k_max + 1):
            v = mp.fmod(k * p, two_pi)
            if v < 0:
                v += two_pi
            out[k - 1] = float(v)
    return out


def mp_distance(k: int, phi: float, theta: float, eps: float = 1.0) -> mpf:
    """Circular distance between k*phi and the unreduced theta, not rounded.

    k*phi - theta is formed exactly, and reduced by a 2pi whose working
    precision is scaled by the exponents of phi, theta and eps and the
    bits of k, so the distance is resolved far below eps at any magnitude.
    Every k below 2^64 gets the same precision, so equal distances (phi 0)
    compare equal.
    """
    prec = max(k.bit_length(), 64) + sum(abs(math.frexp(x)[1]) for x in (phi, theta, eps)) + 256
    with mp.workprec(prec):
        d = mp.fmod(abs(k * mpf(phi) - mpf(theta)), 2 * mp.pi)
        return min(d, 2 * mp.pi - d)


def mp_reduce(theta: float) -> float:
    """theta mod 2pi in [0, 2pi), reduced at a precision scaled by theta's
    exponent and rounded once."""
    with mp.workprec(abs(math.frexp(theta)[1]) + 256):
        v = mp.fmod(mpf(theta), 2 * mp.pi)
        return float(v + 2 * mp.pi if v < 0 else v)


def brute_force_min_k(
    theta: float, phi: float, eps: float, k_max: int, table: np.ndarray | None = None
) -> tuple[int, float] | None:
    """Smallest k with circular distance <= eps, and that distance rounded
    once; None if no k <= k_max has one.

    The float64 table (exact per entry) prefilters against the exactly
    reduced target with a 1e-12 margin; candidates are confirmed in order
    by mp_distance to the unreduced theta, so the result is the true minimum.
    """
    if table is None:
        table = exact_orbit_table(phi, k_max)
    d = np.abs(table[:k_max] - mp_reduce(theta))
    d = np.minimum(d, math.tau - d)
    for idx in np.flatnonzero(d <= eps + 1e-12):
        k = int(idx) + 1
        err = mp_distance(k, phi, theta, eps)
        if err <= eps:
            return k, float(err)
    return None


def mp_half_turn_scan(theta: float, phi: float, eps: float, k_max: int):
    """The least k <= k_max with k*phi within eps of theta or of the exact
    theta + pi, by a scan in mpmath: (k, lands by theta, distance from
    k*phi to the exact half-turn), or None if no k lands by either."""
    prec = max(k_max.bit_length(), 64) + sum(abs(math.frexp(x)[1]) for x in (phi, theta, eps)) + 256
    with mp.workprec(prec):
        half = mpf(theta) + mp.pi
        for k in range(1, k_max + 1):
            own = mp_distance(k, phi, theta, eps) <= eps
            d = mp.fmod(abs(k * mpf(phi) - half), 2 * mp.pi)
            d = min(d, 2 * mp.pi - d)
            if own or d <= eps:
                return k, own, d
    return None


def mp_orbit_angle(k: int, phi: float) -> float:
    """k*phi mod 2pi by mpmath fmod at a working precision of 128 bits
    beyond those of k and phi's integer part, rounded once to float64."""
    with mp.workprec(k.bit_length() + max(math.frexp(phi)[1], 0) + 128):
        v = mp.fmod(k * mpf(phi), 2 * mp.pi)
        return float(v + 2 * mp.pi if v < 0 else v)


def mp_synthesize(theta: float, cfg: SynthConfig) -> SynthesisResult:
    """synthesize by another route, sharing only the integer first-hit
    solver and the bisection for the closest miss.

    The orbit is held over 2^P turns, with a and the window formed in
    mpmath from the unreduced theta. The window is widened on each side by
    the drift of a*k over k <= k_max, and its candidates are confirmed in
    increasing k by mp_distance.
    """
    e_phi, e_theta = math.frexp(cfg.phi)[1], math.frexp(theta)[1]
    bits = cfg.k_max.bit_length() + max(-e_phi, 0) + 128
    m = 1 << bits
    # a is within 1/2 of m*phi/2pi, so a*k drifts by at most k/2; the
    # window ends round by less than 1
    slack = cfg.k_max // 2 + 2
    with mp.workprec(bits + max(e_phi, 0) + max(e_theta, 0) + 64):
        per_radian = mp.ldexp(1, bits) / (2 * mp.pi)
        a = int(mp.nint(cfg.phi * per_radian)) % m
        center = theta * per_radian
        half_width = cfg.eps * per_radian
        lo = int(mp.floor(center - half_width)) - slack
        hi = int(mp.ceil(center + half_width)) + slack
        r = int(mp.nint(center)) % m
    k = _first_hit(a, m, lo, hi, 1)
    while k is not None and k <= cfg.k_max:
        d = mp_distance(k, cfg.phi, theta, cfg.eps)
        if d <= cfg.eps:
            return SynthesisResult(k, mp_orbit_angle(k, cfg.phi), float(d))
        if a == 0:  # phi 0: every power lands on the same angle
            break
        k = _first_hit(a, m, lo, hi, k + 1)
    best_k = _closest_k(a, m, r, cfg.k_max)
    raise NotReachable(theta, best_k, float(mp_distance(best_k, cfg.phi, theta, cfg.eps)))


_MNEMONICS = {k.value: k for k in GateKind}
_TOKEN_RE = re.compile(r"\S+")
# ASCII digits only, as parse takes: without re.ASCII, \d matches every
# Unicode decimal digit, and int() and float() read them
_INT_RE = re.compile(r"[+-]?\d+\Z", re.ASCII)
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z", re.ASCII)


def char_tokens(raw: str) -> list[tuple[int, str]]:
    """(column, token) pairs by a walk over the characters; columns are
    1-based into the original line."""
    cut = raw.find("#")
    if cut >= 0:
        raw = raw[:cut]
    out = []
    i = 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        j = i
        while j < len(raw) and not raw[j].isspace():
            j += 1
        out.append((i + 1, raw[i:j]))
        i = j
    return out


def regex_tokens(raw: str) -> list[tuple[int, str]]:
    """(column, token) pairs for the matches of \\S+ before any '#', as
    textio tokenized until it took str.split."""
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(raw.partition("#")[0])]


def line_parse(text: str, tokens=char_tokens) -> Circuit:
    """.rqc parser that checks every line on its own, one Gate per line,
    splitting each into (column, token) pairs by `tokens`."""
    circuit: Circuit | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = tokens(raw.rstrip("\r"))
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
        circuit.gates.append(Gate(kind, tuple(qubits), param))
    if circuit is None:
        raise ParseError(1, 1, "missing 'qubits' header")
    return circuit


def join_line(g: Gate) -> str:
    """One gate's line, its parts joined by spaces, as textio formatted it
    until it took one %-template per kind."""
    parts = [g.kind.value]
    parts += [str(q) for q in g.qubits]
    if g.kind.num_params:
        parts.append(format(g.param, ".17g"))
    return " ".join(parts) + "\n"


def line_emit(c: Circuit) -> str:
    """Canonical .rqc text, one formatted line per gate."""
    return f"qubits {c.num_qubits}\n" + "".join(join_line(g) for g in c.gates)
