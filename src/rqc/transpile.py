"""The lowering passes and the one pipeline that runs them.

Stages:

    normalize           rx(t) becomes rz(pi/2), ry(t/2), rz(-pi/2), that
                        is s, ry(t/2), sdg in time, exactly and with no
                        global phase; every constant kind (x ... tdg, cx,
                        cz) expands by one literal table over {rz, ry,
                        f(pi/2), gphase}. The tests pin every row bit for
                        bit and check it against an independent unitary
                        oracle. Two exact rewrites ride on the same walk:
      cx sandwich       cx(c,t) D cx(c,t) -> f(pi/2)[c,t] D f(-pi/2)[c,t]
                        when no gate of D rotates c or t (one linear
                        pre-scan of the input gates)
      merge             each normalized gate merges into the latest gate
                        of its kind on its operands unless a later gate
                        acts the other way on a shared qubit; gphase
                        gates sum into one; a sum of 0.0 drops
    encode   ('real')   rz(t)@q -> f(t)[q -> tag]; ry and f pass through;
                        gphase(a) -> ry(a) on the tag ancilla
    lower ry ('f')      ry(t)@q -> f(t)[work -> q], work ancilla in |1>
    synthesize ('g')    every f(theta) becomes f(phi) repeated k times;
                        an f that the work ancilla (the top qubit)
                        controls takes the half-turn target theta -+ pi
                        instead where that needs fewer fixed gates at no
                        larger error, in even numbers of such flips

The first three stages are exact, the merges up to one rounding of each
angle sum (at most _MERGE_ROUNDOFF); only the last stage introduces
error, and it returns a per-gate account plus an l2 budget for the
circuit. Every f gate the rewrites remove saves its k fixed gates and
its share of that budget.
prepare_stages runs the passes once and keeps every stage in a
TranspileReport. transpile returns its last stage, with level 'g'
materialized as fixed gates; verify simulates level 'g' as
achieved_circuit instead, one gate per rotation.

The entry points, transpile and verify.verify_circuit, validate the
circuit once; prepare_stages and the passes assume a valid circuit and
check nothing but the gate kinds they rewrite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

from .circuit import Circuit, Gate, GateKind, require_valid
from .synth import (
    _MERGE_ROUNDOFF,
    NotReachable,
    SynthConfig,
    SynthesisResult,
    _least_up_to_half_turn,
    budget,
    synthesize,
)


class LoweringLevel(Enum):
    """How far down to lower; values double as CLI selectors."""

    REAL_ENCODED = "real"
    F_ONLY = "f"
    G_ONLY = "g"


@dataclass(frozen=True)
class SynthesizedGate:
    """Synthesis account for one gate of the level-'f' circuit.

    target is the gate's angle theta, or, for a gate that the work
    ancilla controls and that takes the half-turn (see synthesize_all),
    the float theta - pi for theta >= 0 and theta + pi otherwise: the
    same rotation up to a sign that cancels in pairs. result is for
    that target.
    """

    index: int
    target: float
    result: SynthesisResult


@dataclass(frozen=True)
class TranspileReport:
    """One circuit lowered as far as `level`, with every stage kept.

    `real` and (levels 'f' and 'g') `f` are the lowered circuits; level
    'g' adds the synthesis account and its budget but not the fixed-gate
    circuit, whose size is sum(k). Counts and ancilla indices derive
    from these fields.
    """

    level: LoweringLevel
    input_gate_count: int
    real: Circuit
    f: Circuit | None = None
    syntheses: tuple[SynthesizedGate, ...] = ()
    budget: float | None = None

    @property
    def gate_counts(self) -> dict[str, int]:
        counts = {"real": len(self.real.gates)}
        if self.f is not None:
            counts["f"] = len(self.f.gates)
        if self.level is LoweringLevel.G_ONLY:
            counts["g"] = sum(s.result.k for s in self.syntheses)
        return counts

    @property
    def output_gate_count(self) -> int:
        return self.gate_counts[self.level.value]

    # each pass appends its ancilla as the last qubit of its stage
    @property
    def ri_ancilla(self) -> int:
        return self.real.num_qubits - 1

    @property
    def work_ancilla(self) -> int | None:
        return None if self.f is None else self.f.num_qubits - 1

    @property
    def max_k(self) -> int | None:
        if not self.syntheses:
            return None
        return max(s.result.k for s in self.syntheses)


_Q = 0.25 * math.pi  # pi/4; the multiples below are exact
# slices of a gate's operands (control first): the first, the second,
# both, none
_A, _B, _AB, _NONE = slice(0, 1), slice(1, 2), slice(0, 2), slice(0, 0)
# every constant kind over {rz, ry, f, gphase}: (kind, operand slice,
# angle) items in temporal order. The single-qubit rows are ZYZ
# factorizations e^{i alpha} rz(a) ry(b) rz(c) of each matrix (N&C 4.2);
# cz conjugates the target block of f(pi/2), a quarter-turn plane
# rotation, into the phase -iZ, and cx is cz then f(pi/2).
# tests/test_transpile.py pins every row bit for bit and checks its
# unitary against an independent oracle
_CZ_ROW = (
    (GateKind.RY, _B, _Q),
    (GateKind.RZ, _B, 2 * _Q),
    (GateKind.F, _AB, 2 * _Q),
    (GateKind.RZ, _B, 2 * _Q),
    (GateKind.RY, _B, _Q),
    (GateKind.RZ, _B, -4 * _Q),
    (GateKind.RZ, _A, 2 * _Q),
)
# indexed by GateKind.ordinal, so that a lookup hashes no member; None
# for the kinds that have no row
_EXPANSIONS = tuple({
    GateKind.X: ((GateKind.RZ, _A, 4 * _Q), (GateKind.RY, _A, 2 * _Q)),
    GateKind.Y: ((GateKind.RY, _A, 2 * _Q), (GateKind.GPHASE, _NONE, 2 * _Q)),
    GateKind.Z: ((GateKind.RZ, _A, 4 * _Q),),
    GateKind.H: ((GateKind.RZ, _A, 4 * _Q), (GateKind.RY, _A, _Q)),
    GateKind.S: ((GateKind.RZ, _A, 2 * _Q),),
    GateKind.SDG: ((GateKind.RZ, _A, -2 * _Q),),
    GateKind.T: ((GateKind.RZ, _A, _Q),),
    GateKind.TDG: ((GateKind.RZ, _A, -_Q),),
    GateKind.CZ: _CZ_ROW,
    GateKind.CX: _CZ_ROW + ((GateKind.F, _AB, 2 * _Q),),
}.get(k) for k in GateKind)

# a member looked up through the class costs about 170 ns on 3.11, whose
# enum metaclass defines __getattr__; the pass loops test kinds by
# identity against these module globals instead
_RZ, _RY, _RX, _F, _CX = GateKind.RZ, GateKind.RY, GateKind.RX, GateKind.F, GateKind.CX
_GPHASE = GateKind.GPHASE
# the kinds diagonal on every operand; each other kind rotates only its
# last operand: the qubit of x, y, h, rx and ry, the target of cx and f
_DIAGONAL = (
    GateKind.RZ, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
    GateKind.CZ, GateKind.GPHASE,
)


def _pair_cx_sandwiches(gates: Sequence[Gate]) -> dict[int, float]:
    """The f angle that each paired cx of `gates` becomes, by gate index.

    cx(c,t) D cx(c,t) equals f(pi/2)[c,t] D f(-pi/2)[c,t] when every gate
    of D is block-diagonal in both c and t: ry(pi/2) = XZ, so in time cx
    is f(pi/2) then a -Z on t controlled by c, and also that -Z then
    f(-pi/2). Both -Z factors are diagonal in c and t, so they pass D
    and cancel. One walk keeps, for each qubit a gate touches, the index
    of the last gate that rotates it: a kind that is not diagonal rotates
    its last operand. The pair opened at j closes at the next cx(c,t) iff
    nothing since j rotated c or t; otherwise that cx opens a new pair.
    """
    angles: dict[int, float] = {}
    opened: dict[tuple[int, int], int] = {}  # (c, t) -> index of its last unpaired cx
    rotated: dict[int, int] = {}
    for i, g in enumerate(gates):
        k = g.kind
        if k is _CX:
            c, t = g.qubits
            j = opened.pop(g.qubits, -1)
            if rotated.get(c, -1) < j and rotated[t] == j:
                angles[j], angles[i] = 2 * _Q, -2 * _Q
            else:
                opened[g.qubits] = i
        if k not in _DIAGONAL:
            rotated[g.qubits[-1]] = i
    return angles


def _merge(out: list[Gate | None], j: int, angle: float) -> bool:
    """Add angle to the angle of out[j], or drop out[j] when the sum is
    0.0 or -0.0; False, and nothing changed, if the sum would round by
    more than _MERGE_ROUNDOFF."""
    g = out[j]
    s = g.param + angle
    # two-sum: the exact rounding error of s, NaN when s overflows
    b = s - g.param
    if not abs((g.param - (s - b)) + (angle - b)) <= _MERGE_ROUNDOFF:
        return False
    out[j] = Gate(g.kind, g.qubits, s) if s else None
    return True


def normalize_pass(c: Circuit) -> Circuit:
    """Rewrite every gate into {rz, ry, f, gphase}, preserving the full
    unitary including global phase, and merge rotations as it goes.

    Two exact rewrites ride on the one walk. Each cx sandwich that
    _pair_cx_sandwiches finds becomes its pair of f(+-pi/2) gates. Each
    normalized gate merges into the latest gate of its kind on the same
    operands unless a later gate acts the other way on a shared qubit.
    One rule says how: rz acts diagonally, ry and f rotate their last
    operand and act diagonally on the other. rz, ry, f and gphase share
    one merge-and-drop path; gphase commutes with every gate, so gphase
    gates sum into the first. A merged gate whose angle sums to 0.0 or
    -0.0 is dropped; angles are never reduced mod 2pi, as rz(2*pi) is
    not exactly the identity in floating point. Both rewrites read only
    gate kinds and qubit equality, and keep state only for the qubits
    that gates touch, never for the whole register.

    Like every pass it assumes a valid circuit, which the entry points
    (transpile, verify_circuit) check once; every GateKind has a rule
    here, so it refuses nothing."""
    paired = _pair_cx_sandwiches(c.gates)
    out: list[Gate | None] = []
    # indices in out: of the last gate on each operand tuple that may
    # still merge (rz keyed by its bare qubit, apart from ry's (q,)), and
    # per qubit of the last gate acting there diagonally and as a rotation
    last: dict[int | tuple[int, ...], int] = {}
    diag: dict[int, int] = {}
    rot: dict[int, int] = {}

    def add(kind: GateKind, qubits: tuple[int, ...], angle: float, g: Gate | None = None):
        key = qubits[0] if kind is _RZ else qubits
        j = last.get(key, -1)
        # blocked by any later gate acting the other way on a shared qubit
        if kind is _RZ:
            free = j > rot.get(qubits[0], -1)
        elif kind is _RY:
            free = j > diag.get(qubits[0], -1)
        elif kind is _F:
            free = j > rot.get(qubits[0], -1) and j > diag.get(qubits[1], -1)
        else:  # gphase commutes with every gate
            free = j >= 0
        if free and _merge(out, j, angle):
            if out[j] is None:
                del last[key]
            return
        last[key] = n = len(out)
        if kind is _RZ:
            diag[qubits[0]] = n
        elif kind is _RY:
            rot[qubits[0]] = n
        elif kind is _F:
            diag[qubits[0]] = rot[qubits[1]] = n
        out.append(g if g is not None else Gate(kind, qubits, angle))

    for i, g in enumerate(c.gates):
        k = g.kind
        if k is _RZ or k is _RY or k is _F or k is _GPHASE:
            add(k, g.qubits, g.param, g)
        elif k is _RX:
            # rx(t) = sdg ry(t/2) s as matrices: the s and sdg rows around ry
            add(_RZ, g.qubits, 2 * _Q)
            add(_RY, g.qubits, 0.5 * g.param)
            add(_RZ, g.qubits, -2 * _Q)
        elif i in paired:
            add(_F, g.qubits, paired[i])
        else:
            for kind, operands, v in _EXPANSIONS[k.ordinal]:
                add(kind, g.qubits[operands], v)
    return Circuit(c.num_qubits, [g for g in out if g is not None], name=c.name)


def encode_pass(c: Circuit) -> Circuit:
    """Rewrite a normalized circuit over n data qubits into a real circuit
    over data plus tag ancilla (level 'real'), the tag appended as qubit n.

    Every rule is an exact identity on encoded states: rz(t)@q becomes
    f(t)[q -> tag], ry and f act the same on both component blocks, and
    gphase(a) becomes ry(a) on the tag, which turns every (Re, Im) pair by
    a: multiplication of the decoded state by e^{ia}.
    """
    tag = c.num_qubits
    out = Circuit(tag + 1, name=c.name)
    for i, g in enumerate(c.gates):
        k = g.kind
        if k is _RZ:
            out.gates.append(Gate(_F, (g.qubits[0], tag), g.param))
        elif k is _RY or k is _F:
            out.gates.append(g)
        elif k is _GPHASE:
            out.gates.append(Gate(_RY, (tag,), g.param))
        else:
            raise ValueError(f"gate {i}: {g.kind.value} is not a normalized kind")
    return out


def lower_ry_pass(c: Circuit) -> Circuit:
    """Rewrite a level-'real' circuit of {ry, f} into f gates only (level
    'f'), with a work ancilla held in |1>, appended as the top qubit,
    controlling every lowered ry."""
    work = c.num_qubits
    out = Circuit(work + 1, name=c.name)
    for i, g in enumerate(c.gates):
        if g.kind is _RY:
            out.gates.append(Gate(_F, (work, g.qubits[0]), g.param))
        elif g.kind is _F:
            out.gates.append(g)
        else:
            raise ValueError(f"gate {i}: only ry and f can be lowered, got {g.kind.value}")
    return out


def synthesize_all(c: Circuit, cfg: SynthConfig) -> list[SynthesizedGate]:
    """Synthesis results for every gate of a level-'f' circuit, in order.

    Gates that repeat an angle share its result, from the searches'
    memos (see synth), and keep their own index and target. NotReachable
    is re-raised with gate_index pointing at the first offender; a miss
    is never stored, so each call sets its own.

    The top qubit is the work ancilla, as lower_ry_pass appends it, when
    no gate rotates it. It only controls, so f(theta + pi) = Z f(theta)
    on it, and the Z commutes with every gate: an even number of
    half-turns leaves the circuit unchanged. So each gate it controls
    takes the half-turn target theta - pi (theta >= 0) or theta + pi
    when that needs fewer fixed gates at no larger error and the float
    rounds the half-turn by at most _MERGE_ROUNDOFF; its target is then
    that float, and its result is for the exact half-turn. If that
    leaves an odd number of flips, the one that saves the fewest gates
    (the first of equals) is undone. One search over both signs finds
    the cheaper; theta's own search runs only when the half-turn is, or
    when nothing is. Every gate whose angle some work-controlled gate
    carries takes that search, a memo hit after the first, so that when
    it lands by theta its result serves the gates off the work ancilla
    too: each distinct angle costs at most one search of each kind.
    """
    work = c.num_qubits - 1
    work_angles = {g.param for g in c.gates if g.qubits[0] == work}
    out = []
    flips = []  # (gates saved, index, half-turn) of each candidate
    top_rotated = False
    for i, g in enumerate(c.gates):
        if g.kind is not _F:
            raise ValueError(f"gate {i}: expected an f gate, got {g.kind.value}")
        theta = g.param
        half = result = None
        if theta in work_angles:
            half = _least_up_to_half_turn(theta, cfg)
            if half is not None and half[0] is None:
                half, result = None, half[1]
        if g.qubits[0] != work:
            half, top_rotated = None, top_rotated or g.qubits[1] == work
        if result is None:
            try:
                result = synthesize(theta, cfg)
            except NotReachable as e:
                e.gate_index = i
                raise
        out.append(SynthesizedGate(i, theta, result))
        if half is not None and half[1].error <= result.error:
            flips.append((result.k - half[1].k, i, half))
    if top_rotated:
        return out
    if len(flips) % 2:
        flips.remove(min(flips))
    for _, i, (label, result) in flips:
        out[i] = SynthesizedGate(i, label, result)
    return out


def materialize_fixed(c: Circuit, synths: Sequence[SynthesizedGate], phi: float) -> Circuit:
    """Expand each f(theta) of a level-'f' circuit into k copies of the
    one fixed f(phi) gate (level 'g').

    Every copy on one qubit pair is the same Gate object, so textio.emit's
    groupby finds each run, even one that spans adjacent rotations on
    that pair, by identity alone instead of by dataclass equality."""
    out = Circuit(c.num_qubits, name=c.name)
    fixed = {q: Gate(GateKind.F, q, phi) for q in {g.qubits for g in c.gates}}
    for g, s in zip(c.gates, synths, strict=True):
        out.gates.extend(repeat(fixed[g.qubits], s.result.k))
    return out


def achieved_circuit(c: Circuit, synths: Sequence[SynthesizedGate]) -> Circuit:
    """c with every angle replaced by its synthesized k*phi mod 2pi; each
    gate keeps its kind and operands.

    c is the level-'f' circuit, or verify's projection of it, in which
    each f(work -> t) is an ry(t). Repeated plane rotations compose by
    angle addition, so this has the same action as the materialized
    fixed-gate circuit while keeping one gate per rotation; verification
    simulates this form to stay linear in the level-'f' gate count
    instead of sum(k).
    """
    out = Circuit(c.num_qubits, name=c.name)
    for g, s in zip(c.gates, synths, strict=True):
        out.gates.append(Gate(g.kind, g.qubits, s.result.achieved))
    return out


def prepare_stages(c: Circuit, cfg: SynthConfig, level: LoweringLevel | str) -> TranspileReport:
    """Run the passes through `level`, keeping every stage.

    This is the one pass sequence: transpile and verify_circuit both
    lower through it and read the level off its report, so a value
    string ('real', 'f', 'g') acts as its member and any other value
    raises ValueError before anything is lowered. c must be valid:
    transpile and verify_circuit check it first, and no pass checks it
    again. Raises NotReachable (with .gate_index set) when a level-'g'
    angle cannot be synthesized; the exact stages cannot fail.
    """
    level = LoweringLevel(level)
    real = encode_pass(normalize_pass(c))
    if level is LoweringLevel.REAL_ENCODED:
        return TranspileReport(level, len(c.gates), real)
    f = lower_ry_pass(real)
    if level is LoweringLevel.F_ONLY:
        return TranspileReport(level, len(c.gates), real, f)
    synths = tuple(synthesize_all(f, cfg))
    return TranspileReport(
        level, len(c.gates), real, f, synths, budget(s.result.error for s in synths)
    )


def transpile(
    c: Circuit,
    level: LoweringLevel | str = LoweringLevel.G_ONLY,
    cfg: SynthConfig | None = None,
) -> tuple[Circuit, TranspileReport]:
    """Lower a circuit to the requested level: the last stage of
    prepare_stages, materialized as fixed gates at level 'g'.

    Raises ValueError on an invalid circuit, before it looks at `level`,
    and otherwise as prepare_stages does.
    """
    require_valid(c)
    if cfg is None:
        cfg = SynthConfig()
    report = prepare_stages(c, cfg, level)
    if report.level is LoweringLevel.G_ONLY:
        return materialize_fixed(report.f, report.syntheses, cfg.phi), report
    return (report.real if report.f is None else report.f), report
