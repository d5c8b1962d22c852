"""The lowering passes and the one pipeline that runs them.

Stages:

    normalize           rx(t) becomes rz(pi/2), ry(t/2), rz(-pi/2), that
                        is s, ry(t/2), sdg in time, exactly and with no
                        global phase; every constant kind (x ... tdg, cx,
                        cz) expands by one literal table over {rz, ry,
                        f(pi/2), gphase}. The tests pin every row bit for
                        bit and check it against an independent unitary
                        oracle
    encode   ('real')   rz(t)@q -> f(t)[q -> tag]; ry and f pass through;
                        gphase(a) -> ry(a) on the tag ancilla
    lower ry ('f')      ry(t)@q -> f(t)[work -> q], work ancilla in |1>
    synthesize ('g')    every f(theta) becomes f(phi) repeated k times

The first three stages are exact; only the last one introduces error,
and it returns a per-gate account plus an l2 budget for the circuit.
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

from .circuit import Circuit, Gate, GateKind, require_valid
from .synth import NotReachable, SynthConfig, SynthesisResult, budget, synthesize


class LoweringLevel(Enum):
    """How far down to lower; values double as CLI selectors."""

    REAL_ENCODED = "real"
    F_ONLY = "f"
    G_ONLY = "g"


@dataclass(frozen=True)
class SynthesizedGate:
    """Synthesis account for one gate of the level-'f' circuit."""

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


_NORMAL_KINDS = frozenset({GateKind.RZ, GateKind.RY, GateKind.F, GateKind.GPHASE})

_Q = 0.25 * math.pi  # pi/4; the multiples below are exact
# every constant kind over {rz, ry, f, gphase}: (kind, operand positions,
# angle) items in temporal order, positions indexing the gate's qubits
# (control first). The single-qubit rows are ZYZ factorizations
# e^{i alpha} rz(a) ry(b) rz(c) of each matrix (N&C 4.2); cz conjugates
# the target block of f(pi/2), a quarter-turn plane rotation, into the
# phase -iZ, and cx is cz then f(pi/2). tests/test_transpile.py pins
# every row bit for bit and checks its unitary against an independent
# oracle
_EXPANSIONS = {
    GateKind.X: ((GateKind.RZ, (0,), 4 * _Q), (GateKind.RY, (0,), 2 * _Q)),
    GateKind.Y: ((GateKind.RY, (0,), 2 * _Q), (GateKind.GPHASE, (), 2 * _Q)),
    GateKind.Z: ((GateKind.RZ, (0,), 4 * _Q),),
    GateKind.H: ((GateKind.RZ, (0,), 4 * _Q), (GateKind.RY, (0,), _Q)),
    GateKind.S: ((GateKind.RZ, (0,), 2 * _Q),),
    GateKind.SDG: ((GateKind.RZ, (0,), -2 * _Q),),
    GateKind.T: ((GateKind.RZ, (0,), _Q),),
    GateKind.TDG: ((GateKind.RZ, (0,), -_Q),),
    GateKind.CZ: (
        (GateKind.RY, (1,), _Q),
        (GateKind.RZ, (1,), 2 * _Q),
        (GateKind.F, (0, 1), 2 * _Q),
        (GateKind.RZ, (1,), 2 * _Q),
        (GateKind.RY, (1,), _Q),
        (GateKind.RZ, (1,), -4 * _Q),
        (GateKind.RZ, (0,), 2 * _Q),
    ),
}
_EXPANSIONS[GateKind.CX] = _EXPANSIONS[GateKind.CZ] + ((GateKind.F, (0, 1), 2 * _Q),)


def normalize_pass(c: Circuit) -> Circuit:
    """Rewrite every gate into {rz, ry, f, gphase}, preserving the full
    unitary including global phase.

    Like every pass it assumes a valid circuit, which the entry points
    (transpile, verify_circuit) check once; every GateKind has a rule
    here, so it refuses nothing."""
    out = Circuit(c.num_qubits, name=c.name)
    for g in c.gates:
        if g.kind in _NORMAL_KINDS:
            out.gates.append(g)
        elif g.kind is GateKind.RX:
            # rx(t) = sdg ry(t/2) s as matrices: the s and sdg rows around ry
            out.gates.append(Gate(GateKind.RZ, g.qubits, 2 * _Q))
            out.gates.append(Gate(GateKind.RY, g.qubits, 0.5 * g.param))
            out.gates.append(Gate(GateKind.RZ, g.qubits, -2 * _Q))
        else:
            out.gates.extend(
                Gate(kind, tuple(g.qubits[i] for i in pos), v)
                for kind, pos, v in _EXPANSIONS[g.kind]
            )
    return out


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
        if g.kind is GateKind.RZ:
            out.gates.append(Gate(GateKind.F, (g.qubits[0], tag), g.param))
        elif g.kind in (GateKind.RY, GateKind.F):
            out.gates.append(g)
        elif g.kind is GateKind.GPHASE:
            out.gates.append(Gate(GateKind.RY, (tag,), g.param))
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
        if g.kind is GateKind.RY:
            out.gates.append(Gate(GateKind.F, (work, g.qubits[0]), g.param))
        elif g.kind is GateKind.F:
            out.gates.append(g)
        else:
            raise ValueError(f"gate {i}: only ry and f can be lowered, got {g.kind.value}")
    return out


def synthesize_all(c: Circuit, cfg: SynthConfig) -> list[SynthesizedGate]:
    """Synthesis results for every gate of a level-'f' circuit, in order.

    Each distinct angle is synthesized once; gates that repeat it share
    its result and keep their own index and target. NotReachable is
    re-raised with gate_index pointing at the first offender.
    """
    # 0.0 and -0.0 share a key; both reduce to the target 0.0
    results: dict[float, SynthesisResult] = {}
    out = []
    for i, g in enumerate(c.gates):
        if g.kind is not GateKind.F:
            raise ValueError(f"gate {i}: expected an f gate, got {g.kind.value}")
        result = results.get(g.param)
        if result is None:
            try:
                result = results[g.param] = synthesize(g.param, cfg)
            except NotReachable as e:
                e.gate_index = i
                raise
        out.append(SynthesizedGate(i, g.param, result))
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
        out.gates.extend([fixed[g.qubits]] * s.result.k)
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
