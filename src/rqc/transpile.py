"""The lowering passes and the one pipeline that runs them.

Stages:

    normalize           single-qubit gates become rz/ry chains via their
                        ZYZ angles, with gphase items for unit factors;
                        cx and cz become verified expansions over
                        {rz, ry, f(pi/2), gphase}
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
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .circuit import Circuit, Gate, GateKind, require_valid
from .encoding import EncodedLayout, global_phase_gate
from .gates import _wrap, gate_matrix, zyz_angles
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

# conjugates the target block of f(pi/2), a quarter-turn plane rotation,
# into the phase matrix -iZ; this turns the controlled rotation into a
# controlled phase, the seed of the cz and cx expansions below
_A = np.array([[1j, 1.0], [-1j, 1.0]], dtype=np.complex128) * math.sqrt(0.5)


def _rotation_items(u: np.ndarray) -> tuple[list[tuple[GateKind, float]], float]:
    # temporal rz/ry item list for a 2x2 unitary, plus its unit-phase angle
    alpha, a, b, c = zyz_angles(u)
    items = []
    if c != 0.0:
        items.append((GateKind.RZ, c))
    if b != 0.0:
        items.append((GateKind.RY, b))
    if a != 0.0:
        items.append((GateKind.RZ, a))
    return items, alpha


def _embedded(kind: GateKind, role: str, param: float) -> np.ndarray:
    m = gate_matrix(Gate(kind, (0, 1) if role == "ct" else (0,) * len(role), param))
    if role == "ct":
        return m
    if role == "c":
        return np.kron(m, np.eye(2))
    if role == "t":
        return np.kron(np.eye(2), m)
    return m[0, 0] * np.eye(4)


@lru_cache(maxsize=None)
def _two_qubit_template(kind: GateKind) -> tuple[tuple[GateKind, str, float], ...]:
    """cx/cz over {rz, ry, f(pi/2), gphase}, in temporal order over operand
    roles 'c'/'t'/'ct', verified against the exact 4x4 matrix on build."""
    dag_items, dag_phase = _rotation_items(_A.conj().T)
    a_items, a_phase = _rotation_items(_A)
    seq = [(k, "t", v) for k, v in dag_items]
    seq.append((GateKind.F, "ct", 0.5 * math.pi))
    seq += [(k, "t", v) for k, v in a_items]
    seq.append((GateKind.RZ, "c", 0.5 * math.pi))
    phase = _wrap(dag_phase + a_phase)
    if phase != 0.0:
        seq.append((GateKind.GPHASE, "", phase))
    if kind is GateKind.CX:
        seq.append((GateKind.F, "ct", 0.5 * math.pi))
    total = np.eye(4, dtype=np.complex128)
    for item in seq:
        total = _embedded(*item) @ total
    want = gate_matrix(Gate(kind, (0, 1)))
    if not np.allclose(total, want, atol=1e-12):
        raise AssertionError(f"{kind.value} expansion failed its matrix check")
    return tuple(seq)


_ROLE_OPERANDS = {"c": (0,), "t": (1,), "ct": (0, 1), "": ()}


def _instantiate(seq, control: int, target: int):
    pair = (control, target)
    for kind, role, param in seq:
        yield Gate(kind, tuple(pair[i] for i in _ROLE_OPERANDS[role]), param)


def normalize_pass(c: Circuit) -> Circuit:
    """Rewrite every gate into {rz, ry, f, gphase}, preserving the full
    unitary including global phase."""
    require_valid(c)
    out = Circuit(c.num_qubits, name=c.name)
    for g in c.gates:
        if g.kind in _NORMAL_KINDS:
            out.gates.append(g)
        elif g.kind in (GateKind.CX, GateKind.CZ):
            out.gates.extend(_instantiate(_two_qubit_template(g.kind), *g.qubits))
        else:
            items, alpha = _rotation_items(gate_matrix(g))
            out.gates.extend(Gate(kind, g.qubits, v) for kind, v in items)
            if alpha != 0.0:
                out.gates.append(Gate(GateKind.GPHASE, (), alpha))
    return out


def encode_pass(c: Circuit) -> Circuit:
    """Rewrite a normalized circuit over n data qubits into a real circuit
    over data plus tag ancilla (level 'real').

    Every rule is an exact identity on encoded states: rz(t)@q becomes
    f(t)[q -> tag], ry and f act the same on both component blocks, and
    gphase becomes the tag-ancilla rotation.
    """
    layout = EncodedLayout(c.num_qubits)
    out = Circuit(layout.num_qubits, name=c.name)
    for i, g in enumerate(c.gates):
        if g.kind is GateKind.RZ:
            out.gates.append(Gate(GateKind.F, (g.qubits[0], layout.ri_ancilla), g.param))
        elif g.kind in (GateKind.RY, GateKind.F):
            out.gates.append(g)
        elif g.kind is GateKind.GPHASE:
            out.gates.append(global_phase_gate(g.param, layout))
        else:
            raise ValueError(f"gate {i}: {g.kind.value} is not a normalized kind")
    return out


def lower_ry_pass(c: Circuit) -> Circuit:
    """Rewrite a level-'real' circuit of {ry, f} into f gates only (level
    'f'), with a work ancilla held in |1> controlling every lowered ry."""
    layout = EncodedLayout(c.num_qubits - 1, has_work=True)
    out = Circuit(layout.num_qubits, name=c.name)
    for i, g in enumerate(c.gates):
        if g.kind is GateKind.RY:
            out.gates.append(Gate(GateKind.F, (layout.work_ancilla, g.qubits[0]), g.param))
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
    """The level-'f' circuit with every angle replaced by its synthesized
    k*phi mod 2pi.

    Repeated plane rotations compose by angle addition, so this has the
    same action as the materialized fixed-gate circuit while keeping one
    gate per rotation; verification simulates this form to stay linear
    in the level-'f' gate count instead of sum(k).
    """
    out = Circuit(c.num_qubits, name=c.name)
    for g, s in zip(c.gates, synths, strict=True):
        out.gates.append(Gate(GateKind.F, g.qubits, s.result.achieved))
    return out


def prepare_stages(c: Circuit, cfg: SynthConfig, level: LoweringLevel) -> TranspileReport:
    """Run the passes through `level`, keeping every stage.

    This is the one pass sequence: transpile and verify_circuit both
    lower through it. Raises ValueError on an invalid circuit and
    NotReachable (with .gate_index set) when a level-'g' angle cannot be
    synthesized; the exact stages cannot fail on valid input.
    """
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
    level: LoweringLevel = LoweringLevel.G_ONLY,
    cfg: SynthConfig | None = None,
) -> tuple[Circuit, TranspileReport]:
    """Lower a circuit to the requested level: the last stage of
    prepare_stages, materialized as fixed gates at level 'g'.

    Raises as prepare_stages does.
    """
    if cfg is None:
        cfg = SynthConfig()
    report = prepare_stages(c, cfg, level)
    if level is LoweringLevel.G_ONLY:
        return materialize_fixed(report.f, report.syntheses, cfg.phi), report
    return (report.real if report.f is None else report.f), report
