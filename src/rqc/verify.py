"""Equivalence checking between a circuit and its lowered forms.

The stages come from transpile.prepare_stages, the same pass sequence
transpile runs. The reference run uses the complex engine on the
original circuit, before normalize_pass rewrites it, so every report
checks the rewrites too; each lowered stage runs on the real engine
from the encoded initial state, over data + tag. The work ancilla of
the f and g stages sits in |1> and only controls f, so the f stage is
projected once onto that block, each f(work -> t) becoming ry(t), and
the ancilla is never simulated; a gate that could move it raises
AncillaLeakError before anything runs. Level 'g' is simulated as the
achieved_circuit of that projection, one gate per rotation instead of
sum(k) fixed gates: the projected gate list at the synthesized angles.
lower_ry_pass keeps every angle, so the projected f stage normally
equals the real stage gate for gate and reuses its run, which the
deterministic simulator would repeat bit for bit.

A data qubit that no gate of the circuit acts on stays in its input
bit. Every pass rewrites each gate on its own operands and adds only
the tag and the work ancilla. The two rewrites in normalize_pass keep
each gate's operands too, and they read the qubits only to compare them
for equality, so relabelling commutes with them as with every other
rule. So the circuit is packed once onto its k active data qubits,
relabelled to 0..k-1 in order, and lowered there: the reference runs on
those k qubits, each stage on them and the tag k, and the distances are
taken on those compact registers. Off the idle qubits' input bits a
full-size run would hold only zeros, and a gate updates each amplitude
from itself and its partner by the same operations at any width, so
every term of the distances is the one a full-size run gives. Only the
grouping of the sums differs, which moves a distance by a few ulps.
Each stage is measured by one number, its statevector distance from the
reference after decoding: phase errors that distributions cannot see
still fail, and on unit states that distance bounds the total variation
distance of the distributions, so no verdict needs the latter.
encoded_distance takes it in one scratch array, so a call holds three
compact arrays, and memory follows the active width, not the declared
one. Work follows a narrower width still: every run starts from a basis
input, so the simulator updates only the prefix of amplitudes over the
qubits in superposition (see sim), and a gate costs 2^m for the m qubits
superposed so far, not 2^k. Packing bounds memory
by the active width, and the prefix bounds work by the superposed width.
Reports serialize to stable key: value text for golden-file comparison.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, require_valid
from .encoding import AncillaLeakError, encoded_distance
from .sim import RealState, check_width, init_basis, run_complex, run_real
from .synth import SynthConfig
from .textio import emit
from .transpile import LoweringLevel, achieved_circuit, prepare_stages

# the exact stages must reproduce the reference to accumulation error
EXACT_STAGE_TOL = 1e-9
# float64 accumulation in the simulated state, allowed on top of the
# synthesis budget: when every rotation error lies in one plane the true
# distance equals the budget, and roundoff alone can put it above
BUDGET_ROUNDOFF_TOL = 1e-12


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance: half the l1 distance between distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions have different outcome counts")
    return 0.5 * float(np.abs(p - q).sum())


@dataclass(frozen=True)
class StageResult:
    """State distance of one lowered stage from the complex reference."""

    gate_count: int
    state_distance: float


@dataclass(frozen=True)
class VerificationReport:
    """Stage-by-stage equivalence record with a PASS/FAIL judgement."""

    digest: str
    num_qubits: int
    num_gates: int
    init_index: int
    level: LoweringLevel
    phi: float
    eps: float
    k_max: int
    real: StageResult
    f: StageResult | None
    g: StageResult | None
    fixed_gate_count: int | None
    max_k: int | None
    budget: float | None
    status: str
    reason: str | None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_text(self) -> str:
        """Stable key: value serialization, byte-identical per input."""
        out = [
            f"digest: {self.digest}",
            f"num_qubits: {self.num_qubits}",
            f"num_gates: {self.num_gates}",
            f"init_index: {self.init_index}",
            f"level: {self.level.value}",
            f"phi: {self.phi:.17g}",
            f"eps: {self.eps:.17g}",
            f"k_max: {self.k_max}",
            f"real_gate_count: {self.real.gate_count}",
            f"real_state_distance: {self.real.state_distance:.17g}",
        ]
        if self.f is not None:
            out += [
                f"f_gate_count: {self.f.gate_count}",
                f"f_state_distance: {self.f.state_distance:.17g}",
            ]
        if self.g is not None:
            out += [
                f"g_gate_count: {self.fixed_gate_count}",
                f"g_max_k: {self.max_k if self.max_k is not None else 0}",
                f"g_budget: {self.budget:.17g}",
                f"g_state_distance: {self.g.state_distance:.17g}",
            ]
        out.append(f"status: {self.status}")
        if self.reason is not None:
            out.append(f"reason: {self.reason}")
        return "\n".join(out) + "\n"


# module globals, not lookups through the class: see transpile._RZ
_F, _RY = GateKind.F, GateKind.RY


def _project_work(c: Circuit, work: int) -> Circuit:
    # the stage on the work = 1 block, over data + tag: f(work -> t) acts
    # there as ry(t), and gates off the work ancilla pass through
    out = Circuit(work, name=c.name)
    for i, g in enumerate(c.gates):
        if work not in g.qubits:
            out.gates.append(g)
        elif g.kind is _F and g.qubits[0] == work and g.qubits[1] != work:
            out.gates.append(Gate(_RY, (g.qubits[1],), g.param))
        else:
            raise AncillaLeakError(
                f"gate {i}: {g.kind.value} on {g.qubits} can move the work ancilla "
                f"{work}, which may only control f"
            )
    return out


def circuit_digest(c: Circuit) -> str:
    """sha256 over the canonical text form."""
    return hashlib.sha256(emit(c).encode()).hexdigest()


def verify_circuit(
    c: Circuit,
    init_basis_index: int = 0,
    cfg: SynthConfig | None = None,
    level: LoweringLevel | str = LoweringLevel.G_ONLY,
) -> VerificationReport:
    """Run the complex reference and every lowered stage from the same
    basis input and measure each stage's state distance from it.

    PASS needs the exact stages within EXACT_STAGE_TOL in state distance
    and the synthesized stage within its own error budget, give or take
    BUDGET_ROUNDOFF_TOL. Every stage runs on the data + tag register: the
    f and g stages hold the work ancilla in |1> as a classical control,
    and the f stage reuses the real stage's distance when its projection
    equals the real stage gate for gate; the g stage is that projection
    at the synthesized angles. AncillaLeakError names the first gate that
    uses the work ancilla other than as the control of f.

    Only the active data qubits are simulated: those that some gate of
    c acts on, or qubit 0 if none does. c is packed onto them in order
    and lowered there, so the reference runs on them and each stage on
    them and the tag, from the input's bits there, and the distances are
    taken on those compact registers; the idle data qubits keep their
    input bits. AncillaLeakError keeps the gate's index in its stage but
    names its operands on the packed register. The width cap applies to
    the active qubits: a circuit whose active data qubits plus 2 exceed
    sim.MAX_QUBITS is refused before anything is lowered, however many
    qubits it declares. The circuit is validated once, here, before
    packing could move a bad operand into range and before `level` is
    read; the passes behind prepare_stages trust that. An input index
    out of range for the declared qubits is refused before anything is
    allocated. A call holds three arrays the size of the compact
    reference at once: the reference, the stage register, and either a
    run's scratch or encoding.encoded_distance's one scratch array.
    """
    require_valid(c)
    if cfg is None:
        cfg = SynthConfig()
    n = c.num_qubits
    init_basis_index = operator.index(init_basis_index)
    # init_basis below sees only the bits of the active qubits
    if init_basis_index < 0 or init_basis_index >> n:
        raise ValueError(f"basis index {init_basis_index} out of range for {n} qubit(s)")
    # a circuit with no active qubit keeps qubit 0, as Circuit(0) is invalid
    active = sorted({q for g in c.gates for q in g.qubits}) or [0]
    k = len(active)
    # the lowered register, work ancilla included, is refused before
    # anything is lowered
    check_width(k + 2)
    packed = c
    if k < n:
        # every pass rewrites each gate on its own operands, and the
        # rewrites compare qubits only for equality, so the stages of the
        # packed circuit are those of c relabelled
        label = {q: j for j, q in enumerate(active)}
        gates = [Gate(g.kind, tuple(map(label.__getitem__, g.qubits)), g.param) for g in c.gates]
        packed = Circuit(k, gates)
    stages = prepare_stages(packed, cfg, level)
    projected = achieved = None
    if stages.f is not None:
        # refuses a gate that moves the work ancilla before anything runs
        projected = _project_work(stages.f, stages.work_ancilla)
    if stages.level is LoweringLevel.G_ONLY:
        achieved = achieved_circuit(projected, stages.syntheses)
    # each run starts from the input's bits on the active qubits; idle
    # qubits keep theirs and take no part in any distance
    start = sum(((init_basis_index >> q) & 1) << j for j, q in enumerate(active))
    ref = init_basis(k, start)
    run_complex(packed, ref, out=ref)
    # every stage runs in reg from the encoded input, the basis vector
    # start with the tag at 0
    reg = RealState(k + 1, np.empty(2 << k))

    def measure(circuit: Circuit) -> StageResult:
        reg.amps.fill(0)
        reg.amps[start] = 1
        run_real(circuit, reg, out=reg)
        return StageResult(len(circuit.gates), encoded_distance(reg, ref))

    real_res = measure(stages.real)
    f_res = g_res = None
    if projected is not None:
        if projected.gates == stages.real.gates:
            f_res = StageResult(len(stages.f.gates), real_res.state_distance)
        else:
            f_res = measure(projected)
    if achieved is not None:
        g_res = measure(achieved)

    reason = None
    for name, res in (("real", real_res), ("f", f_res)):
        if res is None:
            continue
        if res.state_distance > EXACT_STAGE_TOL:
            reason = f"stage '{name}' distance exceeds {EXACT_STAGE_TOL:g}"
            break
    if g_res is not None and reason is None:
        if g_res.state_distance > stages.budget + BUDGET_ROUNDOFF_TOL:
            reason = "budget violated"

    return VerificationReport(
        digest=circuit_digest(c),
        num_qubits=c.num_qubits,
        num_gates=len(c.gates),
        init_index=init_basis_index,
        level=stages.level,
        phi=cfg.phi,
        eps=cfg.eps,
        k_max=cfg.k_max,
        real=real_res,
        f=f_res,
        g=g_res,
        fixed_gate_count=stages.gate_counts.get("g"),
        max_k=stages.max_k,
        budget=stages.budget,
        status="FAIL" if reason else "PASS",
        reason=reason,
    )
