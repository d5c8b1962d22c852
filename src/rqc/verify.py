"""Equivalence checking between a circuit and its lowered forms.

The stages come from transpile.prepare_stages, the same pass sequence
transpile runs; level 'g' is simulated as its achieved_circuit, one
gate per rotation, instead of sum(k) fixed gates. The reference run
uses the complex engine on the original circuit; each lowered stage
runs on the real engine from the encoded initial state, over data +
tag. The work ancilla of the f and g stages sits in |1> and only
controls f, so each f(work -> t) is applied as ry(t) and the ancilla is
never simulated; a gate that could move it raises AncillaLeakError.
lower_ry_pass keeps every angle, so the projected f stage normally
equals the real stage gate for gate and reuses its run, which the
deterministic simulator would repeat bit for bit. Comparison is full
statevector distance after decoding, not only distributions, so phase
errors that distributions cannot see still fail. The reference and
every stage run in place (sim's out=) and encoded_distances forms both
distances in one scratch array, so a call holds three register-sized
arrays. Reports serialize to stable key: value text for golden-file
comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind, require_valid
from .encoding import AncillaLeakError, EncodedLayout, encoded_distances
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
    """Distances of one lowered stage against the complex reference."""

    gate_count: int
    state_distance: float
    tv_distance: float


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
            f"real_tv_distance: {self.real.tv_distance:.17g}",
        ]
        if self.f is not None:
            out += [
                f"f_gate_count: {self.f.gate_count}",
                f"f_state_distance: {self.f.state_distance:.17g}",
                f"f_tv_distance: {self.f.tv_distance:.17g}",
            ]
        if self.g is not None:
            out += [
                f"g_gate_count: {self.fixed_gate_count}",
                f"g_max_k: {self.max_k if self.max_k is not None else 0}",
                f"g_budget: {self.budget:.17g}",
                f"g_state_distance: {self.g.state_distance:.17g}",
                f"g_tv_distance: {self.g.tv_distance:.17g}",
            ]
        out.append(f"status: {self.status}")
        if self.reason is not None:
            out.append(f"reason: {self.reason}")
        return "\n".join(out) + "\n"


def _project_work(c: Circuit, layout: EncodedLayout) -> Circuit:
    # the stage on the work = 1 block, over data + tag: f(work -> t) acts
    # there as ry(t), and gates off the work ancilla pass through
    work = layout.work_ancilla
    out = Circuit(work, name=c.name)
    for i, g in enumerate(c.gates):
        if work not in g.qubits:
            out.gates.append(g)
        elif g.kind is GateKind.F and g.qubits[0] == work and g.qubits[1] != work:
            out.gates.append(Gate(GateKind.RY, (g.qubits[1],), g.param))
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
    level: LoweringLevel = LoweringLevel.G_ONLY,
) -> VerificationReport:
    """Run the complex reference and every lowered stage from the same
    basis input and measure state and distribution distances.

    PASS needs the exact stages within EXACT_STAGE_TOL on both metrics
    and the synthesized stage within its own error budget, give or take
    BUDGET_ROUNDOFF_TOL. Every stage runs on the data + tag register: the
    f and g stages hold the work ancilla in |1> as a classical control,
    and the f stage reuses the real stage's distances when its projection
    equals the real stage gate for gate. AncillaLeakError names the first
    gate that uses the work ancilla other than as the control of f. A
    circuit whose lowered register (data + 2 qubits) is wider than
    sim.MAX_QUBITS is refused before anything runs.

    The reference runs in place in its input, and every stage in one
    data + tag register that is set to the encoded input before each
    run. encoding.encoded_distances then allocates its one scratch array
    after the run's scratch is gone, so at most three arrays the size of
    the complex reference are live at once.
    """
    require_valid(c)
    if cfg is None:
        cfg = SynthConfig()
    plain = EncodedLayout(c.num_qubits)
    worked = EncodedLayout(c.num_qubits, has_work=True)
    check_width(worked.num_qubits)
    ref = init_basis(c.num_qubits, init_basis_index)
    run_complex(c, ref, out=ref)
    stages = prepare_stages(c, cfg, level)
    # each stage first writes its encoded input here, the basis vector
    # init_basis_real(n + 1, i) (see measure)
    reg = RealState(plain.num_qubits, np.empty(1 << plain.num_qubits))

    def measure(circuit: Circuit) -> StageResult:
        reg.amps.fill(0.0)
        reg.amps[init_basis_index] = 1.0
        run_real(circuit, reg, out=reg)
        # the next stage rewrites reg, which this squares in place
        return StageResult(len(circuit.gates), *encoded_distances(reg, ref))

    real_res = measure(stages.real)
    f_res = g_res = None
    if stages.f is not None:
        projected = _project_work(stages.f, worked)
        if projected.gates == stages.real.gates:
            f_res = StageResult(
                len(stages.f.gates), real_res.state_distance, real_res.tv_distance
            )
        else:
            f_res = measure(projected)
    if level is LoweringLevel.G_ONLY:
        achieved = achieved_circuit(stages.f, stages.syntheses)
        g_res = measure(_project_work(achieved, worked))

    reason = None
    for name, res in (("real", real_res), ("f", f_res)):
        if res is None:
            continue
        if res.state_distance > EXACT_STAGE_TOL or res.tv_distance > EXACT_STAGE_TOL:
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
        level=level,
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
