"""Bijection between complex states and real states one qubit larger.

A complex amplitude vector of length 2^n maps to a real vector of length
2^{n+1}: the lower half holds real parts, the upper half imaginary parts.
Seen as a register, a tag ancilla at index num_data reads 0 for the real
component of each amplitude and 1 for the imaginary one, and data qubits
keep their original indices. Lowered circuits add one more ancilla at
num_data + 1, held in |1> and used only as a control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Gate, GateKind
from .sim import ComplexState, RealState


@dataclass(frozen=True)
class EncodedLayout:
    """Register bookkeeping for encoded circuits."""

    num_data: int
    has_work: bool = False

    @property
    def ri_ancilla(self) -> int:
        return self.num_data

    @property
    def work_ancilla(self) -> int | None:
        return self.num_data + 1 if self.has_work else None

    @property
    def num_qubits(self) -> int:
        return self.num_data + (2 if self.has_work else 1)


class AncillaLeakError(ValueError):
    """The work ancilla can leave |1>: a gate other than the control of f
    acts on it, or it picked up weight on |0>. Controls must never move it."""


def encode(s: ComplexState) -> RealState:
    """Split amplitudes into (real, imaginary) component pairs.

    Entry j of the input lands at encoded indices (j, tag=0) and
    (j, tag=1); the map is a norm- and distribution-preserving
    real-linear isomorphism.
    """
    return RealState(s.num_qubits + 1, np.concatenate([s.amps.real, s.amps.imag]))


def decode(s: RealState, layout: EncodedLayout | None = None) -> ComplexState:
    """Exact inverse of encode; the input must not carry a work ancilla."""
    if layout is None:
        layout = EncodedLayout(s.num_qubits - 1)
    if layout.has_work or layout.num_qubits != s.num_qubits:
        raise ValueError("decode expects a data-plus-tag register")
    half = 1 << layout.num_data
    return ComplexState(layout.num_data, s.amps[:half] + 1j * s.amps[half:])


def add_work_ancilla(s: RealState) -> RealState:
    """Append a control ancilla in |1> at the top of the register."""
    out = np.zeros(2 * len(s.amps), dtype=np.float64)
    out[len(s.amps):] = s.amps
    return RealState(s.num_qubits + 1, out)


def strip_work_ancilla(s: RealState, tol: float = 1e-9) -> RealState:
    """Project out the |1> work ancilla, refusing if it leaked onto |0>."""
    half = len(s.amps) >> 1
    leak = float(s.amps[:half] @ s.amps[:half])
    if leak > tol:
        raise AncillaLeakError(f"work-ancilla leaked: probability {leak:.3e} on |0>")
    return RealState(s.num_qubits - 1, s.amps[half:].copy())


def marginal_distribution(s: RealState, layout: EncodedLayout) -> np.ndarray:
    """Distribution over data outcomes with ancilla outcomes summed out.

    Matches distribution(decode(s)) on encoded states. With a work
    ancilla present, its weight must sit entirely on |1> (within 1e-9);
    anything else means a lowered circuit moved it.
    """
    if layout.num_qubits != s.num_qubits:
        raise ValueError("layout does not match the state register")
    p = s.amps ** 2
    if layout.has_work:
        half = len(p) >> 1
        leak = float(p[:half].sum())
        if leak > 1e-9:
            raise AncillaLeakError(f"work-ancilla leaked: probability {leak:.3e} on |0>")
        p = p[:half] + p[half:]
    n = 1 << layout.num_data
    return p[:n] + p[n:]


def encoded_distances(s: RealState, ref: ComplexState) -> tuple[float, float]:
    """State and total variation distance of a data + tag register from
    a complex reference, squaring s.amps in place.

    The values equal np.linalg.norm(decode(s).amps - ref.amps) and
    verify.tv_distance(marginal_distribution(s, layout),
    sim.distribution(ref)) on the same registers bit for bit: the same
    float operations in the same order, on the same memory layouts.
    verify_circuit's distances are these formulas on its compact
    registers. They share one scratch array the size of ref instead of
    the half dozen those calls allocate.
    """
    half = len(ref.amps)
    if len(s.amps) != 2 * half:
        raise ValueError("encoded_distances expects a data-plus-tag register")
    amps = s.amps
    diff = np.empty_like(ref.amps)
    np.subtract(amps[:half], ref.amps.real, out=diff.real)
    np.subtract(amps[half:], ref.amps.imag, out=diff.imag)
    state_distance = float(np.linalg.norm(diff))
    # diff's float64 view holds the reference distribution q and the
    # marginal p of s
    w = diff.view(np.float64)
    q, p = w[:half], w[half:]
    np.square(ref.amps.real, out=q)
    np.square(ref.amps.imag, out=p)
    np.add(q, p, out=q)
    np.square(amps, out=amps)
    np.add(amps[:half], amps[half:], out=p)
    np.subtract(p, q, out=q)
    np.abs(q, out=q)
    return state_distance, 0.5 * float(q.sum())


def global_phase_gate(alpha: float, layout: EncodedLayout) -> Gate:
    """ry(alpha) on the tag ancilla.

    The tag-ancilla rotation turns every (Re, Im) pair by alpha, which is
    exactly multiplication of the decoded state by e^{i alpha}. This
    identity is not part of the translation rules proper and is pinned by
    its own oracle test.
    """
    return Gate(GateKind.RY, (layout.ri_ancilla,), float(alpha))
