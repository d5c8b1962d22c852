"""Bijection between complex states and real states one qubit larger.

A complex amplitude vector of length 2^n maps to a real vector of length
2^{n+1}: the lower half holds real parts, the upper half imaginary parts.
Seen as a register, the tag ancilla is the top qubit, index n: it reads
0 for the real component of each amplitude and 1 for the imaginary one,
and data qubits keep their original indices. Lowering to f adds one more
ancilla on top, at n + 1, held in |1> and used only as a control. The
passes that add the two ancillas (transpile.encode_pass and
transpile.lower_ry_pass) are the only code that places them; the
functions here read a register of data qubits and the tag, and
strip_work_ancilla takes the work ancilla off first. None of them writes
to the register it is given.
"""

from __future__ import annotations

import math

import numpy as np

from .sim import ComplexState, RealState


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


def decode(s: RealState) -> ComplexState:
    """Exact inverse of encode on a data + tag register, the tag on top.

    A register that still carries the work ancilla goes through
    strip_work_ancilla first."""
    half = len(s.amps) >> 1
    return ComplexState(s.num_qubits - 1, s.amps[:half] + 1j * s.amps[half:])


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


def marginal_distribution(s: RealState) -> np.ndarray:
    """Distribution over data outcomes of a data + tag register, the tag
    outcome summed out.

    Matches distribution(decode(s)) on encoded states. A register that
    still carries the work ancilla goes through strip_work_ancilla first,
    which refuses it if the ancilla left |1>.
    """
    p = s.amps ** 2
    half = len(p) >> 1
    return p[:half] + p[half:]


def encoded_distance(s: RealState, ref: ComplexState) -> float:
    """State distance of a data + tag register from a complex reference.

    The value equals np.linalg.norm(decode(s).amps - ref.amps) bit for
    bit: the same float operations in the same order, on the same memory
    layout. Those are norm's for a complex vector, the dot products of
    the real and the imaginary parts with themselves, their sum and its
    square root, here without norm's argument handling. verify_circuit's
    distances are this formula on its compact registers. It writes only
    its one scratch array, the size of ref, in place of the temporaries
    that decode and the subtraction allocate.
    """
    half = len(ref.amps)
    if len(s.amps) != 2 * half:
        raise ValueError("encoded_distance expects a data-plus-tag register")
    diff = np.empty_like(ref.amps)
    np.subtract(s.amps[:half], ref.amps.real, out=diff.real)
    np.subtract(s.amps[half:], ref.amps.imag, out=diff.imag)
    dr, di = diff.real, diff.imag
    return math.sqrt(dr.dot(dr) + di.dot(di))
