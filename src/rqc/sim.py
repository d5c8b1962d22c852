"""Dual statevector engines.

run_complex is the reference engine for arbitrary circuits; run_real
accepts only gates whose matrices are exactly real (see gates.is_real)
and keeps the state in a float64 array, so imaginary parts cannot exist
by construction. Kernels update the amplitude array in place through
strided index views, pairs for single-qubit gates and quadruples for
two-qubit gates; comfortable up to roughly 20 complex / 22 real qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .gates import gate_matrix, is_real


@dataclass
class ComplexState:
    """Length 2^n complex amplitude vector; qubit 0 is the low index bit."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude count does not match qubit count")

    def copy(self) -> "ComplexState":
        return ComplexState(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass
class RealState:
    """Length 2^n float64 amplitude vector; imaginary parts unrepresentable."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps)
        if a.dtype.kind == "c":
            raise ValueError("RealState cannot hold complex amplitudes")
        self.amps = a.astype(np.float64)
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude count does not match qubit count")

    def copy(self) -> "RealState":
        return RealState(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def init_basis(num_qubits: int, basis_index: int) -> ComplexState:
    """Computational basis state |basis_index> on the complex engine."""
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[_checked_index(num_qubits, basis_index)] = 1.0
    return ComplexState(num_qubits, amps)


def init_basis_real(num_qubits: int, basis_index: int) -> RealState:
    """Computational basis state |basis_index> on the real engine."""
    amps = np.zeros(1 << num_qubits, dtype=np.float64)
    amps[_checked_index(num_qubits, basis_index)] = 1.0
    return RealState(num_qubits, amps)


def _checked_index(num_qubits: int, basis_index: int) -> int:
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(
            f"basis index {basis_index} out of range for {num_qubits} qubit(s)"
        )
    return basis_index


def _apply_1q(amps: np.ndarray, m: np.ndarray, q: int) -> None:
    # enumerate base indices with bit q clear, then pair with bit q set
    base = np.arange(len(amps) >> 1)
    i0 = ((base >> q) << (q + 1)) | (base & ((1 << q) - 1))
    i1 = i0 | (1 << q)
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = m[0, 0] * a0 + m[0, 1] * a1
    amps[i1] = m[1, 0] * a0 + m[1, 1] * a1


def _apply_2q(amps: np.ndarray, m: np.ndarray, qc: int, qt: int) -> None:
    # base indices with both operand bits clear; matrix index is 2c + t
    base = np.arange(len(amps) >> 2)
    lo, hi = sorted((qc, qt))
    x = ((base >> lo) << (lo + 1)) | (base & ((1 << lo) - 1))
    i00 = ((x >> hi) << (hi + 1)) | (x & ((1 << hi) - 1))
    i01 = i00 | (1 << qt)
    i10 = i00 | (1 << qc)
    i11 = i10 | (1 << qt)
    a00 = amps[i00]
    a01 = amps[i01]
    a10 = amps[i10]
    a11 = amps[i11]
    amps[i00] = m[0, 0] * a00 + m[0, 1] * a01 + m[0, 2] * a10 + m[0, 3] * a11
    amps[i01] = m[1, 0] * a00 + m[1, 1] * a01 + m[1, 2] * a10 + m[1, 3] * a11
    amps[i10] = m[2, 0] * a00 + m[2, 1] * a01 + m[2, 2] * a10 + m[2, 3] * a11
    amps[i11] = m[3, 0] * a00 + m[3, 1] * a01 + m[3, 2] * a10 + m[3, 3] * a11


def _dispatch(amps: np.ndarray, g: Gate, num_qubits: int, m: np.ndarray) -> None:
    if g.kind is GateKind.GPHASE:
        amps *= m[0, 0]
        return
    for q in g.qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"operand {q} out of range for {num_qubits} qubit(s)")
    if g.kind.num_operands == 1:
        _apply_1q(amps, m, g.qubits[0])
    else:
        if g.qubits[0] == g.qubits[1]:
            raise ValueError("duplicate operands")
        _apply_2q(amps, m, g.qubits[0], g.qubits[1])


def apply_complex(s: ComplexState, g: Gate) -> ComplexState:
    """Apply one gate; returns a new state, the input is untouched."""
    out = s.copy()
    _dispatch(out.amps, g, s.num_qubits, gate_matrix(g))
    return out


def apply_real(s: RealState, g: Gate) -> RealState:
    """Apply one exactly-real gate; rejects anything else."""
    out = s.copy()
    _dispatch(out.amps, g, s.num_qubits, _real_matrix(g))
    return out


def _real_matrix(g: Gate) -> np.ndarray:
    if not is_real(g):
        raise ValueError(f"non-real gate in real engine: {g.kind.mnemonic}")
    # imaginary parts are exactly zero for real-classified gates
    return gate_matrix(g).real


def run_complex(c: Circuit, init: ComplexState) -> ComplexState:
    """Left-to-right fold of apply_complex; errors carry the gate index."""
    _check_register(c, init)
    amps = init.amps.copy()
    for i, g in enumerate(c.gates):
        try:
            _dispatch(amps, g, c.num_qubits, gate_matrix(g))
        except ValueError as e:
            raise ValueError(f"gate {i}: {e}") from None
    return ComplexState(c.num_qubits, amps)


def run_real(c: Circuit, init: RealState) -> RealState:
    """Left-to-right fold of apply_real; errors carry the gate index."""
    _check_register(c, init)
    amps = init.amps.copy()
    for i, g in enumerate(c.gates):
        try:
            _dispatch(amps, g, c.num_qubits, _real_matrix(g))
        except ValueError as e:
            raise ValueError(f"gate {i}: {e}") from None
    return RealState(c.num_qubits, amps)


def _check_register(c: Circuit, init: ComplexState | RealState) -> None:
    if c.num_qubits != init.num_qubits:
        raise ValueError(
            f"circuit has {c.num_qubits} qubit(s) but the state has {init.num_qubits}"
        )


def distribution(s: ComplexState | RealState) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all basis outcomes."""
    if s.amps.dtype.kind == "c":
        return s.amps.real ** 2 + s.amps.imag ** 2
    return s.amps ** 2


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Outcome counts from inverse-CDF draws; deterministic per seed."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    p = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(p)
    if not len(p) or (p < 0.0).any() or not 0.0 < cdf[-1] < math.inf:
        raise ValueError("probabilities must be non-negative with a finite positive sum")
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(shots)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, len(p) - 1)
    return np.bincount(idx, minlength=len(p))
