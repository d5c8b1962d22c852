"""Dual statevector engines.

run_complex is the reference engine for arbitrary circuits; run_real
accepts only gates whose matrices are exactly real (see gates.is_real)
and keeps the state in a float64 array, so imaginary parts cannot exist
by construction. Both take each gate's 2x2 block as four Python numbers
from gates.block_entries, equal to the entries of gates.gate_matrix.
With out= a run writes into a caller's state, which may be init itself,
so a caller that owns its register runs with no copy.

Kernels update the amplitudes in place through strided views of
amps.reshape(...), with no index arrays. A single-qubit gate on qubit q
mixes the two halves of the view (high bits, bit q, low bits). Every
two-operand gate is block-diag(I, U) in its control bit, so U is applied
to the control-set slice alone. A diagonal U (rz, s, t, z, cz, ...)
costs one product per entry that is not 1; every other U gets the dense
update of four products and two sums. Products are scalar-first and
written to contiguous scratch, as in np.multiply(u, a, out=t): numpy
rounds a complex scalar-times-array product differently by operand order
and by output layout, and this one keeps every amplitude reproducible to
the last bit. Results equal the full 2x2 product of
tests/_oracles.py::gather_apply by value: a skipped product by an exact
0 or 1 may flip the sign of a zero amplitude, which no distance,
distribution or report can see. Registers, ancillas
included, hold at most MAX_QUBITS qubits; wider ones are refused before
allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .gates import block_entries

# a run holds two register-sized arrays, the state and two half-register
# scratch rows, and a third when it copies init instead of taking out=:
# about 8 GiB, or 12 GiB with the copy, for run_complex at 28 qubits.
# verify_circuit holds three the size of its compact reference and caps
# its active data qubits plus 2, whatever the declared width (see its
# docstring). No run at the cap itself has been measured
MAX_QUBITS = 28
# uniforms drawn per step of sample: 1 MiB of float64
SAMPLE_CHUNK = 1 << 17


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
        self.amps = a.astype(np.float64, copy=False)
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValueError("amplitude count does not match qubit count")

    def copy(self) -> "RealState":
        return RealState(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def init_basis(num_qubits: int, basis_index: int) -> ComplexState:
    """Computational basis state |basis_index> on the complex engine."""
    return ComplexState(num_qubits, _basis(num_qubits, basis_index, np.complex128))


def init_basis_real(num_qubits: int, basis_index: int) -> RealState:
    """Computational basis state |basis_index> on the real engine."""
    return RealState(num_qubits, _basis(num_qubits, basis_index, np.float64))


def check_width(num_qubits: int) -> None:
    """Refuse a register wider than MAX_QUBITS before anything is allocated."""
    if num_qubits > MAX_QUBITS:
        raise ValueError(f"{num_qubits} qubit(s) exceed the simulator limit of {MAX_QUBITS}")


def _basis(num_qubits: int, basis_index: int, dtype) -> np.ndarray:
    check_width(num_qubits)
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(f"basis index {basis_index} out of range for {num_qubits} qubit(s)")
    amps = np.zeros(1 << num_qubits, dtype=dtype)
    amps[basis_index] = 1.0
    return amps


def _scale(a: np.ndarray, u, t: np.ndarray) -> None:
    if u != 1:
        np.multiply(u, a, out=t)
        a[...] = t


def _apply_pair(a0: np.ndarray, a1: np.ndarray, u: tuple, scratch: np.ndarray) -> None:
    # (a0, a1) <- U @ (a0, a1), U = ((u00, u01), (u10, u11)). Every
    # product lands in the contiguous scratch rows: numpy rounds a
    # complex product written to a strided view (a half of qubit 0, say)
    # differently
    u00, u01, u10, u11 = u
    t = scratch[0, : a0.size].reshape(a0.shape)
    s = scratch[1, : a0.size].reshape(a0.shape)
    if u01 == 0 and u10 == 0:
        _scale(a0, u00, t)
        _scale(a1, u11, t)
        return
    np.multiply(u00, a0, out=t)
    np.multiply(u01, a1, out=s)
    t += s
    np.multiply(u10, a0, out=s)
    a0[...] = t
    np.multiply(u11, a1, out=t)
    np.add(s, t, out=a1)


def _dispatch(amps: np.ndarray, g: Gate, num_qubits: int, u: tuple, scratch: np.ndarray) -> None:
    if g.kind is GateKind.GPHASE:
        amps *= u[0]
        return
    for q in g.qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"operand {q} out of range for {num_qubits} qubit(s)")
    if g.kind.num_operands == 1:
        v = amps.reshape(-1, 2, 1 << g.qubits[0])
        _apply_pair(v[:, 0], v[:, 1], u, scratch)
        return
    qc, qt = g.qubits
    if qc == qt:
        raise ValueError("duplicate operands")
    # every two-operand kind is block-diag(I, U) in the control bit; axis
    # 1 of the view is the higher operand's bit, axis 3 the lower one's
    lo, hi = min(qc, qt), max(qc, qt)
    v = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    if qc == hi:
        _apply_pair(v[:, 1, :, 0], v[:, 1, :, 1], u, scratch)
    else:
        _apply_pair(v[:, 0, :, 1], v[:, 1, :, 1], u, scratch)


def _real_entries(g: Gate) -> tuple[float, float, float, float]:
    # the same test as gates.is_real, on the entries fetched once
    u00, u01, u10, u11 = block_entries(g)
    if u00.imag or u01.imag or u10.imag or u11.imag:
        raise ValueError(f"non-real gate in real engine: {g.kind.value}")
    return u00.real, u01.real, u10.real, u11.real


def run_complex(c: Circuit, init: ComplexState, out: ComplexState | None = None) -> ComplexState:
    """Apply the gates left to right to init, or to a copy of it; errors
    carry the gate index.

    With out given, the run writes into out and returns it: out may be
    init itself, which then holds the final state. Otherwise init is
    left untouched and a new state is returned.
    """
    return _run(c, init, out, ComplexState, block_entries)


def run_real(c: Circuit, init: RealState, out: RealState | None = None) -> RealState:
    """As run_complex, for exactly-real gates only."""
    return _run(c, init, out, RealState, _real_entries)


def _run(
    c: Circuit,
    init: ComplexState | RealState,
    out: ComplexState | RealState | None,
    cls: type,
    entries,
) -> ComplexState | RealState:
    if c.num_qubits != init.num_qubits:
        raise ValueError(f"circuit has {c.num_qubits} qubit(s) but the state has {init.num_qubits}")
    if out is None:
        out = cls(c.num_qubits, init.amps.copy())
    elif type(out) is not cls or out.num_qubits != c.num_qubits:
        raise ValueError(f"out must be a {cls.__name__} of {c.num_qubits} qubit(s)")
    elif out is not init:
        # cls checks init as it does without out: RealState refuses a
        # complex init with the same ValueError
        out.amps[...] = cls(c.num_qubits, init.amps).amps
    amps = out.amps
    # shared by every gate: fresh temporaries per gate were up to 2x slower at 20 qubits
    scratch = np.empty((2, len(amps) >> 1), dtype=amps.dtype)
    for i, g in enumerate(c.gates):
        try:
            _dispatch(amps, g, c.num_qubits, entries(g), scratch)
        except ValueError as e:
            raise ValueError(f"gate {i}: {e}") from None
    return out


def distribution(s: ComplexState | RealState) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all basis outcomes."""
    if s.amps.dtype.kind == "c":
        return s.amps.real ** 2 + s.amps.imag ** 2
    return s.amps ** 2


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Outcome counts from inverse-CDF draws; deterministic per seed.

    The uniforms are drawn and counted SAMPLE_CHUNK at a time, so memory
    does not grow with shots; Generator.random yields the same stream in
    chunks as in one call, and so the same counts.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    p = np.asarray(probs, dtype=np.float64)
    cdf = np.cumsum(p)
    if not len(p) or (p < 0.0).any() or not 0.0 < cdf[-1] < math.inf:
        raise ValueError("probabilities must be non-negative with a finite positive sum")
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(p), dtype=np.intp)
    for start in range(0, shots, SAMPLE_CHUNK):
        u = rng.random(min(SAMPLE_CHUNK, shots - start))
        idx = np.searchsorted(cdf, u, side="right")
        np.minimum(idx, len(p) - 1, out=idx)
        counts += np.bincount(idx, minlength=len(p))
    return counts
