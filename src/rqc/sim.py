"""Dual statevector engines.

run_complex is the reference engine for arbitrary circuits; run_real
accepts only gates whose matrices are exactly real (see gates.is_real)
and keeps the state in a float64 array, so imaginary parts cannot exist
by construction. Both take each gate's 2x2 block as four Python numbers
from gates.block_entries, equal to the entries of gates.gate_matrix.
Every run allocates its own state and returns it; init is left as it
was.

init is a state or a basis index b. A state is copied and every gate
runs over the whole register, every qubit superposed from the start at
positions 0..n-1. From an index the run writes |b> itself and works only
on the qubits in superposition: every qubit starts as a classical bit of
known value, and the amplitudes of the m superposed qubits are kept as
the prefix amps[:2^m], the rest of amps being zero. The result equals
the run from init_basis(n, b) by value; only the sign of a zero may
differ. So a caller that starts from a basis vector passes its index.
Each superposed qubit has a position 0..m-1, the prefix index's bit,
in the order in which it first became superposed. A gate on classical
operands needs no kernel, or one over the prefix alone:
  - a diagonal U scales the prefix by u_bb, b being the target's bit;
  - an anti-diagonal U (x, y, cx on a set control) scales the prefix by
    the off-diagonal entry and flips the bit;
  - a classical control at 0 leaves the state as it is, one at 1
    applies U by the target's single-qubit rule;
  - a superposed control over a classical target with a diagonal U
    scales the control-set half of the prefix by u_bb;
  - any other U promotes the classical target: the prefix doubles, the
    target taking the next position, and each amplitude a of the prefix,
    or of its control-set half under a superposed control, becomes
    u_0b*a at the target's bit 0 and u_1b*a at bit 1, two scalar-first
    products; control-clear amplitudes keep bit b.
A gate on a superposed target runs the kernels below at the positions.
At the end of the run one transposition through the run's scratch puts
the state back in natural order; a run from a state needs none.

Kernels update the prefix in place through strided views of
amps.reshape(...), with no index arrays. A single-qubit gate at position
p mixes the two halves of the view (high bits, bit p, low bits). Every
two-operand gate is block-diag(I, U) in its control bit, so U is applied
to the control-set slice alone. A diagonal U (rz, s, t, z, cz, ...)
costs one product per entry that is not 1; every other U gets the dense
update of four products and two sums. Products are scalar-first and
written to contiguous scratch, as in np.multiply(u, a, out=t): numpy
rounds a complex scalar-times-array product differently by operand order
and by output layout, and this one keeps every amplitude reproducible to
the last bit, at any prefix length. gphase multiplies in place, a *= u,
over at least two entries: on a one-element complex128 array numpy
rounds that product differently from the same product inside a longer
array, and the entries past the prefix are zero. Results equal the full
2x2 product of tests/_oracles.py::gather_apply by value: the products
left out are those by an exact zero amplitude, such as a promoted
amplitude's partner in the empty half, and a skipped product by an
exact 0 or 1 may flip the sign of a zero amplitude, which no distance,
distribution or report can see.

A real run from a basis index keeps the prefix in a list of Python
floats while it holds at most _FLOAT_PREFIX (64) amplitudes, where a
gate's ufunc calls cost more than its float updates; the first promotion
past that, or the end of the run, writes the list to amps once. The
float forms make the kernels' float64 operations in the same order, and
CPython and numpy round each float64 product and sum correctly and fuse
none, so the bits are the kernels', signed zeros included. Complex
products are not: numpy's SIMD complex multiply differs from CPython's
in about two products of five, so run_complex keeps numpy throughout.

Registers, ancillas included, hold at most MAX_QUBITS qubits; wider ones
are refused before allocation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .gates import block_entries

# a run holds two register-sized arrays, the state it returns (from a
# state input, the copy) and two half-register scratch rows: about 8 GiB
# for run_complex at 28 qubits, besides a caller's init state.
# verify_circuit holds three the size of its compact reference and caps
# its active data qubits plus 2, whatever the declared width (see its
# docstring). No run at the cap itself has been measured
MAX_QUBITS = 28

# the longest prefix a real run keeps in Python floats (see the module
# docstring); 128 and 256 were no faster on verify-wide
_FLOAT_PREFIX = 64


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


def _check_basis(num_qubits: int, basis_index: int) -> None:
    check_width(num_qubits)
    if not 0 <= basis_index < (1 << num_qubits):
        raise ValueError(f"basis index {basis_index} out of range for {num_qubits} qubit(s)")


def _basis(num_qubits: int, basis_index: int, dtype) -> np.ndarray:
    _check_basis(num_qubits, basis_index)
    amps = np.zeros(1 << num_qubits, dtype=dtype)
    amps[basis_index] = 1.0
    return amps


def _scale(a: np.ndarray, u, scratch: np.ndarray) -> None:
    if u != 1:
        t = scratch[0, : a.size].reshape(a.shape)
        np.multiply(u, a, out=t)
        a[...] = t


def _apply_pair(a0: np.ndarray, a1: np.ndarray, u: tuple, scratch: np.ndarray) -> None:
    # (a0, a1) <- U @ (a0, a1), U = ((u00, u01), (u10, u11)). Every
    # product lands in the contiguous scratch rows: numpy rounds a
    # complex product written to a strided view (a half of qubit 0, say)
    # differently
    u00, u01, u10, u11 = u
    if u01 == 0 and u10 == 0:
        _scale(a0, u00, scratch)
        _scale(a1, u11, scratch)
        return
    t = scratch[0, : a0.size].reshape(a0.shape)
    s = scratch[1, : a0.size].reshape(a0.shape)
    np.multiply(u00, a0, out=t)
    np.multiply(u01, a1, out=s)
    t += s
    np.multiply(u10, a0, out=s)
    a0[...] = t
    np.multiply(u11, a1, out=t)
    np.add(s, t, out=a1)


# _scale and _apply_pair on a list of floats, over the entries i < stop
# with i & mask == want: the same products and sums in the same order
def _scale_floats(v: list, stop: int, mask: int, want: int, u: float) -> None:
    if u != 1:
        for i in range(want, stop):
            if i & mask == want:
                v[i] = u * v[i]


def _apply_pair_floats(v: list, stop: int, c: int, h: int, u: tuple) -> None:
    # the pairs (v[i], v[i + h]), i having the bits of c set and h clear
    u00, u01, u10, u11 = u
    mask = c | h
    if u01 == 0 and u10 == 0:
        _scale_floats(v, stop, mask, c, u00)
        _scale_floats(v, stop, mask, mask, u11)
        return
    for i in range(c, stop):
        if i & mask == c:
            x, y = v[i], v[i + h]
            v[i] = u00 * x + u01 * y
            v[i + h] = u10 * x + u11 * y


# module globals, not lookups through the class: see transpile._RZ
_GPHASE = GateKind.GPHASE


class _Register:
    """A run's state: the superposed qubits' amplitudes as a prefix of amps.

    amps[:size], size = 2^m, holds the amplitudes over the m superposed
    qubits, order[p] being the qubit at position p (the prefix index's
    bit p); pos[q] is that position, or -1 for a classical qubit, whose
    value is bit q of bits. Everything past the prefix is zero.

    floats, unless None, stands in for amps[:len(floats)]. apply holds
    the classical-operand rules once; the three prefix operations it
    calls (_scale_part, _spread, _mix) each have a float form.
    """

    __slots__ = ("amps", "num_qubits", "scratch", "pos", "order", "bits", "size", "floats")

    def __init__(self, amps: np.ndarray, num_qubits: int, basis: int | None):
        # amps is the run's own contiguous array: a state input, every
        # qubit superposed in place, or, for a basis index, zeros with the
        # one amplitude of |basis> written at amps[0]
        self.amps = amps
        self.num_qubits = num_qubits
        self.floats = None
        # shared by every gate: fresh temporaries per gate were up to 2x
        # slower at 20 qubits; it also holds the prefix for restore
        self.scratch = np.empty((2, len(amps) >> 1), dtype=amps.dtype)
        if basis is None:
            self.pos = list(range(num_qubits))
            self.order = list(range(num_qubits))
            self.bits = 0
            self.size = len(amps)
            return
        self.pos = [-1] * num_qubits
        self.order = []
        self.bits = basis
        self.size = 1
        if amps.dtype.kind == "f":
            self.floats = amps[:_FLOAT_PREFIX].tolist()

    def _scale_part(self, u, pc: int = -1) -> None:
        # the prefix, or its half where position pc's bit is set, times u
        if self.floats is not None:
            c = 1 << pc if pc >= 0 else 0
            _scale_floats(self.floats, self.size, c, c, u)
            return
        a = self.amps[: self.size]
        if pc >= 0:
            a = a.reshape(-1, 2, 1 << pc)[:, 1]
        _scale(a, u, self.scratch)

    def _mix(self, pc: int, pt: int, u: tuple) -> None:
        # U on the bit at position pt, where the bit at pc is set if pc >= 0
        if self.floats is not None:
            _apply_pair_floats(self.floats, self.size, 1 << pc if pc >= 0 else 0, 1 << pt, u)
            return
        a = self.amps[: self.size]
        if pc < 0:
            v = a.reshape(-1, 2, 1 << pt)
            _apply_pair(v[:, 0], v[:, 1], u, self.scratch)
            return
        # axis 1 of the view is the higher position's bit, axis 3 the
        # lower one's
        lo, hi = min(pc, pt), max(pc, pt)
        v = a.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        if pc == hi:
            _apply_pair(v[:, 1, :, 0], v[:, 1, :, 1], u, self.scratch)
        else:
            _apply_pair(v[:, 0, :, 1], v[:, 1, :, 1], u, self.scratch)

    def _spread(self, pc: int, qt: int, b: int, u: tuple) -> None:
        # qt, classical at bit b, joins the superposed qubits at the next
        # position, which doubles the prefix: each amplitude a where the
        # bit at pc is set, or every one if pc < 0, becomes u_0b*a at
        # qt's bit 0 and u_1b*a at its bit 1. The others keep bit b, so
        # at b = 1 they move to the new half
        amps, size, v = self.amps, self.size, self.floats
        if v is not None and 2 * size > len(v):
            amps[: len(v)] = v
            v = self.floats = None
        u0, u1 = u[b], u[2 + b]
        moved = b and pc >= 0
        self.bits &= ~(1 << qt)
        c = 1 << pc if pc >= 0 else 0
        if v is not None:
            for i in range(size):
                if i & c != c:
                    if moved:
                        v[i + size] = v[i]
                        v[i] = 0.0
                    continue
                a = v[i]
                v[i] = u0 * a
                v[i + size] = u1 * a
        else:
            if pc < 0:
                x, y = amps[:size], amps[size : 2 * size]
            else:
                h = amps[: 2 * size].reshape(2, -1, 2, c)
                if moved:
                    h[1, :, 0] = h[0, :, 0]
                    h[0, :, 0] = 0
                x, y = h[0, :, 1], h[1, :, 1]
            # scalar-first products to the scratch rows, as in _apply_pair
            t = self.scratch[0, : x.size].reshape(x.shape)
            s = self.scratch[1, : x.size].reshape(x.shape)
            np.multiply(u0, x, out=t)
            np.multiply(u1, x, out=s)
            x[...] = t
            y[...] = s
        self.pos[qt] = len(self.order)
        self.order.append(qt)
        self.size = 2 * size

    def apply(self, g: Gate, u: tuple) -> None:
        if g.kind is _GPHASE:
            # never a one-element product: see the module docstring
            stop = max(2, self.size)
            if self.floats is None:
                self.amps[:stop] *= u[0]
            else:
                _scale_floats(self.floats, min(stop, len(self.floats)), 0, 0, u[0])
            return
        n = self.num_qubits
        for q in g.qubits:
            if not 0 <= q < n:
                raise ValueError(f"operand {q} out of range for {n} qubit(s)")
        pos = self.pos
        if g.kind.num_operands == 1:
            qt = g.qubits[0]
            pc = -1
        else:
            qc, qt = g.qubits
            if qc == qt:
                raise ValueError("duplicate operands")
            # every two-operand kind is block-diag(I, U) in the control
            # bit: a classical control at 0 leaves the state, one at 1
            # applies U to the target as a single-qubit gate
            pc = pos[qc]
            if pc < 0 and not self.bits >> qc & 1:
                return
        pt = pos[qt]
        if pt < 0:
            u00, u01, u10, u11 = u
            b = self.bits >> qt & 1
            if u01 == 0 and u10 == 0:
                self._scale_part(u11 if b else u00, pc)
                return
            if pc < 0 and u00 == 0 and u11 == 0:
                self._scale_part(u01 if b else u10)
                self.bits ^= 1 << qt
                return
            self._spread(pc, qt, b, u)
            return
        self._mix(pc, pt, u)

    def restore(self) -> None:
        """Write any float prefix back, then put amps in natural order: one
        transposition of the prefix through the scratch, unless it is
        there already."""
        amps, order, size = self.amps, self.order, self.size
        if self.floats is not None:
            amps[: len(self.floats)] = self.floats
        if self.bits == 0 and order == list(range(len(order))):
            return
        src = self.scratch.reshape(-1)[:size]
        src[...] = amps[:size]
        amps[:size] = 0
        # a view of amps over the superposed qubits at the classical
        # bits: axis j is position m-1-j, as in the (2,)*m prefix view
        shape = (2,) * len(order)
        strides = tuple(amps.itemsize << q for q in reversed(order))
        dst = np.ndarray(shape, amps.dtype, amps, self.bits * amps.itemsize, strides)
        dst[...] = src.reshape(shape)


def _real_entries(g: Gate) -> tuple[float, float, float, float]:
    # the same test as gates.is_real, on the entries fetched once. A
    # block of floats is real as it stands; only one with a complex
    # entry (y, rx and the phase kinds) is tested and converted
    u = block_entries(g)
    u00, u01, u10, u11 = u
    if float is type(u00) is type(u01) is type(u10) is type(u11):
        return u
    if u00.imag or u01.imag or u10.imag or u11.imag:
        raise ValueError(f"non-real gate in real engine: {g.kind.value}")
    return u00.real, u01.real, u10.real, u11.real


def basis_index(b) -> int:
    """b as an int, as operator.index takes it; a bool is refused, not
    read as 0 or 1."""
    if isinstance(b, bool):
        raise TypeError("a basis index must be an int, not a bool")
    return operator.index(b)


def run_complex(c: Circuit, init: ComplexState | int) -> ComplexState:
    """Apply the gates left to right to a copy of init and return the new
    state; errors carry the gate index.

    init is a state or a basis index (see basis_index). From an index b
    the run allocates |b> as init_basis does, refusing a register wider
    than MAX_QUBITS and then an index out of range with init_basis's
    messages, and the work follows the qubits in superposition, not the
    register's width. A state runs every gate over the whole register,
    so a caller starting from a basis vector passes its index: the
    values are the same, but for the sign of a zero.
    """
    return _run(c, init, ComplexState, block_entries)


def run_real(c: Circuit, init: RealState | int) -> RealState:
    """As run_complex, for exactly-real gates only; an index allocates
    as init_basis_real does."""
    return _run(c, init, RealState, _real_entries)


def _run(c: Circuit, init: ComplexState | RealState | int, cls: type, entries) -> ComplexState | RealState:
    n = c.num_qubits
    if isinstance(init, (ComplexState, RealState)):
        if n != init.num_qubits:
            raise ValueError(f"circuit has {n} qubit(s) but the state has {init.num_qubits}")
        # cls refuses a complex init to the real engine
        out = cls(n, init.amps.copy())
        basis = None
    else:
        basis = basis_index(init)
        _check_basis(n, basis)
        out = cls(n, np.zeros(1 << n, np.float64 if cls is RealState else np.complex128))
        out.amps[0] = 1
    reg = _Register(out.amps, n, basis)
    for i, g in enumerate(c.gates):
        try:
            reg.apply(g, entries(g))
        except ValueError as e:
            raise ValueError(f"gate {i}: {e}") from None
    reg.restore()
    return out


def distribution(s: ComplexState | RealState) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 over all basis outcomes."""
    if s.amps.dtype.kind == "c":
        return s.amps.real ** 2 + s.amps.imag ** 2
    return s.amps ** 2


def check_shots(shots: int, seed: int) -> None:
    """Refuse a shot count sample cannot draw, or a negative seed."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots >= 1 << 63:
        raise ValueError("shots must be below 2**63, numpy's int64 count")
    if seed < 0:
        raise ValueError("seed must be non-negative")


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """int64 counts of shots draws from probs, normalised: one multinomial
    draw, deterministic per seed within a numpy version, timed by the
    outcomes, not the shots. Outcomes of probability 0 stay out of it:
    numpy would give the last one the float64 remainder of the others.
    """
    check_shots(shots, seed)
    p = np.asarray(probs, dtype=np.float64)
    total = p.sum()
    if not len(p) or (p < 0.0).any() or not 0.0 < total < math.inf:
        raise ValueError("probabilities must be non-negative with a finite positive sum")
    drawn = np.flatnonzero(p)
    counts = np.zeros(len(p), dtype=np.int64)
    counts[drawn] = np.random.default_rng(seed).multinomial(shots, p[drawn] / total)
    return counts
