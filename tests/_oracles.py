"""Independent oracles the tests compare production code against.

Everything here recomputes results through a different route than the
package: gate application walks basis states one amplitude at a time
or gathers and scatters whole index arrays,
the orbit table is evaluated per entry in high-precision arithmetic,
and the transform matrices come from their defining formulas.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from mpmath import mp, mpf

from rqc import Circuit, Gate, gate_matrix


def random_complex_state(rng: np.random.Generator, num_qubits: int) -> np.ndarray:
    """Haar-ish normalized complex vector of length 2^num_qubits."""
    v = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return v / np.linalg.norm(v)


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Gaussian matrix with the standard phase fix."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_apply(gate: Gate, vec: np.ndarray) -> np.ndarray:
    """Apply one gate by explicit per-basis-state bookkeeping."""
    vec = np.asarray(vec, dtype=np.complex128)
    m = gate_matrix(gate)
    out = np.zeros_like(vec)
    for x, a in enumerate(vec):
        if a == 0:
            continue
        if gate.kind.num_operands == 0:
            out[x] += m[0, 0] * a
        elif gate.kind.num_operands == 1:
            q = gate.qubits[0]
            b = (x >> q) & 1
            for b2 in (0, 1):
                out[(x & ~(1 << q)) | (b2 << q)] += m[b2, b] * a
        else:
            qc, qt = gate.qubits
            col = 2 * ((x >> qc) & 1) + ((x >> qt) & 1)
            base = x & ~(1 << qc) & ~(1 << qt)
            for cb in (0, 1):
                for tb in (0, 1):
                    out[base | (cb << qc) | (tb << qt)] += m[2 * cb + tb, col] * a
        # a zero amplitude contributes nothing, skipping it is exact
    return out


def gather_apply(gate: Gate, amps: np.ndarray) -> np.ndarray:
    """Apply one gate by index gather and scatter over the whole register.

    The engines' earlier kernels, kept as their exact reference: same
    products in the same order, so on float64 or complex128 input the
    result must equal run_real's or run_complex's bit for bit. A float
    input uses the real part of the matrix, as the real engine does.
    """
    m = gate_matrix(gate)
    if amps.dtype.kind == "f":
        m = m.real
    amps = amps.copy()
    if gate.kind.num_operands == 0:
        amps *= m[0, 0]
    elif gate.kind.num_operands == 1:
        # base indices with bit q clear, paired with bit q set
        q = gate.qubits[0]
        base = np.arange(len(amps) >> 1)
        i0 = ((base >> q) << (q + 1)) | (base & ((1 << q) - 1))
        i1 = i0 | (1 << q)
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = m[0, 0] * a0 + m[0, 1] * a1
        amps[i1] = m[1, 0] * a0 + m[1, 1] * a1
    else:
        # base indices with both operand bits clear; matrix index is 2c + t
        qc, qt = gate.qubits
        base = np.arange(len(amps) >> 2)
        lo, hi = sorted((qc, qt))
        x = ((base >> lo) << (lo + 1)) | (base & ((1 << lo) - 1))
        i00 = ((x >> hi) << (hi + 1)) | (x & ((1 << hi) - 1))
        idx = (i00, i00 | (1 << qt), i00 | (1 << qc), i00 | (1 << qc) | (1 << qt))
        a = [amps[i] for i in idx]
        for r, i in enumerate(idx):
            amps[i] = m[r, 0] * a[0] + m[r, 1] * a[1] + m[r, 2] * a[2] + m[r, 3] * a[3]
    return amps


def dense_run(c: Circuit, vec: np.ndarray) -> np.ndarray:
    for g in c.gates:
        vec = dense_apply(g, vec)
    return vec


def dense_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of a circuit, column by column."""
    dim = 1 << c.num_qubits
    cols = [dense_run(c, np.eye(dim, dtype=np.complex128)[:, j]) for j in range(dim)]
    return np.column_stack(cols)


def dft_matrix(num_qubits: int) -> np.ndarray:
    """Entry (k, j) = e^{2 pi i jk / N} / sqrt(N)."""
    dim = 1 << num_qubits
    j, k = np.meshgrid(np.arange(dim), np.arange(dim))
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def zyz_product(alpha: float, a: float, b: float, c: float) -> np.ndarray:
    """e^{i alpha} rz(a) ry(b) rz(c) from the defining formulas."""
    rz_a = np.array([[1, 0], [0, cmath.exp(1j * a)]])
    rz_c = np.array([[1, 0], [0, cmath.exp(1j * c)]])
    ry_b = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
    return cmath.exp(1j * alpha) * (rz_a @ ry_b @ rz_c)


def exact_orbit_table(phi: float, k_max: int) -> np.ndarray:
    """k*phi mod 2pi for k = 1..k_max, every entry evaluated exactly and
    rounded once to float64."""
    out = np.empty(k_max, dtype=np.float64)
    with mp.workdps(40):
        p = mpf(phi)
        two_pi = 2 * mp.pi
        for k in range(1, k_max + 1):
            v = mp.fmod(k * p, two_pi)
            if v < 0:
                v += two_pi
            out[k - 1] = float(v)
    return out


def exact_circular_distance(k: int, phi: float, theta: float) -> float:
    """Circular distance between k*phi and theta, in high precision."""
    with mp.workdps(40):
        d = mp.fmod(abs(k * mpf(phi) - mpf(theta)), 2 * mp.pi)
        return float(min(d, 2 * mp.pi - d))


def brute_force_min_k(
    theta: float, phi: float, eps: float, k_max: int, table: np.ndarray | None = None
) -> tuple[int, float] | None:
    """Smallest k with exact circular distance <= eps, or None.

    The float64 table (exact per entry) prefilters with a 1e-12 margin;
    candidates are confirmed in order by exact evaluation, so the result
    is the true minimum.
    """
    if table is None:
        table = exact_orbit_table(phi, k_max)
    target = math.fmod(theta, math.tau)
    if target < 0.0:
        target += math.tau
    d = np.abs(table[:k_max] - target)
    d = np.minimum(d, math.tau - d)
    for idx in np.flatnonzero(d <= eps + 1e-12):
        k = int(idx) + 1
        err = exact_circular_distance(k, phi, target)
        if err <= eps:
            return k, err
    return None
