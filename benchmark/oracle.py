"""An independent tensordot statevector engine for checking rqc's outputs.

Nothing here calls rqc.sim, rqc.gates or rqc.encoding: gate matrices are
written out from the conventions in the README, the encoding is rebuilt
from its definition (real parts below imaginary parts, work ancilla held
in |1> on top), and orbit angles k*phi mod 2pi are evaluated in mpmath.
Only the Circuit/Gate records are read.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from mpmath import mp, mpf

_S = math.sqrt(0.5)

_FIXED = {
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "h": [[_S, _S], [_S, -_S]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(0.25j * math.pi)]],
    "tdg": [[1, 0], [0, cmath.exp(-0.25j * math.pi)]],
    "cx": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "cz": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
}


def _rot(t: float) -> list[list[float]]:
    return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]


def matrix(kind: str, t: float | None) -> np.ndarray:
    """Unitary of one gate; two-qubit rows and columns index 2*control + target."""
    if kind in _FIXED:
        return np.array(_FIXED[kind], dtype=np.complex128)
    if kind == "rx":
        c, s = math.cos(0.5 * t), math.sin(0.5 * t)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        return np.array(_rot(t))
    if kind == "rz":
        return np.array([[1, 0], [0, cmath.exp(1j * t)]])
    if kind == "f":
        m = np.eye(4)
        m[2:, 2:] = _rot(t)
        return m
    if kind == "gphase":
        return np.array([[cmath.exp(1j * t)]])
    raise ValueError(f"unknown gate kind {kind!r}")


def apply(amps: np.ndarray, num_qubits: int, m: np.ndarray, qubits) -> np.ndarray:
    """Apply a gate matrix by tensor contraction; qubit q is axis n-1-q."""
    if not qubits:
        return amps * m[0, 0]
    k = len(qubits)
    axes = [num_qubits - 1 - q for q in qubits]
    psi = amps.reshape((2,) * num_qubits)
    out = np.tensordot(m.reshape((2,) * (2 * k)), psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(-1)


def run(gates, num_qubits: int, amps: np.ndarray) -> np.ndarray:
    """Fold (kind, qubits, angle) triples over a state vector."""
    for kind, qubits, t in gates:
        amps = apply(amps, num_qubits, matrix(kind, t), qubits)
    return amps


def triples(circuit):
    return [(g.kind.value, g.qubits, g.param) for g in circuit.gates]


def basis(num_qubits: int, index: int) -> np.ndarray:
    v = np.zeros(1 << num_qubits, dtype=np.complex128)
    v[index] = 1.0
    return v


def encode_with_work(v: np.ndarray) -> np.ndarray:
    """Real encoding of v plus a work ancilla in |1> as the top qubit."""
    return np.concatenate([np.zeros(2 * len(v)), v.real, v.imag])


def decode_with_work(w: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of encode_with_work, and the weight left on work |0>."""
    half = len(w) // 2
    leak = float(np.dot(w[:half], w[:half]))
    top = w[half:]
    n = len(top) // 2
    return top[:n] + 1j * top[n:], leak


def orbit(k: int, phi: float) -> float:
    """k*phi mod 2pi in 50-digit arithmetic, rounded once."""
    with mp.workdps(50):
        v = mp.fmod(k * mpf(phi), 2 * mp.pi)
        return float(v + 2 * mp.pi if v < 0 else v)


def circular_distance(a: float, b: float) -> float:
    with mp.workdps(50):
        d = mp.fmod(abs(mpf(a) - mpf(b)), 2 * mp.pi)
        return float(min(d, 2 * mp.pi - d))


def check_lowered(circuit, init: int, lowered_f, runs=None, phi=None, budget=None) -> list[str]:
    """Problems with the level-'f' circuit and, given the fixed-gate runs
    (control, target, k), with the level-'g' circuit they spell out.

    Level 'f' must reproduce the complex reference within 1e-9 after
    decoding; level 'g' must stay within its error budget.
    """
    problems = []
    n = circuit.num_qubits
    ref = run(triples(circuit), n, basis(n, init))
    start = encode_with_work(basis(n, init))
    f_state, leak = decode_with_work(run(triples(lowered_f), n + 2, start))
    dist = float(np.linalg.norm(f_state - ref))
    if leak > 1e-12 or not dist <= 1e-9:
        problems.append(f"level f: distance {dist:.3e}, work-ancilla leak {leak:.3e}")
    if runs is not None:
        fixed = [("f", (c, t), orbit(k, phi)) for c, t, k in runs]
        g_state, leak = decode_with_work(run(fixed, n + 2, start))
        dist = float(np.linalg.norm(g_state - ref))
        # errors on one rotation plane add up exactly to the budget, so
        # allow float64 roundoff on top of it
        if leak > 1e-12 or not dist <= budget + 1e-12:
            problems.append(f"level g: distance {dist:.3e} over budget {budget:.3e}")
    return problems


def check_syntheses(targets_and_ks, phi: float, eps: float) -> list[str]:
    """Every k must land k*phi within eps of its target."""
    problems = []
    for i, (target, k) in enumerate(targets_and_ks):
        err = circular_distance(orbit(k, phi), target)
        if not err <= eps * (1 + 1e-9):
            problems.append(f"gate {i}: k={k} misses {target!r} by {err:.3e} > eps {eps:g}")
    return problems


def merged_runs(pairs_and_ks) -> list[tuple[int, int, int]]:
    """(control, target, k) runs with neighbours on the same pair merged."""
    out: list[list[int]] = []
    for (c, t), k in pairs_and_ks:
        if out and out[-1][0] == c and out[-1][1] == t:
            out[-1][2] += k
        else:
            out.append([c, t, k])
    return [tuple(r) for r in out]
