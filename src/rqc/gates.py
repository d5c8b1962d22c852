"""Gate matrices and the realness predicate read off them.

Matrix conventions (the encoding rewrite rules are exact identities only
under these):

    rz(t)     = diag(1, e^{it})                      asymmetric phase
    ry(t)     = [[cos t, -sin t], [sin t, cos t]]    full-angle rotation
    rx(t)     = exp(-i t X / 2)                      half-angle rotation
    f(t)      = identity on the control-0 block, ry(t) on the target
                when the control bit is set
    gphase(a) = the 1x1 matrix [e^{ia}]

Two-qubit matrices index basis states as 2*control + target, so the
control is the first operand everywhere.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Gate, GateKind

_SQ2 = math.sqrt(0.5)
_T_PHASE = cmath.exp(0.25j * math.pi)
_TDG_PHASE = cmath.exp(-0.25j * math.pi)


def _unit_phase(t: float) -> complex:
    # exact +-1 at floating-point multiples of pi: this snap is what makes
    # rz and gphase real there, for is_real and the real engine alike
    if math.remainder(t, math.pi) == 0.0:
        return complex(1.0) if math.cos(t) > 0.0 else complex(-1.0)
    return complex(math.cos(t), math.sin(t))


def _ry_entries(t: float) -> tuple[float, float, float, float]:
    c, s = math.cos(t), math.sin(t)
    return (c, -s, s, c)


def _rx_entries(t: float) -> tuple[complex, complex, complex, complex]:
    c, s = math.cos(0.5 * t), math.sin(0.5 * t)
    return (c, -1j * s, -1j * s, c)


def _phase_entries(t: float) -> tuple[complex, float, float, complex]:
    e = _unit_phase(t)
    return (e, 0.0, 0.0, e)


# indexed by GateKind.ordinal
_BLOCKS = tuple({
    GateKind.X: lambda t: (0.0, 1.0, 1.0, 0.0),
    GateKind.Y: lambda t: (0.0, -1j, 1j, 0.0),
    GateKind.Z: lambda t: (1.0, 0.0, 0.0, -1.0),
    GateKind.H: lambda t: (_SQ2, _SQ2, _SQ2, -_SQ2),
    GateKind.S: lambda t: (1.0, 0.0, 0.0, 1j),
    GateKind.SDG: lambda t: (1.0, 0.0, 0.0, -1j),
    GateKind.T: lambda t: (1.0, 0.0, 0.0, _T_PHASE),
    GateKind.TDG: lambda t: (1.0, 0.0, 0.0, _TDG_PHASE),
    GateKind.RX: _rx_entries,
    GateKind.RY: _ry_entries,
    GateKind.RZ: lambda t: (1.0, 0.0, 0.0, _unit_phase(t)),
    GateKind.CX: lambda t: (0.0, 1.0, 1.0, 0.0),
    GateKind.CZ: lambda t: (1.0, 0.0, 0.0, -1.0),
    GateKind.F: _ry_entries,
    GateKind.GPHASE: _phase_entries,
}[k] for k in GateKind)


def block_entries(g: Gate) -> tuple:
    """(u00, u01, u10, u11) of the 2x2 block a gate applies, as Python
    numbers; gate_matrix is built from them.

    The block is the whole matrix of a single-qubit gate and the
    control-set block of a two-operand one (block-diag(I, U) in the
    control bit); gphase gives e^{ia} times the identity. Entries that
    are real at every angle are floats.
    """
    try:
        entries = _BLOCKS[g.kind.ordinal]
    except AttributeError:
        raise ValueError(f"unknown gate kind {g.kind!r}") from None
    return entries(g.param)


def gate_matrix(g: Gate) -> np.ndarray:
    """The exact unitary of one gate: 2x2, 4x4, or 1x1 for gphase."""
    u00, u01, u10, u11 = block_entries(g)
    if g.kind is GateKind.GPHASE:
        return np.array([[u00]], dtype=np.complex128)
    u = np.array([[u00, u01], [u10, u11]], dtype=np.complex128)
    if g.kind.num_operands == 1:
        return u
    m = np.eye(4, dtype=np.complex128)
    m[2:, 2:] = u
    return m


def is_real(g: Gate) -> bool:
    """True iff every entry of gate_matrix(g) is exactly real, read off
    the same block_entries the matrix is built from."""
    u00, u01, u10, u11 = block_entries(g)
    return not (u00.imag or u01.imag or u10.imag or u11.imag)
