"""Gate matrices, realness classification, and ZYZ normal form.

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
    # exact +-1 at floating-point multiples of pi, so is_real and the
    # matrix entries can never disagree about realness
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


_BLOCKS = {
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
}


def block_entries(g: Gate) -> tuple:
    """(u00, u01, u10, u11) of the 2x2 block a gate applies, as Python
    numbers; gate_matrix is built from them.

    The block is the whole matrix of a single-qubit gate and the
    control-set block of a two-operand one (block-diag(I, U) in the
    control bit); gphase gives e^{ia} times the identity. Entries that
    are real at every angle are floats.
    """
    try:
        entries = _BLOCKS[g.kind]
    except KeyError:
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


_ALWAYS_REAL = frozenset(
    {GateKind.X, GateKind.Z, GateKind.H, GateKind.RY, GateKind.CX, GateKind.CZ, GateKind.F}
)
_NEVER_REAL = frozenset(
    {GateKind.Y, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG}
)


def is_real(g: Gate) -> bool:
    """True iff every entry of gate_matrix(g) is exactly real.

    Classification is symbolic per kind; rz and gphase are real exactly
    when the angle is a floating-point multiple of pi (where the matrix
    builder snaps e^{it} to +-1), rx only at angle 0 where sin(t/2) is
    exactly zero.
    """
    if g.kind in _ALWAYS_REAL:
        return True
    if g.kind in _NEVER_REAL:
        return False
    if g.kind is GateKind.RX:
        return g.param == 0.0
    return math.remainder(g.param, math.pi) == 0.0


def _arg(z: complex) -> float:
    # +0.0 components so the phase of -1 - 0j comes out +pi, not -pi
    return cmath.phase(complex(z.real + 0.0, z.imag + 0.0))


def _wrap(t: float) -> float:
    """Wrap an angle into [-pi, pi], normalizing away -0.0."""
    return math.remainder(t, math.tau) + 0.0


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """ZYZ angles of a 2x2 unitary: u = e^{i alpha} rz(a) ry(b) rz(c).

    Branch selection is deterministic. Diagonal input fixes b = 0, c = 0;
    anti-diagonal input fixes b = pi/2, a = 0 (which keeps plain bit
    flips free of gphase items: x comes out as ry(pi/2) after rz(pi)).

    The phases of u[0,0], u[1,0] and u[1,1] are alpha, alpha + a and
    alpha + a + c, and that of -u[0,1] is alpha + c. c comes from the
    larger of u[1,1] and u[0,1], so an entry that is only rounding noise
    never sets the phase of one that carries weight.
    """
    if abs(u[1, 0]) == 0.0:
        alpha = _arg(u[0, 0])
        return (alpha, _wrap(_arg(u[1, 1]) - alpha), 0.0, 0.0)
    if abs(u[0, 0]) == 0.0:
        alpha = _arg(u[1, 0])
        return (alpha, 0.0, 0.5 * math.pi, _wrap(_arg(-u[0, 1]) - alpha))
    b = math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    alpha = _arg(u[0, 0])
    a = _wrap(_arg(u[1, 0]) - alpha)
    if abs(u[1, 1]) > abs(u[0, 1]):
        c = _wrap(_arg(u[1, 1]) - _arg(u[1, 0]))
    else:
        c = _wrap(_arg(-u[0, 1]) - alpha)
    return (alpha, a, b, c)
