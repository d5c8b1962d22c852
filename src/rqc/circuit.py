"""Circuit IR: gate kinds, gate records, whole-circuit validation.

Register convention, fixed here for every other module: qubit 0 is the
least significant bit of a basis-state index, so |q1 q0> = |10> is index 2.
Angles are radians, stored un-normalized; nothing here reduces them, and
the synthesizer reduces each target exactly (see synth). Two-qubit gates
list control first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class GateKind(Enum):
    """Front-end gate vocabulary; values double as text-format mnemonics."""

    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"
    F = "f"
    GPHASE = "gphase"

    @property
    def num_operands(self) -> int:
        if self in _TWO_QUBIT:
            return 2
        if self is GateKind.GPHASE:
            return 0
        return 1

    @property
    def num_params(self) -> int:
        return 1 if self in _PARAMETRIC else 0


_TWO_QUBIT = frozenset({GateKind.CX, GateKind.CZ, GateKind.F})
_PARAMETRIC = frozenset(
    {GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.F, GateKind.GPHASE}
)


@dataclass(frozen=True)
class Gate:
    """One gate application: a plain record, checked by Circuit.validate."""

    kind: GateKind
    qubits: tuple[int, ...] = ()
    param: float | None = None


@dataclass
class Circuit:
    """Ordered list of gates over a fixed-size register, applied left to right."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)
    name: str | None = field(default=None, compare=False)

    def append(self, kind: GateKind, *qubits: int, param: float | None = None) -> "Circuit":
        self.gates.append(Gate(kind, tuple(qubits), param))
        return self

    # builder shorthand, chainable
    def x(self, q: int) -> "Circuit":
        return self.append(GateKind.X, q)

    def y(self, q: int) -> "Circuit":
        return self.append(GateKind.Y, q)

    def z(self, q: int) -> "Circuit":
        return self.append(GateKind.Z, q)

    def h(self, q: int) -> "Circuit":
        return self.append(GateKind.H, q)

    def s(self, q: int) -> "Circuit":
        return self.append(GateKind.S, q)

    def sdg(self, q: int) -> "Circuit":
        return self.append(GateKind.SDG, q)

    def t(self, q: int) -> "Circuit":
        return self.append(GateKind.T, q)

    def tdg(self, q: int) -> "Circuit":
        return self.append(GateKind.TDG, q)

    def rx(self, q: int, theta: float) -> "Circuit":
        return self.append(GateKind.RX, q, param=float(theta))

    def ry(self, q: int, theta: float) -> "Circuit":
        return self.append(GateKind.RY, q, param=float(theta))

    def rz(self, q: int, theta: float) -> "Circuit":
        return self.append(GateKind.RZ, q, param=float(theta))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(GateKind.CX, control, target)

    def cz(self, control: int, target: int) -> "Circuit":
        return self.append(GateKind.CZ, control, target)

    def f(self, control: int, target: int, theta: float) -> "Circuit":
        return self.append(GateKind.F, control, target, param=float(theta))

    def gphase(self, alpha: float) -> "Circuit":
        return self.append(GateKind.GPHASE, param=float(alpha))

    def validate(self) -> list[str]:
        """Return human-readable violations; an empty list means valid."""
        out: list[str] = []
        if not _is_int(self.num_qubits) or self.num_qubits < 1:
            out.append("num_qubits must be a positive integer")
        for i, g in enumerate(self.gates):
            k = g.kind
            if len(g.qubits) != k.num_operands:
                out.append(
                    f"gate {i}: {k.value} takes {k.num_operands} operand(s), "
                    f"got {len(g.qubits)}"
                )
            else:
                for q in g.qubits:
                    if not _is_int(q) or q < 0 or q >= self.num_qubits:
                        out.append(
                            f"gate {i}: operand {q} out of range for "
                            f"{self.num_qubits} qubit(s)"
                        )
                if k.num_operands == 2 and g.qubits[0] == g.qubits[1]:
                    out.append(f"gate {i}: duplicate operands")
            if k.num_params == 0:
                if g.param is not None:
                    out.append(f"gate {i}: {k.value} takes no angle")
            elif g.param is None:
                out.append(f"gate {i}: {k.value} needs an angle")
            elif not isinstance(g.param, float) or not math.isfinite(g.param):
                out.append(f"gate {i}: angle must be a finite number")
        return out


def _is_int(x: object) -> bool:
    # bool is an int subclass, but emit would write True, which parse refuses
    return isinstance(x, int) and not isinstance(x, bool)


def require_valid(c: Circuit) -> None:
    """Raise ValueError listing every violation; no-op on valid circuits."""
    bad = c.validate()
    if bad:
        raise ValueError("; ".join(bad))
