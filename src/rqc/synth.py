"""Powers of one fixed rotation angle approximating arbitrary angles.

For irrational phi/2pi the orbit {k*phi mod 2pi} is dense, so some power
F(phi)^k = F(k*phi mod 2pi) lands within any eps of a target angle.
synthesize never lists the orbit: with phi/2pi mod 1 held as a / 2^P and
the eps window (plus a 1e-12 margin) as an integer range mod 2^P, a
Euclid recursion on (a, 2^P), the integer form of the continued-fraction
walk, gives the first k with a*k mod 2^P in range in O(P) steps. Checks
in high precision in increasing k make k, the achieved angle and the
error those of a brute-force scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .circuit import circular_distance

DEFAULT_PHI = math.tau * (math.sqrt(5.0) - 1.0) / 2.0

_MARGIN = 1e-12
# bits beyond those of k_max and of a small phi: for every k <= k_max,
# a*k / 2^P is then within 2^-128 turns (and 2^-128 steps) of k*phi/2pi
_GUARD_BITS = 128


@dataclass(frozen=True)
class SynthConfig:
    """Fixed gate angle phi, per-gate angular tolerance, and search cutoff."""

    phi: float = DEFAULT_PHI
    eps: float = 1e-3
    k_max: int = 10**6

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


@dataclass(frozen=True)
class SynthesisResult:
    """One approximation F(phi)^k: the count, k*phi mod 2pi, and its error."""

    k: int
    achieved: float
    error: float


class NotReachable(Exception):
    """No k <= k_max lands within eps of the target; carries the closest miss."""

    def __init__(self, theta: float, best_k: int, best_error: float):
        super().__init__(
            f"no power reaches theta={theta!r} "
            f"(closest: k={best_k}, error={best_error:.3e}); raise k_max or eps"
        )
        self.theta = theta
        self.best_k = best_k
        self.best_error = best_error
        self.gate_index: int | None = None


def orbit_angle(k: int, phi: float) -> float:
    """k*phi mod 2pi, exact to about 2^-128 for any k, rounded once to float64."""
    with mp.workprec(k.bit_length() + max(math.frexp(phi)[1], 0) + _GUARD_BITS):
        v = mp.fmod(k * mpf(phi), 2 * mp.pi)
        return float(v + 2 * mp.pi if v < 0 else v)


def _exact_distance(k: int, phi: float, target: float) -> float:
    """Circular distance from k*phi to target, formed exactly, rounded once."""
    e_phi, e_target = math.frexp(phi)[1], math.frexp(target)[1]
    with mp.workprec(k.bit_length() + abs(e_phi) + abs(e_target) + _GUARD_BITS):
        d = mp.fmod(abs(k * mpf(phi) - target), 2 * mp.pi)
        return float(min(d, 2 * mp.pi - d))


def _least_multiple(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= a*x mod m <= hi, given 0 < lo <= hi < m.

    With no multiple of a in [lo, hi], each solution is a*x = m*y + t with
    t in [lo, hi], y >= 1 and one x per y; the least y solves the same
    problem for (m mod a, a) on [-hi mod a, -lo mod a], a Euclid step.
    """
    steps = []
    while True:
        a %= m
        if a == 0:
            return None
        x = -(-lo // a)
        if a * x <= hi:
            break
        steps.append((a, m, lo))
        a, m, lo, hi = m, a, -hi % a, -lo % a
    for a, m, lo in reversed(steps):
        x = -(-(lo + m * x) // a)
    return x


def _first_hit(a: int, m: int, lo: int, hi: int, k0: int) -> int | None:
    """Least k >= k0 with a*k mod m in the range lo..hi taken mod m."""
    start = (lo - a * k0) % m
    if start == 0 or start + hi - lo >= m:
        return k0
    x = _least_multiple(a, m, start, start + hi - lo)
    return None if x is None else k0 + x


def _closest_k(a: int, m: int, r: int, k_max: int) -> int:
    """Least k <= k_max with a*k mod m nearest r, by bisecting a window around r."""
    lo, hi = 0, m // 2
    while lo < hi:
        h = (lo + hi) // 2
        k = _first_hit(a, m, r - h, r + h, 1)
        if k is not None and k <= k_max:
            hi = h
        else:
            lo = h + 1
    return _first_hit(a, m, r - lo, r + lo, 1)


def synthesize(theta: float, cfg: SynthConfig | None = None) -> SynthesisResult:
    """Smallest k in [1, k_max] with k*phi mod 2pi within eps of theta,
    exactly the brute-force minimum; failing that, NotReachable names the
    least k <= k_max at the least exact distance.
    """
    if cfg is None:
        cfg = SynthConfig()
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    target = theta % math.tau
    exponent = math.frexp(cfg.phi)[1]
    bits = cfg.k_max.bit_length() + max(-exponent, 0) + _GUARD_BITS
    m = 1 << bits
    with mp.workprec(bits + max(exponent, 0) + 64):
        per_radian = mp.ldexp(1, bits) / (2 * mp.pi)
        a = int(mp.nint(cfg.phi * per_radian)) % m
        center = target * per_radian
        half_width = (cfg.eps + mpf(_MARGIN)) * per_radian
        lo, hi = int(mp.floor(center - half_width)), int(mp.ceil(center + half_width))
        k = _first_hit(a, m, lo, hi, 1)
        while k is not None and k <= cfg.k_max:
            achieved = orbit_angle(k, cfg.phi)
            error = circular_distance(achieved, target)
            if error <= cfg.eps:
                return SynthesisResult(k, achieved, error)
            k = _first_hit(a, m, lo, hi, k + 1)
        best_k = _closest_k(a, m, int(mp.nint(center)), cfg.k_max)
    raise NotReachable(theta, best_k, _exact_distance(best_k, cfg.phi, target))


def synthesis_error_to_gate_error(delta: float) -> float:
    """Operator-norm distance between two plane rotations delta apart."""
    return 2.0 * abs(math.sin(0.5 * delta))


def budget(errors) -> float:
    """Upper bound on the final-state l2 deviation of a synthesized circuit:
    the sum of per-gate operator-norm errors (triangle inequality)."""
    return float(sum(synthesis_error_to_gate_error(e) for e in errors))
