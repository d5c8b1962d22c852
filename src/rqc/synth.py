"""Powers of one fixed rotation angle approximating arbitrary angles.

For irrational phi/2pi the orbit {k*phi mod 2pi} is dense, so some power
F(phi)^k = F(k*phi mod 2pi) lands within any eps of a target angle.
synthesize never lists the orbit: with phi/2pi mod 1 held as a / 2^P and
the eps window (plus a 1e-12 margin) as an integer range mod 2^P, a
Euclid recursion on (a, 2^P), the integer form of the continued-fraction
walk, gives the first k with a*k mod 2^P in range in O(P) steps. Checks
in high precision in increasing k make k, the achieved angle and the
error those of a brute-force scan.

The search runs on Python integers alone. A small context per value of
(phi, k_max) holds 2^P, a and 2^P/2pi in fixed point; the window comes from
the exact ratios of the target and eps, and orbit_angle reduces k*phi by
a fixed-point 2pi. mpmath only builds those constants, once per context
or width, and the exact distance of a closest miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .circuit import circular_distance

DEFAULT_PHI = math.tau * (math.sqrt(5.0) - 1.0) / 2.0

_MARGIN = 1e-12
_MARGIN_NUM, _MARGIN_DEN = _MARGIN.as_integer_ratio()
# bits beyond those of k_max and of a small phi: for every k <= k_max,
# a*k / 2^P is then within 2^-128 turns (and 2^-128 steps) of k*phi/2pi
_GUARD_BITS = 128
# fraction bits of the fixed-point 2^P/2pi: the window ends then sit within
# 2^-60 steps of their exact values
_FRACTION_BITS = 64


@dataclass(frozen=True)
class SynthConfig:
    """Fixed gate angle phi, per-gate angular tolerance, and search cutoff."""

    phi: float = DEFAULT_PHI
    eps: float = 1e-3
    k_max: int = 10**6

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not math.isfinite(self.eps):
            raise ValueError("eps must be finite")
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


_two_pi_cache = (0, 0)


def _two_pi(w: int) -> int:
    """floor(2pi * 2^w), cut from one cached constant at least w bits wide."""
    global _two_pi_cache
    width, value = _two_pi_cache
    if width < w:
        width = max(w, 2 * width)
        with mp.workprec(width + 64):
            value = int(mp.floor(mp.ldexp(2 * mp.pi, width)))
        _two_pi_cache = (width, value)
    return value >> (width - w)


def _orbit_width(k: int, phi: float) -> int:
    # fraction bits for k*phi mod 2pi: exact for k*phi (phi has fewer
    # fraction bits than this), and within 2^-127 after the reduction
    return k.bit_length() + abs(math.frexp(phi)[1]) + _GUARD_BITS


def orbit_angle(k: int, phi: float) -> float:
    """k*phi mod 2pi, exact to about 2^-128 for any k, rounded once to float64."""
    w = _orbit_width(k, phi)
    p, q = phi.as_integer_ratio()
    return ((k * p << w) // q % _two_pi(w)) / (1 << w)


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


@lru_cache(maxsize=64)
def _context(phi: float, k_max: int) -> tuple[int, int, int]:
    """(m, a, per_radian) for (phi, k_max): m = 2^P, phi/2pi mod 1 as a / m,
    and m/2pi in fixed point with _FRACTION_BITS fraction bits.

    Keyed on values, not on a SynthConfig: callers build a fresh one per
    call. Also widens the cached 2pi for every orbit angle up to k_max.
    """
    exponent = math.frexp(phi)[1]
    bits = k_max.bit_length() + max(-exponent, 0) + _GUARD_BITS
    with mp.workprec(bits + max(exponent, 0) + 64):
        a = int(mp.nint(phi * (mp.ldexp(1, bits) / (2 * mp.pi)))) % (1 << bits)
    with mp.workprec(bits + _FRACTION_BITS + 64):
        per_radian = int(mp.nint(mp.ldexp(1, bits + _FRACTION_BITS) / (2 * mp.pi)))
    _two_pi(_orbit_width(k_max, phi))
    return 1 << bits, a, per_radian


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
    m, a, per_radian = _context(cfg.phi, cfg.k_max)
    # target and eps + margin over one power-of-two denominator, exactly
    t_num, t_den = target.as_integer_ratio()
    e_num, e_den = cfg.eps.as_integer_ratio()
    den = max(t_den, e_den, _MARGIN_DEN)
    center = t_num * (den // t_den)
    half_width = e_num * (den // e_den) + _MARGIN_NUM * (den // _MARGIN_DEN)
    scale = den << _FRACTION_BITS
    lo = (center - half_width) * per_radian // scale
    hi = -(-(center + half_width) * per_radian // scale)
    k = _first_hit(a, m, lo, hi, 1)
    while k is not None and k <= cfg.k_max:
        achieved = orbit_angle(k, cfg.phi)
        error = circular_distance(achieved, target)
        if error <= cfg.eps:
            return SynthesisResult(k, achieved, error)
        k = _first_hit(a, m, lo, hi, k + 1)
    r = (2 * center * per_radian + scale) // (2 * scale)
    best_k = _closest_k(a, m, r, cfg.k_max)
    raise NotReachable(theta, best_k, _exact_distance(best_k, cfg.phi, target))


def synthesis_error_to_gate_error(delta: float) -> float:
    """Operator-norm distance between two plane rotations delta apart."""
    return 2.0 * abs(math.sin(0.5 * delta))


def budget(errors) -> float:
    """Upper bound on the final-state l2 deviation of a synthesized circuit:
    the sum of per-gate operator-norm errors (triangle inequality)."""
    return float(sum(synthesis_error_to_gate_error(e) for e in errors))
