"""Powers of one fixed rotation angle approximating arbitrary angles.

For irrational phi/2pi the orbit {k*phi mod 2pi} is dense, so some power
F(phi)^k = F(k*phi mod 2pi) lands within any eps of a target angle.

synthesize accepts k by one rule, decided in integers: the circular
distance from k*phi to theta is <= eps. Angles are held in fixed point
with w fraction bits, where w covers the exponents of phi, eps and theta,
the bits of k_max and 128 guard bits, so phi, eps and theta are exact;
2pi is floor(2pi * 2^w). k*phi - theta is reduced once by that 2pi. The
distance is then exact wherever no multiple of 2pi enters, as on every
tie with eps (pi is irrational), and within 2^-128 of eps elsewhere. In
these units a Euclid recursion on (phi mod 2pi, 2pi), the integer form of
the continued-fraction walk, gives the least k at distance <= eps in O(w)
steps. The first-hit window is the rule itself: no candidate is
re-checked and no margin is walked.

The search runs on Python integers alone, and orbit_angle reduces k*phi
by the same fixed-point 2pi. mpmath only builds that constant, and
rebuilds it twice as wide when a wider one is asked for.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp

DEFAULT_PHI = math.tau * (math.sqrt(5.0) - 1.0) / 2.0

# bits beyond those the operands need: a fixed-point distance is then
# within 2^-128 of eps, and an orbit angle within 2^-127 of k*phi mod 2pi
_GUARD_BITS = 128
# targets with an exponent of at most 64 in magnitude need no wider 2pi
_THETA_BITS = 64


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
        try:
            object.__setattr__(self, "k_max", operator.index(self.k_max))
        except TypeError:
            raise ValueError("k_max must be an integer") from None
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
def _context(phi: float, eps: float, k_max: int) -> tuple[int, int, int]:
    """(width, phi * 2^width, eps * 2^width) for one (phi, eps, k_max), both
    products exact integers: width covers the exponents of phi and eps, the
    bits of k_max and the guard bits; synthesize adds theta's exponent.

    Keyed on values, not on a SynthConfig: callers build a fresh one per
    call. Also widens the cached 2pi for every target below 2^_THETA_BITS
    and every orbit angle up to k_max.
    """
    # the 2 extra bits cover eps down to half its power of two, and the
    # count of 2pi folds in k*phi - theta up to twice its larger term
    width = (
        k_max.bit_length()
        + abs(math.frexp(phi)[1])
        + abs(math.frexp(eps)[1])
        + _GUARD_BITS
        + 2
    )
    _two_pi(width + _THETA_BITS)
    p, q = phi.as_integer_ratio()
    e, d = eps.as_integer_ratio()
    return width, (p << width) // q, (e << width) // d


def _distance(a: int, m: int, t: int, k: int) -> int:
    """Circular distance from a*k to t modulo m."""
    r = (a * k - t) % m
    return min(r, m - r)


def synthesize(theta: float, cfg: SynthConfig | None = None) -> SynthesisResult:
    """Smallest k in [1, k_max] with k*phi within eps of theta on the circle;
    failing that, NotReachable names the least k <= k_max at the least
    distance. error is that distance, rounded once; achieved is
    orbit_angle(k, phi). theta is taken as it is, not reduced in float64.
    """
    if cfg is None:
        cfg = SynthConfig()
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    width, phi_units, eps_units = _context(cfg.phi, cfg.eps, cfg.k_max)
    # theta's exponent widens the units: theta is exact in them, and its
    # reduction by the fixed-point 2pi stays within 2^-128 of eps
    shift = abs(math.frexp(theta)[1])
    w = width + shift
    m = _two_pi(w)
    a = (phi_units << shift) % m
    t_num, t_den = theta.as_integer_ratio()
    t = (t_num << w) // t_den % m
    e = eps_units << shift
    k = _first_hit(a, m, t - e, t + e, 1)
    if k is not None and k <= cfg.k_max:
        return SynthesisResult(k, orbit_angle(k, cfg.phi), _distance(a, m, t, k) / (1 << w))
    best_k = _closest_k(a, m, t, cfg.k_max)
    raise NotReachable(theta, best_k, _distance(a, m, t, best_k) / (1 << w))


def synthesis_error_to_gate_error(delta: float) -> float:
    """Operator-norm distance between two plane rotations delta apart."""
    return 2.0 * abs(math.sin(0.5 * delta))


def budget(errors) -> float:
    """Upper bound on the final-state l2 deviation of a synthesized circuit:
    the sum of per-gate operator-norm errors (triangle inequality)."""
    return float(sum(synthesis_error_to_gate_error(e) for e in errors))
