"""Powers of one fixed rotation angle approximating arbitrary angles.

For irrational phi/2pi the orbit {k*phi mod 2pi} is dense, so some power
F(phi)^k = F(k*phi mod 2pi) lands within any eps of a target angle.

synthesize accepts k by one rule, decided in integers: the circular
distance from k*phi to theta is <= eps. One fixed-point frame per search
gives k, its error and the achieved angle. It holds angles with w
fraction bits, where w covers the bits of k_max, the exponents of phi,
eps and theta, and 130 guard bits, so phi, eps and theta are exact; 2pi
is floor(2pi * 2^w), short of 2pi * 2^w by under one unit. k*phi - theta
is reduced once by that 2pi. The distance is then exact wherever no
multiple of 2pi enters, as on every tie with eps (pi is irrational), and
within 2^-128 of eps elsewhere. In these units a Euclid recursion on
(phi mod 2pi, 2pi), the integer form of the continued-fraction walk,
gives the least k at distance <= eps in O(w) steps, nearest-integer ones
(Hurwitz 1889): half as many at the golden angle. The first-hit window
is the rule itself: no candidate is re-checked and no margin is walked.
The same search on doubled angles, 2k*phi within 2eps of 2theta, gives
the least k that lands by theta or by theta + pi, which
transpile.synthesize_all uses to choose a sign.

achieved is a*k mod 2pi in the same frame, a = phi mod 2pi, with m the
fixed-point 2pi. Reducing phi and then a*k takes out at most
k*(|phi| * 2^w/m + 1) + k multiples of m, each short of 2pi * 2^w by
under one unit. With k < 2^b, b the bits of k_max, and |phi| < 2^e, that is under
k*(2^e/6 + 2) < 2^(b+|e|+2) units, and w has 130 bits beyond b + |e|:
achieved is within 2^-128 of k*phi mod 2pi on the circle before its one
rounding to float64. orbit_angle computes that angle standalone, from k
and phi alone, as the reference the tests compare with.

All of it runs on Python integers, and the fixed-point 2pi comes from
Machin's formula in integers too; it is rebuilt twice as wide when a
wider one is asked for.

Both searches are pure functions of (theta, cfg), so each keeps a memo
on cfg, a dict keyed by theta: a repeated angle costs a dict lookup for
as long as the caller holds the config, within one circuit and across
circuits, transpile and verify calls alike. The memos are not part of
the config's value (equality, hash and repr leave them out), so an
equal but distinct config starts empty: a caller who wants cold
searches makes a new config. Nothing is evicted; the memos go with the
config, at about 490 bytes per distinct angle for the two together.
Equal keys give equal results: 0.0 and -0.0, or 1 and 1.0, are one
exact value. A miss raises and is not stored, so each call raises its
own NotReachable. The memos are thread-safe under the GIL: a race
between two threads that miss on one key costs at most one duplicate
search, of an equal result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

DEFAULT_PHI = math.tau * (math.sqrt(5.0) - 1.0) / 2.0

# bits beyond those the operands need: a fixed-point distance is then
# within 2^-128 of eps, and an orbit angle within 2^-127 of k*phi mod 2pi
_GUARD_BITS = 128

# the most a merge may round the sum of two angles: the half-ulp of any
# sum below 16 in magnitude. A larger rounding, such as 1e300 + 1, is not
# merged, so every rewrite stays exact to roundoff at any finite angle;
# a half-turn label theta -+ pi is taken on the same bound
_MERGE_ROUNDOFF = 2.0**-50


@dataclass(frozen=True)
class SynthConfig:
    """Fixed gate angle phi, per-gate angular tolerance, and search cutoff."""

    phi: float = DEFAULT_PHI
    eps: float = 1e-3
    k_max: int = 10**6
    # the two searches' memos, keyed by theta (see the module docstring)
    _own: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _half_turn: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def _floor_two_pi(w: int, g: int = 32) -> int:
    """floor(2pi * 2^w) by Machin's formula (1706): 2pi = 32 atan(1/5) -
    8 atan(1/239), atan(1/x) = sum_j (-1)^j / (n x^n) with n = 2j + 1.

    v sums it in units of 2^-L, L = w + g, each term exactly floored as
    floor(2^L / x^n) // n; a series stops where x^n > 2^L. As x >= 4,
    each keeps at most L/4 + 1/2 terms, floored by under 1 each before
    its weight (32 or 8), and drops an alternating tail under its first
    term, under 1 before its weight: v is within s = 10L + 60 of
    2pi * 2^L. g doubles until v - s and v + s share one floor at 2^-w.
    """
    while True:
        v = 0
        for c, x in ((32, 5), (-8, 239)):
            p, n = (1 << (w + g)) // x, 1
            while p:
                v += c * (p // n)
                p, n, c = p // (x * x), n + 2, -c
        s = 10 * (w + g) + 60
        if (v - s) >> g == (v + s) >> g:
            return v >> g
        g *= 2


_two_pi_cache = (0, 6)  # (width, floor(2pi * 2^width))


def _two_pi(w: int) -> int:
    """floor(2pi * 2^w), cut from one cached constant at least w bits wide."""
    global _two_pi_cache
    width, value = _two_pi_cache
    if width < w:
        width = max(w, 2 * width)
        value = _floor_two_pi(width)
        _two_pi_cache = (width, value)
    return value >> (width - w)


def _fixed(x: float, w: int) -> int:
    """x * 2^w, exact when w covers x's fraction bits, else floored."""
    p, q = x.as_integer_ratio()
    return (p << w) // q


def orbit_angle(k: int, phi: float) -> float:
    """k*phi mod 2pi, exact to about 2^-128 for any k, rounded once to float64."""
    # fraction bits: exact for k*phi (phi has fewer fraction bits than
    # this), and within 2^-127 after the reduction
    w = k.bit_length() + abs(math.frexp(phi)[1]) + _GUARD_BITS
    return (k * _fixed(phi, w) % _two_pi(w)) / (1 << w)


def _least_multiple(a: int, m: int, lo: int, hi: int) -> int | None:
    """Least x >= 0 with lo <= a*x mod m <= hi, given 0 < lo <= hi < m.

    With no multiple of a in [lo, hi], each solution is a*x = m*y + t with
    t in [lo, hi], y >= 1 and one x per y; the least y solves the same
    problem for (m mod a, a) on [-hi mod a, -lo mod a], a Euclid step.
    An a > m/2 is first mirrored to m - a on [m - hi, m - lo], as the two
    residues sum to m or are both 0, which lo > 0 rules out.
    """
    steps = []
    while True:
        a %= m
        if a == 0:
            return None
        if 2 * a > m:
            a, lo, hi = m - a, m - hi, m - lo
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


def _distance(a: int, m: int, t: int, k: int) -> int:
    """Circular distance from a*k to t modulo m."""
    r = (a * k - t) % m
    return min(r, m - r)


def _units(theta: float, cfg: SynthConfig) -> tuple[int, int, int, int, int]:
    """The frame of one search: (w, 2pi, phi mod 2pi, theta, eps) in units
    of 2^-w, theta not yet reduced."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    # the 2 extra bits cover eps down to half its power of two, and the
    # count of 2pi folds in k*phi - theta up to twice its larger term
    w = (
        cfg.k_max.bit_length()
        + sum(abs(math.frexp(x)[1]) for x in (cfg.phi, cfg.eps, theta))
        + _GUARD_BITS
        + 2
    )
    m = _two_pi(w)
    return w, m, _fixed(cfg.phi, w) % m, _fixed(theta, w), _fixed(cfg.eps, w)


def synthesize(theta: float, cfg: SynthConfig | None = None) -> SynthesisResult:
    """Smallest k in [1, k_max] with k*phi within eps of theta on the circle;
    failing that, NotReachable names the least k <= k_max at the least
    distance. error is that distance and achieved is k*phi mod 2pi, both
    from the search's frame and rounded once. theta is taken as it is,
    not reduced in float64.

    Memoized by theta in cfg, as the module docstring says; a
    NotReachable is raised afresh on each call.
    """
    if cfg is None:
        cfg = SynthConfig()
    memo = cfg._own
    if theta in memo:
        return memo[theta]
    w, m, a, t, e = _units(theta, cfg)
    t %= m
    k = _first_hit(a, m, t - e, t + e, 1)
    if k is not None and k <= cfg.k_max:
        r = memo[theta] = SynthesisResult(k, a * k % m / (1 << w), _distance(a, m, t, k) / (1 << w))
        return r
    best_k = _closest_k(a, m, t, cfg.k_max)
    raise NotReachable(theta, best_k, _distance(a, m, t, best_k) / (1 << w))


def _least_up_to_half_turn(
    theta: float, cfg: SynthConfig
) -> tuple[float | None, SynthesisResult] | None:
    """The least k in [1, k_max] that lands k*phi within eps of theta or
    of theta + pi, in one search: 2k*phi within 2eps of 2theta mod 2pi.

    (None, synthesize(theta, cfg)) when k*phi lands by theta, so that k
    is theta's own least k. (label, result) when it lands only by the
    half-turn, so that theta needs more gates or is out of reach: result
    is for the exact theta + pi, its error the distance from k*phi to it,
    measured against half the fixed-point 2pi, and achieved k*phi mod 2pi
    from the same frame. label is the float theta - pi for theta >= 0 and
    theta + pi otherwise, a float for any numeric type of theta, since
    equal keys share one memo entry. None when no k <= k_max lands by
    either, or when label is further than _MERGE_ROUNDOFF from the exact
    half-turn. A half-turn miss never enters the closest-miss bisection;
    synthesize(theta, cfg) alone decides what theta's own miss raises.
    Memoized in cfg like synthesize, its None results too.
    """
    memo = cfg._half_turn
    if theta not in memo:
        memo[theta] = _search_up_to_half_turn(theta, cfg)
    return memo[theta]


def _search_up_to_half_turn(
    theta: float, cfg: SynthConfig
) -> tuple[float | None, SynthesisResult] | None:
    """_least_up_to_half_turn's search itself, not memoized."""
    w, m, a, t_exact, e = _units(theta, cfg)
    t = t_exact % m
    k = _first_hit(2 * a % m, m, 2 * (t - e), 2 * (t + e), 1)
    if k is None or k > cfg.k_max:
        return None
    achieved = a * k % m / (1 << w)
    d = _distance(a, m, t, k)
    if d <= e:
        return None, SynthesisResult(k, achieved, d / (1 << w))
    label, half = (float(theta) - math.pi, m) if theta >= 0.0 else (float(theta) + math.pi, -m)
    # twice the label's distance from the exact theta -+ pi, in units
    if abs(2 * (_fixed(label, w) - t_exact) + half) > 2 * _fixed(_MERGE_ROUNDOFF, w):
        return None
    # k*phi - theta lies within eps of half of 2pi: its distance from it,
    # in half units
    r = (a * k - t) % m
    return label, SynthesisResult(k, achieved, abs(2 * r - m) / (2 << w))


def synthesis_error_to_gate_error(delta: float) -> float:
    """Operator-norm distance between two plane rotations delta apart."""
    return 2.0 * abs(math.sin(0.5 * delta))


def budget(errors) -> float:
    """Upper bound on the final-state l2 deviation of a synthesized circuit:
    the sum of per-gate operator-norm errors (triangle inequality)."""
    return float(sum(synthesis_error_to_gate_error(e) for e in errors))
