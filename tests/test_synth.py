import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from rqc import (
    DEFAULT_PHI,
    Gate,
    GateKind,
    NotReachable,
    SynthConfig,
    budget,
    gate_matrix,
    orbit_angle,
    synthesis_error_to_gate_error,
    synthesize,
)

import rqc.synth
from _oracles import (
    brute_force_min_k,
    exact_orbit_table,
    mp_distance,
    mp_orbit_angle,
    mp_reduce,
    mp_synthesize,
)


def test_default_phi_value():
    assert DEFAULT_PHI == math.tau * (math.sqrt(5.0) - 1.0) / 2.0
    assert format(DEFAULT_PHI, ".17g") == "3.8832220774509332"
    assert 0.0 < DEFAULT_PHI < math.tau


def test_config_validation():
    SynthConfig()
    with pytest.raises(ValueError, match="finite"):
        SynthConfig(phi=math.inf)
    with pytest.raises(ValueError, match="positive"):
        SynthConfig(eps=0.0)
    for eps in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="eps must be finite"):
            SynthConfig(eps=eps)
    with pytest.raises(ValueError, match="at least 1"):
        SynthConfig(k_max=0)


def test_k_max_must_be_an_integer():
    # a float k_max would otherwise fail only later, inside every synthesis
    for bad in (1e6, "1000000"):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            SynthConfig(k_max=bad)
    cfg = SynthConfig(k_max=np.int64(10**6))
    assert type(cfg.k_max) is int and cfg == SynthConfig(k_max=10**6)
    for theta in (0.5, -2.0, 1e6):
        assert synthesize(theta, cfg) == synthesize(theta, SynthConfig(k_max=10**6))


def test_phi_itself_needs_one_gate():
    r = synthesize(DEFAULT_PHI, SynthConfig(eps=1e-12))
    assert r.k == 1
    assert r.achieved == DEFAULT_PHI
    assert r.error == 0.0


def test_second_power_found_exactly():
    theta = orbit_angle(2, DEFAULT_PHI)
    r = synthesize(theta, SynthConfig(eps=1e-12))
    assert r.k == 2
    assert r.achieved == theta
    assert r.error <= 1e-15


def test_angles_outside_the_principal_range_are_folded():
    r0 = synthesize(0.5, SynthConfig(eps=1e-3))
    for shift in (math.tau, -math.tau, 3 * math.tau):
        r = synthesize(0.5 + shift, SynthConfig(eps=1e-3))
        assert r.k == r0.k


def test_soundness_against_exact_recomputation():
    # every reported (k, achieved, error) must survive exact recomputation
    rng = np.random.default_rng(100)
    cfg = SynthConfig(eps=1e-3)
    for _ in range(50):
        theta = float(rng.uniform(0, math.tau))
        r = synthesize(theta, cfg)
        assert r.error <= cfg.eps
        assert r.achieved == orbit_angle(r.k, DEFAULT_PHI)
        assert abs(float(mp_distance(r.k, DEFAULT_PHI, theta)) - r.error) <= 5e-15


def test_minimality_against_the_brute_force_oracle():
    table = exact_orbit_table(DEFAULT_PHI, 1 << 16)
    rng = np.random.default_rng(200)
    cfg = SynthConfig(eps=1e-3, k_max=1 << 16)
    for _ in range(25):
        theta = float(rng.uniform(0, math.tau))
        want = brute_force_min_k(theta, DEFAULT_PHI, cfg.eps, cfg.k_max, table)
        got = synthesize(theta, cfg)
        assert want is not None
        assert got.k == want[0]
        assert got.error == pytest.approx(want[1], abs=1e-15)


def test_search_crosses_segment_boundaries():
    # a target sitting on the 70000th orbit point forces the scan past the
    # first table segment of 2^16 entries
    k_want = 70000
    theta = orbit_angle(k_want, DEFAULT_PHI)
    r = synthesize(theta, SynthConfig(eps=1e-12, k_max=80000))
    oracle = brute_force_min_k(theta, DEFAULT_PHI, 1e-12, 80000)
    assert r.k == oracle[0]
    assert r.k == k_want
    assert r.error <= 1e-12


def test_not_reachable_reports_the_closest_miss():
    with pytest.raises(NotReachable) as e:
        synthesize(1.0, SynthConfig(eps=1e-15, k_max=200))
    err = e.value
    assert err.theta == 1.0
    assert 1 <= err.best_k <= 200
    assert err.best_error > 1e-15
    assert err.gate_index is None
    assert "raise k_max or eps" in str(err)
    assert abs(err.best_error - float(mp_distance(err.best_k, DEFAULT_PHI, 1.0))) <= 1e-12
    # and no k in range actually does better
    table = exact_orbit_table(DEFAULT_PHI, 200)
    d = np.abs(table - 1.0)
    d = np.minimum(d, math.tau - d)
    assert abs(d.min() - err.best_error) <= 1e-12


# rational multiples of 2pi (as floats), negatives and angles past tau
# next to the default and arbitrary values
PHIS = st.one_of(
    st.sampled_from([DEFAULT_PHI, 0.0, math.pi, 0.5 * math.pi, math.tau, -2.5, 1e5]),
    st.floats(-1e3, 1e3),
)
THETAS = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e300, 1e300))


@functools.lru_cache(maxsize=None)
def cached_orbit_table(phi):
    return exact_orbit_table(phi, 4096)


@settings(max_examples=60, deadline=None)
@given(
    phi=PHIS,
    theta=THETAS,
    eps=st.floats(1e-7, 1e-1),
    k_max=st.integers(1, 4096),
)
def test_first_hit_matches_the_brute_force_oracle(phi, theta, eps, k_max):
    table = cached_orbit_table(phi)
    want = brute_force_min_k(theta, phi, eps, k_max, table)
    cfg = SynthConfig(phi=phi, eps=eps, k_max=k_max)
    if want is None:
        with pytest.raises(NotReachable):
            synthesize(theta, cfg)
        return
    got = synthesize(theta, cfg)
    assert got.k == want[0]
    assert got.achieved == table[got.k - 1]
    assert got.error == pytest.approx(want[1], abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(phi=PHIS, theta=THETAS, k_max=st.integers(1, 512))
def test_not_reachable_names_the_exact_closest_miss(phi, theta, k_max):
    eps = 1e-12
    dists = [mp_distance(k, phi, theta, eps) for k in range(1, k_max + 1)]
    best = min(dists)
    assume(best > 2 * eps)
    with pytest.raises(NotReachable) as e:
        synthesize(theta, SynthConfig(phi=phi, eps=eps, k_max=k_max))
    assert e.value.best_k == dists.index(best) + 1
    assert e.value.best_error == float(best)
    # the same minimum over the orbit table, up to its per-entry rounding
    d = np.abs(cached_orbit_table(phi)[:k_max] - mp_reduce(theta))
    d = np.minimum(d, math.tau - d)
    assert abs(e.value.best_error - d.min()) <= 2e-15


def outcome(f, theta, cfg):
    try:
        r = f(theta, cfg)
    except NotReachable as e:
        return "not reachable", e.best_k, e.best_error
    return r.k, r.achieved, r.error


@settings(max_examples=150, deadline=None)
@given(
    phi=st.sampled_from(
        [DEFAULT_PHI, 0.0, math.pi, -math.pi, math.tau, -2.5, 1e5, 1e-300, 5e-324, 1e308]
    ),
    theta=st.one_of(st.floats(-1e300, 1e300), st.floats(-10.0, 10.0)),
    eps=st.floats(1e-12, 10.0),
    k_max=st.one_of(st.integers(1, 10**4), st.integers(1, 10**12)),
)
def test_synthesize_equals_the_mpmath_reference(phi, theta, eps, k_max):
    cfg = SynthConfig(phi=phi, eps=eps, k_max=k_max)
    assert outcome(synthesize, theta, cfg) == outcome(mp_synthesize, theta, cfg)


@settings(max_examples=100, deadline=None)
@given(
    phi=st.one_of(
        st.sampled_from([DEFAULT_PHI, math.pi, -math.pi, 5e-324, -5e-324, 1e308]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    k=st.one_of(st.integers(0, 10**6), st.integers(1, 10**40)),
)
def test_orbit_angle_equals_the_mpmath_reference(phi, k):
    assert orbit_angle(k, phi) == mp_orbit_angle(k, phi)


def test_second_synthesis_for_a_config_makes_no_mpmath_call(monkeypatch):
    cfg = SynthConfig(phi=1.25, eps=1e-6, k_max=10**7)
    first = synthesize(0.5, cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("mpmath called on the hot path")

    monkeypatch.setattr(rqc.synth.mp, "workprec", refuse)
    # a fresh config with equal values reuses the context
    assert synthesize(0.5, SynthConfig(phi=1.25, eps=1e-6, k_max=10**7)) == first
    rng = np.random.default_rng(400)
    for theta in rng.uniform(-10, 10, size=50):
        r = synthesize(float(theta), SynthConfig(phi=1.25, eps=1e-3, k_max=10**7))
        assert r.k <= 10**7
    # the widest orbit angle synthesize can ask for, at k = k_max
    orbit_angle(10**7, 1.25)


def test_deep_search_is_fast_and_exact():
    cfg = SynthConfig(eps=1e-12, k_max=10**15)
    t0 = time.process_time()
    r = synthesize(1.0, cfg)
    assert time.process_time() - t0 < 1.0
    assert r.k > 10**12
    with mp.workdps(80):
        v = mp.fmod(r.k * mpf(DEFAULT_PHI), 2 * mp.pi)
        exact = float(abs(v - 1))
    assert r.achieved == float(v)
    assert r.error <= cfg.eps
    assert r.error == pytest.approx(exact, abs=1e-15)
    # nothing the search holds grows with k_max
    tracemalloc.start()
    try:
        assert synthesize(1.0, cfg) == r
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_orbit_angle_is_exact_for_deep_k():
    k = 10**40
    with mp.workdps(100):
        want = float(mp.fmod(k * mpf(DEFAULT_PHI), 2 * mp.pi))
    assert orbit_angle(k, DEFAULT_PHI) == want


def test_orbit_angle_matches_float_arithmetic_for_small_k():
    # one step is below 2pi, so k = 1 is representable verbatim
    assert orbit_angle(1, 1.5) == 1.5
    assert orbit_angle(4, 1.5) == 6.0
    assert orbit_angle(5, 1.5) == pytest.approx(7.5 - math.tau, abs=1e-15)


def test_gate_error_formula_matches_the_operator_norm():
    rng = np.random.default_rng(300)
    for _ in range(30):
        theta = float(rng.uniform(0, math.tau))
        delta = float(rng.uniform(-0.01, 0.01))
        a = gate_matrix(Gate(GateKind.F, (0, 1), theta + delta))
        b = gate_matrix(Gate(GateKind.F, (0, 1), theta))
        norm = float(np.linalg.norm(a - b, 2))
        assert abs(synthesis_error_to_gate_error(delta) - norm) <= 1e-12


def test_budget_sums_per_gate_errors():
    assert budget([]) == 0.0
    errs = [1e-4, 2e-4, 0.0]
    want = sum(2.0 * abs(math.sin(0.5 * e)) for e in errs)
    assert budget(errs) == pytest.approx(want, abs=1e-18)
    assert budget(errs) <= sum(errs)


def test_synthesize_rejects_non_finite_targets():
    with pytest.raises(ValueError, match="finite"):
        synthesize(math.nan)
