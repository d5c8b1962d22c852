import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqc import (
    AncillaLeakError,
    Circuit,
    ComplexState,
    RealState,
    add_work_ancilla,
    decode,
    distribution,
    encode,
    init_basis,
    init_basis_real,
    marginal_distribution,
    run_real,
    strip_work_ancilla,
)

from _oracles import random_complex_state

S2 = math.sqrt(0.5)


def test_layout_indices():
    # the tag ancilla reads 0 on real parts: a real state keeps its index
    assert np.flatnonzero(encode(init_basis(3, 5)).amps).tolist() == [5]
    assert np.array_equal(encode(init_basis(3, 5)).amps, init_basis_real(4, 5).amps)


def test_encode_examples():
    # |0> has a real amplitude only, so all weight sits in the tag-0 half
    assert np.array_equal(encode(init_basis(1, 0)).amps, [1, 0, 0, 0])
    s = ComplexState(1, np.array([S2, 1j * S2]))
    assert np.array_equal(encode(s).amps, [S2, 0, 0, S2])
    s = ComplexState(1, np.array([0.0, -1j]))
    assert np.array_equal(encode(s).amps, [0, 0, 0, -1])


def test_encode_decode_bijection_is_exact():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        vec = random_complex_state(rng, n)
        enc = encode(ComplexState(n, vec))
        assert enc.num_qubits == n + 1
        dec = decode(enc)
        assert np.array_equal(dec.amps, vec)


def test_decode_encode_round_trip_on_real_vectors():
    rng = np.random.default_rng(13)
    v = rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert np.array_equal(encode(decode(RealState(3, v))).amps, v)


def test_encode_preserves_norm_and_distribution():
    rng = np.random.default_rng(14)
    for n in (1, 3, 6):
        s = ComplexState(n, random_complex_state(rng, n))
        enc = encode(s)
        assert enc.norm() == pytest.approx(s.norm(), abs=1e-15)
        got = marginal_distribution(enc)
        assert np.max(np.abs(got - distribution(s))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.booleans())
def test_encoded_basis_vectors_decode_to_axis_states(index, imag):
    # encoded basis vector (j, tag) decodes to |j> or i|j>
    amps = np.zeros(32)
    amps[index + 16 * imag] = 1.0
    dec = decode(RealState(5, amps))
    want = np.zeros(16, dtype=complex)
    want[index] = 1j if imag else 1.0
    assert np.array_equal(dec.amps, want)


def test_work_ancilla_round_trip():
    rng = np.random.default_rng(15)
    enc = encode(ComplexState(2, random_complex_state(rng, 2)))
    worked = add_work_ancilla(enc)
    assert worked.num_qubits == 4
    # all weight on work = 1, i.e. the upper half
    assert np.array_equal(worked.amps[:8], np.zeros(8))
    assert np.array_equal(worked.amps[8:], enc.amps)
    back = strip_work_ancilla(worked)
    assert np.array_equal(back.amps, enc.amps)


def test_returned_states_own_their_amplitudes():
    rng = np.random.default_rng(7)
    s = ComplexState(2, random_complex_state(rng, 2))
    enc = encode(s)
    worked = add_work_ancilla(enc)
    calls = [
        (s, lambda: encode(s)),
        (enc, lambda: decode(enc)),
        (enc, lambda: add_work_ancilla(enc)),
        (worked, lambda: strip_work_ancilla(worked)),
        (enc, lambda: run_real(Circuit(3).x(0), enc)),
        (enc, enc.copy),
    ]
    for state, call in calls:
        before = state.amps.copy()
        out = call()
        out.amps[...] = 7.0
        assert np.array_equal(state.amps, before)


def test_strip_work_ancilla_detects_leaks():
    amps = np.zeros(8)
    amps[7] = math.sqrt(1 - 1e-4)
    amps[0] = 1e-2
    with pytest.raises(AncillaLeakError, match="leaked"):
        strip_work_ancilla(RealState(3, amps))
    # just below tolerance passes
    amps[0] = 1e-5
    amps[7] = math.sqrt(1 - 1e-10)
    strip_work_ancilla(RealState(3, amps), tol=1e-9)


def test_marginal_distribution_with_work_ancilla():
    rng = np.random.default_rng(16)
    s = ComplexState(2, random_complex_state(rng, 2))
    enc = encode(s)
    worked = add_work_ancilla(enc)
    got = marginal_distribution(strip_work_ancilla(worked))
    assert np.allclose(got, distribution(s), atol=1e-15)
    bad = worked.copy()
    bad.amps[0] = 0.5
    with pytest.raises(AncillaLeakError):
        marginal_distribution(strip_work_ancilla(bad))

