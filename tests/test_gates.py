import cmath
import math

import numpy as np
import pytest

from rqc import Gate, GateKind, gate_matrix, is_real, zyz_angles
from rqc.gates import block_entries

from _oracles import random_unitary_2x2, zyz_product

S2 = math.sqrt(0.5)


def g1(kind, param=None):
    return Gate(kind, (0,), param)


def test_fixed_single_qubit_matrices():
    assert np.array_equal(gate_matrix(g1(GateKind.X)), [[0, 1], [1, 0]])
    assert np.array_equal(gate_matrix(g1(GateKind.Y)), [[0, -1j], [1j, 0]])
    assert np.array_equal(gate_matrix(g1(GateKind.Z)), [[1, 0], [0, -1]])
    assert np.array_equal(gate_matrix(g1(GateKind.H)), [[S2, S2], [S2, -S2]])
    assert np.array_equal(gate_matrix(g1(GateKind.S)), [[1, 0], [0, 1j]])
    assert np.array_equal(gate_matrix(g1(GateKind.SDG)), [[1, 0], [0, -1j]])
    t = cmath.exp(0.25j * math.pi)
    assert np.array_equal(gate_matrix(g1(GateKind.T)), [[1, 0], [0, t]])
    assert np.array_equal(gate_matrix(g1(GateKind.TDG)), [[1, 0], [0, t.conjugate()]])


def test_two_qubit_matrices():
    cx = gate_matrix(Gate(GateKind.CX, (0, 1)))
    assert np.array_equal(
        cx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    cz = gate_matrix(Gate(GateKind.CZ, (0, 1)))
    assert np.array_equal(cz, np.diag([1, 1, 1, -1]))


def test_rotation_matrices_at_sample_angles():
    for t in (0.0, 0.37, -1.2, math.pi, 5.0):
        c, s = math.cos(t), math.sin(t)
        assert np.array_equal(gate_matrix(g1(GateKind.RY, t)), [[c, -s], [s, c]])
        ch, sh = math.cos(0.5 * t), math.sin(0.5 * t)
        assert np.allclose(
            gate_matrix(g1(GateKind.RX, t)), [[ch, -1j * sh], [-1j * sh, ch]], atol=0
        )
    m = gate_matrix(g1(GateKind.RZ, 0.37))
    assert m[0, 0] == 1.0 and m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert m[1, 1] == cmath.exp(0.37j)


def test_f_is_a_controlled_ry_with_control_first():
    t = 0.81
    m = gate_matrix(Gate(GateKind.F, (0, 1), t))
    # control clear: identity block; control set: plane rotation on the target
    assert np.array_equal(m[:2, :2], np.eye(2))
    assert np.array_equal(m[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(m[2:, :2], np.zeros((2, 2)))
    c, s = math.cos(t), math.sin(t)
    assert np.array_equal(m[2:, 2:], [[c, -s], [s, c]])


def test_gphase_matrix():
    m = gate_matrix(Gate(GateKind.GPHASE, (), 0.6))
    assert m.shape == (1, 1)
    assert m[0, 0] == cmath.exp(0.6j)


def test_all_matrices_unitary():
    rng = np.random.default_rng(11)
    for k in GateKind:
        for _ in range(5):
            param = float(rng.uniform(-10, 10)) if k.num_params else None
            qubits = (0, 1)[: k.num_operands]
            m = gate_matrix(Gate(k, qubits, param))
            assert np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-15)


def test_block_entries_equal_the_matrix_entries():
    # the simulator takes each gate's 2x2 block as Python numbers
    rng = np.random.default_rng(19)
    for k in GateKind:
        angles = [float(rng.uniform(-10, 10)) for _ in range(3)] + [math.pi, 0.0]
        for param in angles if k.num_params else [None]:
            g = Gate(k, (0, 1)[: k.num_operands], param)
            u = block_entries(g)
            assert all(type(x) in (float, complex) for x in u), g
            m = gate_matrix(g)
            if k.num_operands == 0:
                m = m[0, 0] * np.eye(2)
            elif k.num_operands == 2:
                m = m[2:, 2:]
            assert list(u) == list(m.ravel()), g


def test_rz_snaps_to_exact_signs_at_pi_multiples():
    assert gate_matrix(g1(GateKind.RZ, math.pi))[1, 1] == -1.0
    assert gate_matrix(g1(GateKind.RZ, -math.pi))[1, 1] == -1.0
    assert gate_matrix(g1(GateKind.RZ, 2 * math.pi))[1, 1] == 1.0
    assert gate_matrix(g1(GateKind.RZ, 3 * math.pi))[1, 1] == -1.0
    assert gate_matrix(Gate(GateKind.GPHASE, (), math.pi))[0, 0] == -1.0


def test_realness_classification():
    always = [GateKind.X, GateKind.Z, GateKind.H, GateKind.RY, GateKind.CX, GateKind.CZ, GateKind.F]
    never = [GateKind.Y, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG]
    for k in always:
        param = 1.23 if k.num_params else None
        assert is_real(Gate(k, (0, 1)[: k.num_operands], param))
    for k in never:
        assert not is_real(g1(k))
    assert is_real(g1(GateKind.RX, 0.0))
    assert not is_real(g1(GateKind.RX, 1e-300))
    assert not is_real(g1(GateKind.RX, math.pi))


def test_realness_of_rz_and_gphase_at_pi_multiples():
    for mult in (-2, -1, 0, 1, 2, 7):
        assert is_real(g1(GateKind.RZ, mult * math.pi))
        assert is_real(Gate(GateKind.GPHASE, (), mult * math.pi))
    assert not is_real(g1(GateKind.RZ, 0.5 * math.pi))
    assert not is_real(Gate(GateKind.GPHASE, (), 1e-9))


def test_is_real_agrees_with_the_matrix_exactly():
    # the classification and the matrix builder must never disagree,
    # otherwise the real engine would reject or corrupt encoded circuits
    rng = np.random.default_rng(7)
    gates = []
    for k in GateKind:
        qubits = (0, 1)[: k.num_operands]
        if k.num_params:
            gates += [Gate(k, qubits, p) for p in
                      (0.0, math.pi, -math.pi, 0.3, float(rng.uniform(-7, 7)))]
        else:
            gates.append(Gate(k, qubits))
    for g in gates:
        assert is_real(g) == bool(np.all(gate_matrix(g).imag == 0.0))


GOLDEN_ZYZ = {
    GateKind.X: (0.0, 0.0, 0.5 * math.pi, math.pi),
    GateKind.Y: (0.5 * math.pi, 0.0, 0.5 * math.pi, 0.0),
    GateKind.Z: (0.0, math.pi, 0.0, 0.0),
    GateKind.H: (0.0, 0.0, 0.25 * math.pi, math.pi),
    GateKind.S: (0.0, 0.5 * math.pi, 0.0, 0.0),
    GateKind.SDG: (0.0, -0.5 * math.pi, 0.0, 0.0),
    GateKind.T: (0.0, 0.25 * math.pi, 0.0, 0.0),
    GateKind.TDG: (0.0, -0.25 * math.pi, 0.0, 0.0),
}


def test_zyz_golden_values():
    for kind, want in GOLDEN_ZYZ.items():
        got = zyz_angles(gate_matrix(g1(kind)))
        assert got == pytest.approx(want, abs=1e-15), kind


def test_zyz_identity():
    assert zyz_angles(np.eye(2)) == (0.0, 0.0, 0.0, 0.0)


def test_zyz_branch_shapes():
    # diagonal inputs pin b = c = 0, anti-diagonal inputs pin a = 0, b = pi/2
    alpha, a, b, c = zyz_angles(np.diag([cmath.exp(0.4j), cmath.exp(-1.1j)]))
    assert (b, c) == (0.0, 0.0)
    assert alpha == pytest.approx(0.4)
    anti = np.array([[0, cmath.exp(0.2j)], [cmath.exp(0.9j), 0]])
    alpha, a, b, c = zyz_angles(anti)
    assert a == 0.0 and b == 0.5 * math.pi
    assert alpha == pytest.approx(0.9)


def test_zyz_angle_ranges():
    rng = np.random.default_rng(23)
    for _ in range(200):
        alpha, a, b, c = zyz_angles(random_unitary_2x2(rng))
        assert -math.pi <= a <= math.pi
        assert -math.pi <= c <= math.pi
        assert 0.0 <= b <= 0.5 * math.pi + 1e-12
        assert -math.pi <= alpha <= math.pi


def test_zyz_reconstruction_on_random_unitaries():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        u = random_unitary_2x2(rng)
        angles = zyz_angles(u)
        worst = max(worst, float(np.abs(zyz_product(*angles) - u).max()))
    assert worst <= 1e-12


def test_zyz_reconstruction_on_every_front_end_gate():
    rng = np.random.default_rng(31)
    for k in GateKind:
        if k.num_operands != 1:
            continue
        for _ in range(4):
            g = g1(k, float(rng.uniform(-7, 7)) if k.num_params else None)
            u = gate_matrix(g)
            assert np.allclose(zyz_product(*zyz_angles(u)), u, atol=1e-12)


def test_zyz_no_negative_zero_angles():
    for kind in GOLDEN_ZYZ:
        for v in zyz_angles(gate_matrix(g1(kind))):
            assert not (v == 0.0 and math.copysign(1.0, v) < 0.0)


def _near_products(rng):
    # products of random unitaries, plus ones a rounding step away from
    # diagonal (u @ u^dagger) or anti-diagonal (x @ u @ u^dagger), where
    # |u[1,0]| or |u[0,0]| is float64 noise rather than an exact zero
    h = gate_matrix(g1(GateKind.H))
    x = gate_matrix(g1(GateKind.X))
    yield h @ h
    yield x @ h @ h
    for _ in range(100):
        u, v, w = (random_unitary_2x2(rng) for _ in range(3))
        d = np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 2)))
        yield u @ v @ w
        yield d @ u @ u.conj().T
        yield x @ d @ u @ u.conj().T
        small = zyz_product(*rng.uniform(-math.pi, math.pi, 2), 10.0 ** rng.uniform(-18, -6), 0.3)
        yield small
        yield small @ x


def test_zyz_reconstruction_on_near_diagonal_products():
    # every phase must come from an entry that carries weight; the noise
    # phase of a ~1e-17 entry once set a + c and turned h @ h into z
    rng = np.random.default_rng(47)
    for u in _near_products(rng):
        angles = zyz_angles(u)
        assert np.allclose(zyz_product(*angles), u, rtol=0.0, atol=1e-12), (u, angles)
