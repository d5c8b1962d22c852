import cmath
import math

import numpy as np

from rqc import (
    Circuit,
    Gate,
    GateKind,
    gate_matrix,
    init_basis,
    init_basis_real,
    is_real,
    run_complex,
    run_real,
)
from rqc.gates import block_entries

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
                      (0.0, math.pi, -math.pi, 0.3, float(rng.uniform(-7, 7)),
                       5e-324, -5e-324)]
        else:
            gates.append(Gate(k, qubits))
    for g in gates:
        assert is_real(g) == bool(np.all(gate_matrix(g).imag == 0.0)), g
    # sin(2.5e-324) rounds to 0, so rx(5e-324) is exactly real and the
    # real engine must accept it with the reference amplitudes
    c = Circuit(1)
    c.gates.append(Gate(GateKind.RX, (0,), 5e-324))
    for init in (0, 1):
        got = run_real(c, init_basis_real(1, init)).amps
        assert np.array_equal(got, run_complex(c, init_basis(1, init)).amps)
