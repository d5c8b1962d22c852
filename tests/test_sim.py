import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from rqc import (
    Circuit,
    ComplexState,
    Gate,
    GateKind,
    LoweringLevel,
    RealState,
    distribution,
    encode,
    gate_matrix,
    init_basis,
    init_basis_real,
    is_real,
    random_circuit,
    run_complex,
    run_real,
    sample,
    transpile,
    verify_circuit,
)
from rqc.encoding import add_work_ancilla

import rqc.sim as sim_mod
from rqc.sim import MAX_QUBITS

from _oracles import dense_apply, dense_run, gather_apply, random_complex_state


def random_gate(rng, num_qubits):
    kinds = list(GateKind)
    while True:
        k = kinds[int(rng.integers(len(kinds)))]
        if k.num_operands == 2 and num_qubits < 2:
            continue
        if k.num_operands == 2:
            pick = rng.choice(num_qubits, size=2, replace=False)
            qubits = (int(pick[0]), int(pick[1]))
        else:
            qubits = tuple(int(rng.integers(num_qubits)) for _ in range(k.num_operands))
        param = float(rng.uniform(-7, 7)) if k.num_params else None
        return Gate(k, qubits, param)


def test_init_basis():
    s = init_basis(2, 2)
    assert np.array_equal(s.amps, [0, 0, 1, 0])
    r = init_basis_real(3, 5)
    assert r.amps.dtype == np.float64
    assert np.array_equal(r.amps, np.eye(8)[5])


def test_init_basis_range_check():
    with pytest.raises(ValueError, match="out of range"):
        init_basis(2, 4)
    with pytest.raises(ValueError, match="out of range"):
        init_basis_real(1, -1)


def test_registers_wider_than_the_cap_are_refused():
    # refused before anything is allocated: 2^64 amplitudes could not be
    for n in (MAX_QUBITS + 1, 64):
        with pytest.raises(ValueError, match=f"{n} qubit.*limit of {MAX_QUBITS}"):
            init_basis(n, 0)
        with pytest.raises(ValueError, match=f"{n} qubit.*limit of {MAX_QUBITS}"):
            init_basis_real(n, 0)


def test_state_shape_checks():
    with pytest.raises(ValueError, match="amplitude count"):
        ComplexState(2, np.zeros(3))
    with pytest.raises(ValueError, match="amplitude count"):
        RealState(1, np.zeros(4))
    with pytest.raises(ValueError, match="complex"):
        RealState(1, np.zeros(2, dtype=np.complex128))


def test_qubit_zero_is_the_low_bit():
    # x on qubit 0 maps |00> to index 1, x on qubit 1 to index 2
    s = init_basis(2, 0)
    assert np.argmax(np.abs(run_complex(Circuit(2).x(0), s).amps)) == 1
    assert np.argmax(np.abs(run_complex(Circuit(2).x(1), s).amps)) == 2


def test_f_convention_control_first():
    t = 0.3
    s = RealState(2, [0.0, 0.0, 1.0, 0.0])  # |10>: qubit 1 (control) set
    out = run_real(Circuit(2).f(1, 0, t), s)
    assert out.amps == pytest.approx([0.0, 0.0, math.cos(t), math.sin(t)])
    # control clear: nothing happens
    s = RealState(2, [0.0, 1.0, 0.0, 0.0])
    out = run_real(Circuit(2).f(1, 0, t), s)
    assert np.array_equal(out.amps, [0.0, 1.0, 0.0, 0.0])


def test_single_gates_match_the_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        vec = random_complex_state(rng, n)
        g = random_gate(rng, n)
        got = run_complex(Circuit(n, [g]), ComplexState(n, vec)).amps
        assert np.allclose(got, dense_apply(g, vec), atol=1e-13)


def test_two_qubit_kernel_on_non_adjacent_qubits():
    rng = np.random.default_rng(9)
    vec = random_complex_state(rng, 5)
    for qubits in ((4, 1), (1, 4), (0, 4), (3, 0)):
        g = Gate(GateKind.F, qubits, 1.1)
        got = run_complex(Circuit(5, [g]), ComplexState(5, vec)).amps
        assert np.allclose(got, dense_apply(g, vec), atol=1e-13)


def test_runs_match_the_dense_oracle():
    rng = np.random.default_rng(3)
    for seed in range(10):
        n = 1 + seed % 4
        c = random_circuit(n, 25, seed)
        got = run_complex(c, init_basis(n, seed % (1 << n)))
        want = dense_run(c, np.eye(1 << n)[seed % (1 << n)].astype(complex))
        assert np.allclose(got.amps, want, atol=1e-12)
    # the real engine at the pipeline's shapes: 3-9 register qubits,
    # from the encoded inputs verify starts the lowered stages with
    for seed in range(14):
        level = (LoweringLevel.REAL_ENCODED, LoweringLevel.F_ONLY)[seed % 2]
        n = 2 + seed // 2 if level is LoweringLevel.REAL_ENCODED else 1 + seed // 2
        c = random_circuit(n, 6, seed)
        lowered, _ = transpile(c, level)
        init = encode(ComplexState(n, random_complex_state(rng, n)))
        if level is LoweringLevel.F_ONLY:
            init = add_work_ancilla(init)
        assert 3 <= lowered.num_qubits <= 9
        got = run_real(lowered, init)
        want = dense_run(lowered, init.amps)
        assert np.max(np.abs(got.amps - want)) <= 1e-12


def _operand_sets(kind, n):
    if kind.num_operands == 0:
        return [()]
    if kind.num_operands == 1:
        return [(0,), (n - 1,)]
    # control above and below the target: adjacent, and non-adjacent
    pairs = {(0, 1), (1, 0), (0, n - 1), (n - 1, 0), (1, n - 2), (n - 2, 1)}
    return sorted(p for p in pairs if n >= 2 and p[0] != p[1] and max(p) < n)


def test_kernels_equal_the_gather_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(1, 9):
        vec = random_complex_state(rng, n)
        real_vec = rng.normal(size=1 << n)
        for kind in GateKind:
            params = [float(rng.uniform(-7, 7)), math.pi, 0.0] if kind.num_params else [None]
            for qubits in _operand_sets(kind, n):
                for param in params:
                    g = Gate(kind, qubits, param)
                    got = run_complex(Circuit(n, [g]), ComplexState(n, vec)).amps
                    assert np.array_equal(got, gather_apply(g, vec)), g
                    if is_real(g):
                        got = run_real(Circuit(n, [g]), RealState(n, real_vec)).amps
                        assert np.array_equal(got, gather_apply(g, real_vec)), g
        c = random_circuit(n, 40, seed=n)
        want = init_basis(n, 0).amps
        for g in c.gates:
            want = gather_apply(g, want)
        assert np.array_equal(run_complex(c, init_basis(n, 0)).amps, want)
        lowered, _ = transpile(c, LoweringLevel.F_ONLY)
        init = add_work_ancilla(encode(init_basis(n, 0)))
        want = init.amps
        for g in lowered.gates:
            want = gather_apply(g, want)
        assert np.array_equal(run_real(lowered, init).amps, want)
    # the controlled kernel touches only the control-set slice, which is
    # right because every two-operand kind is block-diag(I, U)
    for kind in GateKind:
        if kind.num_operands == 2:
            for _ in range(5):
                param = float(rng.uniform(-7, 7)) if kind.num_params else None
                m = gate_matrix(Gate(kind, (0, 1), param))
                assert np.array_equal(m[:2, :2], np.eye(2)), kind
                assert not m[:2, 2:].any() and not m[2:, :2].any(), kind


def test_real_engine_agrees_with_complex_engine():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = 1 + trial % 4
        c = Circuit(n)
        while len(c.gates) < 30:
            g = random_gate(rng, n)
            if is_real(g):
                c.gates.append(g)
        r = run_real(c, init_basis_real(n, trial % (1 << n)))
        z = run_complex(c, init_basis(n, trial % (1 << n)))
        assert np.allclose(r.amps, z.amps.real, atol=1e-13)
        assert np.all(z.amps.imag == 0.0)


def test_apply_is_linear():
    rng = np.random.default_rng(8)
    a = random_complex_state(rng, 3)
    b = random_complex_state(rng, 3)
    c = Circuit(3, [random_gate(rng, 3)])
    lhs = run_complex(c, ComplexState(3, 0.3 * a + 2j * b)).amps
    rhs = 0.3 * run_complex(c, ComplexState(3, a)).amps
    rhs = rhs + 2j * run_complex(c, ComplexState(3, b)).amps
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_apply_does_not_mutate_the_input():
    # the kernels work in place, on a copy of init
    s = init_basis(1, 0)
    before = s.amps.copy()
    run_complex(Circuit(1).h(0), s)
    assert np.array_equal(s.amps, before)
    # copy shares no memory with its source
    t = s.copy()
    t.amps[0] = 0.0
    assert np.array_equal(s.amps, before)
    r = init_basis_real(2, 3)
    before = r.amps.copy()
    run_real(Circuit(2).f(1, 0, 0.4).x(0), r)
    assert np.array_equal(r.amps, before)


def test_norm_preserved_over_long_runs():
    rng = np.random.default_rng(77)
    c = Circuit(4)
    for _ in range(500):
        c.gates.append(random_gate(rng, 4))
    out = run_complex(c, init_basis(4, 9))
    assert abs(out.norm() - 1.0) <= 1e-12


def test_gphase_multiplies_every_amplitude():
    rng = np.random.default_rng(1)
    vec = random_complex_state(rng, 2)
    out = run_complex(Circuit(2).gphase(0.9), ComplexState(2, vec))
    assert np.allclose(out.amps, np.exp(0.9j) * vec, atol=1e-15)
    # at angle pi the factor is exactly -1, real engine included
    r = run_real(Circuit(1).gphase(math.pi), RealState(1, [0.6, 0.8]))
    assert np.array_equal(r.amps, [-0.6, -0.8])


def test_real_engine_rejects_non_real_gates():
    s = init_basis_real(1, 0)
    with pytest.raises(ValueError, match="non-real gate in real engine: s"):
        run_real(Circuit(1).s(0), s)
    with pytest.raises(ValueError, match="non-real gate"):
        run_real(Circuit(1).rz(0, 0.1), s)
    # a complex state is refused before any gate
    with pytest.raises(ValueError, match="RealState cannot hold complex amplitudes"):
        run_real(Circuit(1).x(0), init_basis(1, 0))


def test_run_errors_carry_the_gate_index():
    c = Circuit(2).h(0)
    c.gates.append(Gate(GateKind.RX, (1,), 0.5))
    with pytest.raises(ValueError, match="gate 1: non-real gate"):
        run_real(c, init_basis_real(2, 0))
    c = Circuit(2)
    c.gates.append(Gate(GateKind.H, (7,)))
    with pytest.raises(ValueError, match=r"gate 0: operand 7 out of range"):
        run_complex(c, init_basis(2, 0))
    c = Circuit(2)
    c.gates.append(Gate(GateKind.CX, (1, 1)))
    with pytest.raises(ValueError, match="gate 0: duplicate operands"):
        run_complex(c, init_basis(2, 0))
    c = Circuit(2)
    c.gates.append(Gate("bogus", (0,)))
    with pytest.raises(ValueError, match="^gate 0: unknown gate kind 'bogus'$"):
        run_complex(c, init_basis(2, 0))
    with pytest.raises(ValueError, match="gate 1: non-real gate in real engine: s"):
        run_real(Circuit(2).h(0).s(1), 0)


def test_register_size_mismatch():
    with pytest.raises(ValueError, match="has 2 qubit"):
        run_complex(Circuit(2).h(0), init_basis(3, 0))


def test_distribution():
    s = run_complex(Circuit(1).h(0), init_basis(1, 0))
    assert distribution(s) == pytest.approx([0.5, 0.5])
    r = RealState(1, [0.6, -0.8])
    assert distribution(r) == pytest.approx([0.36, 0.64])
    # phases never show up
    s = run_complex(Circuit(1).s(0), s)
    assert distribution(s) == pytest.approx([0.5, 0.5])


def test_sample_reproducible_and_consistent():
    probs = np.array([0.5, 0.25, 0.25, 0.0])
    a = sample(probs, 1000, seed=4)
    b = sample(probs, 1000, seed=4)
    assert np.array_equal(a, b)
    assert a.sum() == 1000
    assert a[3] == 0
    assert not np.array_equal(a, sample(probs, 1000, seed=5))


def test_sample_statistics():
    counts = sample(np.array([0.5, 0.5]), 20000, seed=0)
    assert abs(counts[0] - 10000) < 500


def test_sample_edge_cases():
    assert np.array_equal(sample(np.array([1.0, 0.0]), 0, seed=0), [0, 0])
    assert np.array_equal(sample(np.array([0.0, 1.0]), 50, seed=1), [0, 50])
    with pytest.raises(ValueError, match="^shots must be non-negative$"):
        sample(np.array([1.0]), -1, seed=0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        sample(np.array([1.0]), 1, seed=-1)


def test_sample_rejects_a_distribution_it_cannot_sample():
    for probs in ([0.0, 0.0], [math.nan, 1.0], [math.inf, 0.0], [0.5, -0.5, 1.0], []):
        with pytest.raises(ValueError, match="probabilities"):
            sample(np.array(probs), 10, seed=0)


def test_large_registers_smoke():
    out = run_complex(Circuit(20).h(19), init_basis(20, 0))
    assert out.amps[0] == pytest.approx(math.sqrt(0.5))
    assert out.amps[1 << 19] == pytest.approx(math.sqrt(0.5))
    out = run_real(Circuit(22).x(21), init_basis_real(22, 0))
    assert out.amps[1 << 21] == 1.0
    assert out.norm() == 1.0


def test_sample_at_any_int64_shot_count():
    # one multinomial draw: time follows the outcomes, not the shots
    probs = np.random.default_rng(5).random(37)
    probs[[3, 20]] = 0.0
    for shots in (10**15, 2**63 - 1):
        t0 = time.process_time()
        counts = sample(probs, shots, seed=11)
        assert time.process_time() - t0 < 1.0
        assert counts.dtype == np.int64
        assert int(counts.sum()) == shots
        assert np.array_equal(counts, sample(probs, shots, seed=11))
        assert not np.array_equal(counts, sample(probs, shots, seed=12))
        assert counts[3] == counts[20] == 0
        # each frequency is within 10^-6 of its probability, where the
        # standard deviation is at most 1.6e-8
        assert np.abs(counts / shots - probs / probs.sum()).max() < 1e-6


def test_sample_never_draws_an_outcome_of_probability_zero():
    # numpy gives the last outcome all the shots the float64 conditional
    # probabilities of the others leave over: 1,024 shots here, had the
    # last, impossible outcome been part of the draw
    probs = np.array([1.0, 1.0, 1.0, 0.0]) / 3.0
    for seed in range(20):
        counts = sample(probs, 2**63 - 1, seed)
        assert counts[3] == 0
        assert int(counts.sum()) == 2**63 - 1
    counts = sample(np.array([0.0, 0.3, 0.0, 0.7, 0.0]), 10**15, seed=1)
    assert counts[[0, 2, 4]].tolist() == [0, 0, 0]
    assert int(counts.sum()) == 10**15


def test_sample_refuses_a_count_beyond_int64():
    for shots in (2**63, 2**64, 10**30):
        with pytest.raises(ValueError, match=r"^shots must be below 2\*\*63"):
            sample(np.array([0.5, 0.5]), shots, seed=0)


def test_sample_memory_does_not_grow_with_shots():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    tracemalloc.start()
    try:
        counts = sample(probs, 10**7, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**7
    assert peak < 16 << 20


# a run from a basis index keeps amplitudes only for the qubits in
# superposition; these tests hold it to the whole-register gather
# reference, by value, from every kind of operand state it may see. Each
# run starts from an index, on a one-amplitude prefix, which
# _prefix_starts records


def _gather_run(gates, amps):
    for g in gates:
        amps = gather_apply(g, amps)
    return amps


def _basis_vector(n, index, amp, dtype):
    v = np.zeros(1 << n, dtype=dtype)
    v[index] = amp
    return v


def _phase(kind, b):
    # an exact phase on |b>, put ahead of a run from the index b so that
    # the prefix holds an amplitude other than 1: sdg on a qubit at 1
    # gives -1j and z gives -1. At b = 0 an x on each side sets qubit 0
    if b:
        return [Gate(kind, ((b & -b).bit_length() - 1,))]
    return [Gate(GateKind.X, (0,)), Gate(kind, (0,)), Gate(GateKind.X, (0,))]


def _prefix_starts(monkeypatch):
    # the prefix size each run starts on, in the order of the runs
    sizes = []
    init = sim_mod._Register.__init__

    def spy(reg, *args):
        init(reg, *args)
        sizes.append(reg.size)

    monkeypatch.setattr(sim_mod._Register, "__init__", spy)
    return sizes


def test_basis_runs_equal_the_gather_reference(monkeypatch):
    starts = _prefix_starts(monkeypatch)
    rng = np.random.default_rng(31)
    cases = [(n, b) for n in range(1, 5) for b in range(1 << n)]
    cases += [(n, int(rng.integers(1 << n))) for n in range(5, 13) for _ in range(3)]
    for n, b in cases:
        gates = [random_gate(rng, n) for _ in range(2 * n + 4)]
        c = Circuit(n, _phase(GateKind.SDG, b) + gates)
        want = _gather_run(c.gates, _basis_vector(n, b, 1.0, np.complex128))
        assert np.array_equal(run_complex(c, b).amps, want), (n, b)
        real = Circuit(n, _phase(GateKind.Z, b) + [g for g in gates if is_real(g)])
        want = _gather_run(real.gates, _basis_vector(n, b, 1.0, np.float64))
        assert np.array_equal(run_real(real, b).amps, want), (n, b)
    assert starts == [1] * (2 * len(cases))


def test_every_kind_from_every_operand_state(monkeypatch):
    # each operand classical at 0, classical at 1 or superposed, with a
    # superposed spectator qubit (2) ahead of the operands or none, from
    # the index 8 at amplitude -1j, or -1 on the real engine
    starts = _prefix_starts(monkeypatch)
    rng = np.random.default_rng(37)
    n = 5
    prep = {
        "0": lambda q: [],
        "1": lambda q: [Gate(GateKind.X, (q,))],
        "superposed": lambda q: [Gate(GateKind.RY, (q,), 0.7)],
    }
    for kind in GateKind:
        params = (float(rng.uniform(-7, 7)), math.pi, 0.0) if kind.num_params else (None,)
        for qubits in _operand_sets(kind, n):
            for states in itertools.product(prep, repeat=len(qubits)):
                head = [g for q, st in zip(qubits, states) for g in prep[st](q)]
                for spectator in ([], [Gate(GateKind.H, (2,))]):
                    for param in params:
                        gates = spectator + head + [Gate(kind, qubits, param)]
                        c = Circuit(n, _phase(GateKind.SDG, 8) + gates)
                        want = _gather_run(c.gates, _basis_vector(n, 8, 1.0, np.complex128))
                        assert np.array_equal(run_complex(c, 8).amps, want), (gates, states)
                        if all(is_real(g) for g in gates):
                            c = Circuit(n, _phase(GateKind.Z, 8) + gates)
                            want = _gather_run(c.gates, _basis_vector(n, 8, 1.0, np.float64))
                            assert np.array_equal(run_real(c, 8).amps, want), (gates, states)
    assert set(starts) == {1}


def test_gphase_before_any_qubit_is_superposed(monkeypatch):
    # numpy rounds a *= u on a one-element complex128 array differently
    # from the same product inside a longer array, in about four draws
    # of ten: a gphase on a run with no qubit superposed must not see it
    starts = _prefix_starts(monkeypatch)
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        t = float(rng.uniform(-7, 7))
        b = int(rng.integers(1 << n))
        gates = _phase(GateKind.SDG, b) + [
            Gate(GateKind.GPHASE, (), t),
            Gate(GateKind.X, (0,)),
            Gate(GateKind.GPHASE, (), -2.0 * t),
            Gate(GateKind.H, (n - 1,)),
            Gate(GateKind.GPHASE, (), t),
        ]
        got = run_complex(Circuit(n, gates), b).amps
        assert np.array_equal(got, _gather_run(gates, _basis_vector(n, b, 1.0, np.complex128))), (n, t)
    assert starts == [1] * 100


def test_work_follows_the_superposed_qubits(monkeypatch):
    # each kernel call and each promotion touches at most 2^m
    # amplitudes, m counting the qubits superposed after its gate, on a
    # 20-qubit register
    starts = _prefix_starts(monkeypatch)
    calls = []
    entries, pair, scale = sim_mod.block_entries, sim_mod._apply_pair, sim_mod._scale
    spread = sim_mod._Register._spread

    def spy_entries(g):
        calls.append(0)
        return entries(g)

    def spy_pair(a0, a1, u, scratch):
        calls[-1] = max(calls[-1], a0.size + a1.size)
        pair(a0, a1, u, scratch)

    def spy_scale(a, u, scratch):
        calls[-1] = max(calls[-1], a.size)
        scale(a, u, scratch)

    def spy_spread(reg, *args):
        # a promotion writes the doubled prefix
        spread(reg, *args)
        calls[-1] = max(calls[-1], reg.size)

    monkeypatch.setattr(sim_mod, "block_entries", spy_entries)
    monkeypatch.setattr(sim_mod, "_apply_pair", spy_pair)
    monkeypatch.setattr(sim_mod, "_scale", spy_scale)
    monkeypatch.setattr(sim_mod._Register, "_spread", spy_spread)
    c = Circuit(20).x(3).h(5).cx(5, 9).rz(9, 0.3).cz(5, 3)
    got = run_complex(c, 0).amps
    assert starts == [1]
    superposed = [0, 1, 2, 2, 2]
    assert len(calls) == len(c.gates)
    for touched, m in zip(calls, superposed):
        assert touched <= 1 << m, (calls, superposed)
    want = np.zeros(1 << 20, dtype=np.complex128)
    want[1 << 3] = math.sqrt(0.5)
    want[(1 << 3) | (1 << 5) | (1 << 9)] = -math.sqrt(0.5) * complex(math.cos(0.3), math.sin(0.3))
    assert np.allclose(got, want, atol=1e-15)
    assert np.array_equal(got != 0, want != 0)


def test_a_single_non_finite_amplitude_runs_the_whole_register():
    # a state input runs dense: every product of the whole register is
    # formed, so 0 * inf gives nan as in the gather reference. Only
    # dense gates here, whose kernel forms every product
    gates = [
        Gate(GateKind.H, (1,)),
        Gate(GateKind.X, (0,)),
        Gate(GateKind.RY, (2,), 0.3),
        Gate(GateKind.Y, (0,)),
        Gate(GateKind.RX, (1,), 0.4),
    ]
    real = [g for g in gates if is_real(g)]
    with np.errstate(invalid="ignore"):
        _check_non_finite(gates, real)


def _check_non_finite(gates, real):
    for bad in (math.inf, -math.inf, math.nan):
        for b in (0, 5):
            for amp in (bad, complex(0.0, bad), complex(bad, 1.0)):
                vec = _basis_vector(3, b, amp, np.complex128)
                got = run_complex(Circuit(3, gates), ComplexState(3, vec)).amps
                assert np.array_equal(got, _gather_run(gates, vec), equal_nan=True), (bad, b)
            vec = _basis_vector(3, b, bad, np.float64)
            got = run_real(Circuit(3, real), RealState(3, vec)).amps
            assert np.array_equal(got, _gather_run(real, vec), equal_nan=True), (bad, b)


# run_real keeps a superposed prefix of at most sim._FLOAT_PREFIX
# amplitudes in Python floats, and hands it to the numpy kernels when a
# promotion takes it past that


def _real_gate(rng, n):
    # a random kind the real engine takes; rz and gphase are real at
    # exact multiples of pi
    while True:
        g = random_gate(rng, n)
        if g.kind.num_params and rng.random() < 0.3:
            g = Gate(g.kind, g.qubits, float(rng.choice((-2, -1, 0, 1, 2))) * math.pi)
        if is_real(g):
            return g


def _bits(a):
    return a.view(np.uint64)


def test_real_runs_across_the_float_prefix_are_exact(monkeypatch):
    # every qubit is made superposed somewhere, so from 7 qubits on the
    # prefix crosses 64 amplitudes. Each run starts from an index, at
    # amplitude 1 or, after an exact z, -1. The gather replay checks
    # values; runs whose float prefix stops at 2 amplitudes check the
    # bits after every gate, signed zeros included, before a later sum
    # can erase them
    starts = _prefix_starts(monkeypatch)
    rng = np.random.default_rng(53)
    for n in range(1, 10):
        for b in sorted({0, (1 << n) - 1, int(rng.integers(1 << n))}):
            for phase in ([], _phase(GateKind.Z, b)):
                gates = [_real_gate(rng, n) for _ in range(3 * n + 6)]
                for q in rng.permutation(n):
                    ry = Gate(GateKind.RY, (int(q),), float(rng.uniform(-7, 7)))
                    gates.insert(int(rng.integers(len(gates) + 1)), ry)
                gates = phase + gates
                got = run_real(Circuit(n, gates), b).amps
                assert np.array_equal(got, _gather_run(gates, _basis_vector(n, b, 1.0, np.float64))), (n, b)
                with monkeypatch.context() as m:
                    m.setattr(sim_mod, "_FLOAT_PREFIX", 2)
                    kernels = [run_real(Circuit(n, gates[:k]), b).amps for k in range(len(gates) + 1)]
                for k, want in enumerate(kernels):
                    got = run_real(Circuit(n, gates[:k]), b).amps
                    assert np.array_equal(_bits(got), _bits(want)), (n, b, phase, k)
    assert set(starts) == {1}
    # gphase before any qubit is superposed scales two entries, as the
    # kernels do, or a 0-qubit register's one
    for n in (0, 2):
        got = run_real(Circuit(n, [Gate(GateKind.GPHASE, (), math.pi)]), 0).amps
        assert got[0] == -1.0 and np.signbit(got[1:2]).all() and not np.signbit(got[2:]).any()


def test_small_real_prefixes_run_in_floats(monkeypatch):
    # ry twice on qubits 0..9 in turn from |0>: the first ry on a qubit
    # promotes it, which doubles the prefix, and the second mixes it. No
    # numpy kernel runs until gate 12 spreads the prefix past 64
    # amplitudes, and gate 13 mixes it
    starts = _prefix_starts(monkeypatch)
    gate, calls = [-1], []
    entries, pair, scale = sim_mod.block_entries, sim_mod._apply_pair, sim_mod._scale
    spread = sim_mod._Register._spread

    def spy_entries(g):
        gate[0] += 1
        return entries(g)

    def spy_pair(a0, a1, u, scratch):
        calls.append(gate[0])
        pair(a0, a1, u, scratch)

    def spy_scale(a, u, scratch):
        calls.append(gate[0])
        scale(a, u, scratch)

    def spy_spread(reg, *args):
        # the float prefix is handed over before a spread in numpy
        spread(reg, *args)
        if reg.floats is None:
            calls.append(gate[0])

    monkeypatch.setattr(sim_mod, "block_entries", spy_entries)
    monkeypatch.setattr(sim_mod, "_apply_pair", spy_pair)
    monkeypatch.setattr(sim_mod, "_scale", spy_scale)
    monkeypatch.setattr(sim_mod._Register, "_spread", spy_spread)
    n = 10
    c = Circuit(n)
    for q in range(n):
        c.ry(q, 0.3 + q).ry(q, 1.1 - q)
    got = run_real(c, 0).amps
    assert starts == [1]
    assert sim_mod._FLOAT_PREFIX == 64
    assert gate[0] == 2 * n - 1
    assert calls[:2] == [12, 13], calls
    assert np.array_equal(got, _gather_run(c.gates, init_basis_real(n, 0).amps))


def test_promotions_spread_the_prefix_without_the_pair_kernel(monkeypatch):
    # a dense gate on a classical target, at bit 0 or 1, alone or under
    # a control that is superposed or classical at 1, with a superposed
    # spectator ahead of it or not. cx and f(pi/2) under a superposed
    # control also promote, cx's U having zero entries. Every gate here
    # is a promotion or a classical rule, so the pair kernel never runs.
    # Values equal the gather replay; the two real paths agree bit for bit
    starts = _prefix_starts(monkeypatch)
    pairs = []

    def spy(kernel):
        def run(*args):
            pairs.append(kernel.__name__)
            kernel(*args)

        return run

    for name in ("_apply_pair", "_apply_pair_floats"):
        monkeypatch.setattr(sim_mod, name, spy(getattr(sim_mod, name)))
    n = 4
    dense = [
        (GateKind.H, None), (GateKind.RY, 0.7), (GateKind.RX, 0.4),
        (GateKind.CX, None), (GateKind.F, 1.1), (GateKind.F, math.pi / 2),
    ]
    cases = 0
    for (kind, param), (c, t), t_bit in itertools.product(dense, [(0, 3), (3, 0), (1, 2)], (0, 1)):
        controls = ("superposed", "one") if kind.num_operands == 2 else ("none",)
        for control, spectator in itertools.product(controls, (False, True)):
            # the spectator, the qubit neither operand uses, becomes
            # superposed first, so the control takes position 1
            s = ({0, 1, 2, 3} - {c, t}).pop()
            head = [Gate(GateKind.RY, (s,), 0.3)] if spectator else []
            if control == "superposed":
                head.append(Gate(GateKind.H, (c,)))
            qubits = (t,) if kind.num_operands == 1 else (c, t)
            gates = head + [Gate(kind, qubits, param)]
            # from the index b at amplitude -1j, or -1 on the real engine
            b = t_bit << t | (control == "one") << c
            phased = _phase(GateKind.SDG, b) + gates
            got = run_complex(Circuit(n, phased), b).amps
            assert np.array_equal(got, _gather_run(phased, _basis_vector(n, b, 1.0, np.complex128))), gates
            if all(is_real(g) for g in gates):
                phased = _phase(GateKind.Z, b) + gates
                got = run_real(Circuit(n, phased), b).amps
                assert np.array_equal(got, _gather_run(phased, _basis_vector(n, b, 1.0, np.float64))), gates
                with monkeypatch.context() as m:
                    m.setattr(sim_mod, "_FLOAT_PREFIX", 2)
                    kernel = run_real(Circuit(n, phased), b).amps
                assert np.array_equal(_bits(kernel), _bits(got)), gates
            cases += 1
    assert cases == 3 * 3 * 2 * 2 + 3 * 3 * 2 * 2 * 2
    assert pairs == []
    assert set(starts) == {1}


# a run from a basis index writes |b>'s one amplitude itself and starts
# on a one-amplitude prefix; a run from a state copies it and runs every
# gate over the whole register. The two agree by value, signed zeros
# aside


def _promoting(rng, n, draw):
    # gates from draw(rng, n), with an ry on every qubit in a random
    # order, so the qubits are promoted out of order and the real prefix
    # crosses _FLOAT_PREFIX from 7 qubits on
    gates = [draw(rng, n) for _ in range(3 * n + 6)]
    for q in rng.permutation(n):
        ry = Gate(GateKind.RY, (int(q),), float(rng.uniform(-7, 7)))
        gates.insert(int(rng.integers(len(gates) + 1)), ry)
    return Circuit(n, gates)


def test_a_basis_index_runs_as_its_basis_state(monkeypatch):
    starts = _prefix_starts(monkeypatch)
    rng = np.random.default_rng(59)
    for n in range(1, 10):
        for b in sorted({0, (1 << n) - 1, int(rng.integers(1 << n))}):
            c = _promoting(rng, n, random_gate)
            want = run_complex(c, init_basis(n, b)).amps
            assert np.array_equal(run_complex(c, b).amps, want), (n, b)
            real = _promoting(rng, n, _real_gate)
            want = run_real(real, init_basis_real(n, b)).amps
            for prefix in (sim_mod._FLOAT_PREFIX, 2):
                with monkeypatch.context() as m:
                    m.setattr(sim_mod, "_FLOAT_PREFIX", prefix)
                    got = run_real(real, b).amps
                assert np.array_equal(got, want), (n, b, prefix)
            # each state run dense, each index run on the prefix
            assert starts[-5:] == [1 << n, 1, 1 << n, 1, 1], (n, b)


def _error(f, *args, **kw):
    with pytest.raises(Exception) as e:
        f(*args, **kw)
    return type(e.value), str(e.value)


def test_a_basis_index_is_checked_as_init_basis_checks_it():
    # the width first, then the range, with init_basis's messages
    for n, b in [(3, 8), (3, -1), (MAX_QUBITS + 1, 0), (MAX_QUBITS + 1, -1), (64, 1 << 64)]:
        c = Circuit(n)
        assert _error(run_complex, c, b) == _error(init_basis, n, b)
        assert _error(run_real, c, b) == _error(init_basis_real, n, b)


def test_a_basis_index_is_what_operator_index_takes():
    # one rule for run_real, run_complex and verify_circuit: any int
    # type, numpy's included, and never a bool, which each refuses with
    # the same TypeError
    c = Circuit(2).h(0).cx(0, 1).x(1)
    for index in (np.int64(1), np.uint8(1), np.array(1)):
        assert np.array_equal(_bits(run_real(c, index).amps), _bits(run_real(c, 1).amps))
        assert np.array_equal(_bits(run_complex(c, index).amps), _bits(run_complex(c, 1).amps))
        report = verify_circuit(c, index)
        assert type(report.init_index) is int
        assert report.to_text() == verify_circuit(c, 1).to_text()
    for bad in (True, False, np.True_, 1.0, "1", None):
        errors = {_error(f, c, bad) for f in (run_real, run_complex, verify_circuit)}
        assert len(errors) == 1 and next(iter(errors))[0] is TypeError, (bad, errors)
    assert _error(verify_circuit, c, True) == (TypeError, "a basis index must be an int, not a bool")


class _CompareSpy(np.ndarray):
    # records every amps != x the simulator evaluates on it or its views
    seen: list = []

    def __ne__(self, other):
        _CompareSpy.seen.append(other)
        return super().__ne__(other)


def test_a_basis_index_is_not_searched_for(monkeypatch):
    # every run's register holds a compare spy: from an index the run
    # writes the one amplitude itself, and from a state, a basis vector
    # here, it runs dense; neither looks for the nonzero amplitudes
    monkeypatch.setattr(_CompareSpy, "seen", [])
    starts = []
    init = sim_mod._Register.__init__

    def spy(reg, amps, *args):
        init(reg, amps.view(_CompareSpy), *args)
        starts.append(reg.size)

    monkeypatch.setattr(sim_mod._Register, "__init__", spy)
    n = 5
    c = Circuit(n).h(1).cx(1, 3).ry(4, 0.3)
    for cls, run in ((ComplexState, run_complex), (RealState, run_real)):
        want = run(c, 6).amps
        assert np.array_equal(run(c, cls(n, np.eye(1 << n)[6])).amps, want)
        assert _CompareSpy.seen == []
    assert starts == [1, 1 << n] * 2


def test_a_run_holds_about_two_registers():
    # the state a run returns, the copy of a state input, and the two
    # half-register scratch rows, at 2^16 amplitudes on either engine;
    # the ry in reverse order end the index runs in a transposition
    n = 16
    c = Circuit(n)
    for q in reversed(range(n)):
        c.ry(q, 0.3 + q)
    c.cx(3, 11).h(0).cz(15, 2)
    for run, start, unit in ((run_complex, init_basis, 16 << n), (run_real, init_basis_real, 8 << n)):
        state = start(n, 5)
        for init in (5, state):
            tracemalloc.start()
            try:
                run(c, init)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.25 * unit, (run.__name__, type(init).__name__, peak / unit)
