"""End-to-end acceptance checks.

Run with -s to see one summary line per check; every tolerance and time
limit is asserted, so a green run is the whole story. The checks are
numbered and ordered from the encoding bijection up through the command
line interface.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import rqc.verify as verify_mod
from rqc import (
    Circuit,
    ComplexState,
    DEFAULT_PHI,
    Gate,
    GateKind,
    LoweringLevel,
    RealState,
    SynthConfig,
    decode,
    distribution,
    emit,
    encode,
    grover_two_qubit,
    init_basis,
    marginal_distribution,
    parse,
    qft,
    random_circuit,
    run_real,
    synthesize,
    transpile,
    verify_circuit,
)
from rqc.cli import EXIT_PARSE, EXIT_VERIFY, main
from rqc.transpile import encode_pass

from _oracles import (
    brute_force_min_k,
    dense_apply,
    dft_matrix,
    exact_orbit_table,
    random_complex_state,
)

TAU = math.tau


def suite_circuits():
    # 200 seeded circuits over the full vocabulary, up to 5 data qubits
    # and 40 gates, each with a fixed basis input
    out = []
    for i in range(200):
        n = 1 + i % 5
        gates = 5 + (7 * i) % 36
        out.append((random_circuit(n, gates, seed=1000 + i), i % (1 << n)))
    return out


def report_line(number, label, status, elapsed=None, limit=None):
    timing = f" [{elapsed:.2f}s < {limit:.0f}s]" if limit is not None else ""
    print(f"acceptance {number}/8 {label}: {status}{timing}")


def test_01_encoding_preserves_distributions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(1000):
        n = 1 + i % 6
        vec = random_complex_state(rng, n)
        s = ComplexState(n, vec)
        got = marginal_distribution(encode(s))
        worst = max(worst, float(np.max(np.abs(got - distribution(s)))))
        if i % 97 == 0:
            assert np.array_equal(decode(encode(s)).amps, vec)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 5.0
    report_line(1, "encoding preserves distributions", "PASS", elapsed, 5.0)


def rule_instances(num_qubits, angles):
    for t in angles:
        for q in range(num_qubits):
            yield Gate(GateKind.RZ, (q,), t)
            yield Gate(GateKind.RY, (q,), t)
        for cq in range(num_qubits):
            for tq in range(num_qubits):
                if cq != tq:
                    yield Gate(GateKind.F, (cq, tq), t)
        yield Gate(GateKind.GPHASE, (), t)


def rule_distance(g, num_qubits, real_vec):
    # l2 gap between the encoded rewrite and the gate itself
    c = Circuit(num_qubits)
    c.gates.append(g)
    enc = encode_pass(c)
    s = RealState(num_qubits + 1, real_vec)
    got = decode(run_real(enc, s)).amps
    want = dense_apply(g, decode(s).amps)
    return float(np.linalg.norm(got - want))


def test_02_rewrite_rules_are_exact():
    t0 = time.perf_counter()
    angles = (0.0, 0.3, 0.5 * math.pi, math.pi, -2.5)
    worst = 0.0
    for n in (1, 2, 3):
        dim = 1 << (n + 1)
        for g in rule_instances(n, angles):
            for m in range(dim):
                worst = max(worst, rule_distance(g, n, np.eye(dim)[m]))
    rng = np.random.default_rng(2025)
    for i in range(100):
        n = 1 + i % 6
        vec = random_complex_state(rng, n)
        gates = list(rule_instances(n, (float(rng.uniform(-7, 7)),)))
        g = gates[int(rng.integers(len(gates)))]
        worst = max(worst, rule_distance(g, n, np.concatenate([vec.real, vec.imag])))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    report_line(2, "rewrite rules are exact", "PASS", elapsed, 10.0)


def test_03_exact_stages_match_on_the_random_suite():
    t0 = time.perf_counter()
    for c, init in suite_circuits():
        report = verify_circuit(c, init, level=LoweringLevel.F_ONLY)
        assert report.passed, (c.name, report.reason)
        for stage in (report.real, report.f):
            assert stage.state_distance <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_line(3, "exact stages match on 200 random circuits", "PASS", elapsed, 60.0)


def test_04_synthesized_stage_stays_within_budget():
    t0 = time.perf_counter()
    cfg = SynthConfig(eps=1e-4)
    for c, init in suite_circuits():
        report = verify_circuit(c, init, cfg, LoweringLevel.G_ONLY)
        assert report.passed, (c.name, report.reason)
        assert report.g.state_distance <= report.budget
        assert report.budget <= report.f.gate_count * 1e-4 * (1.0 + 1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report_line(4, "synthesized stage stays within budget", "PASS", elapsed, 300.0)


def test_05_synthesis_is_complete_and_minimal_on_a_grid():
    t0 = time.perf_counter()
    thetas = [(i + 0.5) * TAU / 1000.0 for i in range(1000)]
    budget_cfg = SynthConfig(eps=1e-3, k_max=10**6)
    ks = []
    for theta in thetas:
        r = synthesize(theta, budget_cfg)
        assert r.error <= 1e-3
        ks.append(r.k)
    assert max(ks) == 4166
    table = exact_orbit_table(DEFAULT_PHI, 10**5)
    oracle_cfg = SynthConfig(eps=1e-3, k_max=10**5)
    for theta, k in zip(thetas, ks):
        got = synthesize(theta, oracle_cfg)
        want = brute_force_min_k(theta, DEFAULT_PHI, 1e-3, 10**5, table)
        assert want is not None and got.k == want[0] == k
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_line(5, "synthesis complete and oracle-minimal on the grid", "PASS", elapsed, 120.0)


def test_06_canonical_algorithms_verify():
    c = qft(3)
    w = dft_matrix(3)
    l1, _ = transpile(c, LoweringLevel.REAL_ENCODED)
    for j in range(8):
        analytic = np.abs(w[:, j]) ** 2
        assert np.allclose(analytic, np.full(8, 0.125), atol=1e-15)
        report = verify_circuit(c, j, level=LoweringLevel.F_ONLY)
        assert report.passed
        assert report.real.state_distance <= 1e-9
        assert report.f.state_distance <= 1e-9
        got = marginal_distribution(run_real(l1, encode(init_basis(3, j))))
        assert float(np.abs(got - analytic).max()) <= 1e-9
        full = verify_circuit(c, j, SynthConfig(eps=1e-3))
        assert full.passed and full.g.state_distance <= full.budget
    for marked in range(4):
        c = grover_two_qubit(marked)
        report = verify_circuit(c, 0, level=LoweringLevel.F_ONLY)
        assert report.passed
        l1, _ = transpile(c, LoweringLevel.REAL_ENCODED)
        got = marginal_distribution(run_real(l1, encode(init_basis(2, 0))))
        want = np.eye(4)[marked]
        assert float(np.abs(got - want).max()) <= 1e-9
        assert verify_circuit(c, 0, SynthConfig(eps=1e-3)).passed
    for marked in (-1, 4):
        with pytest.raises(ValueError, match="marked index must be in"):
            grover_two_qubit(marked)
    report_line(6, "qft-3 and grover-2 verify against analytic results", "PASS")


MALFORMED = [
    ("", 1),
    ("# nothing but comments\n", 1),
    ("h 0\nqubits 2\n", 1),
    ("qubits\n", 1),
    ("qubits 2 3\n", 1),
    ("qubits 0\n", 1),
    ("qubits -4\n", 1),
    ("qubits two\n", 1),
    ("qubits 2\nqubits 2\n", 2),
    ("qubits 2\nh 0\nfoo 1\n", 3),
    ("qubits 2\nh\n", 2),
    ("qubits 2\nh 0 1\n", 2),
    ("qubits 2\nrz 0\n", 2),
    ("qubits 2\ncx 0\n", 2),
    ("qubits 2\nh q0\n", 2),
    ("qubits 2\nh 5\n", 2),
    ("qubits 2\ncx 1 1\n", 2),
    ("qubits 2\nrz 0 nan\n", 2),
    ("qubits 2\nrz 0 1e999\n", 2),
    ("qubits 1\nh 0\nrz 0 0x12\n", 3),
]


def test_07_text_format_round_trips_and_rejects_malformed_input(tmp_path, capsys):
    for i in range(500):
        n = 1 + i % 6
        c = random_circuit(n, 5 + i % 26, seed=3000 + i)
        assert parse(emit(c)) == c
        assert emit(parse(emit(c))) == emit(c)
    assert len(MALFORMED) == 20
    for i, (text, line) in enumerate(MALFORMED):
        path = tmp_path / f"bad{i}.rqc"
        path.write_text(text)
        assert main(["run", str(path)]) == EXIT_PARSE, text
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}, "), (text, err)
    report_line(7, "500 round-trips and 20 malformed files behave", "PASS")


def test_08_verification_catches_a_corrupted_angle(tmp_path, capsys, monkeypatch):
    source = tmp_path / "c.rqc"
    source.write_text("qubits 2\nh 0\ncx 0 1\n")
    lowered = tmp_path / "lowered.rqc"
    assert main(["transpile", str(source), "--out", str(lowered)]) == 0
    capsys.readouterr()
    assert main(["verify", str(source)]) == 0
    capsys.readouterr()

    inner = verify_mod.prepare_stages

    def corrupt(c, cfg, level):
        st = inner(c, cfg, level)
        gates = list(st.f.gates)
        # gate 1 is the lowered ry of the first hadamard; its control is
        # the work ancilla, so the nudge always shows in the output state
        gates[1] = dataclasses.replace(gates[1], param=gates[1].param + 1e-3)
        return dataclasses.replace(st, f=Circuit(st.f.num_qubits, gates))

    monkeypatch.setattr(verify_mod, "prepare_stages", corrupt)
    assert main(["verify", str(source)]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "status: FAIL" in out
    assert "stage 'f' distance exceeds 1e-09" in out
    report_line(8, "a 1e-3 angle corruption fails verification", "PASS")
