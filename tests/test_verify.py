import dataclasses
import hashlib
import math

import numpy as np
import pytest

import rqc.verify as verify_mod
from rqc import (
    Circuit,
    Gate,
    GateKind,
    LoweringLevel,
    SynthConfig,
    circuit_digest,
    emit,
    parse,
    qft,
    random_circuit,
    tv_distance,
    verify_circuit,
)


def test_tv_distance():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert tv_distance(np.array([0.7, 0.3]), np.array([0.3, 0.7])) == pytest.approx(0.4)
    with pytest.raises(ValueError, match="different outcome counts"):
        tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


def test_exact_stage_tolerance_is_pinned():
    assert verify_mod.EXACT_STAGE_TOL == 1e-9


def test_digest_is_sha256_of_the_canonical_text():
    c = Circuit(2).h(0).cx(0, 1)
    assert circuit_digest(c) == hashlib.sha256(emit(c).encode()).hexdigest()


def test_verify_small_circuit_passes():
    report = verify_circuit(Circuit(2).h(0).cx(0, 1).s(1), init_basis_index=1)
    assert report.passed
    assert report.status == "PASS"
    assert report.reason is None
    assert report.real.state_distance <= 1e-12
    assert report.real.tv_distance <= 1e-12
    assert report.f.state_distance <= 1e-12
    assert report.g.state_distance <= report.budget


def test_verify_empty_circuit():
    report = verify_circuit(Circuit(1))
    assert report.passed
    assert report.real.gate_count == 0
    assert report.fixed_gate_count == 0
    assert report.budget == 0.0
    assert report.g.state_distance == 0.0
    text = report.to_text()
    assert "g_max_k: 0" in text
    assert text.endswith("status: PASS\n")


def test_verify_is_deterministic():
    c = random_circuit(3, 20, seed=90)
    a = verify_circuit(c, 2).to_text()
    b = verify_circuit(c, 2).to_text()
    assert a == b


def test_report_text_layout():
    c = Circuit(2).h(0).rz(1, 0.4)
    report = verify_circuit(c, 1, SynthConfig(eps=1e-3))
    keys = [line.split(":")[0] for line in report.to_text().splitlines()]
    assert keys == [
        "digest",
        "num_qubits",
        "num_gates",
        "init_index",
        "level",
        "phi",
        "eps",
        "k_max",
        "real_gate_count",
        "real_state_distance",
        "real_tv_distance",
        "f_gate_count",
        "f_state_distance",
        "f_tv_distance",
        "g_gate_count",
        "g_max_k",
        "g_budget",
        "g_state_distance",
        "g_tv_distance",
        "status",
    ]
    text = report.to_text()
    assert f"digest: {circuit_digest(c)}\n" in text
    assert "level: g\n" in text
    assert "init_index: 1\n" in text


def test_verify_at_exact_levels_only():
    c = Circuit(2).t(0).cz(0, 1)
    report = verify_circuit(c, 0, level=LoweringLevel.REAL_ENCODED)
    assert report.passed
    assert report.f is None and report.g is None
    text = report.to_text()
    assert "f_gate_count" not in text and "g_budget" not in text
    report = verify_circuit(c, 0, level=LoweringLevel.F_ONLY)
    assert report.f is not None and report.g is None


def test_tv_never_exceeds_state_distance():
    # half the l1 distance of the distributions is bounded by the l2
    # distance of the states (Cauchy-Schwarz against the sum vector)
    for seed in range(5):
        c = random_circuit(3, 15, seed=91 + seed)
        report = verify_circuit(c, seed % 8, SynthConfig(eps=1e-3))
        for stage in (report.real, report.f, report.g):
            assert stage.tv_distance <= stage.state_distance + 1e-12


def test_budget_scales_with_eps():
    c = qft(3)
    loose = verify_circuit(c, 0, SynthConfig(eps=1e-3))
    tight = verify_circuit(c, 0, SynthConfig(eps=1e-5))
    assert loose.passed and tight.passed
    assert tight.budget < loose.budget
    assert tight.g.state_distance <= tight.budget


def test_verify_rejects_bad_inputs():
    with pytest.raises(ValueError, match="out of range"):
        verify_circuit(Circuit(2).h(0), init_basis_index=9)
    bad = Circuit(1)
    bad.gates.append(Gate(GateKind.RZ, (0,)))
    with pytest.raises(ValueError, match="needs an angle"):
        verify_circuit(bad)


def corrupted_stages(stage_name, delta):
    # build real stages, then nudge every angle of the named stage
    inner = verify_mod.prepare_stages

    def nudge(circuit):
        gates = [dataclasses.replace(g, param=g.param + delta) for g in circuit.gates]
        return Circuit(circuit.num_qubits, gates)

    def wrapper(c, cfg, level):
        st = inner(c, cfg, level)
        if stage_name == "real":
            return dataclasses.replace(st, l1=nudge(st.l1))
        if stage_name == "f":
            return dataclasses.replace(st, l2=nudge(st.l2))
        return dataclasses.replace(st, budget=0.0)

    return wrapper


def test_verify_catches_a_corrupted_exact_stage(monkeypatch):
    c = Circuit(2).h(0).cx(0, 1)
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("f", 1e-3))
    report = verify_circuit(c, 0)
    assert not report.passed
    assert report.status == "FAIL"
    assert report.reason == "stage 'f' distance exceeds 1e-09"
    assert "reason: stage 'f' distance exceeds 1e-09" in report.to_text()

    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("real", 1e-3))
    report = verify_circuit(c, 0)
    assert report.reason == "stage 'real' distance exceeds 1e-09"


def test_verify_catches_a_budget_violation(monkeypatch):
    # h spreads weight first, so the rz synthesis error is visible
    c = Circuit(1).h(0).rz(0, 0.3)
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("budget", 0.0))
    report = verify_circuit(c, 0, SynthConfig(eps=1e-3))
    assert not report.passed
    assert report.reason == "budget violated"


def test_errors_in_one_plane_meet_the_budget_with_roundoff():
    # every rotation error here lies in one plane, so the true state
    # distance equals the budget and float64 roundoff puts the computed
    # one 3e-16 above it
    c = parse("qubits 2\nsdg 1\ns 0\ns 1\ngphase 6.2147916694838834\n")
    report = verify_circuit(c, 3, SynthConfig(eps=1e-6, k_max=10**7))
    assert report.g.state_distance > report.budget
    assert report.g.state_distance <= report.budget + verify_mod.BUDGET_ROUNDOFF_TOL
    assert report.passed


def test_small_corruptions_below_tolerance_still_pass(monkeypatch):
    # a 1e-12 angle nudge stays inside the 1e-9 stage tolerance; the
    # verifier is a tolerance check, not a syntactic diff
    c = Circuit(2).h(0).cx(0, 1)
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("f", 1e-12))
    assert verify_circuit(c, 0).passed


def test_level_real_builds_no_work_ancilla_register(monkeypatch):
    def refuse(state):
        raise AssertionError("level real has no stage with a work ancilla")

    monkeypatch.setattr(verify_mod, "add_work_ancilla", refuse)
    report = verify_circuit(random_circuit(4, 30, 7), 3, level=LoweringLevel.REAL_ENCODED)
    assert report.status == "PASS"
    assert (report.f, report.g) == (None, None)
