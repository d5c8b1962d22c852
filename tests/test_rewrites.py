"""The two exact rewrites of normalize_pass, checked rule by rule.

Every case compares the rewritten circuit's unitary with the original's
through tests/_oracles.py::dense_unitary, which runs each basis input
through the dense gate matrices; none goes through rqc.sim.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqc import (
    Circuit,
    Gate,
    GateKind,
    LoweringLevel,
    SynthConfig,
    emit,
    grover_two_qubit,
    parse,
    qft,
    random_circuit,
    transpile,
    verify_circuit,
)
from rqc.library import bench_suite
from rqc.transpile import _pair_cx_sandwiches, normalize_pass

from _oracles import dense_unitary

PI = math.pi
F, RY, RZ, GPHASE = GateKind.F, GateKind.RY, GateKind.RZ, GateKind.GPHASE


def rewritten(c):
    """normalize_pass(c), after checking that its unitary equals c's."""
    out = normalize_pass(c)
    assert np.abs(dense_unitary(out) - dense_unitary(c)).max() <= 1e-12
    return out


def gates(*items):
    return [Gate(kind, qubits, param) for kind, qubits, param in items]


# D in cx(0,1) D cx(0,1), on three qubits: each is block-diagonal in
# qubits 0 and 1
QUALIFYING = [
    *(Gate(k, (q,)) for k in (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)
      for q in (0, 1)),
    Gate(RZ, (0,), 0.3),
    Gate(RZ, (1,), -1.1),
    Gate(GateKind.CZ, (0, 1)),
    Gate(GateKind.CZ, (1, 0)),
    Gate(GateKind.CZ, (1, 2)),
    Gate(GateKind.CX, (0, 2)),
    Gate(GateKind.CX, (1, 2)),
    Gate(F, (0, 2), 0.7),
    Gate(F, (1, 2), -2.0),
    Gate(GPHASE, (), 0.4),
    Gate(GateKind.H, (2,)),
    Gate(RY, (2,), 0.9),
    Gate(GateKind.RX, (2,), 1.3),
    Gate(GateKind.Y, (2,)),
]
# each rotates qubit 0 or 1, so the pair stays two cx
BLOCKING = [
    Gate(GateKind.H, (1,)),
    Gate(RY, (1,), 0.9),
    Gate(GateKind.X, (1,)),
    Gate(GateKind.RX, (0,), 0.5),
    Gate(GateKind.Y, (0,)),
    Gate(F, (2, 0), 0.7),
    Gate(F, (0, 1), 0.7),
    Gate(GateKind.CX, (2, 0)),
    Gate(GateKind.CX, (1, 0)),
    Gate(GateKind.CX, (2, 1)),
]


def test_a_cx_sandwich_becomes_two_quarter_turns_around_each_qualifying_middle():
    for middle in QUALIFYING + [None]:
        body = [] if middle is None else [middle]
        c = Circuit(3, [Gate(GateKind.CX, (0, 1)), *body, Gate(GateKind.CX, (0, 1))])
        assert _pair_cx_sandwiches(c.gates) == {0: 0.5 * PI, len(body) + 1: -0.5 * PI}, middle
        by_hand = Circuit(3, [Gate(F, (0, 1), 0.5 * PI), *body, Gate(F, (0, 1), -0.5 * PI)])
        assert np.abs(dense_unitary(by_hand) - dense_unitary(c)).max() <= 1e-12, middle
        assert rewritten(c).gates == normalize_pass(by_hand).gates, middle
    # every qualifying gate at once
    c = Circuit(3, [Gate(GateKind.CX, (0, 1)), *QUALIFYING, Gate(GateKind.CX, (0, 1))])
    assert _pair_cx_sandwiches(c.gates) == {0: 0.5 * PI, len(QUALIFYING) + 1: -0.5 * PI}
    rewritten(c)


def test_library_controlled_phase_is_a_sandwich():
    # cx(p,q) rz(q) cx(p,q): the rz on the target blocks the two f from
    # merging, so each pair lowers to 2 f gates instead of 16
    out = rewritten(Circuit(2).cx(0, 1).rz(1, -0.25).cx(0, 1).rz(1, 0.25).rz(0, 0.25))
    assert out.gates == gates(
        (F, (0, 1), 0.5 * PI), (RZ, (1,), -0.25), (F, (0, 1), -0.5 * PI),
        (RZ, (1,), 0.25), (RZ, (0,), 0.25),
    )


def test_a_blocking_middle_leaves_the_pair_unrewritten():
    for middle in BLOCKING:
        c = Circuit(3, [Gate(GateKind.CX, (0, 1)), middle, Gate(GateKind.CX, (0, 1))])
        assert _pair_cx_sandwiches(c.gates) == {}, middle
        # only a sandwich makes f(-pi/2); each cx keeps its expansion
        assert Gate(F, (0, 1), -0.5 * PI) not in rewritten(c).gates, middle


def test_pairs_close_and_drop_independently():
    c = Circuit(4).cx(0, 1).cx(2, 3).rz(1, 0.2).cx(0, 1).h(3).cx(2, 3)
    # (0,1) closes around cx(2,3) and rz; h on 3 drops (2,3)
    assert _pair_cx_sandwiches(c.gates) == {0: 0.5 * PI, 3: -0.5 * PI}
    rewritten(c)
    # the cx that closes (0,1) rotates qubit 1 and so drops (1,2)
    c = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1).cx(1, 2)
    assert _pair_cx_sandwiches(c.gates) == {0: 0.5 * PI, 2: -0.5 * PI}
    rewritten(c)
    # a cx onto the target of an open pair drops it and opens its own
    c = Circuit(3).cx(0, 2).cx(1, 2).cx(0, 2).cx(1, 2)
    assert _pair_cx_sandwiches(c.gates) == {}
    rewritten(c)


def test_rz_merges_across_the_control_of_an_f():
    out = rewritten(Circuit(2).rz(0, 0.3).f(0, 1, 0.7).rz(0, 0.5))
    assert out.gates == gates((RZ, (0,), 0.3 + 0.5), (F, (0, 1), 0.7))


def test_ry_merges_across_the_target_of_an_f():
    out = rewritten(Circuit(2).ry(1, 0.3).f(0, 1, 0.7).ry(1, 0.5))
    assert out.gates == gates((RY, (1,), 0.3 + 0.5), (F, (0, 1), 0.7))


def test_f_merges_across_an_f_that_shares_its_target_or_its_control():
    out = rewritten(Circuit(3).f(0, 2, 0.3).f(1, 2, 0.7).f(0, 2, 0.5))
    assert out.gates == gates((F, (0, 2), 0.3 + 0.5), (F, (1, 2), 0.7))
    out = rewritten(Circuit(3).f(0, 1, 0.3).f(0, 2, 0.7).f(0, 1, 0.5))
    assert out.gates == gates((F, (0, 1), 0.3 + 0.5), (F, (0, 2), 0.7))


def test_gphase_gates_sum_into_the_first():
    out = rewritten(Circuit(2).gphase(0.25).h(0).gphase(0.5).f(1, 0, 0.1))
    assert out.gates == gates(
        (GPHASE, (), 0.75), (RZ, (0,), PI), (RY, (0,), 0.25 * PI), (F, (1, 0), 0.1)
    )


def test_a_merge_that_sums_to_zero_drops_the_gate():
    assert rewritten(Circuit(1).s(0).sdg(0)).gates == []
    assert rewritten(Circuit(1).t(0).tdg(0).gphase(0.5).gphase(-0.5)).gates == []
    assert rewritten(Circuit(2).cx(0, 1).cx(0, 1)).gates == []
    # -0.0 sums to 0.0 with either sign
    assert rewritten(Circuit(1).ry(0, -0.0).ry(0, 0.0)).gates == []
    # a zero angle that merges with nothing stays, and angles are not
    # reduced mod 2pi: rz(pi) rz(pi) is rz(2pi), not the identity
    assert rewritten(Circuit(1).ry(0, 0.0)).gates == gates((RY, (0,), 0.0))
    assert rewritten(Circuit(1).z(0).z(0)).gates == gates((RZ, (0,), 2 * PI))


def test_a_blocking_gate_keeps_rotations_apart():
    # rz across the target of an f
    c = Circuit(2).rz(1, 0.3).f(0, 1, 0.7).rz(1, 0.5)
    assert rewritten(c).gates == c.gates
    # ry across the control of an f
    c = Circuit(2).ry(0, 0.3).f(0, 1, 0.7).ry(0, 0.5)
    assert rewritten(c).gates == c.gates
    # f across an ry on its control, and across an f onto its control
    c = Circuit(3).f(0, 1, 0.3).ry(0, 0.2).f(0, 1, 0.5)
    assert rewritten(c).gates == c.gates
    c = Circuit(3).f(0, 1, 0.3).f(2, 0, 0.2).f(0, 1, 0.5)
    assert rewritten(c).gates == c.gates
    # f with swapped operands is another gate
    c = Circuit(2).f(0, 1, 0.3).f(1, 0, 0.5)
    assert rewritten(c).gates == c.gates


def test_a_sum_that_would_round_away_an_angle_is_not_merged():
    # 1e300 + 1 rounds to 1e300, 1e20 + 1 by 1; 1.5e308 + 1.5e308 overflows
    for a, b in ((1e300, 1.0), (1e20, 1.0), (1.5e308, 1.5e308)):
        c = Circuit(1).rz(0, a).rz(0, b)
        assert normalize_pass(c).gates == c.gates, (a, b)
        report = verify_circuit(c, 1, level=LoweringLevel.G_ONLY)
        assert report.passed, report.to_text()
    # a rounding below _MERGE_ROUNDOFF merges, and exact sums of huge
    # angles merge at any size
    assert normalize_pass(Circuit(1).rz(0, 3.0).rz(0, 1e-300)).gates == gates((RZ, (0,), 3.0))
    assert normalize_pass(Circuit(1).rz(0, 1e300).rz(0, -1e300)).gates == []
    assert normalize_pass(Circuit(1).rz(0, 1e300).rz(0, 1e300)).gates == gates((RZ, (0,), 2e300))


def test_rewrites_read_only_qubit_equality():
    # verify packs a circuit onto its active qubits before lowering; that
    # is sound because relabelling the qubits commutes with normalize_pass
    rng = np.random.default_rng(90)
    for seed in range(30):
        c = random_circuit(4, 30, seed)
        label = [int(q) for q in rng.permutation(7)[:4]]

        def relabel(circuit, n):
            return Circuit(n, [Gate(g.kind, tuple(label[q] for q in g.qubits), g.param)
                               for g in circuit.gates])

        assert normalize_pass(relabel(c, 7)) == relabel(normalize_pass(c), 7)


def test_transpile_and_verify_lower_through_the_rewrites():
    # the console-script check in CI: one sandwich, then s and t merge
    c = parse("qubits 2\ncx 0 1\nrz 1 0.3\ncx 0 1\ns 0\nt 0\n")
    lowered, _ = transpile(c, LoweringLevel.F_ONLY)
    assert len(lowered.gates) == 4
    assert emit(lowered).count("\n") == 5
    assert verify_circuit(c, 3, level=LoweringLevel.G_ONLY).passed
    # qft(3) lowered to 87 f gates with neither rewrite
    _, report = transpile(qft(3), LoweringLevel.F_ONLY)
    assert report.gate_counts["f"] == 42
    assert verify_circuit(qft(3), 0, level=LoweringLevel.F_ONLY).f.gate_count == 42


# the last value of each column of the README table "Rewrites before
# encoding": f gates after the rewrites, sum(k) and the budget to four
# places after the rewrites and the synthesizer's sign choice, at the
# default SynthConfig
SUITE = dict(bench_suite())
README_TABLE = [
    pytest.param(qft(3), 42, 37_118, 0.0152, id="qft(3)"),
    pytest.param(qft(4), 79, 73_729, 0.0274, id="qft(4)"),
    pytest.param(qft(5), 97, 100_881, 0.0365, id="qft(5)"),
    pytest.param(grover_two_qubit(0), 34, 29_070, 0.0122, id="grover_two_qubit(0)"),
    pytest.param(grover_two_qubit(1), 30, 25_194, 0.0106, id="grover_two_qubit(1)"),
    pytest.param(grover_two_qubit(2), 30, 25_194, 0.0106, id="grover_two_qubit(2)"),
    pytest.param(grover_two_qubit(3), 26, 21_318, 0.0090, id="grover_two_qubit(3)"),
    pytest.param(SUITE["random-2q"], 33, 30_807, 0.0112, id="random-2q"),
    pytest.param(SUITE["random-3q"], 26, 31_471, 0.0105, id="random-3q"),
    pytest.param(SUITE["random-4q"], 34, 31_393, 0.0117, id="random-4q"),
    pytest.param(SUITE["random-5q"], 38, 36_206, 0.0139, id="random-5q"),
    pytest.param(SUITE["random-6q"], 42, 44_078, 0.0140, id="random-6q"),
    pytest.param(SUITE["random-7q"], 37, 31_218, 0.0131, id="random-7q"),
    pytest.param(SUITE["random-8q"], 64, 47_738, 0.0201, id="random-8q"),
]


@pytest.mark.parametrize("c, f_gates, sum_k, budget", README_TABLE)
def test_the_readme_table_after_the_rewrites(c, f_gates, sum_k, budget):
    _, report = transpile(c, LoweringLevel.G_ONLY)
    assert (report.gate_counts["f"], report.gate_counts["g"]) == (f_gates, sum_k)
    assert round(report.budget, 4) == budget


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_rewritten_unitary_equals_the_original_and_verify_passes(n, size, seed, data):
    c = random_circuit(n, size, seed)
    rewritten(c)
    init = data.draw(st.integers(0, (1 << n) - 1))
    for level in LoweringLevel:
        report = verify_circuit(c, init, SynthConfig(eps=1e-2), level)
        assert report.passed, report.to_text()
