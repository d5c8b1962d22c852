import importlib
import math
import tracemalloc

import numpy as np
import pytest

from rqc import (
    Circuit,
    DEFAULT_PHI,
    Gate,
    GateKind,
    LoweringLevel,
    NotReachable,
    SynthConfig,
    SynthesizedGate,
    decode,
    encode,
    gate_matrix,
    grover_two_qubit,
    init_basis,
    is_real,
    qft,
    random_circuit,
    run_real,
    synthesize,
    synthesize_all,
    transpile,
)
from rqc.encoding import add_work_ancilla, strip_work_ancilla
from rqc.library import bench_suite
from rqc.sim import RealState
from rqc.synth import _least_up_to_half_turn
from rqc.transpile import (
    achieved_circuit,
    encode_pass,
    lower_ry_pass,
    materialize_fixed,
    normalize_pass,
)
from rqc.verify import verify_circuit

from _oracles import dense_apply, dense_unitary, mp_distance, random_complex_state
from test_synth import record_searches

# the package attribute rqc.transpile is the function, not the module
transpile_mod = importlib.import_module("rqc.transpile")

PI = math.pi
NORMAL = {GateKind.RZ, GateKind.RY, GateKind.F, GateKind.GPHASE}


def test_normalize_passes_normal_kinds_through():
    c = Circuit(2).rz(0, 0.3).ry(1, -0.4).f(1, 0, 2.2).gphase(0.1)
    assert normalize_pass(c).gates == c.gates


def test_normalize_golden_expansions():
    assert normalize_pass(Circuit(1).x(0)).gates == [
        Gate(GateKind.RZ, (0,), PI),
        Gate(GateKind.RY, (0,), 0.5 * PI),
    ]
    assert normalize_pass(Circuit(1).h(0)).gates == [
        Gate(GateKind.RZ, (0,), PI),
        Gate(GateKind.RY, (0,), 0.25 * PI),
    ]
    assert normalize_pass(Circuit(1).s(0)).gates == [Gate(GateKind.RZ, (0,), 0.5 * PI)]
    assert normalize_pass(Circuit(1).z(0)).gates == [Gate(GateKind.RZ, (0,), PI)]
    assert normalize_pass(Circuit(1).y(0)).gates == [
        Gate(GateKind.RY, (0,), 0.5 * PI),
        Gate(GateKind.GPHASE, (), 0.5 * PI),
    ]
    assert normalize_pass(Circuit(1).t(0)).gates == [Gate(GateKind.RZ, (0,), 0.25 * PI)]
    assert normalize_pass(Circuit(1).sdg(0)).gates == [Gate(GateKind.RZ, (0,), -0.5 * PI)]
    assert normalize_pass(Circuit(1).tdg(0)).gates == [Gate(GateKind.RZ, (0,), -0.25 * PI)]
    # control 1, target 0: the rotations sit on the target, one rz on the control
    cz = [
        Gate(GateKind.RY, (0,), 0.25 * PI),
        Gate(GateKind.RZ, (0,), 0.5 * PI),
        Gate(GateKind.F, (1, 0), 0.5 * PI),
        Gate(GateKind.RZ, (0,), 0.5 * PI),
        Gate(GateKind.RY, (0,), 0.25 * PI),
        Gate(GateKind.RZ, (0,), -PI),
        Gate(GateKind.RZ, (1,), 0.5 * PI),
    ]
    assert normalize_pass(Circuit(2).cz(1, 0)).gates == cz
    assert normalize_pass(Circuit(2).cx(1, 0)).gates == cz + [Gate(GateKind.F, (1, 0), 0.5 * PI)]
    # rx(t) is s, ry(t/2), sdg at every angle: no phase item, no dropped
    # zero, no reduction of t
    for t, half in ((1.25, 0.625), (4.0, 2.0), (-2.5, -1.25), (-0.0, -0.0), (1e300, 5e299)):
        assert normalize_pass(Circuit(2).rx(1, t)).gates == [
            Gate(GateKind.RZ, (1,), 0.5 * PI),
            Gate(GateKind.RY, (1,), half),
            Gate(GateKind.RZ, (1,), -0.5 * PI),
        ]


def test_normalize_preserves_the_full_unitary():
    # global phase included, which is what makes the encoding stage exact
    rng = np.random.default_rng(50)
    for k in GateKind:
        if k.num_operands != 1:
            continue
        params = [float(rng.uniform(-7, 7)) if k.num_params else None for _ in range(4)]
        if k is GateKind.RX:
            params += [5e-324, -5e-324, PI, -PI, 1e300, -1e300]
        for param in params:
            g = Gate(k, (0,), param)
            c = Circuit(1)
            c.gates.append(g)
            got = dense_unitary(normalize_pass(c))
            assert np.allclose(got, gate_matrix(g), atol=1e-12), k


def test_normalize_gphase_only_circuit():
    got = dense_unitary(normalize_pass(Circuit(1).tdg(0).sdg(0)))
    want = gate_matrix(Gate(GateKind.SDG, (0,))) @ gate_matrix(Gate(GateKind.TDG, (0,)))
    assert np.allclose(got, want, atol=1e-12)


def test_cx_cz_expansions_are_exact_and_fixed_size():
    for kind, count in ((GateKind.CZ, 7), (GateKind.CX, 8)):
        for qubits in ((0, 1), (1, 0)):
            c = Circuit(2)
            c.gates.append(Gate(kind, qubits))
            out = normalize_pass(c)
            assert len(out.gates) == count
            assert {g.kind for g in out.gates} <= NORMAL
            # every f in the expansion is the quarter-turn gate
            for g in out.gates:
                if g.kind is GateKind.F:
                    assert g.param == 0.5 * PI
                    assert g.qubits == qubits
            want = dense_unitary(c)
            assert np.allclose(dense_unitary(out), want, atol=1e-12)


def test_cx_factors_through_cz():
    cz = gate_matrix(Gate(GateKind.CZ, (0, 1)))
    f90 = gate_matrix(Gate(GateKind.F, (0, 1), 0.5 * PI))
    cx = gate_matrix(Gate(GateKind.CX, (0, 1)))
    assert np.allclose(f90 @ cz, cx, atol=1e-15)


def test_normalize_on_larger_random_circuits():
    rng = np.random.default_rng(51)
    for seed in range(6):
        n = 2 + seed % 3
        c = random_circuit(n, 12, seed + 60)
        out = normalize_pass(c)
        assert {g.kind for g in out.gates} <= NORMAL
        assert np.allclose(dense_unitary(out), dense_unitary(c), atol=1e-11)


def test_transpile_validates_input():
    # the entry point validates; the passes behind it assume a valid circuit
    c = Circuit(1)
    c.gates.append(Gate(GateKind.RZ, (0,)))
    with pytest.raises(ValueError, match="needs an angle"):
        transpile(c)


def test_encode_pass_rule_table():
    c = Circuit(3).rz(1, 0.7).ry(2, -0.2).f(0, 2, 1.1).gphase(0.9)
    out = encode_pass(c)
    assert out.num_qubits == 4
    assert out.gates == [
        Gate(GateKind.F, (1, 3), 0.7),
        Gate(GateKind.RY, (2,), -0.2),
        Gate(GateKind.F, (0, 2), 1.1),
        Gate(GateKind.RY, (3,), 0.9),
    ]
    assert all(is_real(g) for g in out.gates)


def test_encode_pass_rejects_unnormalized_gates():
    with pytest.raises(ValueError, match="gate 0: x is not a normalized kind"):
        encode_pass(Circuit(1).x(0))


def rule_gates(num_qubits, angles):
    for t in angles:
        for q in range(num_qubits):
            yield Gate(GateKind.RZ, (q,), t)
            yield Gate(GateKind.RY, (q,), t)
        for cq in range(num_qubits):
            for tq in range(num_qubits):
                if cq != tq:
                    yield Gate(GateKind.F, (cq, tq), t)
        yield Gate(GateKind.GPHASE, (), t)


def test_rewrite_rules_are_exact_identities_on_basis_vectors():
    # decode(encoded-rule applied to e_m) == gate applied to decode(e_m)
    # for every basis vector of the encoded register
    angles = (0.0, 0.3, 0.5 * PI, PI, -2.5)
    for n in (1, 2):
        for g in rule_gates(n, angles):
            c = Circuit(n)
            c.gates.append(g)
            enc = encode_pass(c)
            for m in range(2 << n):
                e = RealState(n + 1, np.eye(2 << n)[m])
                got = decode(run_real(enc, e)).amps
                want = dense_apply(g, decode(e).amps)
                assert np.max(np.abs(got - want)) <= 1e-15, (g, m)


def test_rewrite_rules_are_exact_on_random_states():
    rng = np.random.default_rng(52)
    angles = tuple(float(a) for a in rng.uniform(-7, 7, size=4))
    for n in (1, 3):
        for g in rule_gates(n, angles):
            c = Circuit(n)
            c.gates.append(g)
            enc = encode_pass(c)
            vec = random_complex_state(rng, n)
            s = RealState(n + 1, np.concatenate([vec.real, vec.imag]))
            got = decode(run_real(enc, s)).amps
            want = dense_apply(g, vec)
            assert np.max(np.abs(got - want)) <= 1e-14, g


def test_lower_ry_rule_table():
    c = Circuit(4)
    c.gates.append(Gate(GateKind.RY, (1,), 0.8))
    c.gates.append(Gate(GateKind.F, (0, 3), -0.6))
    out = lower_ry_pass(c)
    assert out.num_qubits == 5
    assert out.gates == [
        Gate(GateKind.F, (4, 1), 0.8),
        Gate(GateKind.F, (0, 3), -0.6),
    ]


def test_lower_ry_rejects_other_kinds():
    c = Circuit(2).rz(0, 0.5)
    with pytest.raises(ValueError, match="gate 0: only ry and f"):
        lower_ry_pass(c)


def test_lowered_circuit_acts_identically_with_the_work_ancilla():
    rng = np.random.default_rng(53)
    c = random_circuit(3, 20, seed=70)
    l1 = encode_pass(normalize_pass(c))
    l2 = lower_ry_pass(l1)
    vec = random_complex_state(rng, 3)
    enc = RealState(4, np.concatenate([vec.real, vec.imag]))
    out1 = run_real(l1, enc)
    out2 = strip_work_ancilla(run_real(l2, add_work_ancilla(enc)), tol=1e-20)
    assert np.max(np.abs(out1.amps - out2.amps)) <= 1e-13


def test_work_ancilla_never_moves():
    # after every prefix of the lowered circuit, all weight stays on |1>
    c = random_circuit(2, 15, seed=71)
    l2 = lower_ry_pass(encode_pass(normalize_pass(c)))
    state = add_work_ancilla(encode(init_basis(2, 1)))
    half = len(state.amps) >> 1
    for g in l2.gates:
        state = run_real(Circuit(l2.num_qubits, [g]), state)
        assert float(np.abs(state.amps[:half]).max()) == 0.0


def test_transpile_single_rz_to_level_real():
    lowered, report = transpile(Circuit(2).rz(0, 0.5 * PI), LoweringLevel.REAL_ENCODED)
    assert lowered.num_qubits == 3
    assert lowered.gates == [Gate(GateKind.F, (0, 2), 0.5 * PI)]
    assert report.level is LoweringLevel.REAL_ENCODED
    assert report.input_gate_count == 1
    assert report.gate_counts == {"real": 1}
    assert report.output_gate_count == 1
    assert (report.ri_ancilla, report.work_ancilla) == (2, None)
    assert report.syntheses == ()
    assert report.budget is None
    assert report.max_k is None


def test_transpile_levels_nest():
    c = random_circuit(3, 18, seed=72)
    l1, r1 = transpile(c, LoweringLevel.REAL_ENCODED)
    l2, r2 = transpile(c, LoweringLevel.F_ONLY)
    l3, r3 = transpile(c, LoweringLevel.G_ONLY, SynthConfig(eps=1e-2))
    assert all(is_real(g) for g in l1.gates)
    assert all(g.kind is GateKind.F for g in l2.gates)
    assert all(g.kind is GateKind.F and g.param == DEFAULT_PHI for g in l3.gates)
    assert l1.num_qubits == 4 and l2.num_qubits == 5 and l3.num_qubits == 5
    assert r2.gate_counts["real"] == r1.gate_counts["real"]
    assert r2.gate_counts["f"] == r2.gate_counts["real"]
    assert r3.gate_counts["g"] == sum(s.result.k for s in r3.syntheses)
    assert len(l3.gates) == r3.gate_counts["g"]
    assert (r3.ri_ancilla, r3.work_ancilla) == (3, 4)
    assert r3.budget == pytest.approx(
        sum(2 * abs(math.sin(0.5 * s.result.error)) for s in r3.syntheses), abs=1e-18
    )
    assert r3.max_k == max(s.result.k for s in r3.syntheses)


def test_gate_count_linear_bound():
    # each 1q gate costs at most 3 level-'real' gates (rx), cx/cz at most
    # 8, rz/ry/f/gphase exactly 1
    for seed in range(8):
        c = random_circuit(1 + seed % 4, 30, seed=80 + seed)
        n1 = sum(1 for g in c.gates if g.kind.num_operands == 1)
        n2 = sum(1 for g in c.gates if g.kind.num_operands == 2)
        n0 = sum(1 for g in c.gates if g.kind.num_operands == 0)
        _, report = transpile(c, LoweringLevel.REAL_ENCODED)
        assert report.gate_counts["real"] <= 3 * n1 + 8 * n2 + n0
    # every rx on its own qubit costs exactly 3, whatever its angle: the
    # row has no angle-dependent item, zero angles included. On shared
    # qubits the rows merge, so k of them cost at most 3k
    rng = np.random.default_rng(52)
    angles = [0.0, -0.0, PI, 1e300] + [float(t) for t in rng.uniform(-20, 20, 6)]
    for k in (1, 3, len(angles)):
        c = Circuit(k)
        for q, t in enumerate(angles[:k]):
            c.rx(q, t)
        lowered, _ = transpile(c, LoweringLevel.F_ONLY)
        assert len(lowered.gates) == 3 * k
        c = Circuit(2)
        for t in angles[:k]:
            c.rx(int(rng.integers(2)), t)
        lowered, _ = transpile(c, LoweringLevel.F_ONLY)
        assert len(lowered.gates) <= 3 * k


def test_a_register_wider_than_any_list_lowers():
    # the passes keep state only for the qubits that gates touch, so the
    # declared width is just a number: 10**20 fits no index-sized list
    wide, _ = transpile(Circuit(10**20).h(0).cx(0, 5), "f")
    narrow, _ = transpile(Circuit(6).h(0).cx(0, 5), "f")
    assert wide.num_qubits == 10**20 + 2
    # the tag and work ancillas are the two qubits above the register
    ancilla = {6: 10**20, 7: 10**20 + 1}
    assert wide.gates == [
        Gate(g.kind, tuple(ancilla.get(q, q) for q in g.qubits), g.param) for g in narrow.gates
    ]


def test_normalize_memory_does_not_grow_with_the_register():
    c = Circuit(10**6).h(0)
    tracemalloc.start()
    try:
        normalize_pass(c)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_transpile_angle_already_on_the_orbit():
    lowered, report = transpile(Circuit(1).ry(0, DEFAULT_PHI), LoweringLevel.G_ONLY)
    assert len(lowered.gates) == 1
    assert lowered.gates[0] == Gate(GateKind.F, (2, 0), DEFAULT_PHI)
    assert report.syntheses[0].result.k == 1
    assert report.syntheses[0].result.error == 0.0
    assert report.budget == 0.0
    assert report.max_k == 1


def test_materialized_and_achieved_forms_agree():
    c = random_circuit(2, 10, seed=73)
    cfg = SynthConfig(eps=3e-2)
    l2, _ = transpile(c, LoweringLevel.F_ONLY)
    synths = synthesize_all(l2, cfg)
    fixed = materialize_fixed(l2, synths, cfg.phi)
    folded = achieved_circuit(l2, synths)
    assert len(folded.gates) == len(l2.gates)
    assert len(fixed.gates) == sum(s.result.k for s in synths)
    # one shared Gate object per qubit pair, so equal runs are identity runs
    by_pair = {g.qubits: g for g in fixed.gates}
    assert len(by_pair) == len({g.qubits for g in l2.gates}) > 1
    assert all(g is by_pair[g.qubits] for g in fixed.gates)
    init = add_work_ancilla(encode(init_basis(2, 3)))
    a = run_real(fixed, init)
    b = run_real(folded, init)
    assert np.max(np.abs(a.amps - b.amps)) <= 1e-9


def test_synthesize_all_flags_the_failing_gate():
    # the unreachable angle repeats; the first gate that carries it is named
    c = Circuit(3)
    for theta in (DEFAULT_PHI, 1.0, DEFAULT_PHI, 1.0, 2.0):
        c.gates.append(Gate(GateKind.F, (1, 2), theta))
    with pytest.raises(NotReachable) as e:
        synthesize_all(c, SynthConfig(eps=1e-15, k_max=50))
    assert e.value.gate_index == 1
    assert e.value.theta == 1.0


def test_each_synthesis_reports_its_own_unreachable_gate():
    # the same unreachable angle at gate 1 of one circuit and gate 3 of
    # another, once with the work ancilla controlling it; a miss is
    # never stored, so each call raises its own NotReachable
    cfg = SynthConfig(eps=1e-15, k_max=50)
    first, second = Circuit(3), Circuit(3)
    for theta in (DEFAULT_PHI, 1.0, 2.0):
        first.gates.append(Gate(GateKind.F, (2, 0), theta))
    for theta in (DEFAULT_PHI, 2 * DEFAULT_PHI, DEFAULT_PHI, 1, 1.0):
        second.gates.append(Gate(GateKind.F, (0, 1), theta))
    raised = []
    for c, index, theta in ((first, 1, 1.0), (second, 3, 1), (first, 1, 1.0)):
        with pytest.raises(NotReachable) as e:
            synthesize_all(c, cfg)
        assert (e.value.gate_index, e.value.theta) == (index, theta)
        assert type(e.value.theta) is type(theta)
        raised.append(e.value)
    assert len({id(e) for e in raised}) == 3


def test_synthesize_all_synthesizes_each_distinct_angle_once(monkeypatch):
    c = random_circuit(3, 40, seed=5)
    l2, _ = transpile(c, LoweringLevel.F_ONLY)
    l2.gates += [Gate(GateKind.F, (0, 1), 0.0), Gate(GateKind.F, (1, 2), -0.0)]
    want = synthesize_all(l2, SynthConfig(eps=1e-3))
    # a fresh config searches every angle it is asked, and with nothing
    # evicted its memos keep every search
    cfg = SynthConfig(eps=1e-3)
    searches = record_searches(monkeypatch)
    got = synthesize_all(l2, cfg)
    searched = len(searches)
    own_searches = [theta for name, theta, _ in searches if name == "synthesize"]
    half_turns = [theta for name, theta, _ in searches if name != "synthesize"]
    assert got == want
    work = l2.num_qubits - 1
    angles = {g.param for g in l2.gates}
    work_angles = {g.param for g in l2.gates if g.qubits[0] == work}
    # the work-controlled angles whose search over both signs lands by
    # theta, and so needs no search of theta's own, on any gate
    landed = set()
    for theta in work_angles:
        half = _least_up_to_half_turn(theta, cfg)
        if half is not None and half[0] is None:
            landed.add(theta)
    assert landed & {g.param for g in l2.gates if g.qubits[0] != work}
    # one search per distinct angle, theta's own or the one over both
    # signs, and at most one more per distinct work-controlled angle
    assert len(half_turns) == len(set(half_turns)) == len(cfg._half_turn) == len(work_angles)
    assert len(own_searches) == len(set(own_searches)) == len(cfg._own) == len(angles - landed)
    assert searched <= len(angles) + len(work_angles) < 2 * len(l2.gates)
    # the angles searched are those: asking again searches nothing
    for theta in angles - landed:
        synthesize(theta, cfg)
    assert len(searches) == searched
    # and only those: with every angle asked, the own memo holds one
    # entry per angle, so no search ran on a key foreign to the circuit
    for theta in angles:
        synthesize(theta, cfg)
    assert len(cfg._own) == len(angles)
    for s, g in zip(got, l2.gates):
        own = synthesize(g.param, cfg)
        assert s == SynthesizedGate(s.index, g.param, own) or g.qubits[0] == work
    assert [math.copysign(1.0, s.target) for s in got[-2:]] == [1.0, -1.0]


# level-'f' circuits whose work-controlled angles take either sign
SIGN_CORPUS = (
    [qft(n) for n in (3, 4, 5)]
    + [grover_two_qubit(m) for m in range(4)]
    + [c for _, c in bench_suite()]
    + [random_circuit(2 + s % 5, 6 + s % 20, seed=4000 + s) for s in range(24)]
)
SIGN_CONFIGS = [SynthConfig(eps=1e-3), SynthConfig(eps=1e-6, k_max=10**7)]


def flipped(c, synths):
    return [s.index for s, g in zip(synths, c.gates, strict=True) if s.target != g.param]


@pytest.mark.parametrize("cfg", SIGN_CONFIGS, ids=["eps1e-3", "eps1e-6"])
def test_a_work_controlled_rotation_takes_the_sign_that_needs_fewer_gates(cfg):
    total_flips = saved = 0
    for c in SIGN_CORPUS:
        f, _ = transpile(c, LoweringLevel.F_ONLY)
        work = f.num_qubits - 1
        synths = synthesize_all(f, cfg)
        flips = flipped(f, synths)
        # only gates that the work ancilla controls flip, in even numbers
        assert all(f.gates[i].qubits[0] == work for i in flips)
        assert len(flips) % 2 == 0
        for s, g in zip(synths, f.gates):
            own = synthesize(g.param, cfg)
            assert s.result.k <= own.k and s.result.error <= own.error
            if s.index not in flips:
                assert s == SynthesizedGate(s.index, g.param, own)
                continue
            theta = g.param
            assert s.target == (theta - PI if theta >= 0 else theta + PI)
            assert s.result.k < own.k
            # the label names the half-turn rotation, which k*phi reaches
            assert mp_distance(s.result.k, cfg.phi, s.target, cfg.eps) <= cfg.eps * (1 + 1e-9)
            assert mp_distance(s.result.k, cfg.phi, theta, cfg.eps) > PI - cfg.eps * (1 + 1e-9)
            saved += own.k - s.result.k
        total_flips += len(flips)
    assert total_flips > 0 and saved > 0


def test_an_odd_flip_is_undone_where_it_saves_least():
    # two work-controlled angles whose half-turns are cheaper, by unequal
    # savings; two gates per angle keep both flips, and a third gate makes
    # one flip undone: the one that saves least, the first of equals
    cfg = SynthConfig()
    work = 2

    def saving(t):
        own, half = synthesize(t, cfg), synthesize(t - PI, cfg)
        return own.k - half.k if half.error <= own.error else 0

    cheaper = [t for t in (0.1 * j for j in range(1, 60)) if saving(t) > 0]
    small = min(cheaper, key=saving)
    large = max(cheaper, key=saving)
    assert saving(small) < saving(large)

    def on_work(*angles):
        return Circuit(3, [Gate(GateKind.F, (work, j % 2), t) for j, t in enumerate(angles)])

    for theta in (small, large):
        assert flipped(on_work(theta, theta), synthesize_all(on_work(theta, theta), cfg)) == [0, 1]
        three = on_work(theta, theta, theta)
        assert flipped(three, synthesize_all(three, cfg)) == [1, 2]
    mixed = on_work(large, small, large)
    assert flipped(mixed, synthesize_all(mixed, cfg)) == [0, 2]
    theta = small
    two = on_work(theta, theta)
    # a gate whose control is not the top qubit never flips
    other = Circuit(3, [Gate(GateKind.F, (1, 0), theta), Gate(GateKind.F, (1, 0), theta)])
    assert flipped(other, synthesize_all(other, cfg)) == []
    # nor does any gate once an f rotates the top qubit: it is then no
    # ancilla in |1>, and f(theta + pi) = Z f(theta) on the control need
    # not cancel in pairs
    rotated = Circuit(3, two.gates + [Gate(GateKind.F, (0, work), 0.5)])
    assert flipped(rotated, synthesize_all(rotated, cfg)) == []


def test_an_odd_number_of_flips_fails_verify_by_a_distance_near_two(monkeypatch):
    # f(theta + pi) = -f(theta) on the work ancilla's |1> block, so one
    # flip more turns the whole level-'g' state by -1
    inner = transpile_mod.synthesize_all

    def one_more_flip(c, cfg):
        synths = inner(c, cfg)
        work = c.num_qubits - 1
        i = next(i for i, g in enumerate(c.gates) if g.qubits[0] == work)
        s = synths[i]
        turned = s.target - PI if s.target >= 0 else s.target + PI
        synths[i] = SynthesizedGate(i, turned, synthesize(turned, cfg))
        return synths

    c = random_circuit(3, 12, seed=8)
    assert verify_circuit(c, 5, level=LoweringLevel.G_ONLY).passed
    monkeypatch.setattr(transpile_mod, "synthesize_all", one_more_flip)
    report = verify_circuit(c, 5, level=LoweringLevel.G_ONLY)
    assert report.status == "FAIL" and report.reason == "budget violated"
    assert abs(report.g.state_distance - 2.0) <= 2 * report.budget


def test_synthesize_all_rejects_non_f_circuits():
    with pytest.raises(ValueError, match="gate 0: expected an f gate"):
        synthesize_all(Circuit(1).ry(0, 0.5), SynthConfig())


def test_transpile_rejects_invalid_circuits():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.CX, (0, 0)))
    with pytest.raises(ValueError, match="duplicate operands"):
        transpile(c)


def test_level_ranks():
    assert list(LoweringLevel) == [
        LoweringLevel.REAL_ENCODED, LoweringLevel.F_ONLY, LoweringLevel.G_ONLY
    ]
    assert LoweringLevel("real") is LoweringLevel.REAL_ENCODED


def test_a_level_string_behaves_like_its_member(monkeypatch):
    c = Circuit(2).h(0).cx(0, 1)
    for level in LoweringLevel:
        assert transpile(c, level.value) == transpile(c, level), level
    lowered, report = transpile(c, "g")
    assert report.level is LoweringLevel.G_ONLY
    assert len(lowered.gates) == report.gate_counts["g"]

    def never(c):
        raise AssertionError("lowered before the level was checked")

    monkeypatch.setattr(transpile_mod, "normalize_pass", never)
    with pytest.raises(ValueError, match="'bogus' is not a valid LoweringLevel"):
        transpile(c, "bogus")
