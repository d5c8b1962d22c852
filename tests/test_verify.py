import dataclasses
import hashlib
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqc.verify as verify_mod
from rqc import (
    AncillaLeakError,
    Circuit,
    ComplexState,
    Gate,
    GateKind,
    LoweringLevel,
    RealState,
    SynthConfig,
    decode,
    emit,
    encode,
    init_basis,
    init_basis_real,
    parse,
    qft,
    random_circuit,
    run_complex,
    run_real,
    transpile,
    verify_circuit,
)
from rqc.cli import EXIT_INVALID, main
from rqc.encoding import add_work_ancilla, encoded_distance, strip_work_ancilla
from rqc.transpile import achieved_circuit, prepare_stages
from rqc.verify import circuit_digest, tv_distance

from _oracles import fsum_distance, gather_apply

# the package attribute rqc.transpile is the function, not the module
transpile_mod = importlib.import_module("rqc.transpile")


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


def test_digest_hashes_emit_on_runs_and_signed_zeros():
    # the digest writes a line per gate; emit formats each run once and
    # splits a run of zero angles by object: the bytes are the same
    zero, neg = Gate(GateKind.F, (1, 0), 0.0), Gate(GateKind.F, (1, 0), -0.0)
    runs = Circuit(2, [zero, neg, neg, Gate(GateKind.F, (1, 0), 0.0)] + [neg] * 3)
    level_g, _ = transpile(qft(3), LoweringLevel.G_ONLY)
    circuits = [runs, level_g, Circuit(1), Circuit(3).gphase(-0.0).rz(2, 1e300)]
    circuits += [random_circuit(n, 30, seed=n) for n in range(1, 8)]
    for c in circuits:
        assert circuit_digest(c) == hashlib.sha256(emit(c).encode()).hexdigest()


def test_verify_small_circuit_passes():
    report = verify_circuit(Circuit(2).h(0).cx(0, 1).s(1), init_basis_index=1)
    assert report.passed
    assert report.status == "PASS"
    assert report.reason is None
    assert report.real.state_distance <= 1e-12
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
        "f_gate_count",
        "f_state_distance",
        "g_gate_count",
        "g_max_k",
        "g_budget",
        "g_state_distance",
        "status",
    ]
    text = report.to_text()
    assert f"digest: {circuit_digest(c)}\n" in text
    assert "level: g\n" in text
    assert "init_index: 1\n" in text
    # numpy's int64 indexes as 1, and the report says 1, as for the int
    # input; a bool is refused, as the engines refuse it
    report = verify_circuit(c, np.int64(1), SynthConfig(eps=1e-3))
    assert type(report.init_index) is int
    assert report.to_text() == text
    with pytest.raises(TypeError, match="^a basis index must be an int, not a bool$"):
        verify_circuit(c, True, SynthConfig(eps=1e-3))


def test_verify_at_exact_levels_only():
    c = Circuit(2).t(0).cz(0, 1)
    report = verify_circuit(c, 0, level=LoweringLevel.REAL_ENCODED)
    assert report.passed
    assert report.f is None and report.g is None
    text = report.to_text()
    assert "f_gate_count" not in text and "g_budget" not in text
    report = verify_circuit(c, 0, level=LoweringLevel.F_ONLY)
    assert report.f is not None and report.g is None


def test_the_verdict_rests_on_state_distance_alone(monkeypatch):
    # each stage's one number decides it: an exact stage passes at the
    # tolerance itself and fails one ulp above it
    c = Circuit(2).h(0).cx(0, 1).rz(1, 0.3)
    tol = verify_mod.EXACT_STAGE_TOL
    for distance, status in ((tol, "PASS"), (math.nextafter(tol, 1.0), "FAIL")):
        monkeypatch.setattr(verify_mod, "encoded_distance", lambda reg, ref: distance)
        report = verify_circuit(c, 0, level=LoweringLevel.F_ONLY)
        assert [s.state_distance for s in (report.real, report.f)] == [distance] * 2
        assert report.status == status
    assert report.reason == "stage 'real' distance exceeds 1e-09"


def test_encoded_distance_leaves_the_register_alone():
    rng = np.random.default_rng(31)
    for k in range(1, 6):
        amps = rng.standard_normal(2 << k)
        ref = rng.standard_normal(1 << k) + 1j * rng.standard_normal(1 << k)
        s, before = RealState(k + 1, amps), amps.copy()
        distance = encoded_distance(s, ComplexState(k, ref))
        assert np.array_equal(s.amps, before)
        assert distance == float(np.linalg.norm(decode(s).amps - ref))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([GateKind.RY, GateKind.RZ, GateKind.RX, GateKind.F, GateKind.GPHASE]),
            st.integers(0, 1),
            st.one_of(st.floats(-1e300, 1e300), st.floats(-10.0, 10.0)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, 3),
)
@example([(GateKind.RX, 0, 5e-324)], 0)
@example([(GateKind.RX, 1, 1e300)], 3)
@example([(GateKind.RY, 0, 1e300), (GateKind.RY, 1, 1e10), (GateKind.GPHASE, 0, 5e-324)], 1)
@example([(GateKind.RY, 0, 0.0), (GateKind.RY, 1, -0.0), (GateKind.GPHASE, 0, -0.0)], 2)
@example([(GateKind.RY, 1, 5e-324), (GateKind.GPHASE, 0, 5e-324), (GateKind.RY, 0, 1e10)], 3)
def test_level_g_passes_at_any_finite_angle(gates, init):
    # the simulator reduces every angle by the true 2pi; each synthesized
    # power must approximate that reduction, up to |angle| = 1e300, and
    # the half-turns the work ancilla's rotations take must pair up
    c = Circuit(2)
    for kind, q, angle in gates:
        operands = {0: (), 1: (q,), 2: (q, 1 - q)}[kind.num_operands]
        c.append(kind, *operands, param=angle)
    report = verify_circuit(c, init, level=LoweringLevel.G_ONLY)
    assert report.passed, report.to_text()


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
    for index in (-1, 1 << 40):
        with pytest.raises(ValueError, match=f"^basis index {index} out of range for 40 qubit"):
            verify_circuit(Circuit(40).h(0), init_basis_index=index)
    bad = Circuit(1)
    bad.gates.append(Gate(GateKind.RZ, (0,)))
    with pytest.raises(ValueError, match="needs an angle"):
        verify_circuit(bad)
    # an operand out of range is refused, not packed into range
    far = Circuit(3)
    far.gates.append(Gate(GateKind.H, (5,)))
    with pytest.raises(ValueError, match="^gate 0: operand 5 out of range for 3 qubit"):
        verify_circuit(far)
    # invalid and, on 40 active qubits, too wide: the validation error wins
    wide = Circuit(40)
    for q in range(40):
        wide.h(q)
    wide.gates.append(Gate(GateKind.RZ, (0,)))
    with pytest.raises(ValueError, match="needs an angle"):
        verify_circuit(wide)
    wide.gates.pop()
    with pytest.raises(ValueError, match="^42 qubit"):
        verify_circuit(wide)


def corrupted_stages(stage_name, delta):
    # build real stages, then nudge every angle of the named stage
    inner = verify_mod.prepare_stages

    def nudge(circuit):
        gates = [dataclasses.replace(g, param=g.param + delta) for g in circuit.gates]
        return Circuit(circuit.num_qubits, gates)

    def wrapper(c, cfg, level):
        st = inner(c, cfg, level)
        if stage_name == "real":
            return dataclasses.replace(st, real=nudge(st.real))
        if stage_name == "f":
            return dataclasses.replace(st, f=nudge(st.f))
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
    # one 6e-16 above it. No two of the gates merge, so the level-'f'
    # stage keeps all three rotations
    c = parse("qubits 2\ns 0\nsdg 1\ngphase 5.960364476363304\n")
    report = verify_circuit(c, 3, SynthConfig(eps=1e-6, k_max=10**7))
    assert report.f.gate_count == 3
    assert report.g.state_distance > report.budget
    assert report.g.state_distance <= report.budget + verify_mod.BUDGET_ROUNDOFF_TOL
    assert report.passed


def test_small_corruptions_below_tolerance_still_pass(monkeypatch):
    # a 1e-12 angle nudge stays inside the 1e-9 stage tolerance; the
    # verifier is a tolerance check, not a syntactic diff
    c = Circuit(2).h(0).cx(0, 1)
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("f", 1e-12))
    assert verify_circuit(c, 0).passed


def appended_stages(inner, stage_name, qubit):
    # real stages with one more rotation on `qubit`: an ry in the real
    # stage, or an f(work -> qubit) with its synthesis in the f stage
    def wrapper(c, cfg, level):
        st = inner(c, cfg, level)
        if stage_name == "real":
            gate = Gate(GateKind.RY, (qubit,), 0.3)
            return dataclasses.replace(st, real=Circuit(st.real.num_qubits, st.real.gates + [gate]))
        work = st.f.num_qubits - 1
        f = Circuit(st.f.num_qubits, st.f.gates + [Gate(GateKind.F, (work, qubit), 0.3)])
        extra = ()
        if st.syntheses:
            extra = (dataclasses.replace(st.syntheses[0], index=len(st.f.gates)),)
        return dataclasses.replace(st, f=f, syntheses=st.syntheses + extra)

    return wrapper


def test_stages_are_lowered_from_the_packed_circuit(monkeypatch):
    # no gate of c acts on qubit 1, so c is packed onto qubits 0 and 1
    # (c's qubit 2) and prepare_stages lowers only that, once per call
    c = Circuit(3).h(0).cx(0, 2)
    packed = Circuit(2).h(0).cx(0, 1)
    inner = verify_mod.prepare_stages
    seen = []

    def recording(circuit, cfg, level):
        seen.append(circuit)
        return inner(circuit, cfg, level)

    monkeypatch.setattr(verify_mod, "prepare_stages", recording)
    for level in LoweringLevel:
        seen.clear()
        assert verify_circuit(c, 0b111, level=level).passed
        assert seen == [packed], level
    # a gate appended to a stage is measured on the packed register
    for stage_name, levels in (
        ("real", list(LoweringLevel)),
        ("f", [LoweringLevel.F_ONLY, LoweringLevel.G_ONLY]),
    ):
        monkeypatch.setattr(verify_mod, "prepare_stages", appended_stages(inner, stage_name, 1))
        for level in levels:
            stage = _stages_of(packed, SynthConfig(), level)[stage_name]
            for init in (0, 0b100, 0b110):
                report = verify_circuit(c, init, level=level)
                assert report.status == "FAIL", (stage_name, level, init)
                assert report.reason == f"stage '{stage_name}' distance exceeds 1e-09"
                res = getattr(report, stage_name)
                k, start, pack = _compact(3, init, [c])
                assert pack(c) == packed
                ref = run_complex(packed, init_basis(k, start))
                want = _stage_distance(stage, k, start, ref)
                assert res.state_distance == want, (stage_name, level, init)


def test_no_stage_simulates_the_work_ancilla(monkeypatch):
    # every stage runs on data + tag at every level; at level f the f
    # stage reuses the real stage's run instead of simulating again
    calls = []

    def recording(name):
        inner = getattr(verify_mod, name)

        def run(circuit, init):
            # the register's width: the circuit's from a basis index,
            # else the input state's
            width = circuit.num_qubits if isinstance(init, int) else init.num_qubits
            calls.append((name, circuit.num_qubits, width))
            return inner(circuit, init)

        return run

    for name in ("run_real", "run_complex"):
        monkeypatch.setattr(verify_mod, name, recording(name))
    c = random_circuit(4, 30, 7)
    runs = {}
    for level in LoweringLevel:
        calls.clear()
        report = verify_circuit(c, 3, SynthConfig(eps=1e-3), level)
        assert report.status == "PASS"
        assert max(max(widths) for _, *widths in calls) <= c.num_qubits + 1
        runs[level] = [name for name, *_ in calls]
    assert runs[LoweringLevel.REAL_ENCODED] == ["run_complex", "run_real"]
    assert runs[LoweringLevel.F_ONLY] == ["run_complex", "run_real"]
    assert runs[LoweringLevel.G_ONLY] == ["run_complex", "run_real", "run_real"]
    # qubits 0, 2, 3 and 5 are idle: the reference runs on the two active
    # qubits and every stage on them and the tag
    sparse = Circuit(6).h(1).cx(1, 4).rz(4, 0.3)
    active = [1, 4]
    for level in LoweringLevel:
        calls.clear()
        assert verify_circuit(sparse, 0b101101, SynthConfig(eps=1e-3), level).passed
        widths = {"run_complex": len(active), "run_real": len(active) + 1}
        assert calls == [(name, widths[name], widths[name]) for name in runs[level]]
    # with no gate on any qubit, qubit 0 is kept: the reference runs on 1
    # qubit, from the input's bit there, whatever the top bit
    for n in (1, 3, 40):
        for c in (Circuit(n), Circuit(n).gphase(0.7)):
            for level in LoweringLevel:
                calls.clear()
                assert verify_circuit(c, 1 << (n - 1), SynthConfig(eps=1e-3), level).passed
                widths = {"run_complex": 1, "run_real": 2}
                assert calls == [(name, widths[name], widths[name]) for name in runs[level]]


def _idle_mask(c):
    # the bits of the data qubits no gate of c acts on
    mask = (1 << c.num_qubits) - 1
    for g in c.gates:
        for q in g.qubits:
            mask &= ~(1 << q)
    return mask


def _stages_of(c, cfg, level):
    # each stage verify measures, by name, projected onto data + tag
    stages = verify_mod.prepare_stages(c, cfg, level)
    out = {"real": stages.real}
    if stages.f is not None:
        out["f"] = verify_mod._project_work(stages.f, stages.work_ancilla, stages.real)
    if level is LoweringLevel.G_ONLY:
        out["g"] = verify_mod._project_work(
            achieved_circuit(stages.f, stages.syntheses), stages.work_ancilla, stages.real
        )
    return out


def _active(n, circuits):
    # the data qubits some gate of the circuits acts on, in order
    return sorted({q for s in circuits for g in s.gates for q in g.qubits if q < n})


def _compact(n, init, circuits):
    # verify's compact registers: the active data qubits at 0..k-1 in
    # order, the tag (qubit n) at k, and the input's bits there; pack
    # moves a circuit over n data qubits, or over data + tag, onto them
    active = _active(n, circuits)
    k = len(active)
    pos = {q: j for j, q in enumerate(active)}
    pos[n] = k
    start = sum(((init >> q) & 1) << j for j, q in enumerate(active))

    def pack(circuit):
        gates = [Gate(g.kind, tuple(pos[q] for q in g.qubits), g.param) for g in circuit.gates]
        return Circuit(k + circuit.num_qubits - n, gates)

    return k, start, pack


def _slice(amps, n, init, active):
    # the amplitudes of a register over n qubits, or over n data qubits
    # and the tag n, that keep every idle data qubit at its input bit,
    # as a compact register (axis 0 of the view is the top qubit)
    width = len(amps).bit_length() - 1
    at = tuple(
        slice(None) if q == n or q in active else (init >> q) & 1 for q in range(width - 1, -1, -1)
    )
    return amps.reshape((2,) * width)[at].reshape(-1)


@settings(max_examples=60, deadline=None)
@given(
    # dense draws, and few gates on up to 9 qubits, which leave some idle
    st.one_of(
        st.tuples(st.integers(1, 6), st.integers(0, 40)),
        st.tuples(st.integers(1, 9), st.integers(0, 6)),
    ),
    st.integers(0, 2**32 - 1),
    st.sampled_from([LoweringLevel.F_ONLY, LoweringLevel.G_ONLY]),
    st.booleans(),
    st.data(),
)
def test_projected_stages_match_a_full_work_register_simulation(
    shape, seed, level, set_idle_bits, data
):
    # the f and g stages, unprojected, on data + tag + work with the work
    # ancilla in |1>, applied by index gather and scatter, then stripped;
    # verify simulates only the active qubits, and its distances must
    # equal bit for bit the formula on the slice of the idle qubits'
    # input bits
    n, num_gates = shape
    c = random_circuit(n, num_gates, seed)
    init = data.draw(st.integers(0, (1 << n) - 1))
    if set_idle_bits:
        init |= _idle_mask(c)
    cfg = SynthConfig(eps=1e-3)
    report = verify_circuit(c, init, cfg, level)
    stages = verify_mod.prepare_stages(c, cfg, level)
    staged = [(stages.f, report.f)]
    if level is LoweringLevel.G_ONLY:
        staged.append((achieved_circuit(stages.f, stages.syntheses), report.g))
    active = _active(n, [c, stages.real] + [stage for stage, _ in staged])
    k = len(active)
    ref = init_basis(n, init).amps
    for g in c.gates:
        ref = gather_apply(g, ref)
    ref = _slice(ref, n, init, active)
    for stage, res in staged:
        amps = add_work_ancilla(encode(init_basis(n, init))).amps
        for g in stage.gates:
            amps = gather_apply(g, amps)
        final = strip_work_ancilla(RealState(n + 2, amps))
        final = RealState(k + 1, _slice(final.amps, n, init, active))
        assert res.state_distance == float(np.linalg.norm(decode(final).amps - ref))


def leaky_stages(inner, extra):
    # real stages, with gates appended to the f stage that act on the work ancilla
    def wrapper(c, cfg, level):
        st = inner(c, cfg, level)
        work = st.f.num_qubits - 1
        return dataclasses.replace(st, f=Circuit(st.f.num_qubits, st.f.gates + extra(work)))

    return wrapper


def test_a_gate_that_moves_the_work_ancilla_is_refused(monkeypatch, tmp_path, capsys):
    c = Circuit(2).h(0).cx(0, 1)
    source = tmp_path / "c.rqc"
    source.write_text(emit(c))
    inner = verify_mod.prepare_stages
    n = len(inner(c, SynthConfig(), LoweringLevel.F_ONLY).f.gates)
    cases = [
        (lambda work: [Gate(GateKind.F, (1, work), 0.3)], n),
        (lambda work: [Gate(GateKind.F, (work, 1), 0.3), Gate(GateKind.RY, (work,), 0.2)], n + 1),
    ]
    for extra, index in cases:
        monkeypatch.setattr(verify_mod, "prepare_stages", leaky_stages(inner, extra))
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            with pytest.raises(AncillaLeakError, match=f"^gate {index}: "):
                verify_circuit(c, 0, level=level)
        assert main(["verify", str(source)]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: gate {index}: ") and "work ancilla" in err


def _stage_distance(circuit, n, init, ref):
    # the stage run on its own, measured as the decode/norm formula measures it
    final = run_real(circuit, init_basis_real(n + 1, init))
    return float(np.linalg.norm(decode(final).amps - ref.amps))


def _distance_cases():
    for n in range(1, 9):
        for seed in range(3):
            yield random_circuit(n, 4 * n + 4, seed=100 * n + seed), (seed * 5) % (1 << n)
    # circuits that leave qubits idle, from inputs with the idle bits set
    for n in range(1, 10):
        for num_gates in range(7):
            c = random_circuit(n, num_gates, seed=1000 * n + num_gates)
            yield c, ((7 * num_gates) % (1 << n)) | _idle_mask(c)


def test_distances_equal_the_formulas_bit_for_bit():
    # the formula runs the reference and each stage on verify's compact
    # registers, the active data qubits and the tag, which define the
    # distances
    cfg = SynthConfig(eps=1e-3)
    for c, init in _distance_cases():
        for level in LoweringLevel:
            report = verify_circuit(c, init, cfg, level)
            stages = _stages_of(c, cfg, level)
            k, start, pack = _compact(c.num_qubits, init, [c, *stages.values()])
            ref = run_complex(pack(c), init_basis(k, start))
            for name, stage in stages.items():
                res = getattr(report, name)
                state = _stage_distance(pack(stage), k, start, ref)
                assert res.state_distance == state, (emit(c), init, level, name)


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(a, b))


def _full_size_runs():
    # every distance verify reports, with the stage's and the reference's
    # final states on the full data + tag and data registers
    cfg = SynthConfig(eps=1e-3)
    for c, init in _distance_cases():
        n = c.num_qubits
        ref = run_complex(c, init_basis(n, init))
        for level in LoweringLevel:
            report = verify_circuit(c, init, cfg, level)
            for name, stage in _stages_of(c, cfg, level).items():
                final = run_real(stage, init_basis_real(n + 1, init))
                yield getattr(report, name), final, ref, (emit(c), init, level, name)


def test_distances_are_within_a_few_ulps_of_a_full_size_run():
    # the compact registers leave out only zeros, so the sums differ only
    # in how numpy's pairwise summation groups the terms
    for res, final, ref, case in _full_size_runs():
        state = float(np.linalg.norm(decode(final).amps - ref.amps))
        assert _ulps(res.state_distance, state) <= 4, case


def test_distances_are_within_a_few_ulps_of_exact_sums():
    for res, final, ref, case in _full_size_runs():
        state = fsum_distance(final.amps, ref.amps)
        assert _ulps(res.state_distance, state) <= 4, case


def test_encoded_distance_needs_a_data_plus_tag_register():
    with pytest.raises(ValueError, match="data-plus-tag register"):
        encoded_distance(init_basis_real(3, 0), init_basis(3, 0))


@pytest.mark.parametrize("level", list(LoweringLevel))
def test_verify_memory_is_a_few_registers(level):
    # one unit is the compact complex reference, 16 << k bytes for k
    # active data qubits, the size of the data + tag register too; the
    # reference, the stage register and one register-sized scratch
    # buffer are live at once, next to the lowered circuits' gates
    n = 14
    c = random_circuit(n, 24, seed=5)
    k = len(_active(n, [c]))
    assert k == n - 1
    cfg = SynthConfig(eps=1e-3)
    verify_circuit(c, 3, cfg, level)  # warm the synthesis and template caches
    tracemalloc.start()
    try:
        report = verify_circuit(c, 3, cfg, level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 4.5 * (16 << k), peak / (16 << k)


@pytest.mark.parametrize("n", [26, 10**7])
def test_verify_memory_follows_the_active_width(n):
    # 2 active qubits: full-size registers at 26 qubits would take over
    # 1 GiB, and nothing may be sized by the declared 10^7 either
    c = Circuit(n).h(0).cx(0, 1)
    verify_circuit(c)  # warm the synthesis and template caches
    tracemalloc.start()
    try:
        report = verify_circuit(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 << 10, peak


def _verified_lowering(report):
    # what a verification report says of the lowering it checked
    counts = {"real": report.real.gate_count}
    if report.f is not None:
        counts["f"] = report.f.gate_count
    if report.g is not None:
        counts["g"] = report.fixed_gate_count
    return counts, report.max_k, report.budget


def test_transpile_and_verify_report_the_same_lowering():
    tight = SynthConfig(eps=1e-6, k_max=10**7)
    for n in range(1, 7):
        c = random_circuit(n, 5 * n + 3, seed=700 + n)
        for level in LoweringLevel:
            out, lowered = transpile(c, level)
            assert len(out.gates) == lowered.output_gate_count
            got = (lowered.gate_counts, lowered.max_k, lowered.budget)
            assert got == _verified_lowering(verify_circuit(c, 0, level=level)), (n, level)
        # 10^7 to 10^8 fixed gates at this eps, so level g is never materialized
        stages = prepare_stages(c, tight, LoweringLevel.G_ONLY)
        got = (stages.gate_counts, stages.max_k, stages.budget)
        want = _verified_lowering(verify_circuit(c, 0, tight, LoweringLevel.G_ONLY))
        assert got == want, n


def test_a_level_string_behaves_like_its_member(monkeypatch):
    c = Circuit(2).h(0).cx(0, 1)
    for level in LoweringLevel:
        report = verify_circuit(c, 0, None, level.value)
        assert report.level is level
        assert report.to_text() == verify_circuit(c, 0, None, level).to_text()

    def never(c):
        raise AssertionError("lowered before the level was checked")

    monkeypatch.setattr(transpile_mod, "normalize_pass", never)
    with pytest.raises(ValueError, match="'bogus' is not a valid LoweringLevel"):
        verify_circuit(c, 0, None, "bogus")


def test_the_g_stage_is_the_projection_at_the_synthesized_angles():
    # verify projects the f stage once and builds the g stage from that
    # projection, so each f(work -> t), now an ry(t), stays an ry
    c = Circuit(2).h(0).cx(0, 1).rx(1, 0.4)
    stages = prepare_stages(c, SynthConfig(), LoweringLevel.G_ONLY)
    # a real stage that cannot match, so the projection is built
    projected = verify_mod._project_work(
        stages.f, stages.work_ancilla, Circuit(stages.work_ancilla)
    )
    achieved = achieved_circuit(projected, stages.syntheses)
    assert achieved.num_qubits == projected.num_qubits
    assert GateKind.RY in {g.kind for g in achieved.gates}
    assert [(g.kind, g.qubits) for g in achieved.gates] == [
        (g.kind, g.qubits) for g in stages.real.gates
    ]
    assert [g.param for g in achieved.gates] == [s.result.achieved for s in stages.syntheses]


def test_each_entry_point_validates_once(monkeypatch):
    calls = []
    validate = Circuit.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Circuit, "validate", counted)
    c = Circuit(3).h(0).cx(0, 2).rz(2, 0.3)
    for level in LoweringLevel:
        calls.clear()
        verify_circuit(c, 0, None, level)
        assert len(calls) == 1, ("verify_circuit", level)
        calls.clear()
        transpile(c, level)
        assert len(calls) == 1, ("transpile", level)


def test_an_invalid_circuit_is_reported_before_a_bad_level():
    c = Circuit(1)
    c.gates.append(Gate(GateKind.RZ, (0,)))
    for entry in (lambda: transpile(c, "bogus"), lambda: verify_circuit(c, 0, None, "bogus")):
        with pytest.raises(ValueError, match="^gate 0: rz needs an angle$"):
            entry()


def rebuilt_stages(inner):
    # the pipeline's stages, with the f stage rebuilt from new but equal gates
    def wrapper(c, cfg, level):
        st = inner(c, cfg, level)
        gates = [Gate(g.kind, g.qubits, g.param) for g in st.f.gates]
        assert all(a == b and a is not b for a, b in zip(gates, st.f.gates))
        return dataclasses.replace(st, f=Circuit(st.f.num_qubits, gates))

    return wrapper


# random circuits of 1-5 qubits, and one with an rx and an ry
F_RULE_CIRCUITS = [random_circuit(n, 12, seed=40 + n) for n in range(1, 6)]
F_RULE_CIRCUITS.append(Circuit(3).h(0).cx(0, 2).rx(1, 0.4).ry(2, 0.3))


def test_the_f_stage_is_projected_only_when_it_is_not_the_real_stage_lowered(monkeypatch):
    # the pipeline's f stage is lower_ry_pass of the real stage, whose
    # projection is the real stage itself: nothing is rebuilt. A stage
    # that touches the work ancilla otherwise is still projected, and
    # refused, and one rebuilt as new but equal gates is projected and
    # reports as the original does. The spy records each call that does
    # not return the real stage, a refusal included
    calls = []
    project = verify_mod._project_work

    def spy(c, work, real):
        calls.append(len(c.gates))
        out = project(c, work, real)
        if out is real:
            calls.pop()
        return out

    inner = verify_mod.prepare_stages
    cfg = SynthConfig(eps=1e-3)
    for c in F_RULE_CIRCUITS:
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            stages = inner(c, cfg, level)
            assert project(stages.f, stages.work_ancilla, stages.real) is stages.real
    monkeypatch.setattr(verify_mod, "_project_work", spy)
    reports = {}
    for c in F_RULE_CIRCUITS:
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            reports[id(c), level] = verify_circuit(c, 1, cfg, level).to_text()
    assert calls == []

    # an f stage whose lowered ry angles moved is not the real stage
    # lowered: it is projected, and its distance shows the move
    monkeypatch.setattr(verify_mod, "prepare_stages", corrupted_stages("f", 1e-3))
    report = verify_circuit(Circuit(1).ry(0, 0.3), 0, cfg, LoweringLevel.F_ONLY)
    assert report.reason == "stage 'f' distance exceeds 1e-09"
    assert calls == [1]

    monkeypatch.setattr(verify_mod, "prepare_stages", rebuilt_stages(inner))
    for c in F_RULE_CIRCUITS:
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            calls.clear()
            assert verify_circuit(c, 1, cfg, level).to_text() == reports[id(c), level]
            assert len(calls) == 1
    c = Circuit(2).h(0).cx(0, 1)
    n = len(inner(c, cfg, LoweringLevel.F_ONLY).f.gates)
    cases = [
        (lambda work: [Gate(GateKind.F, (1, work), 0.3)], n),
        (lambda work: [Gate(GateKind.F, (work, 1), 0.3), Gate(GateKind.RY, (work,), 0.2)], n + 1),
    ]
    for extra, index in cases:
        monkeypatch.setattr(verify_mod, "prepare_stages", leaky_stages(inner, extra))
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            calls.clear()
            with pytest.raises(AncillaLeakError, match=f"^gate {index}: "):
                verify_circuit(c, 0, cfg, level)
            assert calls == [n + len(extra(2))]


def test_an_f_stage_of_new_but_equal_gates_is_projected_and_run(monkeypatch):
    # the real stage's run stands for the f stage only when the f stage's
    # projection is the real stage itself, not a copy of it: an f stage
    # rebuilt from new but equal gates takes one run more than the
    # pipeline's own stages, and reports as they do
    runs = []
    run = verify_mod.run_real

    def counted(circuit, init):
        runs.append(circuit)
        return run(circuit, init)

    monkeypatch.setattr(verify_mod, "run_real", counted)
    inner = verify_mod.prepare_stages
    cfg = SynthConfig(eps=1e-3)
    for c in F_RULE_CIRCUITS:
        for level in (LoweringLevel.F_ONLY, LoweringLevel.G_ONLY):
            monkeypatch.setattr(verify_mod, "prepare_stages", inner)
            runs.clear()
            want = verify_circuit(c, 1, cfg, level).to_text()
            own = len(runs)
            monkeypatch.setattr(verify_mod, "prepare_stages", rebuilt_stages(inner))
            runs.clear()
            assert verify_circuit(c, 1, cfg, level).to_text() == want, (emit(c), level)
            assert len(runs) == own + 1, (emit(c), level)
