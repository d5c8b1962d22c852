"""The three seeded workloads, their timed op, and the checks on each output.

Inputs are drawn from rqc.library before anything is timed; the op sees
only the circuit (or its .rqc text). Every rqc call goes through the
package namespace so the tracer's wrappers are picked up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import rqc
import oracle

G = rqc.LoweringLevel.G_ONLY
F = rqc.LoweringLevel.F_ONLY
COMPILE_CFG = rqc.SynthConfig()  # the CLI defaults: eps 1e-3, k_max 1e6
TIGHT_CFG = rqc.SynthConfig(eps=1e-6, k_max=10**7)


@dataclass
class Item:
    name: str
    circuit: rqc.Circuit
    init: int = 0
    source: str = ""


@dataclass
class Outcome:
    """What the checks keep from the first op on one item."""

    f_gates: int
    g_gates: int
    budget: float
    text: str = ""
    runs: list = field(default_factory=list)
    report: object = None
    lowered: object = None
    syntheses: list = field(default_factory=list)


# about how many f gates each kind lowered to at the seed commit (rx
# gives 3 or 4 with the angle); a fixed weight for drawing inputs, never
# read from rqc, so a change to the lowering leaves the inputs as they are
LOWERED_SIZE = {
    "x": 2, "y": 2, "z": 1, "h": 2, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "rx": 3, "ry": 1, "rz": 1, "cx": 8, "cz": 7, "f": 1, "gphase": 1,
}


def weight(c: rqc.Circuit) -> int:
    return sum(LOWERED_SIZE[g.kind.value] for g in c.gates)


def _weight_targets(gates: int, slots: int) -> list[int]:
    """Weights for `slots` circuits of `gates` gates: the quantiles at
    (j + 1/2) / slots of random_circuit's weight distribution (kinds are
    drawn uniformly), in an order fixed once for all seeds."""
    one = np.zeros(max(LOWERED_SIZE.values()) + 1)
    for size in LOWERED_SIZE.values():
        one[size] += 1 / len(LOWERED_SIZE)
    pmf = np.ones(1)
    for _ in range(gates):
        pmf = np.convolve(pmf, one)
    cdf = np.cumsum(pmf)
    targets = np.searchsorted(cdf, (np.arange(slots) + 0.5) / slots * cdf[-1])
    return [int(t) for t in np.random.default_rng(0).permutation(targets)]


def _random_items(seed: int, shapes) -> list[Item]:
    """random_circuit draws, stratified on their lowered weight.

    Each slot takes the first draw whose weight matches a target fixed
    per slot, not per seed. Every seed then gets the same mix of circuit
    sizes, and different circuits: gates, operands, angles and inputs.
    """
    rng = np.random.default_rng(seed)
    slots = Counter(gates for _, gates in shapes)
    targets = {gates: _weight_targets(gates, count) for gates, count in slots.items()}
    items = []
    for i, (n, gates) in enumerate(shapes):
        want = targets[gates].pop()
        while True:
            c = rqc.random_circuit(n, gates, seed=int(rng.integers(2**63)))
            if weight(c) == want:
                break
        items.append(Item(f"random-{n}q-{gates}g-{i}", c, int(rng.integers(1 << n))))
    return items


# Reference work: a fixed amount of work of the kind a workload's op
# does, written without rqc, so that no change to rqc moves its time. Its
# time next to each op measures the host's speed; see Run.one_pass.


def python_loop() -> None:
    """Interpreter-bound, as text parsing and the synthesis bookkeeping are."""
    s = 0
    for i in range(60_000):
        s += i * i


_STATE = []


def python_and_gather() -> None:
    """python_loop, then one rotation on a 2**18-amplitude register by
    index gather and scatter, as rqc.sim applies a gate: the work of a
    verify op mixes the two."""
    python_loop()
    if not _STATE:
        _STATE.append(np.full(1 << 18, 2.0**-9))
    amps = _STATE[0]
    q = 9
    base = np.arange(len(amps) >> 1)
    i0 = ((base >> q) << (q + 1)) | (base & ((1 << q) - 1))
    i1 = i0 | (1 << q)
    a0, a1 = amps[i0], amps[i1]
    c, s = math.cos(0.1), math.sin(0.1)
    amps[i0] = c * a0 - s * a1
    amps[i1] = s * a0 + c * a1


def fill_table(cfg: rqc.SynthConfig) -> None:
    # no power of phi up to 1e7 comes within 1e-9 of 0, so the scan runs
    # to k_max and grows the orbit table to its full size
    try:
        rqc.synthesize(0.0, rqc.SynthConfig(cfg.phi, 1e-9, cfg.k_max))
    except rqc.NotReachable:
        return
    raise RuntimeError("warm-up target was reachable; the orbit table is not full")


def _fill_templates(level) -> None:
    rqc.transpile(rqc.Circuit(2).cx(0, 1).cz(1, 0).h(0), level)


class CompileG:
    """rqc transpile --level g, as a pipe: parse, lower, emit, parse back."""

    name = "compile-g"
    cfg = COMPILE_CFG
    reference = staticmethod(python_loop)
    reference_s = 0.0035  # about its CPU time on the host of the README's figures
    pass_s = 7.5  # about the scaled time of one pass at the seed commit

    def items(self, seed: int) -> list[Item]:
        # the six library circuits are the largest outputs (39k-182k
        # lines); run three times each they are the eighteen slowest ops,
        # and op_ms_tail (the eleventh slowest) falls among them. Random
        # circuits of 8 gates reached their times and moved the tail.
        fixed = [rqc.grover_two_qubit(m) for m in range(4)] + [rqc.qft(3), rqc.qft(4)]
        shapes = [(2 + i % 7, 4) for i in range(30)]
        items = [Item(c.name, c) for c in fixed] + _random_items(seed, shapes)
        for it in items:
            it.source = rqc.emit(it.circuit)
        return items

    def warm_up(self) -> None:
        _fill_templates(G)
        fill_table(self.cfg)

    def op(self, item: Item):
        c = rqc.parse(item.source)
        lowered, report = rqc.transpile(c, G, self.cfg)
        back = rqc.parse(rqc.emit(lowered))
        return lowered, report, back

    def check(self, item: Item, out, first: Outcome | None) -> tuple[list[str], Outcome]:
        lowered, report, back = out
        problems = []
        if back != lowered:
            problems.append("parse(emit(l)) != l")
        runs = []
        phi = self.cfg.phi
        for g in back.gates:
            if g.kind is not rqc.GateKind.F or g.param != phi:
                problems.append(f"output gate is not 'f c t phi': {g}")
                break
            if runs and runs[-1][0] == g.qubits:
                runs[-1][1] += 1
            else:
                runs.append([g.qubits, 1])
        ks = [s.result.k for s in report.syntheses]
        g_count = report.gate_counts["g"]
        if not sum(n for _, n in runs) == len(back.gates) == g_count == sum(ks):
            problems.append(f"run lengths do not sum to the reported g count {g_count}")
        runs = [(q[0], q[1], n) for q, n in runs]
        if first is not None and runs != first.runs:
            problems.append("output differs from the first op on the same input")
        return problems, Outcome(report.gate_counts["f"], g_count, report.budget, runs=runs, report=report)

    def deep_check(self, item: Item, first: Outcome) -> list[str]:
        lowered_f, _ = rqc.transpile(item.circuit, F)
        report = first.report
        want = oracle.merged_runs(
            (g.qubits, s.result.k) for g, s in zip(lowered_f.gates, report.syntheses, strict=True)
        )
        problems = [] if want == first.runs else ["output runs do not follow the level-f circuit"]
        problems += oracle.check_syntheses(
            ((s.target, s.result.k) for s in report.syntheses), self.cfg.phi, self.cfg.eps
        )
        problems += oracle.check_lowered(
            item.circuit, 0, lowered_f, first.runs, self.cfg.phi, report.budget
        )
        return problems


class SynthTight:
    """verify_circuit at level f on small registers, then every level-f
    angle synthesized at eps 1e-6: the work of verify_circuit at level g
    with these settings, less its level-g simulation and budget verdict.
    verify_circuit at level g is not the op; see the README."""

    name = "synth-tight"
    cfg = TIGHT_CFG
    reference = staticmethod(python_loop)
    reference_s = 0.0035
    pass_s = 6.0

    def items(self, seed: int) -> list[Item]:
        return _random_items(seed, [(2 + i % 5, 4) for i in range(260)])

    def warm_up(self) -> None:
        _fill_templates(F)
        fill_table(self.cfg)

    def op(self, item: Item):
        report = rqc.verify_circuit(item.circuit, item.init, self.cfg, F)
        lowered, _ = rqc.transpile(item.circuit, F)
        return report, lowered, rqc.synthesize_all(lowered, self.cfg)

    def check(self, item: Item, out, first: Outcome | None) -> tuple[list[str], Outcome]:
        report, lowered, synths = out
        problems = [] if report.passed else [f"verify reported FAIL: {report.reason}"]
        text = report.to_text()
        if first is not None and text != first.text:
            problems.append("to_text() differs between two calls on the same input")
        if len(synths) != len(lowered.gates):
            problems.append(f"{len(synths)} syntheses for {len(lowered.gates)} level-f gates")
        far = [i for i, s in enumerate(synths) if not s.result.error <= self.cfg.eps]
        if far:
            problems.append(f"gates {far[:5]} synthesized outside eps")
        pairs = [(s.target, s.result.k) for s in synths]
        if first is not None and pairs != first.syntheses:
            problems.append("syntheses differ from the first op on the same input")
        g_count = sum(k for _, k in pairs)
        budget = rqc.budget(s.result.error for s in synths)
        return problems, Outcome(
            len(lowered.gates), g_count, budget, text=text, lowered=lowered, syntheses=pairs
        )

    def deep_check(self, item: Item, first: Outcome) -> list[str]:
        problems = oracle.check_syntheses(first.syntheses, self.cfg.phi, self.cfg.eps)
        runs = oracle.merged_runs(
            (g.qubits, k) for g, (_, k) in zip(first.lowered.gates, first.syntheses)
        )
        problems += oracle.check_lowered(
            item.circuit, item.init, first.lowered, runs, self.cfg.phi, first.budget
        )
        return problems


class VerifyWide:
    """rqc verify --level f: the complex reference against the real and
    level-f stages, on wide registers."""

    name = "verify-wide"
    reference = staticmethod(python_and_gather)
    reference_s = 0.0075
    pass_s = 9.5

    def items(self, seed: int) -> list[Item]:
        # about equal work per circuit: twice the gates per qubit fewer,
        # so every register size from 16 to 20 lowered qubits gets a
        # similar share of the pass
        return _random_items(seed, [(n, 2 << (18 - n)) for _ in range(20) for n in range(14, 19)])

    def warm_up(self) -> None:
        _fill_templates(F)

    def op(self, item: Item):
        return rqc.verify_circuit(item.circuit, item.init, COMPILE_CFG, F)

    def check(self, item: Item, report, first: Outcome | None) -> tuple[list[str], Outcome]:
        problems = [] if report.passed else [f"verify reported FAIL: {report.reason}"]
        text = report.to_text()
        if first is not None and text != first.text:
            problems.append("to_text() differs between two calls on the same input")
        return problems, Outcome(report.f.gate_count, 0, 0.0, text=text)

    def deep_check(self, item: Item, first: Outcome) -> list[str]:
        lowered_f, _ = rqc.transpile(item.circuit, F)
        # level g is not part of this op; its size and budget for the
        # same circuits at the compile defaults are reported instead
        synths = rqc.synthesize_all(lowered_f, COMPILE_CFG)
        first.g_gates = sum(s.result.k for s in synths)
        first.budget = rqc.budget(s.result.error for s in synths)
        return oracle.check_lowered(item.circuit, item.init, lowered_f)


WORKLOADS = {w.name: w for w in (CompileG(), SynthTight(), VerifyWide())}
