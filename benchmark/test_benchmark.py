"""Counts the benchmark reports must repeat exactly for one seed.

    python3 -m pytest benchmark/test_benchmark.py

Runs the last few inputs of each workload through the traced op path
twice with one seed, and once with another seed.
"""

import pytest

import run
from tracer import Tracer, layer_metrics

workloads = run.load_rqc()

EXACT = (
    "synth.synthesize.calls",
    "synth.synthesize.k_sum",
    "synth.synthesize.k_max",
    "synth.orbit_angle.calls",
    "sim.run_real.gate_amps",
    "sim.run_complex.gate_amps",
    "textio.parse.lines",
    "textio.emit.bytes",
    "transpile.materialize_fixed.gates_out",
    "transpile.normalize_pass.gates_out",
    "transpile.lower_ry_pass.gates_out",
)


def traced_counts(name: str, seed: int, last: int = 3):
    w = workloads.WORKLOADS[name]
    items = w.items(seed)[-last:]
    r = run.Run(w, items)
    tracer = Tracer()
    for i, item in enumerate(items):
        r.one_op(i, item, tracer)
    r.deep_checks()
    assert r.failed == 0, r.failures
    outcomes = [(o.f_gates, o.g_gates, o.budget) for o in (r.first[i] for i in range(len(items)))]
    metrics = layer_metrics(tracer.spans, 1.0)
    circuits = [workloads.rqc.emit(it.circuit) for it in items]
    return circuits, outcomes, {k: metrics[k][0] for k in EXACT}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_for_one_seed_and_inputs_change_with_it(name):
    workloads.WORKLOADS[name].warm_up()
    first = traced_counts(name, seed=11)
    again = traced_counts(name, seed=11)
    assert first == again
    other_circuits, _, _ = traced_counts(name, seed=12)
    assert other_circuits != first[0]


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, p = run.tail(samples)
    assert (p, value) == (90, 90.0)
    assert sum(x > value for x in samples) == 10
    with pytest.raises(ValueError):
        run.tail(samples[:10])


def test_tracer_reaches_names_bound_by_from_imports():
    import rqc.verify

    tracer = Tracer()
    original = rqc.verify.run_real
    tracer.install()
    try:
        assert rqc.verify.run_real is not original
        assert workloads.rqc.run_real is rqc.verify.run_real
    finally:
        tracer.uninstall()
    assert rqc.verify.run_real is original
