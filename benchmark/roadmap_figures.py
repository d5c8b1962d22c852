"""Re-measure the one-off figures quoted in ROADMAP.md, for side-by-side use.

    python3 benchmark/roadmap_figures.py

Prints run_real time per level-f gate at 12, 20 and 22 register qubits,
the time to grow the orbit table to 1e6 and 1e7 entries in a fresh
process (in one step, and as the lazy growth a synthesize scan causes),
and the share of synthesis in verify_circuit on qft(6) (in CPU time, as
the traced runs measure it; the rest is wall time).
"""

from __future__ import annotations

import subprocess
import sys
import time

import run
from tracer import CLOCK, Tracer, self_times

workloads = run.load_rqc()
rqc = workloads.rqc


def run_real_per_gate(register: int, gates: int) -> float:
    lowered, _ = rqc.transpile(rqc.random_circuit(register - 2, 4 * gates, seed=register), workloads.F)
    c = rqc.Circuit(register, lowered.gates[:gates])
    state = rqc.init_basis_real(register, 0)
    rqc.run_real(rqc.Circuit(register, c.gates[:1]), state)
    t0 = time.perf_counter()
    rqc.run_real(c, state)
    return (time.perf_counter() - t0) / len(c.gates)


def table_seconds(size: int, how: str) -> float:
    # a fresh interpreter each time: the table is a process-wide cache
    code = (
        "import sys, time; sys.path.insert(0, 'src'); sys.path.insert(0, 'benchmark'); "
        "import rqc, rqc.synth, workloads; t = time.perf_counter(); "
        + (
            f"rqc.synth._orbit(rqc.DEFAULT_PHI).ensure({size}); "
            if how == "one step"
            else f"workloads.fill_table(rqc.SynthConfig(k_max={size})); "
        )
        + "print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout)


def synth_share_of_verify(circuit) -> tuple[float, float]:
    rqc.verify_circuit(circuit)  # warm: templates and the 1e6 table
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    t0 = CLOCK()
    rqc.verify_circuit(circuit)
    total = CLOCK() - t0
    tracer.op = None
    tracer.uninstall()
    synth = sum(s for span, s in zip(tracer.spans, self_times(tracer.spans)) if span[0].startswith("synth."))
    return synth, total


def main() -> None:
    for register, gates in ((12, 496), (20, 60), (22, 20)):
        print(f"run_real, {register} register qubits: {run_real_per_gate(register, gates) * 1e3:.3f} ms per gate")
    for size in (10**6, 10**7):
        for how in ("one step", "synthesize scan"):
            print(f"orbit table to {size:.0e} ({how}): {table_seconds(size, how):.3f} s")
    synth, total = synth_share_of_verify(rqc.qft(6))
    print(f"verify qft(6): synthesis {synth * 1e3:.0f} of {total * 1e3:.0f} CPU ms ({synth / total:.0%})")


if __name__ == "__main__":
    main()
