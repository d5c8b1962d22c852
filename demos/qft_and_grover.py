"""
Canonical circuits through the pipeline
=======================================

The Fourier transform on three qubits and a two-qubit Grover search,
verified all the way down to the single fixed gate. Both have known
closed-form outputs, so the distributions printed here can be checked
by eye: uniform 1/8 everywhere for the transform applied to a basis
state, and a clean point mass for Grover.
"""

import numpy as np

from rqc import (
    LoweringLevel,
    distribution,
    grover_two_qubit,
    qft,
    run_complex,
    verify_circuit,
)

c = qft(3)
print(f"qft on 3 qubits: {len(c.gates)} front-end gates")
out = run_complex(c, 5)
print("distribution from |101>:", np.round(distribution(out), 6))

report = verify_circuit(c, init_basis_index=5)
print(f"verify to level g: {report.status}")
print(f"  fixed gates: {report.fixed_gate_count}, max k: {report.max_k}")
print(f"  budget {report.budget:.3e}, realized {report.g.state_distance:.3e}")
print()

for marked in range(4):
    c = grover_two_qubit(marked)
    out = run_complex(c, 0)
    dist = np.round(distribution(out), 9)
    report = verify_circuit(c, init_basis_index=0, level=LoweringLevel.F_ONLY)
    print(f"grover marked={marked:02b}: distribution {dist}  verify {report.status}")
