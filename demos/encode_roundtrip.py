"""
Real encoding round trip
========================

A complex state on n qubits becomes a real state on n+1 qubits: the
extra (tag) qubit selects the real or imaginary component of each
amplitude. This script builds a small complex state, encodes it,
pokes at the halves, and checks that nothing was lost.
"""

import numpy as np

from rqc import (
    Circuit,
    ComplexState,
    decode,
    distribution,
    encode,
    marginal_distribution,
    run_complex,
)

# prepare (|00> + i|11>) / sqrt(2) on the complex engine
c = Circuit(2).h(0).cx(0, 1).s(1)
state = run_complex(c, 0)
print("complex amplitudes:")
for i, a in enumerate(state.amps):
    print(f"  |{i:02b}>  {a.real:+.6f} {a.imag:+.6f}i")

# encode: lower half = real parts, upper half = imaginary parts
enc = encode(state)
print("\nencoded real amplitudes (tag qubit is the high bit):")
print("  tag=0 (Re):", np.round(enc.amps[:4], 6))
print("  tag=1 (Im):", np.round(enc.amps[4:], 6))

# norms and distributions survive the trip
print("\nnorm before:", state.norm())
print("norm after: ", enc.norm())
print("distribution before:", np.round(distribution(state), 6))
print("marginal after:     ", np.round(marginal_distribution(enc), 6))

# and decode is the exact inverse
back = decode(enc)
print("\nmax |decode(encode(s)) - s| =", float(np.abs(back.amps - state.amps).max()))
