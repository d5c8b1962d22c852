"""
Powers of one rotation
======================

The fixed gate rotates by phi, an irrational fraction of a turn, so its
powers k*phi mod 2pi fill the circle densely. The synthesizer finds the
smallest k landing within eps of a target angle without stepping through
the orbit: a continued-fraction (Euclid) recursion on the rotation jumps
straight to the first power inside the window. Tighter tolerances cost
more repetitions of the gate, roughly like 1/eps, but not more search.
"""

import math

from rqc import DEFAULT_PHI, NotReachable, SynthConfig, synthesize

print(f"phi = {DEFAULT_PHI:.17g} rad ({DEFAULT_PHI / math.tau:.6f} turns)")
print()

# a few familiar targets at the default tolerance
print("targets at eps = 1e-3:")
for name, theta in [("pi/4", math.pi / 4), ("pi/2", math.pi / 2), ("pi", math.pi), ("1.0", 1.0)]:
    r = synthesize(theta)
    print(f"  theta={name:<5} k={r.k:>5}  achieved={r.achieved:.10f}  error={r.error:.2e}")

# the same target as the tolerance shrinks
print("\ntheta = 1.0 as eps shrinks:")
for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
    r = synthesize(1.0, SynthConfig(eps=eps))
    print(f"  eps={eps:.0e}  k={r.k:>7}  error={r.error:.2e}")

# past the default search cap the failure names the closest miss
try:
    synthesize(1.0, SynthConfig(eps=1e-6))
except NotReachable as e:
    print(f"  eps=1e-06  {e}")
r = synthesize(1.0, SynthConfig(eps=1e-6, k_max=10**7))
print(f"  eps=1e-06  k={r.k}  error={r.error:.2e}  (k_max raised to 1e7)")

# the angle phi itself is free, and so is any point already on the orbit
r = synthesize(DEFAULT_PHI, SynthConfig(eps=1e-12))
print(f"\nphi itself: k={r.k}, error={r.error}")

# per-gate angular error delta costs at most 2|sin(delta/2)| in operator
# norm, so a whole circuit's l2 deviation is bounded by the sum
worst = synthesize(1.0, SynthConfig(eps=1e-4))
print(f"gate error bound for delta={worst.error:.2e}: "
      f"{2 * abs(math.sin(worst.error / 2)):.2e}")
