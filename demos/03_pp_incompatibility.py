"""PP-incompatible triples and their conjugate measurement bases.

A triple of pure states is PP-incompatible when one orthonormal basis of
their span annihilates a different member on each outcome. The algebraic
test needs only the three pairwise fidelities; the constructive search
minimizes the misfire average eps = (P(f1|a) + P(f2|b) + P(f3|c)) / 3.
"""

import numpy as np

import epioverlap as ep

fam = ep.generate_mub(4)
a = fam.bases[1].vectors[0]
b = fam.bases[2].vectors[0]
c = fam.bases[0].vectors[0]

x = ep.triple_overlaps(a, b, c)
print(f"cross-basis triple in d=4: fidelities ({x.x1:.4f}, {x.x2:.4f}, {x.x3:.4f})")
print(f"  sum = {x.x1 + x.x2 + x.x3:.4f} < 1, "
      f"(sum-1)^2 = {(x.x1 + x.x2 + x.x3 - 1) ** 2:.6f} "
      f">= 4 x1 x2 x3 = {4 * x.x1 * x.x2 * x.x3:.6f}")
print(f"  algebraically PP-incompatible: {ep.pp_incompatible(x)}")

result = ep.find_conjugate_basis(a, b, c, restarts=24, seed=0)
print(f"  minimized misfire average: {result.epsilon:.2e} "
      f"(restarts used: {result.restarts_used})")

meas = ep.full_measurement(a, b, c, result)
leak = sum(meas.probabilities(s)[3] for s in (a, b, c))
print(f"  four-outcome measurement: f4 leak on the triple {leak:.2e}")

# The same construction in d=3 fails: cross-basis fidelities are 1/3 and the
# sum saturates the strict inequality.
print(f"\nd=3 cross-basis triple PP-incompatible: "
      f"{ep.pp_incompatible((1 / 3, 1 / 3, 1 / 3))}")

# A generic non-PP triple has a strictly positive misfire floor.
rng = np.random.default_rng(5)
while True:
    states = [ep.PureState.normalized(rng.standard_normal(4)
                                      + 1j * rng.standard_normal(4))
              for _ in range(3)]
    if not ep.pp_incompatible(ep.triple_overlaps(*states)):
        break
floor = ep.find_conjugate_basis(*states, restarts=32, seed=1)
print(f"random non-PP triple: misfire floor {floor.epsilon:.6f}")
