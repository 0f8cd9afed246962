"""A qubit model whose epistemic overlaps fully explain indistinguishability.

The sphere model assigns each qubit state the density (n . x)+ / pi on its
Bloch hemisphere and answers projective measurements with hemisphere
indicators. It reproduces the Born rule, and the overlap of any two of its
densities equals the quantum overlap of the states: for d=2 nothing forces
the epistemic explanation to fall short.
"""

import numpy as np

import epioverlap as ep
from epioverlap import ontomodel
from epioverlap.qstate import basis_measurement

model = ep.ks_model_d2()

print("Born-rule check over 10 random state/measurement pairs:")
worst = 0.0
for seed in range(10):
    psi = ep.random_state(2, (seed, 0))
    meas = basis_measurement(ep.random_unitary(2, (seed, 1)))
    worst = max(worst, ontomodel.born_check(model, psi, meas))
print(f"  worst residual: {worst:.2e}")

print("\nepistemic overlap vs quantum overlap:")
for seed in range(5):
    psi, phi = ep.random_state(2, (seed, 2)), ep.random_state(2, (seed, 3))
    wc = ontomodel.overlap_pair(model, psi, phi)
    wq = ep.quantum_overlap(psi, phi)
    print(f"  seed {seed}: omega_C = {wc:.8f}, omega_Q = {wq:.8f}, "
          f"diff {abs(wc - wq):.1e}")

pairs = [(ep.random_state(2, (s, 4)), ep.random_state(2, (s, 5))) for s in range(10)]
print(f"\nworst omega_C - omega_Q over 10 pairs: "
      f"{ontomodel.verify_overlap_inequality(model, pairs):.2e}  (<= 0 up to quadrature)")

# two ways to compute the same overlap: pointwise minima vs lens geometry.
# The overlap region splits along the bisector plane of the two Bloch axes;
# on each side the smaller density belongs to the farther axis.
psi, phi = pairs[0]
p, q = ontomodel.bloch_axis(psi), ontomodel.bloch_axis(phi)
pts, wts = ontomodel.sphere_frame([p, q])
side = pts @ (p - q)
lens = float(wts @ ((side <= 0) * np.clip(pts @ p, 0.0, None) / np.pi
                    + (side > 0) * np.clip(pts @ q, 0.0, None) / np.pi))
print(f"lens vs pointwise-min overlap: "
      f"{abs(lens - ontomodel.overlap_pair(model, psi, phi)):.2e}")

# contrast: the state-per-point toy model reproduces Born too, but its
# epistemic states never overlap, explaining nothing about indistinguishability
states = [ep.random_state(3, s) for s in range(4)]
toy = ep.psi_ontic_model(states)
print(f"\nstate-per-point toy: Born residual "
      f"{ontomodel.born_check(toy, states[0], basis_measurement(ep.random_unitary(3, 9))):.1e}, "
      f"overlap of two states {ontomodel.overlap_pair(toy, states[0], states[1]):.1f}")

# disjointness of orthogonal-state densities, and the common-support measure
z0, z1 = ep.basis_state(2, 0), ep.basis_state(2, 1)
print(f"orthogonal qubit pair: overlap {ontomodel.overlap_pair(model, z0, z1):.1e}, "
      f"common support measure "
      f"{ontomodel.support_intersection_measure(model, [z0, z1], 1e-9):.1e}")
