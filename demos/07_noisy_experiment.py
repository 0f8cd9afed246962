"""Simulating the finite-sample experiment and its noise budget.

The protocol measures misfire frequencies for all cross-basis triples and
same-basis pairs of a maximal MUB family in d=4. Their averages eps1 and
eps2 feed the noise-adjusted bound; the experiment stays conclusive (bound
below 1) while 3*d*eps1 + 2*eps2 stays inside the noise budget.

Building the design optimizes 96 conjugate bases in one stacked search. On a
2-core machine it takes about 0.09 s, and the whole demo about 0.6 s.
"""

import epioverlap as ep
from epioverlap import expsim

family = ep.generate_mub(4)
design = expsim.design_from_mubs(family, restarts=12, seed=0)
print(f"design: {len(design.settings)} settings "
      f"({len(design.triples)} triples, {len(design.pairs)} same-basis pairs)")
print(f"worst conjugate-basis floor: {design.census.epsilon.max():.2e}")

shots = 200_000
print(f"\n{shots} shots per setting:")
print(f"{'channel':>22} {'eps1':>12} {'eps2':>12} {'k bound':>10} {'conclusive':>11}")
for channel in (expsim.NoNoise(), expsim.Depolarizing(0.001),
                expsim.Depolarizing(0.003), expsim.Depolarizing(0.01),
                expsim.Misalignment(0.02)):
    noise = expsim.NoiseConfig(channel=channel, shots=shots, seed=7)
    table = expsim.run_experiment(design, noise)
    summary = expsim.aggregate_eps(table, design)
    k = expsim.experimental_k_bound(summary)
    label = channel.kind
    parameter = getattr(channel, "p", getattr(channel, "sigma", None))
    if parameter is not None:
        label += f" {parameter}"
    print(f"{label:>22} {summary.eps1:>12.6f} {summary.eps2:>12.6f} "
          f"{k:>10.4f} {str(k < 1):>11}")

eps = ep.noise_threshold(4)
print(f"\nsymmetric threshold at d=4: {eps:.6f} "
      f"(budget {14 * eps:.6f} for 3 d eps1 + 2 eps2)")

# misalignment leaks probability onto the complement outcome f4; the run
# renormalizes it away (the analysis assumes in-subspace alignment) but
# reports the leaked mass per setting
noise = expsim.NoiseConfig(channel=expsim.Misalignment(0.05), shots=1000, seed=9)
table = expsim.run_experiment(design, noise)
print(f"largest f4 mass under misalignment 0.05: {max(table.f4_mass.values()):.2e}")
