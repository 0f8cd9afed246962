"""How much epistemic overlap can survive as the dimension grows.

For any model reproducing quantum statistics in dimension d >= 4 with
omega_C >= k * omega_Q across all state pairs, the admissible k is capped
by (1/d')(1 + sqrt(1 - 1/d')) at the largest prime power d' <= d. The cap
decays like 2/d, and noisy data weakens it in a controlled way.
"""

import epioverlap as ep

print("noiseless bound vs dimension:")
print(f"{'d':>6} {'d_sub':>6} {'bound':>12} {'2/d_sub':>10} {'4/(d-1)':>10}")
for d in (4, 5, 6, 8, 10, 16, 32, 100, 1024):
    rep = ep.noiseless_bound(d)
    print(f"{d:>6} {rep.subdim:>6} {rep.exact_bound:>12.6f} "
          f"{rep.coarse_two_over_subdim:>10.6f} {rep.coarse_four_over_dim_minus_one:>10.6f}")

rows = ep.asymptotic_check([2 ** k for k in range(2, 11)])
print("\nbound times subdimension stays in (1, 2]:")
print("  " + ", ".join(f"{r.exact_bound * r.subdim:.4f}" for r in rows))

print("\nsymmetric noise threshold keeping the bound below 1:")
for d in (4, 5, 7, 8, 9):
    print(f"  d={d}: eps < {ep.noise_threshold(d):.6f}")

print("\nnoise-adjusted bound at d=4:")
for eps in (0.0, 0.001, 0.003, ep.noise_threshold(4), 0.005):
    noisy = ep.noisy_bound(4, eps, eps)
    print(f"  eps={eps:.6f}: tight {noisy.tight:.6f}, coarse {noisy.coarse:.6f}, "
          f"within budget: {noisy.tight < 1.0}")

# The averaged form of the bound over a d^2-state family.
report = ep.averaged_k_bound([0.3] * 81, 9)
print(f"\naveraged ratio 0.3 over 81 pairs at d=9: bound {report.bound:.4f}, "
      f"satisfied: {report.satisfied}, binding: {report.binding}")
