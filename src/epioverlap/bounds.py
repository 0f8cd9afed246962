"""Upper bounds on the overlap ratio k.

Every bound here is one union bound. A model reproducing quantum statistics
with omega_C >= k * omega_Q for all state pairs satisfies, for a reference
state c, e states e and the design's cross-basis triples t and same-basis
pairs p,

    k <= (1 + 3 sum_t eps_t + 2 sum_p eps_p) / W(c),   W(c) = sum_e omega_Q(c, e)

in any dimension (union_k_bound, with overlap_weight for W). The d = 3
certificate and the simulated experiment both evaluate it.

The caps for d >= 4 evaluate it too, on the maximal MUB design in the
largest prime power d' <= d (design_size, and W in closed form). Noiseless,

    k <= (1/d') (1 + sqrt(1 - 1/d'))

strictly below the coarser 2/d' and, via the prime between floor(d/2) and
d, below 4/(d - 1). The misfire averages eps1 (triples) and eps2 (pairs)
raise the numerator; noise_threshold is where the bound reaches 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mub import is_prime_power, largest_prime_power_leq
from .qstate import fidelity


@dataclass(frozen=True)
class KBoundReport:
    dim: int
    subdim: int
    exact_bound: float
    coarse_two_over_subdim: float
    coarse_four_over_dim_minus_one: float


@dataclass(frozen=True)
class NoisyBound:
    dim: int
    subdim: int
    eps1: float
    eps2: float
    tight: float
    coarse: float


@dataclass(frozen=True)
class AveragedKReport:
    average: float
    bound: float
    satisfied: bool
    binding: bool


def overlap_weight(c, states) -> float:
    """W(c): the sum over the e states of omega_Q(c, e) = 1 - sqrt(1 - |<e|c>|^2),
    in the order given."""
    return float(sum(1.0 - math.sqrt(max(0.0, 1.0 - fidelity(e, c))) for e in states))


def union_k_bound(triple_sum: float, pair_sum: float, w: float) -> float:
    """The union bound (1 + triple_sum + pair_sum) / w on k, in any dimension:
    triple_sum is 3 sum_t eps_t, pair_sum 2 sum_p eps_p and w is W(c).
    Raises ZeroDivisionError unless w is positive and finite and the
    numerator finite."""
    if not (math.isfinite(w) and w > 0.0):
        raise ZeroDivisionError(f"overlap weight sum is degenerate: {w!r}")
    numerator = 1.0 + triple_sum + pair_sum
    if not math.isfinite(numerator):
        raise ZeroDivisionError(f"union-bound numerator is not finite: {numerator!r}")
    return numerator / w


def design_size(d: int) -> tuple:
    """(triples, same-basis pairs) of a maximal MUB design in dimension d;
    the three bases of the d = 3 certificate instance give the same counts."""
    return d ** 3 * (d - 1) // 2, d ** 2 * (d - 1) // 2


def _mub_weight(d: int) -> float:
    """W(c) of a maximal MUB design: d^2 e states with |<e|c>|^2 = 1/d give
    d^2 (1 - sqrt(1 - 1/d)), here without the cancelling difference."""
    return d / (1.0 + math.sqrt(1.0 - 1.0 / d))


def noiseless_bound(d: int) -> KBoundReport:
    """The noiseless k bound for dimension d >= 4.

    Dimensions 2 and 3 are rejected: a maximally epistemic qubit model
    exists, and the three-dimensional case is handled by the dedicated
    certificate pipeline (see d3cert).
    """
    if d < 4:
        raise ValueError(
            "d must be >= 4 (d=3 has its own certificate pipeline; d=2 admits a "
            "maximally epistemic model)")
    dsub = largest_prime_power_leq(d)
    return KBoundReport(
        dim=d,
        subdim=dsub,
        exact_bound=union_k_bound(0.0, 0.0, _mub_weight(dsub)),
        coarse_two_over_subdim=2.0 / dsub,
        coarse_four_over_dim_minus_one=4.0 / (d - 1),
    )


def asymptotic_check(dims) -> list:
    """noiseless_bound over a list of dimensions; it decays like 2/d."""
    return [noiseless_bound(d) for d in dims]


def noisy_bound(d: int, eps1: float, eps2: float) -> NoisyBound:
    """Noise-adjusted k bound at misfire averages eps1 and eps2.

    The tight form is the union bound on the maximal MUB design in the
    largest prime power d' <= d, with the subspace embedding understood;
    the coarse form 2/d' + d'^2 (3 d' eps1 + 2 eps2) always dominates it.
    """
    if d < 4:
        raise ValueError("d must be >= 4")
    if not (eps1 >= 0.0 and eps2 >= 0.0):
        raise ValueError("noise averages must be nonnegative")
    dsub = largest_prime_power_leq(d)
    n_triples, n_pairs = design_size(dsub)
    tight = union_k_bound(3.0 * n_triples * eps1, 2.0 * n_pairs * eps2, _mub_weight(dsub))
    coarse = 2.0 / dsub + dsub * dsub * (3.0 * dsub * eps1 + 2.0 * eps2)
    return NoisyBound(dim=d, subdim=dsub, eps1=eps1, eps2=eps2,
                      tight=tight, coarse=coarse)


def noise_threshold(d: int) -> float:
    """Largest symmetric eps = eps1 = eps2 keeping the tight bound under 1 in a
    prime power d >= 4: the numerator 1 + (3 n_t + 2 n_p) eps reaches W at
    eps = 2 (1 - sqrt(1 - 1/d) - 1/d^2) / ((d - 1) (3 d + 2))."""
    if d < 4 or not is_prime_power(d):
        raise ValueError("d must be a prime power >= 4")
    n_triples, n_pairs = design_size(d)
    return (_mub_weight(d) - 1.0) / (3 * n_triples + 2 * n_pairs)


def averaged_k_bound(values, d: int) -> AveragedKReport:
    """Mean of d^2 per-pair overlap ratios against the 4/(d-1) bound.

    ``binding`` is False when 4/(d-1) >= 1, in which case the bound carries
    no information because each ratio is at most 1 anyway.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    vals = list(values)
    if len(vals) != d * d:
        raise ValueError(f"expected exactly {d * d} values, got {len(vals)}")
    for v in vals:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"ratio {v!r} is outside [0, 1]")
    average = sum(vals) / len(vals)
    bound = 4.0 / (d - 1.0)
    return AveragedKReport(
        average=average,
        bound=bound,
        satisfied=average < bound,
        binding=bound < 1.0,
    )
