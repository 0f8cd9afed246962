"""The three-dimensional overlap-ratio certificate.

Fixes three mutually unbiased bases of C^3 and a reference state c, then
minimizes the misfire average eps(c, e^a_i, e^b_j) over measurement bases
for all 27 cross-basis triples. The certified bound is

    k <= (1 + G) / W

where G is three times the summed minimal misfire averages and W is the
nine-term sum of quantum overlaps between c and the basis vectors: the
union bound of bounds.union_k_bound with no same-basis pair term, since
the bases are exact. With the canonical instance the pipeline certifies
k <= 0.95. The report holds the 27 searches as one triples.Census.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import overlap_weight, union_k_bound
from .mub import MubFamily, verify_mub
from .qstate import OrthonormalBasis, PureState
from .triples import Census, cross_basis_census

BASIS_PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class D3Instance:
    """Three pairwise unbiased bases of C^3 plus a fixed reference state."""

    bases: tuple
    c: PureState

    def __post_init__(self):
        if len(self.bases) != 3:
            raise ValueError("exactly three bases expected")
        check = verify_mub(MubFamily(dim=3, bases=self.bases))
        if check.max_cross_deviation > 1e-10:
            (a, _), (b, _) = check.worst_pair
            raise ValueError(f"bases {a + 1} and {b + 1} are not mutually unbiased")
        if self.c.dim != 3:
            raise ValueError("reference state must live in C^3")

    def basis_vector(self, alpha: int, i: int) -> PureState:
        """Vector i of basis alpha, both 1-based."""
        return self.bases[alpha - 1].vectors[i - 1]


# Reference-state components, rounded to three decimals; renormalized below.
_C_COMPONENTS = (-0.374 - 0.236j, 0.778 - 0.071j, 0.018 - 0.441j)


def canonical_states() -> D3Instance:
    """The canonical instance: standard basis, two quadratic-phase bases,
    and the fixed reference state."""
    w = np.exp(2j * np.pi / 3)
    e1 = np.eye(3, dtype=complex)
    e2 = np.column_stack([
        np.array([1, 1, w ** 2]), np.array([1, w ** 2, 1]), np.array([1, w, w]),
    ]).astype(complex) / np.sqrt(3)
    e3 = np.column_stack([
        np.array([1, w, w ** 2]), np.array([1, 1, 1]), np.array([1, w ** 2, w]),
    ]).astype(complex) / np.sqrt(3)
    bases = tuple(OrthonormalBasis(m) for m in (e1, e2, e3))
    return D3Instance(bases=bases, c=PureState.normalized(np.array(_C_COMPONENTS)))


@dataclass
class CertificateReport:
    """The census of the 27 triples, keyed (alpha, i, beta, j), plus the
    aggregates feeding the k bound."""

    census: Census
    family_sums: dict = field(default_factory=dict)
    grand_noise_sum: float = 0.0
    overlap_weight_sum: float | None = None
    k_bound: float | None = None


def optimize_all_triples(instance: D3Instance, restarts: int = 64,
                         seed: int = 0) -> CertificateReport:
    """Minimize the misfire average for each of the 27 cross-basis triples.

    Deterministic per seed (see triples.cross_basis_census). Non-convergence
    is visible per triple in census.converged. Each family sum adds the
    triple sums 3 eps one by one, in census order.
    """
    report = CertificateReport(cross_basis_census(instance.bases, instance.c, restarts, seed))
    for (alpha, _, beta, _), eps in zip(report.census.keys, report.census.epsilon.tolist()):
        report.family_sums[alpha, beta] = report.family_sums.get((alpha, beta), 0.0) + 3.0 * eps
    report.grand_noise_sum = float(sum(report.family_sums.values()))
    return report


def overlap_weight_sum(instance: D3Instance) -> float:
    """Sum over the nine basis vectors of the quantum overlap with c."""
    return overlap_weight(instance.c, [v for basis in instance.bases for v in basis.vectors])


def certify_k(report: CertificateReport, instance: D3Instance) -> float:
    """The certified bound (1 + grand noise sum) / overlap weight sum.

    Also stamps the overlap weight sum and bound into the report. Raises
    RuntimeError if any triple failed to converge, and union_k_bound's
    ZeroDivisionError if the bound is degenerate.
    """
    bad = [key for key, ok in zip(report.census.keys, report.census.converged) if not ok]
    if bad:
        raise RuntimeError(f"triples did not converge: {bad}")
    w = overlap_weight_sum(instance)
    k = union_k_bound(report.grand_noise_sum, 0.0, w)
    report.overlap_weight_sum = w
    report.k_bound = k
    return k


def run_certificate(instance: D3Instance | None = None, restarts: int = 64,
                    seed: int = 0) -> CertificateReport:
    """Full pipeline: optimize all triples, then certify the bound."""
    if instance is None:
        instance = canonical_states()
    report = optimize_all_triples(instance, restarts=restarts, seed=seed)
    certify_k(report, instance)
    return report
