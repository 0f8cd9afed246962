"""Tests for the three-dimensional certificate pipeline."""

import dataclasses

import numpy as np
import pytest

import epioverlap as ep
from epioverlap import d3cert
from epioverlap.d3cert import CertificateReport
from epioverlap.qstate import OrthonormalBasis, haar_unitary
from epioverlap.triples import Census, triple_epsilon

# Reference values for the canonical instance: the rounded literals the
# instance is built from, and the regression table of minimized triple sums.
RAW_C = np.array([-0.374 - 0.236j, 0.778 - 0.071j, 0.018 - 0.441j])

TRIPLE_SUM_TABLE = {
    (1, 2): {(1, 1): 0.0, (1, 2): 0.0, (1, 3): 0.02280,
             (2, 1): 0.02046, (2, 2): 0.02854, (2, 3): 0.1119,
             (3, 1): 0.0, (3, 2): 0.0, (3, 3): 0.04198},
    (1, 3): {(1, 1): 0.0, (1, 2): 0.0001107, (1, 3): 0.02699,
             (2, 1): 0.02046, (2, 2): 0.04659, (2, 3): 0.09913,
             (3, 1): 0.0, (3, 2): 0.00006005, (3, 3): 0.01415},
    (2, 3): {(1, 1): 0.0, (1, 2): 0.0001284, (1, 3): 0.02836,
             (2, 1): 0.0, (2, 2): 0.0, (2, 3): 0.01016,
             (3, 1): 0.04370, (3, 2): 0.02959, (3, 3): 0.1035},
}

# Reference minimizing basis for the (1,1) triple of the (1,2) family,
# recorded to four decimals; near-orthonormal, re-orthonormalized before use.
ROW_11_BASIS = np.array([
    [0.0, -0.3439 - 0.6178j, -0.6621 - 0.2482j],
    [0.8171 - 0.5765j, 0.0, 0.0],
    [0.0, 0.3631 - 0.6068j, 0.1161 + 0.6975j],
])


@pytest.fixture(scope="module")
def quick_report(d3_instance):
    return d3cert.optimize_all_triples(d3_instance, restarts=12, seed=3)


def row(report, key):
    """The report's search of the triple keyed (alpha, i, beta, j)."""
    return report.census.row(report.census.keys.index(key))


def one_row_census(converged=True):
    """A hand-built census of one triple, (1, 1, 2, 1), with a zero misfire."""
    return Census(keys=((1, 1, 2, 1),), matrices=np.eye(3, dtype=complex)[None],
                  epsilon=np.zeros(1), dual_gap=np.zeros(1),
                  converged=np.array([converged]), restarts_used=np.ones(1, dtype=int),
                  evaluations=np.ones(1, dtype=int))


class TestCanonicalStates:
    def test_bases_mutually_unbiased(self, d3_instance):
        for a in range(3):
            for b in range(a + 1, 3):
                fid = np.abs(d3_instance.bases[a].matrix.conj().T
                             @ d3_instance.bases[b].matrix) ** 2
                assert np.max(np.abs(fid - 1 / 3)) < 1e-12

    def test_e11_e21_fidelity(self, d3_instance):
        assert ep.fidelity(d3_instance.basis_vector(1, 1),
                           d3_instance.basis_vector(2, 1)) == pytest.approx(1 / 3, abs=1e-12)

    def test_raw_reference_state_nearly_normalized(self):
        assert abs(np.linalg.norm(RAW_C) - 1.0) < 5e-4

    def test_reference_state_renormalized(self, d3_instance):
        assert np.linalg.norm(d3_instance.c.amplitudes) == pytest.approx(1.0, abs=1e-14)
        phase_free = RAW_C / np.linalg.norm(RAW_C)
        assert np.allclose(d3_instance.c.amplitudes, phase_free)

    def test_uniform_vector_row(self, d3_instance):
        e32 = d3_instance.basis_vector(3, 2)
        assert np.allclose(e32.amplitudes, np.ones(3) / np.sqrt(3))
        for i in (1, 2, 3):
            assert ep.fidelity(e32, d3_instance.basis_vector(1, i)) == pytest.approx(
                1 / 3, abs=1e-12)


class TestQuantumEpsilon:
    def test_zero_at_exact_conjugate_basis(self, d3_instance):
        a = d3_instance.basis_vector(1, 1)
        b = d3_instance.basis_vector(2, 1)
        result = ep.find_conjugate_basis(a, b, d3_instance.c, restarts=16, seed=0)
        assert triple_epsilon(a, b, d3_instance.c, OrthonormalBasis(result.matrix)) < 1e-9

    def test_reference_row_11_basis(self, d3_instance):
        q, r = np.linalg.qr(ROW_11_BASIS)
        basis = OrthonormalBasis(q * (np.diag(r) / np.abs(np.diag(r))))
        eps = triple_epsilon(d3_instance.basis_vector(1, 1),
                             d3_instance.basis_vector(2, 1),
                             d3_instance.c, basis)
        assert eps < 1e-3

    def test_random_basis_never_beats_optimum(self, d3_instance):
        a = d3_instance.basis_vector(2, 3)
        b = d3_instance.basis_vector(3, 3)
        best = ep.find_conjugate_basis(a, b, d3_instance.c, restarts=24, seed=1).epsilon
        for seed in range(5):
            random_basis = ep.random_unitary(3, seed)
            assert triple_epsilon(a, b, d3_instance.c, random_basis) >= best - 1e-12


class TestOptimizeAllTriples:
    def test_entry_census(self, quick_report):
        assert len(quick_report.census.keys) == 27
        assert set(quick_report.family_sums) == {(1, 2), (1, 3), (2, 3)}

    def test_family_and_grand_sums(self, quick_report):
        assert quick_report.family_sums[(1, 2)] == pytest.approx(0.2257, abs=2e-3)
        assert quick_report.grand_noise_sum == pytest.approx(0.649, abs=2e-3)

    def test_zero_rows_spot_check(self, quick_report):
        assert row(quick_report, (1, 1, 2, 1)).epsilon < 1e-8
        assert row(quick_report, (2, 1, 3, 1)).epsilon < 1e-8

    def test_nonzero_row_spot_check(self, quick_report):
        assert row(quick_report, (1, 2, 2, 3)).triple_sum == pytest.approx(
            0.1119, abs=2e-3)

    def test_seed_reproducibility(self, d3_instance, quick_report):
        again = d3cert.optimize_all_triples(d3_instance, restarts=12, seed=3)
        assert again.census.keys == quick_report.census.keys
        assert np.array_equal(again.census.epsilon, quick_report.census.epsilon)

    def test_seed_independence_of_optimum(self, d3_instance, quick_report):
        other = d3cert.optimize_all_triples(d3_instance, restarts=16, seed=123)
        for key in ((1, 2, 2, 3), (2, 3, 3, 3), (1, 1, 3, 2)):
            assert row(other, key).epsilon == pytest.approx(
                row(quick_report, key).epsilon, abs=1e-6)


class TestCertifyK:
    def test_overlap_weight_sum_value(self, d3_instance):
        assert d3cert.overlap_weight_sum(d3_instance) == pytest.approx(1.739, abs=2e-3)

    def test_overlap_weight_sum_replaced_reference(self, d3_instance):
        surrogate = d3cert.D3Instance(bases=d3_instance.bases,
                                      c=d3_instance.basis_vector(1, 1))
        expected = 1 + 6 * (1 - np.sqrt(2 / 3))
        assert d3cert.overlap_weight_sum(surrogate) == pytest.approx(expected, abs=1e-12)

    def test_overlap_weight_sum_unitary_invariant(self, d3_instance):
        w = haar_unitary(3, np.random.default_rng(11))
        rotated = d3cert.D3Instance(
            bases=tuple(OrthonormalBasis(w @ b.matrix)
                        for b in d3_instance.bases),
            c=ep.PureState(w @ d3_instance.c.amplitudes))
        assert d3cert.overlap_weight_sum(rotated) == pytest.approx(
            d3cert.overlap_weight_sum(d3_instance), abs=1e-12)

    def test_formula_zero_noise(self, d3_instance):
        report = CertificateReport(one_row_census(), grand_noise_sum=0.0)
        k = d3cert.certify_k(report, d3_instance)
        assert k == pytest.approx(1 / d3cert.overlap_weight_sum(d3_instance), abs=1e-15)
        assert k == pytest.approx(0.575, abs=1e-3)

    def test_formula_boundary(self, d3_instance):
        w = d3cert.overlap_weight_sum(d3_instance)
        report = CertificateReport(one_row_census(), grand_noise_sum=w - 1.0)
        assert d3cert.certify_k(report, d3_instance) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("g", [np.inf, np.nan])
    def test_non_finite_noise_sum_rejected(self, d3_instance, g):
        report = CertificateReport(one_row_census(), grand_noise_sum=g)
        with pytest.raises(ZeroDivisionError):
            d3cert.certify_k(report, d3_instance)
        assert report.k_bound is None

    @pytest.mark.parametrize("w", [0.0, -1.0, np.nan])
    def test_degenerate_weight_rejected(self, d3_instance, monkeypatch, w):
        monkeypatch.setattr(d3cert, "overlap_weight_sum", lambda instance: w)
        report = CertificateReport(one_row_census(), grand_noise_sum=0.5)
        with pytest.raises(ZeroDivisionError):
            d3cert.certify_k(report, d3_instance)
        assert report.k_bound is None

    def test_unconverged_triples_rejected(self, d3_instance, quick_report):
        census = quick_report.census
        converged = census.converged.copy()
        converged[census.keys.index((1, 1, 2, 1))] = False
        bad = CertificateReport(dataclasses.replace(census, converged=converged))
        with pytest.raises(RuntimeError, match=r"\[\(1, 1, 2, 1\)\]"):
            d3cert.certify_k(bad, d3_instance)
        with pytest.raises(RuntimeError):
            d3cert.certify_k(CertificateReport(one_row_census(converged=False)), d3_instance)

    def test_quick_certificate_under_bound(self, d3_instance, quick_report):
        k = d3cert.certify_k(quick_report, d3_instance)
        assert k <= 0.95
        assert quick_report.k_bound == k
        assert quick_report.overlap_weight_sum is not None

