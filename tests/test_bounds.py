"""Tests for the union bound and its closed-form overlap-ratio bounds."""

import math
from decimal import Decimal, getcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epioverlap as ep
from epioverlap.bounds import AveragedKReport, design_size, union_k_bound

getcontext().prec = 50


def decimal_bound(dsub: int) -> float:
    """High-precision (1/d')(1 + sqrt(1 - 1/d')) via Decimal arithmetic."""
    d = Decimal(dsub)
    return float((1 + (1 - 1 / d).sqrt()) / d)


def decimal_threshold(d: int) -> float:
    """High-precision 2 (1 - sqrt(1 - 1/d) - 1/d^2) / ((d - 1)(3d + 2))."""
    d = Decimal(d)
    return float(2 * (1 - (1 - 1 / d).sqrt() - 1 / d ** 2) / ((d - 1) * (3 * d + 2)))


def mub_weight_closed_form(d: int) -> float:
    return d / (1 + math.sqrt(1 - 1 / d))


class TestNoiselessBound:
    def test_d4_exact(self):
        rep = ep.noiseless_bound(4)
        assert rep.subdim == 4
        assert abs(rep.exact_bound - decimal_bound(4)) < 1e-12

    def test_d4_coarse_above_exact(self):
        rep = ep.noiseless_bound(4)
        assert rep.coarse_two_over_subdim == 0.5
        assert rep.exact_bound < rep.coarse_two_over_subdim

    def test_d10_uses_subdimension_9(self):
        rep = ep.noiseless_bound(10)
        assert rep.subdim == 9
        assert abs(rep.exact_bound - decimal_bound(9)) < 1e-12

    def test_chains_hold_up_to_1024(self):
        for d in range(4, 1025):
            rep = ep.noiseless_bound(d)
            assert 0 < rep.exact_bound <= 1
            assert rep.exact_bound < 2 / rep.subdim
            assert rep.exact_bound < 4 / (d - 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_small_dimensions_rejected(self, d):
        with pytest.raises(ValueError):
            ep.noiseless_bound(d)

    @pytest.mark.parametrize("d", [4, 1021, 999983])
    def test_full_precision(self, d):
        assert ep.noiseless_bound(d).exact_bound == pytest.approx(
            decimal_bound(d), rel=1e-15, abs=0)


class TestAsymptotics:
    def test_powers_of_two_strictly_decreasing(self):
        dims = [2 ** k for k in range(2, 11)]
        rows = ep.asymptotic_check(dims)
        values = [r.exact_bound for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bound_times_subdim_range(self):
        rows = ep.asymptotic_check(range(4, 300))
        assert all(1 < r.exact_bound * r.subdim <= 2 for r in rows)

    def test_rows_are_noiseless_reports(self):
        assert ep.asymptotic_check([10]) == [ep.noiseless_bound(10)]

    def test_large_dimension_small_bound(self):
        assert ep.asymptotic_check([1024])[0].exact_bound < 0.005


class TestNoisyBound:
    def test_zero_noise_reduces_exactly(self):
        assert ep.noisy_bound(4, 0.0, 0.0).tight == ep.noiseless_bound(4).exact_bound

    def test_boundary_error_rate(self):
        # at symmetric error 0.0034 the coarse form is already past 1
        # while the tight form still sits just under it
        noisy = ep.noisy_bound(4, 0.0034, 0.0034)
        assert noisy.coarse >= 1.0
        assert 0.99 < noisy.tight < 1.0

    def test_small_error_stays_conclusive(self):
        assert ep.noisy_bound(4, 0.001, 0.001).tight < 1.0

    def test_tight_below_coarse(self):
        for eps in (0.0, 1e-4, 1e-3, 1e-2):
            noisy = ep.noisy_bound(5, eps, eps / 2)
            assert noisy.tight <= noisy.coarse

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ep.noisy_bound(4, -1e-3, 0.0)

    @pytest.mark.parametrize("eps1, eps2", [(math.nan, 0.0), (0.0, math.nan)])
    def test_nan_noise_rejected(self, eps1, eps2):
        with pytest.raises(ValueError, match="nonnegative"):
            ep.noisy_bound(4, eps1, eps2)

    def test_non_prime_power_evaluated_at_subdimension(self):
        noisy = ep.noisy_bound(10, 1e-4, 1e-4)
        assert noisy.subdim == 9
        assert noisy.tight == ep.noisy_bound(9, 1e-4, 1e-4).tight

    @given(st.floats(0, 0.05), st.floats(0, 0.05), st.floats(0, 0.01), st.floats(0, 0.01))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_noise(self, e1, e2, d1, d2):
        base = ep.noisy_bound(4, e1, e2).tight
        bumped = ep.noisy_bound(4, e1 + d1, e2 + d2).tight
        assert bumped >= base

    def test_continuous_at_zero(self):
        base = ep.noiseless_bound(8).exact_bound
        assert ep.noisy_bound(8, 1e-12, 1e-12).tight == pytest.approx(base, abs=1e-7)


class TestNoiseThreshold:
    def test_d4_value(self):
        assert ep.noise_threshold(4) == pytest.approx(0.0034, abs=1e-4)

    def test_strictly_decreasing(self):
        values = [ep.noise_threshold(d) for d in (4, 5, 7, 8, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_threshold_is_the_unit_crossing(self):
        for d in (4, 5, 8):
            eps = ep.noise_threshold(d)
            assert ep.noisy_bound(d, eps, eps).tight == pytest.approx(1.0, abs=1e-9)
            assert ep.noisy_bound(d, eps * 1.01, eps * 1.01).tight > 1.0
            assert ep.noisy_bound(d, eps * 0.99, eps * 0.99).tight < 1.0

    def test_coarse_form_already_inconclusive_at_threshold(self):
        eps = ep.noise_threshold(4)
        assert ep.noisy_bound(4, eps, eps).coarse >= 1.0

    def test_non_prime_power_rejected(self):
        with pytest.raises(ValueError):
            ep.noise_threshold(6)

    @pytest.mark.parametrize("d", [4, 1021, 999983])
    def test_full_precision(self, d):
        assert ep.noise_threshold(d) == pytest.approx(decimal_threshold(d), rel=1e-15, abs=0)

    def test_union_bound_is_one_at_threshold(self):
        for d in (4, 5, 7, 8, 9, 11, 1021, 999983):
            n_triples, n_pairs = design_size(d)
            eps = ep.noise_threshold(d)
            k = union_k_bound(3 * n_triples * eps, 2 * n_pairs * eps, mub_weight_closed_form(d))
            assert k == pytest.approx(1.0, rel=1e-15, abs=0), d


class TestUnionBound:
    """(1 + 3 sum_t eps_t + 2 sum_p eps_p) / W(c) on a maximal MUB design is
    noisy_bound(...).tight, with d^3 (d - 1) / 2 triples and d^2 (d - 1) / 2
    same-basis pairs."""

    def test_design_size(self):
        assert design_size(3) == (27, 9)
        assert design_size(4) == (96, 24)
        assert design_size(11) == (6655, 605)

    @pytest.mark.parametrize("d", [4, 5, 7, 8, 9, 11])
    def test_equals_closed_form(self, d, mub_weight):
        n_triples, n_pairs = design_size(d)
        threshold = ep.noise_threshold(d)
        for eps1, eps2 in ((0.0, 0.0), (threshold, threshold), (2e-4, 5e-5),
                           (0.0, 0.01), (0.01, 0.0)):
            k = union_k_bound(3 * n_triples * eps1, 2 * n_pairs * eps2, mub_weight(d))
            assert k == pytest.approx(ep.noisy_bound(d, eps1, eps2).tight, rel=1e-14, abs=0)

    def test_weight_is_closed_form(self, mub_weight):
        for d in (4, 5, 7, 8, 9, 11):
            assert mub_weight(d) == pytest.approx(mub_weight_closed_form(d),
                                                  rel=1e-14, abs=0)

    @pytest.mark.parametrize("w", [0.0, -0.5, -0.0, math.nan, math.inf])
    def test_degenerate_weight_rejected(self, w):
        with pytest.raises(ZeroDivisionError, match="overlap weight"):
            union_k_bound(0.1, 0.1, w)

    @pytest.mark.parametrize("triple_sum, pair_sum", [
        (math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (math.inf, -math.inf),
        (1e308, 1e308)])
    def test_non_finite_numerator_rejected(self, triple_sum, pair_sum):
        with pytest.raises(ZeroDivisionError, match="numerator"):
            union_k_bound(triple_sum, pair_sum, 2.0)


class TestAveragedK:
    def test_all_zero(self):
        rep = ep.averaged_k_bound([0.0] * 16, 4)
        assert rep.average == 0.0
        assert rep.satisfied

    def test_all_one_d4_nonbinding(self):
        rep = ep.averaged_k_bound([1.0] * 16, 4)
        assert rep.average == 1.0
        assert rep.bound == pytest.approx(4 / 3)
        assert rep.satisfied          # 1 < 4/3
        assert not rep.binding        # the bound exceeds the trivial ceiling

    def test_d9_violation(self):
        rep = ep.averaged_k_bound([0.6] * 81, 9)
        assert rep.bound == pytest.approx(0.5)
        assert not rep.satisfied
        assert rep.binding

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            ep.averaged_k_bound([0.1] * 15, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ep.averaged_k_bound([0.5] * 15 + [1.2], 4)

    @pytest.mark.parametrize("values, d", [([0.5], 1), ([], 0), ([], -3)])
    def test_dimension_below_two_rejected(self, values, d):
        with pytest.raises(ValueError, match="d must be >= 2"):
            ep.averaged_k_bound(values, d)

    def test_report_type(self):
        assert isinstance(ep.averaged_k_bound([0.2] * 16, 4), AveragedKReport)
