"""Tests for the MUB constructions, verification, and embeddings."""

import numpy as np
import pytest

import epioverlap as ep
from epioverlap.cli import MAX_MUB_DIM
from epioverlap.mub import (
    SUPPORTED_DIMENSIONS,
    MubFamily,
    embed_family,
    embed_state,
    prime_power_base,
)

# {2, 4, 8, 9} and the odd primes up to the CLI cap, by trial division
SUPPORTED = sorted([2, 4, 8, 9] + [p for p in range(3, MAX_MUB_DIM + 1, 2)
                                   if all(p % k for k in range(3, p, 2))])
UNSUPPORTED = [d for d in range(1, MAX_MUB_DIM + 1) if d not in SUPPORTED]


def bases_equivalent(a, b, tol=1e-8):
    """True when the bases agree up to per-vector phases and relabeling.

    Checked through the fidelity pattern: each vector of one basis must have
    unit fidelity with exactly one vector of the other.
    """
    if a.dim != b.dim:
        return False
    fid = np.abs(a.matrix.conj().T @ b.matrix) ** 2
    perm = np.argmax(fid, axis=1)
    if sorted(perm) != list(range(a.dim)):
        return False
    return all(abs(fid[i, perm[i]] - 1.0) < tol for i in range(a.dim))


def cross_fidelity_deviation(family):
    """Independent direct check: max |fidelity - 1/d| over all cross pairs."""
    d = family.subspace_dim
    worst = 0.0
    for a in range(family.count):
        for b in range(a + 1, family.count):
            for v in family.bases[a].vectors[:d]:
                for w in family.bases[b].vectors[:d]:
                    worst = max(worst, abs(ep.fidelity(v, w) - 1.0 / d))
    return worst


class TestGeneration:
    @pytest.mark.parametrize("dim", SUPPORTED)
    def test_full_family(self, dim):
        family = ep.generate_mub(dim)
        assert family.count == dim + 1
        assert all(b.dim == dim for b in family.bases)
        assert ep.verify_mub(family).max_cross_deviation < 1e-10
        if dim <= 11:  # the direct check is quartic in dim
            assert cross_fidelity_deviation(family) < 1e-10

    def test_dim5_cross_fidelities(self):
        family = ep.generate_mub(5)
        assert family.count == 6
        for a in range(6):
            for b in range(a + 1, 6):
                fid = np.abs(family.bases[a].matrix.conj().T @ family.bases[b].matrix) ** 2
                assert np.max(np.abs(fid - 0.2)) < 1e-10

    def test_builds_no_states(self, count_constructions):
        states = count_constructions(ep.PureState)
        family = ep.generate_mub(4)
        assert states == [] and family.count == 5

    def test_dim6_unsupported(self):
        with pytest.raises(ep.UnsupportedDimensionError, match="unsupported dimension"):
            ep.generate_mub(6)

    @pytest.mark.parametrize("dim", UNSUPPORTED)
    def test_other_unsupported(self, dim):
        with pytest.raises(ep.UnsupportedDimensionError) as exc:
            ep.generate_mub(dim)
        assert SUPPORTED_DIMENSIONS in str(exc.value)

    def test_dim3_contains_canonical_bases(self):
        """The canonical three bases of the d=3 certificate all appear, up to
        per-vector phases and relabeling, and one extra basis completes the
        family of four."""
        family = ep.generate_mub(3)
        canonical = ep.canonical_states().bases
        assert family.count == 4
        for want in canonical:
            assert any(bases_equivalent(want, got) for got in family.bases)


class TestVerification:
    def test_exact_d3(self):
        assert ep.verify_mub(ep.generate_mub(3)).max_cross_deviation < 1e-12

    def test_exact_d9(self):
        assert ep.verify_mub(ep.generate_mub(9)).max_cross_deviation < 1e-10

    def test_corrupted_family_flagged(self):
        family = ep.generate_mub(3)
        # swap one vector of basis 1 for its like-indexed mate from basis 2
        bad = list(family.bases[1].vectors)
        bad[0] = family.bases[2].vectors[0]
        corrupted = MubFamily(dim=3, bases=(
            family.bases[0],
            _loose_basis(bad),
            family.bases[2],
            family.bases[3],
        ))
        report = ep.verify_mub(corrupted)
        assert report.max_cross_deviation >= 1 / 3 - 1e-10


def _loose_basis(vectors):
    """Bypass orthonormality validation to build a deliberately bad basis."""
    basis = object.__new__(ep.OrthonormalBasis)
    object.__setattr__(basis, "matrix", np.column_stack([v.amplitudes for v in vectors]))
    return basis


class TestPrimePowers:
    def test_prime_power_base(self):
        assert prime_power_base(8) == 2
        assert prime_power_base(9) == 3
        assert prime_power_base(12) is None
        assert prime_power_base(97) == 97

    @pytest.mark.parametrize("d,expected", [(4, 4), (10, 9), (100, 97)])
    def test_largest_prime_power(self, d, expected):
        assert ep.largest_prime_power_leq(d) == expected

    def test_against_sieve(self):
        # independent sieve: mark prime powers by repeated prime multiplication
        limit = 300
        sieve = [False] * (limit + 1)
        for p in range(2, limit + 1):
            if all(p % q for q in range(2, p)):
                v = p
                while v <= limit:
                    sieve[v] = True
                    v *= p
        for d in range(4, limit + 1):
            expected = max(n for n in range(4, d + 1) if sieve[n])
            assert ep.largest_prime_power_leq(d) == expected

    def test_exceeds_half(self):
        for d in range(4, 200):
            assert ep.largest_prime_power_leq(d) > d / 2

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            ep.largest_prime_power_leq(3)


class TestEmbedding:
    def test_basis_state_padding(self):
        psi = embed_state(ep.basis_state(2, 0), 4)
        assert np.array_equal(psi.amplitudes, np.array([1, 0, 0, 0], dtype=complex))

    def test_fidelities_preserved(self):
        rng_seeds = range(6)
        states = [ep.random_state(3, s) for s in rng_seeds]
        embedded = ep.embed_states(states, 7)
        for i in range(len(states)):
            for j in range(len(states)):
                assert ep.fidelity(states[i], states[j]) == ep.fidelity(
                    embedded[i], embedded[j])

    def test_embedded_family_still_unbiased(self):
        family = embed_family(ep.generate_mub(4), 10)
        assert family.dim == 10 and family.subspace_dim == 4
        assert ep.verify_mub(family).max_cross_deviation < 1e-10
        assert cross_fidelity_deviation(family) < 1e-10

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            embed_state(ep.basis_state(4, 0), 3)


class TestFamily:
    @pytest.mark.parametrize("subspace_dim", [9, 5, 1, -1, -4])
    def test_subspace_dim_outside_range_rejected(self, subspace_dim):
        with pytest.raises(ValueError, match="subspace_dim"):
            MubFamily(dim=4, bases=ep.generate_mub(4).bases, subspace_dim=subspace_dim)
