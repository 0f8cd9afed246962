"""Tests for states, bases, measurements, and the overlap measures."""

import dataclasses
import json
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import epioverlap as ep
from epioverlap import qstate
from epioverlap.qstate import (
    DiscreteDistribution,
    OrthonormalBasis,
    basis_state,
    basis_to_obj,
    state_from_obj,
    state_to_obj,
)

getcontext().prec = 50


def dec_sqrt(x: str) -> float:
    return float(Decimal(x).sqrt())


class TestPureState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ep.PureState(np.array([1.0, 1.0]))

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            ep.PureState(np.array([1.0]))

    def test_normalized_constructor(self):
        psi = ep.PureState.normalized([3.0, 4.0])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ep.PureState(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("amps", [[np.inf, 0.0], [np.nan, 1.0], [0.0, 0.0]])
    def test_normalized_rejects_non_finite_and_zero(self, amps):
        with pytest.raises(ValueError, match="cannot normalize"):
            ep.PureState.normalized(amps)

    def test_immutable(self):
        psi = basis_state(2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestFidelity:
    def test_identical(self):
        psi = basis_state(3, 0)
        assert ep.fidelity(psi, psi) == 1.0

    def test_orthogonal(self):
        assert ep.fidelity(basis_state(3, 0), basis_state(3, 1)) == 0.0

    def test_mub_pair_d3(self):
        fam = ep.generate_mub(3)
        v = fam.bases[1].vectors[0]
        w = fam.bases[2].vectors[0]
        assert abs(ep.fidelity(v, w) - 1 / 3) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ep.DimensionMismatchError):
            ep.fidelity(basis_state(2, 0), basis_state(3, 0))

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, s1, s2, dim):
        a, b = ep.random_state(dim, s1), ep.random_state(dim, s2)
        assert ep.fidelity(a, b) == pytest.approx(ep.fidelity(b, a), abs=1e-15)


class TestQuantumOverlap:
    def test_identical(self):
        psi = basis_state(2, 0)
        assert ep.quantum_overlap(psi, psi) == 1.0

    def test_orthogonal(self):
        assert ep.quantum_overlap(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_fidelity_quarter(self):
        # states with |<a|b>|^2 = 1/4 in d=4: overlap is 1 - sqrt(3/4)
        a = basis_state(4, 0)
        b = ep.PureState(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        expected = 1 - dec_sqrt("0.75")
        assert ep.quantum_overlap(a, b) == pytest.approx(expected, abs=1e-14)

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_overlap_plus_distance_is_one(self, s1, s2):
        a, b = ep.random_state(3, s1), ep.random_state(3, s2)
        assert ep.quantum_overlap(a, b) + ep.quantum_trace_distance(a, b) == 1.0


class TestHelstrom:
    def test_orthogonal(self):
        assert ep.helstrom_success(basis_state(2, 0), basis_state(2, 1)) == 1.0

    def test_identical(self):
        psi = basis_state(2, 0)
        assert ep.helstrom_success(psi, psi) == 0.5

    def test_fidelity_half(self):
        a = basis_state(2, 0)
        b = ep.PureState(np.array([1, 1]) / np.sqrt(2))
        expected = 0.5 * (1 + dec_sqrt("0.5"))
        assert ep.helstrom_success(a, b) == pytest.approx(expected, abs=1e-14)

    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_overlap_form(self, s1, s2):
        a, b = ep.random_state(2, s1), ep.random_state(2, s2)
        assert ep.helstrom_success(a, b) == pytest.approx(
            1 - ep.quantum_overlap(a, b) / 2, abs=1e-15)


class TestBornProbability:
    def test_matches_fidelity_cases(self):
        fam = ep.generate_mub(3)
        assert ep.born_probability(basis_state(3, 0), basis_state(3, 0)) == 1.0
        assert ep.born_probability(basis_state(3, 0), basis_state(3, 1)) == 0.0
        assert ep.born_probability(fam.bases[1].vectors[0],
                                   fam.bases[2].vectors[0]) == pytest.approx(
            1 / 3, abs=1e-12)


class TestClassicalOverlap:
    def test_equal(self):
        p = DiscreteDistribution(np.full(10, 0.1))
        assert ep.classical_overlap(p, p) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint(self):
        p = DiscreteDistribution([0.5, 0.5, 0, 0])
        q = DiscreteDistribution([0, 0, 0.5, 0.5])
        assert ep.classical_overlap(p, q) == 0.0

    def test_card_deck(self):
        # 52 cards: indices 0-25 red (hearts then diamonds), aces at 0, 13, 26, 39
        red = np.zeros(52)
        red[:26] = 1 / 26
        aces = np.zeros(52)
        aces[[0, 13, 26, 39]] = 1 / 4
        brute = sum(min(red[i], aces[i]) for i in range(52))
        got = ep.classical_overlap(DiscreteDistribution(red), DiscreteDistribution(aces))
        assert got == pytest.approx(brute, abs=1e-15)
        assert got == pytest.approx(2 * min(1 / 26, 1 / 4), abs=1e-15)
        assert got == pytest.approx(1 / 13, abs=1e-15)

    def test_support_mismatch(self):
        with pytest.raises(ep.DimensionMismatchError):
            ep.classical_overlap(DiscreteDistribution([1.0]), DiscreteDistribution([0.5, 0.5]))

    def test_complements_trace_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = DiscreteDistribution(rng.dirichlet(np.ones(8)))
            q = DiscreteDistribution(rng.dirichlet(np.ones(8)))
            assert ep.classical_overlap(p, q) == pytest.approx(
                1 - ep.classical_trace_distance(p, q), abs=1e-12)
            assert ep.classical_overlap(p, q) == pytest.approx(
                ep.classical_overlap(q, p), abs=1e-15)

    def test_unity_iff_equal(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.ones(6))
        q = p.copy()
        q[0] += 1e-3
        q[1] -= 1e-3
        dp, dq = DiscreteDistribution(p), DiscreteDistribution(q)
        assert ep.classical_overlap(dp, DiscreteDistribution(p.copy())) > 1 - 1e-12
        assert ep.classical_overlap(dp, dq) < 1 - 1e-4


class TestDistributionInvariants:
    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([1.5, -0.5])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0.5, 0.4])

    def test_nan_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([np.nan, 1.0])


class TestRandomObjects:
    def test_state_determinism(self):
        assert np.array_equal(ep.random_state(2, 7).amplitudes,
                              ep.random_state(2, 7).amplitudes)

    def test_unitary_determinism(self):
        assert np.array_equal(ep.random_unitary(3, 11).matrix,
                              ep.random_unitary(3, 11).matrix)

    def test_unitary_is_orthonormal_basis(self):
        basis = ep.random_unitary(5, 3)  # constructor enforces the invariants
        gram = basis.matrix.conj().T @ basis.matrix
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12

    def test_haar_mean_fidelity(self):
        # E |<psi|e0>|^2 = 1/d for Haar states; single-draw law is Beta(1, d-1)
        d, n = 3, 100_000
        e0 = basis_state(d, 0)
        total = 0.0
        for k in range(n):
            total += ep.fidelity(ep.random_state(d, k), e0)
        mean = total / n
        sigma = np.sqrt((d - 1) / (d ** 2 * (d + 1)) / n)
        assert abs(mean - 1 / d) < 3 * sigma

    def test_gram_matrix_positive(self):
        rng_seeds = range(10)
        states = [ep.random_state(4, s) for s in rng_seeds]
        m = np.column_stack([s.amplitudes for s in states])
        gram = m.conj().T @ m
        assert np.min(np.linalg.eigvalsh(gram)) > -1e-10


class TestMeasurement:
    def test_basis_measurement_completeness(self):
        m = ep.basis_measurement(ep.random_unitary(3, 2))
        psi = ep.random_state(3, 9)
        assert m.probabilities(psi).sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_orthogonal_effects_rejected(self):
        w = np.array([1, 1, 0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="not orthogonal"):
            ep.Measurement(OrthonormalBasis(np.column_stack([
                basis_state(3, 0).amplitudes, w, basis_state(3, 2).amplitudes])),
                ("a", "b", "c"), (1, 1, 1))

    def test_incomplete_sum_rejected(self):
        with pytest.raises(ValueError):
            ep.Measurement(OrthonormalBasis(np.eye(3)), ("a",), (1,))

    def test_non_orthonormal_spanning_set_rejected(self):
        w = np.array([1, 1, 0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="not orthogonal"):
            ep.Measurement(OrthonormalBasis(np.column_stack([
                basis_state(3, 0).amplitudes, w, basis_state(3, 2).amplitudes])),
                ("a", "b"), (2, 1))

    def test_nan_effect_rejected(self):
        with pytest.raises(ValueError):
            ep.Measurement(OrthonormalBasis(np.array([[np.nan, 0], [0, 1]])),
                           ("a", "b"), (1, 1))

    def test_wrong_state_dimension_rejected(self):
        m = ep.basis_measurement(ep.random_unitary(3, 2))
        with pytest.raises(ep.DimensionMismatchError):
            m.probabilities(ep.random_state(4, 9))

    @pytest.mark.parametrize("amps", [np.ones(4) / 2, np.ones((1, 3)) / np.sqrt(3),
                                      np.ones((3, 3)) / np.sqrt(3)],
                             ids=["wrong_length", "one_row", "square"])
    def test_wrong_amplitude_shape_rejected(self, amps):
        m = ep.basis_measurement(ep.random_unitary(3, 2))
        with pytest.raises(ep.DimensionMismatchError):
            m.probabilities(amps)


class TestMeasurementRanks:
    """A measurement is a basis plus one label and one rank per outcome;
    outcome k projects onto the next ranks[k] basis columns."""

    @pytest.mark.parametrize("labels, ranks, message", [
        (("a", "b"), (1, 1, 2), "2 labels for 3 outcome ranks"),
        (("a", "b", "c"), (2, 0, 2), "must be >= 1"),
        (("a", "b"), (1, 2), "sum to 3, expected 4"),
        (("a", "b"), (3, 2), "sum to 5, expected 4"),
    ], ids=["lengths", "rank_0", "dim_minus_1", "dim_plus_1"])
    def test_bad_ranks_rejected(self, labels, ranks, message):
        with pytest.raises(ValueError, match=message):
            ep.Measurement(ep.random_unitary(4, 1), labels, ranks)

    def test_born_product_matches_per_vector_form(self):
        """probabilities agrees within 4 ulp of 1 with sum |<v|psi>|^2 over
        each outcome's basis vectors, one vdot per vector, for d = 3..11 and
        ranks (1, 1, 1, d - 3) or all 1; a PureState and its amplitude
        vector give the same bits, and the outcomes sum to 1."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(3, 12))
            basis = OrthonormalBasis(qstate.haar_unitary(d, rng))
            psi = ep.PureState.normalized(rng.standard_normal(d)
                                          + 1j * rng.standard_normal(d))
            n = min(d, 4)
            for m in (ep.Measurement(basis, ("f1", "f2", "f3", "f4")[:n],
                                     (1, 1, 1, d - 3)[:n]),
                      ep.basis_measurement(basis)):
                groups, start = [], 0
                for rank in m.ranks:
                    groups.append(basis.vectors[start:start + rank])
                    start += rank
                expected = [float(sum(abs(np.vdot(v.amplitudes, psi.amplitudes)) ** 2
                                      for v in group)) for group in groups]
                got = m.probabilities(psi)
                assert got.shape == (len(m.ranks),)
                assert np.max(np.abs(got - expected)) <= 4 * np.spacing(1.0)
                assert m.probabilities(psi.amplitudes).tolist() == got.tolist()
                assert abs(got.sum() - 1.0) <= qstate.NORMALIZATION_TOL
                for bad in (np.ones(d + 1) / np.sqrt(d + 1), psi.amplitudes[None],
                            np.outer(psi.amplitudes, psi.amplitudes.conj())):
                    with pytest.raises(ep.DimensionMismatchError):
                        m.probabilities(bad)

    def test_born_operator_is_cached_and_read_only(self):
        m = ep.Measurement(ep.random_unitary(5, 1), ("a", "b", "c"), (1, 2, 2))
        bras, starts = m._born
        assert m._born[0] is bras and not bras.flags.writeable
        assert np.array_equal(bras, m.basis.matrix.conj().T)
        assert starts.tolist() == [0, 1, 3]
        assert ep.basis_measurement(ep.random_unitary(4, 1))._born[1] is None

    def test_basis_measurement_reuses_the_basis(self):
        basis = ep.random_unitary(4, 1)
        m = ep.basis_measurement(basis, labels=["w", "x", "y", "z"])
        assert m.basis is basis
        assert m.labels == ("w", "x", "y", "z") and m.ranks == (1, 1, 1, 1)

    def test_equality_follows_the_basis(self):
        basis = ep.random_unitary(4, 1)
        first, second = ep.basis_measurement(basis), ep.basis_measurement(basis)
        assert first == second and hash(first) == hash(second)
        assert first != ep.basis_measurement(ep.random_unitary(4, 1))
        assert first != ep.Measurement(basis, ("a", "b"), (1, 3))

    def test_basis_has_one_field(self):
        assert [f.name for f in dataclasses.fields(OrthonormalBasis)] == ["matrix"]
        assert [f.name for f in dataclasses.fields(ep.Measurement)] == [
            "basis", "labels", "ranks"]


class TestBasisInvariants:
    def test_nan_vector_rejected(self):
        with pytest.raises(ValueError):
            ep.OrthonormalBasis(np.array([[np.nan, 0], [0, 1]]))

    def test_matrix_built_once_and_read_only(self):
        basis = ep.random_unitary(3, 5)
        assert basis.matrix is basis.matrix
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("matrix, message", [
        (np.eye(3)[:, :2], "must be square, got shape \\(3, 2\\)"),
        (np.ones(2), "must be square, got shape \\(2,\\)"),
        (np.ones((1, 1)), "dimension must be >= 2, got 1"),
    ], ids=["rectangular", "vector", "dim_1"])
    def test_bad_shape_rejected(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            ep.OrthonormalBasis(matrix)

    def test_vectors_are_the_columns_built_once(self, count_constructions):
        states = count_constructions(ep.PureState)
        basis = ep.OrthonormalBasis(ep.random_unitary(3, 5).matrix)
        assert states == []
        assert basis.vectors is basis.vectors and len(states) == 3
        for k, v in enumerate(basis.vectors):
            assert np.array_equal(v.amplitudes, basis.matrix[:, k])

    def test_one_gram_check_per_basis(self, monkeypatch):
        """A basis is checked by qstate.check_orthonormal, once, as a stack of one."""
        shapes = []
        check = qstate.check_orthonormal
        monkeypatch.setattr(qstate, "check_orthonormal",
                            lambda stack: shapes.append(stack.shape) or check(stack))
        ep.random_unitary(3, 5)
        assert shapes == [(1, 3, 3)]


class TestColumnCheck:
    """check_orthonormal on (n, d, 3) stacks: three orthonormal columns in
    C^d each, as a census stores them."""

    @staticmethod
    def columns(dim, count=4):
        return np.stack([ep.random_unitary(dim, s).matrix[:, :3] for s in range(count)])

    @pytest.mark.parametrize("dim", [3, 4, 7])
    def test_orthonormal_columns_pass(self, dim):
        qstate.check_orthonormal(self.columns(dim))

    @pytest.mark.parametrize("column, corrupt, message", [
        (0, lambda m: m[:, 0] * (1 + 1e-9), "basis vectors not normalized"),
        (1, lambda m: m[:, 1] + 1e-6 * m[:, 0], "basis vectors not orthogonal"),
        (2, lambda m: m[:, 2] * np.nan, "basis vectors not orthogonal: .* = nan"),
    ], ids=["scaled", "skewed", "nan"])
    @pytest.mark.parametrize("dim", [4, 7])
    def test_bad_columns_rejected(self, dim, column, corrupt, message):
        stack = self.columns(dim)
        stack[-1, :, column] = corrupt(stack[-1])
        with pytest.raises(ValueError, match=message):
            qstate.check_orthonormal(stack)


class TestNormCheck:
    """check_normalized on (n, dim) stacks: each row passes or fails as its
    PureState would, with PureState's message."""

    @staticmethod
    def rows(dim, count=5):
        return np.stack([ep.random_state(dim, s).amplitudes for s in range(count)])

    @staticmethod
    def message(row):
        with pytest.raises(ValueError) as raised:
            ep.PureState(row)
        return str(raised.value)

    @pytest.mark.parametrize("dim", [2, 4, 11])
    def test_unit_rows_pass(self, dim):
        qstate.check_normalized(self.rows(dim))

    @pytest.mark.parametrize("corrupt", [lambda row: row * (1 + 1e-9),
                                         lambda row: row * np.nan],
                             ids=["scaled", "nan"])
    @pytest.mark.parametrize("dim", [4, 7])
    def test_bad_row_rejected_with_the_states_message(self, dim, corrupt):
        stack = self.rows(dim)
        stack[2] = corrupt(stack[2])
        stack[3] = stack[3] * 2.0  # a later bad row: the first one is named
        with pytest.raises(ValueError) as raised:
            qstate.check_normalized(stack)
        assert str(raised.value) == self.message(stack[2])
        assert str(raised.value).startswith("state is not normalized: sum |a_i|^2 = ")

    @pytest.mark.parametrize("offset", [-1.1, -0.9, 0.9, 1.1])
    def test_tolerance_edge_as_the_state_draws_it(self, offset):
        """Rows whose squared norm sits 0.9 or 1.1 tolerances from 1: the
        stacked check passes the first and rejects the second, as
        PureState does."""
        row = np.array([np.sqrt(1.0 + offset * qstate.NORMALIZATION_TOL), 0.0])
        if abs(offset) < 1.0:
            qstate.check_normalized(row[None])
            ep.PureState(row)
        else:
            with pytest.raises(ValueError) as raised:
                qstate.check_normalized(row[None])
            assert str(raised.value) == self.message(row)


class TestValueEquality:
    """Value objects with array fields compare by identity, without raising,
    and hash."""

    @pytest.mark.parametrize("build", [
        lambda: ep.random_state(4, 1),
        lambda: ep.random_unitary(4, 1),
        lambda: ep.basis_measurement(ep.random_unitary(4, 1)),
        lambda: ep.generate_mub(4),
        lambda: DiscreteDistribution([0.25, 0.75]),
    ], ids=["state", "basis", "measurement", "mub_family", "distribution"])
    def test_equal_looking_objects(self, build):
        first, second = build(), build()
        assert first == first
        assert not first == second
        assert first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2


def basis_from_obj(obj: dict) -> OrthonormalBasis:
    """Inverse of basis_to_obj, for the round-trip test."""
    return OrthonormalBasis(np.column_stack(
        [state_from_obj(v).amplitudes for v in obj["vectors"]]))


class TestSerialization:
    def test_state_round_trip(self):
        psi = ep.random_state(4, 13)
        obj = state_to_obj(psi)
        assert obj["dim"] == 4 and len(obj["amplitudes"]) == 4
        back = state_from_obj(json.loads(json.dumps(obj)))
        assert np.allclose(back.amplitudes, psi.amplitudes)

    @pytest.mark.parametrize("obj", [
        [[1, 0], [0, 0]],
        {"amplitudes": [[1, 0], [0, 0]]},
        {"dim": 2, "amplitudes": [["1", "0"], ["0", "0"]]},
        {"dim": 2, "amplitudes": [[1, 0, 0], [0, 0]]},
        {"dim": 2, "amplitudes": [[float("inf"), 0], [0, 0]]},
        {"dim": 2, "amplitudes": [[True, 0], [0, 0]]},
        {"dim": 3, "amplitudes": [[1, 0], [0, 0]]},
        {"dim": 2, "amplitudes": [[1, 0], [1, 0]]},
        {"dim": 1, "amplitudes": [[1, 0]]},
    ])
    def test_malformed_state_raises_input_error(self, obj):
        with pytest.raises(ep.InputError):
            state_from_obj(obj)

    def test_basis_round_trip(self):
        basis = ep.random_unitary(3, 17)
        back = basis_from_obj(json.loads(json.dumps(basis_to_obj(basis))))
        assert np.allclose(back.matrix, basis.matrix)
