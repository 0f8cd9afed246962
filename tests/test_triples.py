"""Tests for PP-incompatibility: criterion, optimizer, and measurements."""

import dataclasses

import numpy as np
import pytest

import epioverlap as ep
from epioverlap import cli, d3cert, expsim, qstate, triples
from epioverlap.qstate import basis_state, haar_unitary
from epioverlap.triples import triple_epsilon


def mub_triple(family, b0=1, b1=2, b2=0, i=0, j=0, k=0):
    return (family.bases[b0].vectors[i], family.bases[b1].vectors[j],
            family.bases[b2].vectors[k])


def span_coords(a, b, c):
    """An orthonormal basis of span{a, b, c}, d x 3, and the triple in its coordinates."""
    span = triples._span_bases([(a, b, c)])[1][0]
    return span, span.conj().T @ np.column_stack([s.amplitudes for s in (a, b, c)])


def random_triple(dim, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(ep.PureState(v / np.linalg.norm(v)))
    return tuple(out)


class TestTripleOverlaps:
    def test_orthogonal(self):
        x = ep.triple_overlaps(basis_state(3, 0), basis_state(3, 1), basis_state(3, 2))
        assert x.as_tuple() == (0.0, 0.0, 0.0)

    def test_mub_triple_d4(self, mub4):
        a, b, c = mub_triple(mub4)
        x = ep.triple_overlaps(a, b, c)
        assert x.x1 == pytest.approx(0.25, abs=1e-12)
        assert x.x2 == pytest.approx(0.25, abs=1e-12)
        assert x.x3 == pytest.approx(0.25, abs=1e-12)

    def test_cyclic_order(self):
        a, b, c = random_triple(4, 0)
        x = ep.triple_overlaps(a, b, c)
        assert x.x1 == ep.fidelity(a, b)
        assert x.x2 == ep.fidelity(b, c)
        assert x.x3 == ep.fidelity(c, a)

    def test_degenerate_span(self):
        a = basis_state(3, 0)
        with pytest.raises(ep.DegenerateSpanError):
            ep.triple_overlaps(a, a, basis_state(3, 1))


class TestPpIncompatible:
    def test_quarter_triple(self):
        assert ep.pp_incompatible((0.25, 0.25, 0.25)) is True

    def test_quarter_equality_is_exact(self):
        s = 0.25 + 0.25 + 0.25
        assert abs((s - 1.0) ** 2 - 4 * 0.25 ** 3) <= 1e-15

    def test_third_triple(self):
        assert ep.pp_incompatible((1 / 3, 1 / 3, 1 / 3)) is False

    def test_orthogonal_triple(self):
        assert ep.pp_incompatible((0.0, 0.0, 0.0)) is True

    @pytest.mark.parametrize("d", [5, 7])
    def test_unbiased_triples_higher_dims(self, d):
        assert ep.pp_incompatible((1 / d, 1 / d, 1 / d)) is True

    def test_accepts_dataclass(self, mub4):
        assert ep.pp_incompatible(ep.triple_overlaps(*mub_triple(mub4))) is True

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ep.TripleOverlaps(1.2, 0.0, 0.0)


def grid_zero_oracle(a, b, c, coarse=180, seeds=16, levels=30):
    """Independent fine-grid certificate that the misfire minimum is zero.

    Any basis with <f1|a> = <f3|c> = 0 is determined by f3 alone, so a
    two-parameter chart over unit vectors orthogonal to c inside the span
    suffices for the zero case. The landscape has long flat valleys, so the
    refinement reruns a window-halving grid from each of the best coarse
    cells; halving (rather than collapsing) lets the argmin track a valley.
    """
    m = np.column_stack([a.amplitudes, b.amplitudes, c.amplitudes])
    span, s, _ = np.linalg.svd(m, full_matrices=False)
    av, bv, cv = (span.conj().T @ m).T

    # orthonormal basis {u, v} of the plane orthogonal to cv
    u = np.conj(np.cross(cv, np.array([1.0, 0, 0])))
    if np.linalg.norm(u) < 1e-6:
        u = np.conj(np.cross(cv, np.array([0, 1.0, 0])))
    u /= np.linalg.norm(u)
    v = np.conj(np.cross(cv, u))
    v /= np.linalg.norm(v)

    def misfire(tau, chi):
        t = np.asarray(tau).reshape(-1, 1)
        x = np.asarray(chi).reshape(-1, 1)
        f3 = np.cos(t) * u + np.sin(t) * np.exp(1j * x) * v
        f1 = np.conj(np.cross(av[None, :], f3))
        n1 = np.linalg.norm(f1, axis=1, keepdims=True)
        ok = n1[:, 0] > 1e-9
        f1 = np.where(ok[:, None], f1 / np.where(n1 > 0, n1, 1.0), 0.0)
        f2 = np.conj(np.cross(f1, f3))
        n2 = np.linalg.norm(f2, axis=1, keepdims=True)
        f2 = np.where(ok[:, None], f2 / np.where(n2 > 0, n2, 1.0), 0.0)
        val = (np.abs(f1.conj() @ av) ** 2 + np.abs(f2.conj() @ bv) ** 2
               + np.abs(f3.conj() @ cv) ** 2) / 3.0
        return np.where(ok, val, np.inf)

    taus = np.linspace(0, np.pi / 2, coarse)
    chis = np.linspace(0, 2 * np.pi, 2 * coarse, endpoint=False)
    tg, cg = np.meshgrid(taus, chis, indexing="ij")
    vals = misfire(tg.ravel(), cg.ravel())
    order = np.argsort(vals)[:seeds]

    overall = np.inf
    for idx in order:
        t0, c0 = tg.ravel()[idx], cg.ravel()[idx]
        wt = 2.0 * (taus[1] - taus[0])
        wc = 2.0 * (chis[1] - chis[0])
        for _ in range(levels):
            lt = np.linspace(t0 - wt, t0 + wt, 24)
            lc = np.linspace(c0 - wc, c0 + wc, 24)
            g1, g2 = np.meshgrid(lt, lc, indexing="ij")
            lv = misfire(g1.ravel(), g2.ravel())
            k = int(np.argmin(lv))
            t0, c0 = g1.ravel()[k], g2.ravel()[k]
            wt *= 0.5
            wc *= 0.5
        overall = min(overall, float(lv[k]))
    return overall


class TestConjugateBasis:
    def test_orthogonal_triple(self):
        a, b, c = basis_state(3, 0), basis_state(3, 1), basis_state(3, 2)
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=0)
        assert result.epsilon < 1e-10
        assert result.converged
        f1, f2, f3 = ep.OrthonormalBasis(result.matrix).vectors[:3]
        assert ep.born_probability(f1, a) < 1e-9
        assert ep.born_probability(f2, b) < 1e-9
        assert ep.born_probability(f3, c) < 1e-9

    def test_mub_triple_d4_zero(self, mub4):
        a, b, c = mub_triple(mub4)
        result = ep.find_conjugate_basis(a, b, c, restarts=32, seed=1)
        assert result.epsilon < 1e-8
        assert result.converged
        # independent certificate through the 2-parameter chart
        assert grid_zero_oracle(a, b, c) < 1e-8

    def test_basis_lies_in_span(self, mub4):
        a, b, c = mub_triple(mub4)
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=2)
        span = np.column_stack([s.amplitudes for s in (a, b, c)])
        q, _ = np.linalg.qr(span)
        proj = q @ q.conj().T
        for f in result.matrix.T[:3]:
            assert np.linalg.norm(proj @ f - f) < 1e-10

    def test_triple_sum_relation(self):
        a, b, c = random_triple(3, 42)
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=3)
        assert result.triple_sum == pytest.approx(3 * result.epsilon, abs=1e-15)

    def test_epsilon_phase_blind(self):
        a, b, c = random_triple(3, 7)
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=4)
        phased = [ep.PureState(np.exp(1j * t) * s.amplitudes)
                  for t, s in zip((0.3, -1.2, 2.5), (a, b, c))]
        assert triple_epsilon(*phased, ep.OrthonormalBasis(result.matrix)) == pytest.approx(
            result.epsilon, abs=1e-12)
        rephased = ep.OrthonormalBasis(
            result.matrix * np.exp(1j * np.array([0.9, -0.4, 1.7])))
        assert triple_epsilon(a, b, c, rephased) == pytest.approx(
            result.epsilon, abs=1e-12)

    def test_unitary_covariance(self):
        a, b, c = random_triple(3, 19)
        base = ep.find_conjugate_basis(a, b, c, restarts=16, seed=5)
        w = haar_unitary(3, np.random.default_rng(77))
        rotated = [ep.PureState(w @ s.amplitudes) for s in (a, b, c)]
        moved = ep.find_conjugate_basis(*rotated, restarts=16, seed=5)
        assert moved.epsilon == pytest.approx(base.epsilon, abs=1e-6)

    def test_seed_determinism(self):
        a, b, c = random_triple(4, 3)
        r1 = ep.find_conjugate_basis(a, b, c, restarts=6, seed=11)
        r2 = ep.find_conjugate_basis(a, b, c, restarts=6, seed=11)
        assert r1.epsilon == r2.epsilon
        assert np.array_equal(r1.matrix, r2.matrix)

    def test_degenerate_span_rejected(self):
        a = basis_state(4, 0)
        with pytest.raises(ep.DegenerateSpanError):
            ep.find_conjugate_basis(a, a, basis_state(4, 1))

    def test_restart_count_reported(self):
        a, b, c = random_triple(3, 5)
        result = ep.find_conjugate_basis(a, b, c, restarts=5, seed=0)
        assert 1 <= result.restarts_used <= 5


class TestMisfireKernel:
    """The closed-form derivatives and the stacked-restart search."""

    @staticmethod
    def random_problem(seed):
        rng = np.random.default_rng(seed)
        frame = haar_unitary(3, rng)[None]
        coords = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return frame, coords

    @staticmethod
    def residuals(frame, coords, p):
        m, _ = triples._misfire_overlaps(frame @ triples._skew_exp(p[None]), coords)
        s = np.diagonal(m[0])
        return np.concatenate([s.real, s.imag])

    @pytest.mark.parametrize("seed", range(5))
    def test_jacobian_matches_central_differences(self, seed):
        frame, coords = self.random_problem(seed)
        m, _ = triples._misfire_overlaps(frame, coords)
        h = 1e-6
        numeric = np.column_stack([
            (self.residuals(frame, coords, h * e) - self.residuals(frame, coords, -h * e))
            / (2 * h) for e in np.eye(6)])
        assert np.max(np.abs(numeric - triples._residual_jacobian(m)[0])) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_hessian_matches_second_differences(self, seed):
        frame, coords = self.random_problem(seed)
        m, _ = triples._misfire_overlaps(frame, coords)
        jac = triples._residual_jacobian(m)[0]

        def half_cost(p):
            r = self.residuals(frame, coords, p)
            return 0.5 * r @ r

        h = 1e-4
        numeric = np.array([[
            (half_cost(h * (ea + eb)) - half_cost(h * (ea - eb))
             - half_cost(h * (eb - ea)) + half_cost(-h * (ea + eb))) / (4 * h * h)
            for eb in np.eye(6)] for ea in np.eye(6)])
        exact = jac.T @ jac + triples._residual_curvature(m)[0]
        assert np.max(np.abs(numeric - exact)) < 1e-6

    def test_skew_exp_is_unitary(self):
        steps = np.random.default_rng(3).normal(scale=2.0, size=(8, 6))
        u = triples._skew_exp(steps)
        eye = np.broadcast_to(np.eye(3), u.shape)
        assert np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - eye)) < 1e-13

    @pytest.mark.parametrize("triple_seed", [5, 42, 77])
    def test_stacked_restarts_match_one_at_a_time(self, triple_seed):
        a, b, c = random_triple(3, triple_seed)
        restarts, seed = 6, (9, triple_seed)
        result = ep.find_conjugate_basis(a, b, c, restarts=restarts, seed=seed)
        _, coords = span_coords(a, b, c)
        values, evaluations = [], 0
        for r in range(restarts):
            frames, v, ev = triples._minimize_misfire(
                coords, triples._haar_starts(seed, range(r, r + 1)))
            values.append(float(v[0]))
            evaluations += int(ev[0])
            if triples._dual_gaps(coords[None], frames)[0] <= triples.DUAL_GAP_TOL:
                break
        assert result.converged
        assert result.restarts_used == len(values)
        assert result.evaluations == evaluations
        assert result.epsilon == pytest.approx(values[-1], abs=1e-15)

    def test_pp_boundary_mub_triple_on_first_restart(self, mub4):
        """(s - 1)^2 = 4 x1 x2 x3 at x = 1/4: the zero is degenerate."""
        for picks in ((1, 2, 0), (2, 4, 3), (3, 1, 2)):
            a, b, c = mub_triple(mub4, *picks, i=1, j=2, k=3)
            result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=picks)
            assert result.restarts_used == 1
            assert result.dual_gap <= triples.DUAL_GAP_TOL
            assert result.epsilon < 1e-12
            assert result.converged

    @pytest.mark.parametrize("dim, triple_seed, seed", [
        (3, 11, 0),
        # Gauss-Newton alone hits the iteration cap at these minima
        (4, 7038, 38), (4, 7041, 41), (3, 7142, 142)])
    def test_nonzero_minimum_converges(self, dim, triple_seed, seed):
        a, b, c = random_triple(dim, triple_seed)
        assert not ep.pp_incompatible(ep.triple_overlaps(a, b, c))
        result = ep.find_conjugate_basis(a, b, c, restarts=6, seed=seed)
        assert result.converged
        assert result.restarts_used == 1
        assert result.dual_gap <= triples.DUAL_GAP_TOL
        assert result.evaluations >= result.restarts_used


class TestDualGap:
    """The dual certificate: eps - dual_gap bounds the misfire of every
    measurement from below, so a closed gap marks a global minimum."""

    @staticmethod
    def frame_of(a, b, c, result):
        """The result's f1, f2, f3 in span coordinates, and the triple's coords."""
        span, coords = span_coords(a, b, c)
        return span.conj().T @ result.matrix[:, :3], coords

    @pytest.mark.parametrize("dim, triple_seed, step, floor", [
        # a zero minimum (PP-incompatible): the gap opens linearly in the step
        (5, 31, 1e-3, 1e-6),
        # non-zero minima: the gap opens quadratically
        (3, 11, 1e-3, 1e-6), (3, 7142, 1e-2, 1e-5), (4, 7038, 1e-2, 1e-5)])
    def test_perturbed_basis_opens_the_gap(self, dim, triple_seed, step, floor):
        a, b, c = random_triple(dim, triple_seed)
        result = ep.find_conjugate_basis(a, b, c, restarts=4, seed=0)
        frame, coords = self.frame_of(a, b, c, result)
        assert triples._dual_gaps(coords[None], frame[None])[0] <= triples.DUAL_GAP_TOL
        moved = frame @ triples._skew_exp(step * np.eye(6))  # one move along each generator
        gaps = triples._dual_gaps(np.broadcast_to(coords, moved.shape), moved)
        assert np.all(gaps > floor)

    @pytest.mark.parametrize("dim, triple_seed", [(3, 2), (3, 9), (4, 3), (4, 6), (5, 6), (6, 25)])
    def test_pp_compatible_search_closes_its_gap(self, dim, triple_seed):
        a, b, c = random_triple(dim, triple_seed)
        assert not ep.pp_incompatible(ep.triple_overlaps(a, b, c))
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=triple_seed)
        frame, coords = self.frame_of(a, b, c, result)
        assert result.converged
        assert result.epsilon > 1e-6
        assert 0.0 <= result.dual_gap <= triples.DUAL_GAP_TOL
        assert triples._dual_gaps(coords[None], frame[None])[0] == pytest.approx(
            result.dual_gap, abs=1e-14)

    def test_dual_bound_of_any_frame_lies_below_the_minimum(self):
        """Weak duality: eps - gap of a Haar-random frame never exceeds the
        certified minimum, and for a random frame the gap is wide open."""
        a, b, c = random_triple(3, 11)
        result = ep.find_conjugate_basis(a, b, c, restarts=4, seed=0)
        _, coords = self.frame_of(a, b, c, result)
        frames = triples._haar_starts((3,), range(64))
        values = triples._misfire_overlaps(frames, np.broadcast_to(coords, frames.shape))[1] / 3
        gaps = triples._dual_gaps(np.broadcast_to(coords, frames.shape), frames)
        assert np.all(values - gaps <= result.epsilon + 1e-12)
        assert np.all(gaps > 1e-3)

    @pytest.mark.parametrize("seed", [*range(20), 1783110719])
    def test_canonical_census_closes_on_restart_zero(self, seed):
        report = d3cert.run_certificate(restarts=1, seed=seed)
        assert report.census.converged.all()
        assert np.all(report.census.dual_gap <= triples.DUAL_GAP_TOL)
        assert report.k_bound == pytest.approx(0.94809158, abs=1e-8)


class TestEquivalenceQuick:
    def test_predicate_matches_constructive(self, mub4):
        """25-triple spot check; the acceptance suite runs the full census."""
        for n in range(15):
            a, b, c = random_triple(4, 1000 + n)
            pp = ep.pp_incompatible(ep.triple_overlaps(a, b, c))
            eps = ep.find_conjugate_basis(a, b, c, restarts=40, seed=n).epsilon
            assert pp == (eps < 1e-8)
        for n in range(10):
            rng = np.random.default_rng(2000 + n)
            picks = rng.choice(5, size=3, replace=False)
            idx = rng.integers(0, 4, size=3)
            a = mub4.bases[picks[0]].vectors[idx[0]]
            b = mub4.bases[picks[1]].vectors[idx[1]]
            c = mub4.bases[picks[2]].vectors[idx[2]]
            assert ep.pp_incompatible(ep.triple_overlaps(a, b, c))
            assert ep.find_conjugate_basis(a, b, c, restarts=40, seed=n).epsilon < 1e-8


class TestFullMeasurement:
    def test_d3_three_outcomes(self):
        a, b, c = random_triple(3, 1)
        result = ep.find_conjugate_basis(a, b, c, restarts=6, seed=0)
        m = ep.full_measurement(a, b, c, result)
        assert m.labels == ("f1", "f2", "f3")
        assert m.ranks == (1, 1, 1)
        assert np.array_equal(m.basis.matrix, result.matrix)

    def test_d4_complement_outcome(self, mub4):
        a, b, c = mub_triple(mub4)
        result = ep.find_conjugate_basis(a, b, c, restarts=16, seed=6)
        m = ep.full_measurement(a, b, c, result)
        assert m.labels == ("f1", "f2", "f3", "f4")
        assert m.ranks == (1, 1, 1, 1)
        leak = sum(m.probabilities(s)[3] for s in (a, b, c))
        assert leak < 1e-10

    def test_completeness(self, mub4):
        a, b, c = mub_triple(mub4)
        m = ep.full_measurement(a, b, c, ep.find_conjugate_basis(a, b, c, restarts=8, seed=7))
        for s in range(5):
            psi = ep.random_state(4, s)
            assert m.probabilities(psi).sum() == pytest.approx(1.0, abs=1e-12)

    def test_small_dimension_rejected(self):
        a, b = basis_state(2, 0), basis_state(2, 1)
        with pytest.raises(ep.DegenerateSpanError):
            ep.find_conjugate_basis(a, b, a)


class TestCrossBasisCensus:
    """The one enumeration of cross-basis triples, shared by the d=3
    certificate and the experiment design."""

    RESTARTS, SEED = 4, 5

    @pytest.fixture(scope="class")
    def census(self, d3_instance):
        return triples.cross_basis_census(d3_instance.bases, d3_instance.c,
                                          self.RESTARTS, self.SEED)

    def test_keys_in_basis_pair_order(self, census):
        assert census.keys == tuple(
            (alpha, i, beta, j) for alpha, beta in d3cert.BASIS_PAIRS
            for i in (1, 2, 3) for j in (1, 2, 3))
        assert all(type(k) is int for key in census.keys for k in key)

    def test_members_are_the_basis_vectors(self, d3_instance, monkeypatch):
        solved = []
        conjugate_bases = triples._conjugate_bases

        def recorded(members, *args):
            solved.extend(members)
            return conjugate_bases(members, *args)

        monkeypatch.setattr(triples, "_conjugate_bases", recorded)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 1, 0)
        assert len(solved) == len(census.keys) == 27
        for (alpha, i, beta, j), (a, b, c) in zip(census.keys, solved):
            assert a is d3_instance.basis_vector(alpha, i)
            assert b is d3_instance.basis_vector(beta, j)
            assert c is d3_instance.c

    def test_each_result_is_its_keyed_search(self, census, d3_instance):
        for t, (alpha, i, beta, j) in enumerate(census.keys):
            alone = ep.find_conjugate_basis(
                d3_instance.basis_vector(alpha, i), d3_instance.basis_vector(beta, j),
                d3_instance.c, restarts=self.RESTARTS, seed=(self.SEED, t))
            assert census.epsilon[t] == alone.epsilon
            assert np.array_equal(census.matrices[t], alone.matrix)

    def test_streams_keyed_by_triple_and_one_first_restart_stack(self, d3_instance,
                                                                 monkeypatch):
        """Triple t draws its restart streams from (seed, t), one census runs
        restart 0 of every triple in one kernel call, and only the triples
        whose restart 0 left the gap open run again."""
        held = [t for t in range(27) if t % 4 == 1]
        hold_starts(monkeypatch, [((9, t), 0) for t in held])
        draws, stacks = [], []
        haar_starts, kernel = triples._haar_starts, triples._minimize_misfire

        def drawn(seed_key, restarts):
            draws.append((seed_key, restarts))
            return haar_starts(seed_key, restarts)

        def solved(coords, frames):
            stacks.append(len(frames))
            return kernel(coords, frames)

        monkeypatch.setattr(triples, "_haar_starts", drawn)
        monkeypatch.setattr(triples, "_minimize_misfire", solved)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 8, 9)
        reopened = np.flatnonzero(census.restarts_used > 1).tolist()
        assert reopened == held
        assert draws == ([((9, t), range(1)) for t in range(27)]
                         + [((9, t), range(1, 8)) for t in reopened])
        assert stacks == [27, 7 * len(reopened)]

    def test_design_and_certificate_share_the_census(self, d3_instance):
        design = expsim.design_from_d3(d3_instance, restarts=self.RESTARTS, seed=self.SEED)
        report = d3cert.optimize_all_triples(d3_instance, restarts=self.RESTARTS,
                                             seed=self.SEED)
        assert design.triples == design.census.keys == report.census.keys
        assert np.array_equal(design.census.epsilon, report.census.epsilon)


def hold_starts(monkeypatch, held):
    """Make the kernel return the starting frames of the restarts in held,
    given as (seed_key, restart), unmoved, with their gaps open; every
    other row runs as usual. A row is matched by its starting frame, so the
    same restarts are held in a census and in a lone search."""
    starts = np.concatenate([triples._haar_starts(key, range(r, r + 1)) for key, r in held])
    kernel = triples._minimize_misfire

    def held_kernel(coords, frames):
        final, values, evaluations = kernel(coords, frames)
        rows = [k for k, frame in enumerate(frames)
                if any(np.array_equal(frame, start) for start in starts)]
        final[rows] = frames[rows]
        values[rows] = triples._misfire_overlaps(frames[rows], coords[rows])[1] / 3.0
        evaluations[rows] = 1
        return final, values, evaluations

    monkeypatch.setattr(triples, "_minimize_misfire", held_kernel)


def _same_search(x, y):
    return (x.epsilon == y.epsilon and np.array_equal(x.matrix, y.matrix)
            and (x.restarts_used, x.evaluations, x.dual_gap, x.converged)
            == (y.restarts_used, y.evaluations, y.dual_gap, y.converged))


class TestStackedSearch:
    """A triple's row in the census stack gives the bits of a lone search."""

    @staticmethod
    def mub_census(dim, restarts, seed):
        """The census of a maximal MUB design, and each row's triple."""
        family = ep.generate_mub(dim)
        c = family.bases[0].vectors[0]
        census = triples.cross_basis_census(family.bases[1:], c, restarts, seed)
        members = [(family.bases[alpha].vectors[i - 1], family.bases[beta].vectors[j - 1], c)
                   for alpha, i, beta, j in census.keys]
        return census, members

    @pytest.mark.parametrize("dim, triples_in_census", [(4, 96), (5, 250)])
    def test_census_rows_equal_lone_searches(self, dim, triples_in_census):
        census, members = self.mub_census(dim, 24, 3)
        assert len(census.keys) == triples_in_census
        for t, triple in enumerate(members):
            alone = ep.find_conjugate_basis(*triple, restarts=24, seed=(3, t))
            assert _same_search(census.row(t), alone), t

    def test_reversed_stack_changes_no_row(self):
        census, members = self.mub_census(4, 24, 5)
        n = len(members)
        reversed_census = triples._conjugate_bases(
            members[::-1], 24, [(5, t) for t in range(n)][::-1])
        for t in range(n):
            assert _same_search(census.row(t), reversed_census.row(n - 1 - t))

    @pytest.mark.parametrize("max_stack_rows", [triples.MAX_STACK_ROWS, 10])
    def test_open_rows_equal_lone_searches(self, d3_instance, monkeypatch,
                                           max_stack_rows):
        """Triples whose restart 0 leaves the gap open run their later
        restarts, and one whose every restart stays open runs all of them;
        split into small stacks, they still match row for row."""
        monkeypatch.setattr(triples, "MAX_STACK_ROWS", max_stack_rows)
        hold_starts(monkeypatch, [((7, t), 0) for t in (2, 9, 17, 26)]
                    + [((7, 5), r) for r in range(8)])
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 8, 7)
        assert 8 in census.restarts_used
        assert 1 in census.restarts_used
        assert np.flatnonzero(~census.converged).tolist() == [5]
        for t, (alpha, i, beta, j) in enumerate(census.keys):
            alone = ep.find_conjugate_basis(
                d3_instance.basis_vector(alpha, i), d3_instance.basis_vector(beta, j),
                d3_instance.c, restarts=8, seed=(7, t))
            assert _same_search(census.row(t), alone), t


def loop_search(triple, seed_key, restarts):
    """One triple's search as a plain loop: one _certified call per restart,
    stopping at the first closed gap, else keeping the first lowest value.
    Returns the basis columns f1, f2, f3 and the census fields."""
    members, spans = triples._span_bases([triple])
    coords = spans.conj().transpose(0, 2, 1) @ members
    best, evaluations = None, 0
    for r in range(restarts):
        frame, value, evals, gap = triples._certified(
            coords, triples._haar_starts(seed_key, range(r, r + 1)))
        evaluations += int(evals[0])
        if gap[0] <= triples.DUAL_GAP_TOL:
            best = (frame[0], value[0], gap[0], True, r + 1)
            break
        if best is None or value[0] < best[1]:
            best = (frame[0], value[0], gap[0], False, restarts)
    frame, _, gap, converged, used = best
    return spans[0] @ frame, gap, converged, used, evaluations


class TestArrayTally:
    """The census picks each row's restart from its (rows, restarts) table
    with array operations; it must pick what a sequential loop picks."""

    HELD = [((7, t), 0) for t in (2, 9, 17, 26)] + [((7, 5), r) for r in range(8)]

    @staticmethod
    def assert_rows_equal_loop(d3_instance, census, restarts, seed):
        for t, (alpha, i, beta, j) in enumerate(census.keys):
            triple = (d3_instance.basis_vector(alpha, i), d3_instance.basis_vector(beta, j),
                      d3_instance.c)
            columns, gap, converged, used, evaluations = loop_search(
                triple, (seed, t), restarts)
            assert np.array_equal(census.matrices[t][:, :3], columns), t
            assert census.dual_gap[t] == gap, t
            assert (census.converged[t], census.restarts_used[t], census.evaluations[t]) == (
                converged, used, evaluations), t

    @pytest.mark.parametrize("max_stack_rows", [triples.MAX_STACK_ROWS, 10, 1])
    def test_held_rows_equal_the_loop(self, d3_instance, monkeypatch, max_stack_rows):
        """Rows held open at restart 0 stop at their first later closed gap;
        row 5, held at every restart, keeps its lowest value. Stacks of at
        most 10 or 1 rows split the held rows apart."""
        monkeypatch.setattr(triples, "MAX_STACK_ROWS", max_stack_rows)
        hold_starts(monkeypatch, self.HELD)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 8, 7)
        assert np.flatnonzero(census.restarts_used > 1).tolist() == [2, 5, 9, 17, 26]
        assert np.flatnonzero(~census.converged).tolist() == [5]
        self.assert_rows_equal_loop(d3_instance, census, 8, 7)

    def test_one_restart_keeps_restart_zero(self, d3_instance, monkeypatch):
        hold_starts(monkeypatch, self.HELD)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 1, 7)
        assert np.all(census.restarts_used == 1)
        assert np.flatnonzero(~census.converged).tolist() == [2, 5, 9, 17, 26]
        self.assert_rows_equal_loop(d3_instance, census, 1, 7)

    def test_tied_values_keep_the_first_restart(self, d3_instance, monkeypatch):
        """Row 5 never closes, and a later restart starts from the negated
        frame of its lowest one: the same value and gap to the bit, another
        basis. The earlier of the two restarts wins."""
        haar_starts = triples._haar_starts
        key = (7, 5)
        starts = haar_starts(key, range(8))
        coords = span_coords(d3_instance.basis_vector(1, 2), d3_instance.basis_vector(2, 3),
                             d3_instance.c)[1]
        values = triples._misfire_overlaps(starts, np.broadcast_to(coords, starts.shape))[1]
        low = int(np.argmin(values))
        twin = 7 if low < 7 else 0  # the restart that starts from -starts[low]
        pair = np.stack([starts[low], -starts[low]])
        pair_coords = np.broadcast_to(coords, pair.shape)
        tie = triples._misfire_overlaps(pair, pair_coords)[1]
        gaps = triples._dual_gaps(pair_coords, pair)
        assert tie[0] == tie[1] and gaps[0] == gaps[1] > triples.DUAL_GAP_TOL

        def tied(seed_key, restarts):
            frames = haar_starts(seed_key, restarts)
            if tuple(seed_key) == key and twin in restarts:
                frames[restarts.index(twin)] = -starts[low]
            return frames

        monkeypatch.setattr(triples, "_haar_starts", tied)
        hold_starts(monkeypatch, self.HELD)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 8, 7)
        assert census.keys[5] == (1, 2, 2, 3)
        first = min(low, twin)
        expected = starts[low] if first == low else -starts[low]
        span = triples._span_bases([(d3_instance.basis_vector(1, 2),
                                     d3_instance.basis_vector(2, 3), d3_instance.c)])[1][0]
        assert np.array_equal(census.matrices[5], span @ expected)
        assert not np.array_equal(census.matrices[5], span @ -expected)
        self.assert_rows_equal_loop(d3_instance, census, 8, 7)


# Corruptions of one matrix column, each with the Gram check's message.
CORRUPTIONS = pytest.mark.parametrize("column, corrupt, message", [
    (0, lambda m: m[:, 0] * (1 + 1e-9), "basis vectors not normalized"),
    (1, lambda m: m[:, 1] + 1e-6 * m[:, 0], "basis vectors not orthogonal"),
    (2, lambda m: m[:, 2] * np.nan, "basis vectors not orthogonal: .* = nan"),
], ids=["scaled", "skewed", "nan"])


class TestResultMatrix:
    """A census holds its columns f1, f2, f3 as one read-only (n, d, 3)
    stack, and a search result as one read-only (d, 3) matrix. The census
    checks its columns with one Gram check and builds no value objects; a
    design completes each triple's basis once, where it builds the triple's
    measurement, and checks it once, as an OrthonormalBasis."""

    def test_census_and_search_build_no_value_objects(self, d3_instance,
                                                      count_constructions):
        a, b, c = random_triple(5, 3)
        bases = count_constructions(ep.OrthonormalBasis)
        states = count_constructions(ep.PureState)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 2, 0)
        report = d3cert.optimize_all_triples(d3_instance, restarts=2, seed=0)
        ep.find_conjugate_basis(a, b, c, restarts=4, seed=0)
        assert len(census.keys) == len(report.census.keys) == 27
        assert bases == [] and states == []

    def test_d4_design_builds_one_basis_per_measurement(self, mub4, count_constructions):
        bases = count_constructions(ep.OrthonormalBasis)
        design = expsim.design_from_mubs(mub4, seed=0)
        assert len(design.triples) == 96
        assert len(bases) == 96  # the triple measurements; basis ones reuse the family's

    def test_d4_design_builds_states_only_for_the_family(self, count_constructions):
        """The design's states are the vectors of the 5 family bases it reads:
        c and the 16 e states. The measurements build none."""
        family = ep.generate_mub(4)
        states = count_constructions(ep.PureState)
        expsim.design_from_mubs(family, seed=0)
        assert len(states) <= 20

    @CORRUPTIONS
    def test_batched_check_rejects_a_bad_completion(self, mub4, monkeypatch,
                                                    column, corrupt, message):
        """A corrupted completion is refused where bases are completed: by a
        design, and by full_measurement."""
        complete = triples._complete_bases

        def corrupt_last(columns):  # only the last matrix of the block goes bad
            out = complete(columns).copy()
            out[-1, :, column] = corrupt(out[-1])
            return out

        a, b, c = mub_triple(mub4)
        result = ep.find_conjugate_basis(a, b, c, restarts=8, seed=7)
        monkeypatch.setattr(triples, "_complete_bases", corrupt_last)
        with pytest.raises(ValueError, match=message):
            expsim.design_from_mubs(mub4, seed=0)
        with pytest.raises(ValueError, match=message):
            ep.full_measurement(a, b, c, result)

    @CORRUPTIONS
    def test_census_check_rejects_a_bad_column(self, d3_instance, monkeypatch,
                                               column, corrupt, message):
        """A searched column that is not orthonormal is refused by the census's
        one Gram check."""
        certified = triples._certified

        def corrupt_last(coords, frames):  # only the last frame goes bad
            final, *rest = certified(coords, frames)
            final[-1, :, column] = corrupt(final[-1])
            return final, *rest

        monkeypatch.setattr(triples, "_certified", corrupt_last)
        with pytest.raises(ValueError, match=message):
            triples.cross_basis_census(d3_instance.bases, d3_instance.c, 1, 0)

    def test_census_makes_one_gram_check(self, d3_instance, monkeypatch):
        """The 27 completed bases of the d = 3 census are checked by
        qstate.check_orthonormal, once, as one stack."""
        shapes = []
        check = qstate.check_orthonormal

        def counted(stack):
            shapes.append(stack.shape)
            check(stack)

        monkeypatch.setattr(qstate, "check_orthonormal", counted)
        monkeypatch.setattr(triples, "check_orthonormal", counted)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 2, 0)
        assert census.matrices.shape == (27, 3, 3)
        assert shapes == [(27, 3, 3)]

    def test_d4_design_checks_each_basis_once(self, mub4, monkeypatch):
        """A d = 4 design checks its 96 census columns as one (96, 4, 3)
        stack, then each completed basis once, as an OrthonormalBasis."""
        shapes = []
        check = qstate.check_orthonormal

        def counted(stack):
            shapes.append(stack.shape)
            check(stack)

        monkeypatch.setattr(qstate, "check_orthonormal", counted)
        monkeypatch.setattr(triples, "check_orthonormal", counted)
        design = expsim.design_from_mubs(mub4, seed=0)
        assert design.census.matrices.shape == (96, 4, 3)
        assert shapes == [(96, 4, 3)] + [(1, 4, 4)] * 96

    def test_only_a_design_completes_bases(self, d3_instance, mub4, monkeypatch, capsys):
        """A census, a lone search and the d3 command complete no basis; a
        design completes its bases once per MAX_STACK_ROWS triples."""
        blocks = []
        complete = triples._complete_bases

        def counted(columns):
            blocks.append(columns.shape)
            return complete(columns)

        monkeypatch.setattr(triples, "_complete_bases", counted)
        triples.cross_basis_census(d3_instance.bases, d3_instance.c, 2, 0)
        ep.find_conjugate_basis(*random_triple(5, 3), restarts=4, seed=0)
        ep.find_conjugate_basis(*mub_triple(mub4), restarts=4, seed=0)
        assert cli.main(["d3", "--restarts", "2", "--seed", "0"]) == 0
        capsys.readouterr()
        assert blocks == []
        expsim.design_from_mubs(mub4, seed=0)
        assert blocks == [(96, 4, 3)]
        blocks.clear()
        monkeypatch.setattr(triples, "MAX_STACK_ROWS", 10)
        expsim.design_from_mubs(mub4, seed=0)
        assert blocks == [(10, 4, 3)] * 9 + [(6, 4, 3)]

    @pytest.mark.parametrize("dim", [4, 5, 7])
    def test_full_measurement_is_the_designs_row(self, dim):
        """full_measurement on census row t builds, bit for bit, the basis the
        design built for triple t; at d = 7 the 1,029 triples span two
        completion blocks."""
        family = ep.generate_mub(dim)
        design = expsim.design_from_mubs(family, seed=0)
        c = family.bases[0].vectors[0]
        for t, (alpha, i, beta, j) in enumerate(design.census.keys):
            setting = design.settings[3 * t]
            assert setting.measurement_label == f"T{alpha}.{i}-{beta}.{j}"
            alone = ep.full_measurement(family.bases[alpha].vectors[i - 1],
                                        family.bases[beta].vectors[j - 1], c,
                                        design.census.row(t))
            assert np.array_equal(alone.basis.matrix, setting.measurement.basis.matrix), t
            assert (alone.labels, alone.ranks) == (setting.measurement.labels,
                                                   setting.measurement.ranks)

    def test_results_compare_by_identity_and_hash(self):
        a, b, c = random_triple(5, 3)
        first = ep.find_conjugate_basis(a, b, c, restarts=2, seed=1)
        second = ep.find_conjugate_basis(a, b, c, restarts=2, seed=1)
        assert np.array_equal(first.matrix, second.matrix)
        assert first == first and first != second
        assert len({first, second, first}) == 2

    def test_matrix_is_read_only_and_basis_agrees(self, d3_instance):
        a, b, c = random_triple(5, 3)
        census = triples.cross_basis_census(d3_instance.bases, d3_instance.c, 2, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            census.epsilon = np.zeros(27)
        for array in (census.matrices, census.epsilon, census.dual_gap, census.converged,
                      census.restarts_used, census.evaluations):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            census.matrices[0, 0, 0] = 0.0
        results = [ep.find_conjugate_basis(a, b, c, restarts=4, seed=1)] + [
            census.row(t) for t in range(27)]
        for result in results:
            assert not result.matrix.flags.writeable
            with pytest.raises(ValueError):
                result.matrix[0, 0] = 0.0
        for result in results[1:]:  # at d = 3 the columns are the basis
            assert np.array_equal(ep.OrthonormalBasis(result.matrix).matrix, result.matrix)
        assert results[0].matrix.shape == (5, 3)
        with pytest.raises(ValueError, match="must be square"):
            ep.OrthonormalBasis(results[0].matrix)
        assert triples._misfire_average(results[0].matrix.T.copy(), (a, b, c)) == (
            results[0].epsilon)
