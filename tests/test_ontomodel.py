"""Tests for discrete and sphere ontological models and the overlap checks."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import epioverlap as ep
from epioverlap import frames, ontomodel
from epioverlap.cli import main
from epioverlap.ontomodel import (
    BornPreconditionError,
    DiscreteModel,
    SpaceMismatchError,
    bloch_axis,
    discriminating_measurement,
    sphere_frame,
)
from epioverlap.qstate import basis_measurement, basis_state


@pytest.fixture(scope="module")
def ks():
    return ep.ks_model_d2()


def qubit_pair(seed):
    return ep.random_state(2, (seed, 0)), ep.random_state(2, (seed, 1))


def lens_overlap(ks, psi, phi):
    """Pairwise overlap via the lens geometry instead of pointwise minima.

    The overlap region splits along the bisector plane of the two Bloch
    axes; on each side the smaller density belongs to the farther axis.
    """
    p, q = bloch_axis(psi), bloch_axis(phi)
    if np.linalg.norm(p - q) < 1e-9:
        pts, wts = sphere_frame([p])
        return float(wts @ ks._density(p, pts))
    pts, wts = sphere_frame([p, q])
    side = pts @ (p - q)
    lens_p = (side <= 0) * ks._density(p, pts)   # p farther: mu_p smaller
    lens_q = (side > 0) * ks._density(q, pts)
    return float(wts @ (lens_p + lens_q))


class TestSpaces:
    def test_sphere_weights_cover_area(self):
        _, wts = sphere_frame()
        assert abs(wts.sum() - 4 * np.pi) < 1e-9

    def test_aligned_frame_also_covers(self):
        axes = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        _, wts = sphere_frame(axes)
        assert abs(wts.sum() - 4 * np.pi) < 1e-9

    def test_discrete_minimum(self):
        """An empty support cannot carry a density that integrates to 1."""
        with pytest.raises(ValueError, match="expected 1"):
            DiscreteModel([(basis_state(2, 0), [])])


def reference_orthogonal_frame(axes):
    """The frame's polar axis and in-plane axes on numpy 3-vectors."""
    axes = [np.asarray(a, dtype=float) for a in axes]
    u = None
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            c = np.cross(axes[i], axes[j])
            n = np.linalg.norm(c)
            if n > 1e-9:
                u = c / n
                break
        if u is not None:
            break
    if u is None:
        u = reference_any_orthogonal(axes[0]) if axes else np.array([0.0, 0.0, 1.0])
    in_plane = []
    for a in axes:
        proj = a - (a @ u) * u
        n = np.linalg.norm(proj)
        if n > 1e-9:
            in_plane.append(proj / n)
    return u, in_plane


def reference_any_orthogonal(v):
    t = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    c = np.cross(v, t)
    return c / np.linalg.norm(c)


def reference_frame(axes=(), resolution=(48, 24), equatorial=False):
    """sphere_frame rebuilt from scratch: numpy 3-vector geometry, fresh
    Gauss-Legendre rules on every call, one panel at a time, and the points
    as one broadcast expression. With ``equatorial`` the polar rule is the
    sphere model's rule for coplanar axes: one node, theta = pi/2, of weight
    pi/2 (the integral of sin(theta)**2 over [0, pi])."""
    n_theta, n_phi = resolution
    u, in_plane = reference_orthogonal_frame(axes)
    e1 = in_plane[0] if in_plane else reference_any_orthogonal(u)
    e2 = np.cross(u, e1)
    angles = []
    phis = [float(np.arctan2(a @ e2, a @ e1)) for a in in_plane]
    for p in phis:
        angles.extend((p + np.pi / 2, p - np.pi / 2))
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            mid = 0.5 * (phis[i] + phis[j])
            angles.extend((mid, mid + np.pi))
    brk = np.unique(np.mod(angles, 2 * np.pi))
    if brk.size == 0:
        brk = np.array([0.0])
    brk = np.append(brk, brk[0] + 2 * np.pi)

    if equatorial:
        sin_t, cos_t, w_theta = np.ones(1), np.zeros(1), np.full(1, np.pi / 2)
    else:
        xt, wt = np.polynomial.legendre.leggauss(n_theta)
        theta = 0.5 * np.pi * (xt + 1.0)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        w_theta = 0.5 * np.pi * wt * sin_t
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    phi_nodes, phi_weights = [], []
    for lo, hi in zip(brk[:-1], brk[1:]):
        if hi - lo < 1e-12:
            continue
        phi_nodes.append(0.5 * (hi - lo) * xp + 0.5 * (lo + hi))
        phi_weights.append(0.5 * (hi - lo) * wp)
    phi = np.concatenate(phi_nodes)
    w_phi = np.concatenate(phi_weights)

    st = sin_t[:, None]
    pts = (st * np.cos(phi)[None, :])[..., None] * e1 \
        + (st * np.sin(phi)[None, :])[..., None] * e2 \
        + cos_t[:, None, None] * u
    wts = w_theta[:, None] * w_phi[None, :]
    return pts.reshape(-1, 3), wts.ravel()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def axis_sets():
    rng = np.random.default_rng(11)
    p, q, m, r = (unit(v) for v in rng.normal(size=(4, 3)))
    sets = {
        "none": [],
        "one": [p],
        "two": [p, q],
        "state_and_antipodal_measurement": [p, m, -m],
        "three": [p, q, m],
        "pole_and_equator": [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])],
        "x_heavy": [unit([0.95, 0.2, -0.1])],  # |x| >= 0.9: the y branch
        "repeated": [p, p],
        "antipodal_pair": [m, -m],
        "four": [p, q, m, r],
    }
    batch = np.random.default_rng(29)
    for k in range(200):
        sets[f"random_{k:03d}"] = [unit(v) for v in batch.normal(size=(batch.integers(1, 5), 3))]
    return sets


@pytest.fixture
def rule_at(monkeypatch):
    """Set the module's sphere resolution for one test; the rule is rebuilt
    on next use, and again after the constants are restored."""
    def patch(n_theta, n_phi):
        monkeypatch.setattr(frames, "N_THETA", n_theta)
        monkeypatch.setattr(frames, "N_PHI", n_phi)
        frames._sphere_rule.cache_clear()
    yield patch
    frames._sphere_rule.cache_clear()


class TestSphereRule:
    """One Gauss-Legendre rule, built once on first use and shared read-only;
    frames stay bitwise what a fresh build gives."""

    @pytest.mark.parametrize("resolution", [(48, 24), (16, 12), (24, 48)])
    @pytest.mark.parametrize("name", sorted(axis_sets()))
    def test_frame_bitwise_equals_fresh_build(self, rule_at, resolution, name):
        """At (48, 24) this is the module's own rule; the other resolutions
        check that the rule and the fill follow N_THETA and N_PHI alone."""
        rule_at(*resolution)
        axes = axis_sets()[name]
        for _ in range(2):  # first call may build the rule, second reuses it
            pts, wts = sphere_frame(axes)
            ref_pts, ref_wts = reference_frame(axes, resolution)
            assert np.array_equal(pts, ref_pts)
            assert np.array_equal(wts, ref_wts)

    def test_cached_arrays_read_only(self):
        arrays = frames._sphere_rule()
        assert [arr.shape for arr in arrays] == [(48,)] * 3 + [(24,)] * 2
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_rule_built_once(self, monkeypatch):
        calls = []
        fresh = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return fresh(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        frames._sphere_rule.cache_clear()
        try:
            for axes in axis_sets().values():
                sphere_frame(axes)
            ep.ks_model_d2().sample([ep.random_state(2, 5)])
            info = frames._sphere_rule.cache_info()
        finally:
            frames._sphere_rule.cache_clear()
        assert calls == [48, 24]
        assert info.misses == 1 and info.hits == len(axis_sets())

    def test_area_check(self, monkeypatch, rule_at):
        fresh = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: (fresh(n)[0], 1.001 * fresh(n)[1]))
        rule_at(48, 24)
        with pytest.raises(ValueError, match="sphere area"):
            sphere_frame()

    def test_rule_not_built_at_import(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        probe = ("import epioverlap.cli; from epioverlap import frames; "
                 "print(frames._sphere_rule.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == ["0"]


class TestFrameAxes:
    @pytest.mark.parametrize("axes", [
        [[0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0, 0.0], [np.inf, 0.0, 0.0]],
        [[0.5, 0.0, 0.0]],
        [[1e-12, 0.0, 0.0], [0.0, 1e-12, 0.0]],
        [[1.0 + 2e-9, 0.0, 0.0]],
    ], ids=["nan", "zero", "inf", "short", "tiny_pair", "long"])
    def test_degenerate_axis_rejected(self, axes):
        """nan, zero and inf used to give all-NaN nodes, zero and inf with a
        RuntimeWarning; short and tiny_pair raised ZeroDivisionError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Bloch axis"):
                sphere_frame([np.array(a) for a in axes])


class TestNodeBuffer:
    """Every frame is freshly allocated: no array the sphere model returns,
    and no frame, shares memory with another or changes later, and frames
    do not fault their pages back in."""

    def test_sample_unchanged_by_a_later_sample(self):
        model = ep.ks_model_d2()
        psi, phi = qubit_pair(400)
        m = basis_measurement(ep.random_unitary(2, (400, 2)))
        first = model.sample([psi, phi], m)
        kept = [a.copy() for a in (first[0], *first[1], *first[2])]
        chi, xi = qubit_pair(401)
        model.sample([chi, xi, antipode(chi)], basis_measurement(ep.random_unitary(2, (401, 2))))
        for before, after in zip(kept, (first[0], *first[1], *first[2])):
            assert np.array_equal(before, after)

    def test_sample_bitwise_equals_fresh_build(self):
        """Densities and responses equal those on a frame built from
        scratch, on the rule the frame must use: one state with its
        antipodal measurement pair is coplanar (equatorial rule), two or
        three generic states with the pair are not (product rule)."""
        model = ep.ks_model_d2()
        for seed in range(403, 409):
            states = [*qubit_pair(seed), ep.random_state(2, (seed, 2))][:seed % 3 + 1]
            m = basis_measurement(ep.random_unitary(2, (seed, 3)))
            axes = [bloch_axis(s) for s in states]
            m_axes = [bloch_axis(v) for v in m.basis.vectors]
            pts, wts = reference_frame(axes + m_axes, equatorial=len(states) == 1)
            got_wts, mus, responses = model.sample(states, m)
            assert np.array_equal(got_wts, wts)
            for a, mu in zip(axes, mus):
                assert np.array_equal(mu, model._density(a, pts))
            for got, ref in zip(responses, ontomodel._hemisphere_responses(m_axes, pts)):
                assert np.array_equal(got, ref)

    def test_frames_do_not_share_memory(self):
        p, q = axis_sets()["two"]
        a, b = sphere_frame([p, q]), sphere_frame([q])
        for x in a:
            for y in b:
                assert not np.shares_memory(x, y)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt semantics")
    def test_frames_do_not_fault_pages_back_in(self):
        """With a fresh node array per frame, glibc returned each one to the
        system and faulted it back in: ~39,000 minor faults per 100 pairs of
        `model verify --model ks2` after warm-up, against ~160 with the
        buffer. Run in a fresh interpreter, whose heap has not grown yet."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        probe = (
            "import contextlib, io, resource\n"
            "from epioverlap.cli import main\n"
            "argv = ['model', 'verify', '--model', 'ks2', '--pairs']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(argv + ['5'])\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    main(argv + ['100'])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert int(out) < 4000


class TestValueTypes:
    def test_epistemic_negative_rejected(self):
        with pytest.raises(ValueError, match="negative density"):
            DiscreteModel([(basis_state(3, 0), [0.5, 0.6, -0.1])])

    def test_epistemic_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="expected 1"):
            DiscreteModel([(basis_state(3, 0), [0.5, 0.3, 0.1])])

    def test_epistemic_nan_rejected(self):
        with pytest.raises(ValueError, match="expected 1"):
            DiscreteModel([(basis_state(2, 0), [float("nan"), 1.0])])

    def test_epistemic_support_sizes_must_agree(self):
        with pytest.raises(SpaceMismatchError):
            DiscreteModel([(basis_state(2, 0), [1.0, 0.0]),
                           (basis_state(2, 1), [0.5, 0.25, 0.25])])

    @staticmethod
    def response(table):
        """The table as a two-point model's response to a qubit measurement."""
        model = DiscreteModel([(basis_state(2, k), np.eye(2)[k]) for k in range(2)],
                              response_rule=lambda m: table)
        return model.response(basis_measurement(ep.random_unitary(2, 0)))

    def test_response_pointwise_sum_enforced(self):
        with pytest.raises(ValueError, match="do not sum to 1"):
            self.response({"a": [0.5, 0.5], "b": [0.6, 0.5]})

    def test_response_range_enforced(self):
        with pytest.raises(ValueError, match="lie in"):
            self.response({"a": [1.4, 0.5], "b": [-0.4, 0.5]})

    def test_response_nan_rejected(self):
        with pytest.raises(ValueError, match="do not sum to 1"):
            self.response({"a": [float("nan"), 0.5], "b": [0.5, 0.5]})

    def test_response_support_size_must_match_points(self):
        """One-entry response arrays on a 3-point model used to broadcast
        against its densities instead of failing."""
        states = [(basis_state(2, 0), [1.0, 0.0, 0.0]), (basis_state(2, 1), [0.0, 0.5, 0.5])]
        model = DiscreteModel(states, response_rule=lambda m: {"out0": [1.0], "out1": [0.0]})
        m = basis_measurement(ep.random_unitary(2, 0))
        with pytest.raises(SpaceMismatchError):
            model.response(m)
        with pytest.raises(SpaceMismatchError):
            model.sample([basis_state(2, 0)], m)


class TestPsiOnticToy:
    def test_born_residual_exactly_zero(self):
        states = [ep.random_state(3, s) for s in range(4)]
        model = ep.psi_ontic_model(states)
        meas = basis_measurement(ep.random_unitary(3, 5))
        for psi in states:
            assert ontomodel.born_check(model, psi, meas) == 0.0

    def test_epistemic_states_disjoint(self):
        states = [ep.random_state(3, s) for s in range(3)]
        model = ep.psi_ontic_model(states)
        assert ontomodel.overlap_pair(model, states[0], states[1]) == 0.0

    def test_overlap_inequality_trivial(self):
        states = [ep.random_state(3, s) for s in range(4)]
        model = ep.psi_ontic_model(states)
        pairs = [(states[0], states[1]), (states[2], states[3])]
        assert ontomodel.verify_overlap_inequality(model, pairs) <= 0.0

    def test_unregistered_state_rejected(self):
        model = ep.psi_ontic_model([basis_state(3, 0), basis_state(3, 1)])
        with pytest.raises(KeyError):
            model.epistemic(basis_state(3, 2))


class TestCorruptedModels:
    def test_shifted_response_flagged_by_born_check(self, monkeypatch):
        states = [basis_state(3, k) for k in range(3)]

        def shifted(m):
            table = dict(zip(m.labels, np.array([m.probabilities(s) for s in states]).T))
            first = m.labels[0]
            table[first] = table[first] + 0.1
            return table

        weights = [(states[k], np.eye(3)[k]) for k in range(3)]
        model = DiscreteModel(weights, response_rule=shifted)
        monkeypatch.setattr(ontomodel, "_check_responses", lambda table: None)
        meas = basis_measurement(ep.random_unitary(3, 1))
        assert ontomodel.born_check(model, states[0], meas) >= 0.05

    def test_shifted_response_gated_by_response_min_bound(self):
        states = [basis_state(3, k) for k in range(3)]

        def shifted(m):
            table = dict(zip(m.labels, np.array([m.probabilities(s) for s in states]).T))
            first = m.labels[0]
            table[first] = table[first] + 0.1
            return table

        weights = [(states[k], np.eye(3)[k]) for k in range(3)]
        model = DiscreteModel(weights, response_rule=shifted)
        meas = basis_measurement(ep.random_unitary(3, 2))
        with pytest.raises(ValueError):
            ontomodel.response_min_bound(model, states, meas)

    def test_born_failing_model_gated(self):
        states = [basis_state(2, 0), ep.PureState(np.array([1, 1]) / np.sqrt(2))]

        def uniform(m):
            n = len(states)
            return {label: np.full(n, 1.0 / len(m.labels)) for label in m.labels}

        model = DiscreteModel([(states[0], np.array([1.0, 0.0])),
                               (states[1], np.array([0.5, 0.5]))],
                              response_rule=uniform)
        with pytest.raises(BornPreconditionError):
            ontomodel.verify_overlap_inequality(model, [(states[0], states[1])])


class TestKSModel:
    def test_density_normalization(self, ks):
        for seed in range(5):
            psi = ep.random_state(2, seed)
            wts, (mu,), _ = ks.sample([psi])
            assert abs(float(wts @ mu) - 1.0) < 1e-8

    def test_born_residuals(self, ks):
        worst = 0.0
        for seed in range(20):
            psi = ep.random_state(2, (seed, 0))
            meas = basis_measurement(ep.random_unitary(2, (seed, 1)))
            worst = max(worst, ontomodel.born_check(ks, psi, meas))
        assert worst < 1e-6

    def test_identical_pair_full_overlap(self, ks):
        psi = ep.random_state(2, 42)
        assert ontomodel.overlap_pair(ks, psi, psi) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pair_overlap_vanishes(self, ks):
        plus = ep.PureState(np.array([1, 1]) / np.sqrt(2))
        minus = ep.PureState(np.array([1, -1]) / np.sqrt(2))
        assert ontomodel.overlap_pair(ks, plus, minus) < 1e-9

    def test_overlap_matches_quantum(self, ks):
        for seed in range(10):
            psi, phi = qubit_pair(seed)
            assert abs(ontomodel.overlap_pair(ks, psi, phi)
                       - ep.quantum_overlap(psi, phi)) < 1e-4

    def test_lens_and_min_agree(self, ks):
        for seed in range(10):
            psi, phi = qubit_pair(100 + seed)
            assert abs(lens_overlap(ks, psi, phi)
                       - ontomodel.overlap_pair(ks, psi, phi)) < 1e-6

    def test_overlap_inequality(self, ks):
        pairs = [qubit_pair(s) for s in range(10)]
        assert ontomodel.verify_overlap_inequality(ks, pairs) <= 1e-4

    def test_support_intersection_orthogonal(self, ks):
        z0, z1 = basis_state(2, 0), basis_state(2, 1)
        assert ontomodel.support_intersection_measure(ks, [z0, z1], 1e-9) < 1e-9

    def test_support_intersection_identical(self, ks):
        psi = ep.random_state(2, 3)
        assert ontomodel.support_intersection_measure(
            ks, [psi, psi], 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_identical_triple_overlap(self, ks):
        psi = ep.random_state(2, 4)
        assert ontomodel.overlap_triple(ks, psi, psi, psi) == pytest.approx(1.0, abs=1e-9)

    def test_support_dominates_overlap(self, ks):
        # mass on the partner's support is at least the mutual overlap
        for seed in range(5):
            psi, phi = qubit_pair(200 + seed)
            wts, (mu_psi, mu_phi), _ = ks.sample([psi, phi])
            on_support = float(wts @ ((mu_phi > 0) * mu_psi))
            assert on_support >= ontomodel.overlap_pair(ks, psi, phi) - 1e-9

    def test_response_min_bound_on_basis_pair(self, ks):
        basis = ep.random_unitary(2, 8)
        meas = basis_measurement(basis)
        slack = ontomodel.response_min_bound(ks, list(basis.vectors), meas)
        assert slack >= -1e-9
        assert slack == pytest.approx(2.0, abs=1e-8)  # disjoint supports, exact outcomes


def antipode(psi):
    """The qubit state orthogonal to psi; its Bloch axis is -bloch_axis(psi)."""
    a, b = psi.amplitudes
    return ep.PureState(np.array([-np.conj(b), np.conj(a)]))


class TestSphereIntegralsBitwise:
    """The module integrals over the sphere model equal, bitwise, the sphere
    formulas written out here on the frame each one must use: a Born check
    on [psi] + measurement axes, a minimum integral on the states' axes, and
    each predicted term of response_min_bound on [s_k] + measurement axes.
    A state with an antipodal measurement pair, and any two states, are
    coplanar and take the equatorial rule; the support-intersection measure
    always takes the product rule."""

    @staticmethod
    def predictions(ks, psi, m, equatorial=True):
        p = bloch_axis(psi)
        axes = [bloch_axis(v) for v in m.basis.vectors]
        pts, wts = reference_frame([p] + axes, equatorial=equatorial)
        mu = ks._density(p, pts)
        return [float(wts @ (xi * mu))
                for xi in ontomodel._hemisphere_responses(axes, pts)]

    def born(self, ks, psi, m):
        worst = 0.0
        for born, pred in zip(m.probabilities(psi), self.predictions(ks, psi, m)):
            worst = max(worst, abs(pred - float(born)))
        return worst

    @staticmethod
    def min_integral(ks, states, equatorial):
        axes = [bloch_axis(s) for s in states]
        pts, wts = reference_frame(axes, equatorial=equatorial)
        return float(wts @ np.minimum.reduce([ks._density(a, pts) for a in axes]))

    @staticmethod
    def support(ks, states, tol):
        axes = [bloch_axis(s) for s in states]
        pts, wts = sphere_frame(axes)
        mus = [ks._density(a, pts) for a in axes]
        mask = np.ones(pts.shape[0], dtype=bool)
        for mu in mus:
            mask &= mu > tol
        return float(wts @ (mask * mus[0]))

    @staticmethod
    def cases():
        for seed in range(4):
            psi, phi = qubit_pair(300 + seed)
            chi = ep.random_state(2, (300 + seed, 2))
            yield psi, phi, chi, basis_measurement(ep.random_unitary(2, (300 + seed, 3)))
        # antipodal states, measured in their own basis
        psi = ep.random_state(2, 310)
        own = basis_measurement(ep.OrthonormalBasis(
            np.column_stack([psi.amplitudes, antipode(psi).amplitudes])))
        yield psi, antipode(psi), psi, own
        z0, z1 = basis_state(2, 0), basis_state(2, 1)
        yield z0, z1, ep.random_state(2, 311), basis_measurement(
            ep.OrthonormalBasis(np.column_stack([z1.amplitudes, z0.amplitudes])))

    # whether each case's three states are coplanar: the generic triples are
    # not; a triple with an antipodal pair is
    COPLANAR = (False, False, False, False, True, True)

    def test_born_check(self, ks):
        for psi, phi, chi, m in self.cases():
            for s in (psi, phi, chi):
                assert ontomodel.born_check(ks, s, m) == self.born(ks, s, m)

    def test_overlaps(self, ks):
        for (psi, phi, chi, _), coplanar in zip(self.cases(), self.COPLANAR, strict=True):
            assert ontomodel.overlap_pair(ks, psi, phi) == self.min_integral(
                ks, [psi, phi], equatorial=True)
            assert ontomodel.overlap_triple(ks, psi, phi, chi) == self.min_integral(
                ks, [psi, phi, chi], equatorial=coplanar)

    def test_support_intersection(self, ks):
        for psi, phi, chi, _ in self.cases():
            for tol in (1e-12, 1e-9, 0.1):
                assert ontomodel.support_intersection_measure(
                    ks, [psi, phi, chi], tol) == self.support(ks, [psi, phi, chi], tol)

    def test_response_min_bound(self, ks):
        for psi, phi, _, m in self.cases():
            states = [psi, phi]
            rhs = sum(self.predictions(ks, s, m)[k] for k, s in enumerate(states))
            expected = float(rhs - self.min_integral(ks, states, equatorial=True))
            assert ontomodel.response_min_bound(ks, states, m) == expected


def state_on(axis):
    """The qubit state whose Bloch axis is the given unit 3-vector."""
    theta, phi = np.arccos(np.clip(axis[2], -1.0, 1.0)), np.arctan2(axis[1], axis[0])
    return ep.PureState(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))


def takes_equatorial_rule(wts):
    """One ring of N_PHI nodes per panel, weights summing to pi**2 (the
    product rule's sum to 4*pi)."""
    return wts.size % frames.N_PHI == 0 and abs(float(wts.sum()) - np.pi ** 2) < 1e-12


class TestEquatorialRule:
    """Frames whose Bloch axes are coplanar integrate on one polar node at
    theta = pi/2 of weight pi/2; the others, and the support-intersection
    measure, stay on the product rule."""

    @staticmethod
    def coplanar_sets():
        """50 seeded (states, measurement): a state, a pair, an antipodal
        pair and an identical pair, in turn."""
        for seed in range(50):
            psi, phi = qubit_pair(500 + seed)
            m = basis_measurement(ep.random_unitary(2, (500 + seed, 2)))
            yield [[psi], [psi, phi], [psi, antipode(psi)], [psi, psi]][seed % 4], m

    def test_coplanar_sets_agree_with_product_rule(self, ks):
        bitwise = TestSphereIntegralsBitwise
        for states, m in self.coplanar_sets():
            assert takes_equatorial_rule(ks.sample(states)[0])
            for s in states:
                assert takes_equatorial_rule(ks.sample([s], m)[0])
                got = ontomodel._predictions(ks, s, m)
                ref = bitwise.predictions(ks, s, m, equatorial=False)
                assert np.allclose(got, ref, rtol=0.0, atol=1e-13)
            if len(states) == 2:
                product_min = bitwise.min_integral(ks, states, equatorial=False)
                assert abs(ontomodel.overlap_pair(ks, *states) - product_min) <= 1e-13
                rhs = sum(bitwise.predictions(ks, s, m, equatorial=False)[k]
                          for k, s in enumerate(states))
                assert abs(ontomodel.response_min_bound(ks, states, m)
                           - (rhs - product_min)) <= 1e-13

    def test_non_coplanar_sets_stay_on_product_rule(self, ks):
        for seed in range(4):
            states = [*qubit_pair(600 + seed), ep.random_state(2, (600 + seed, 2))]
            self.assert_product_frame(ks, states)
            assert ontomodel.overlap_triple(ks, *states) == \
                TestSphereIntegralsBitwise.min_integral(ks, states, equatorial=False)
        # the 7-state frame of TestBonferroni.test_ks_states_on_common_frame
        self.assert_product_frame(ks, [ep.random_state(2, s) for s in range(7)])

    @staticmethod
    def assert_product_frame(ks, states):
        axes = [bloch_axis(s) for s in states]
        pts, wts = sphere_frame(axes)
        got_wts, mus, _ = ks.sample(states)
        assert np.array_equal(got_wts, wts)
        for a, mu in zip(axes, mus):
            assert np.array_equal(mu, ks._density(a, pts))

    @pytest.mark.parametrize("tilt", [0.0, 1e-9])
    def test_tilted_axis_takes_product_rule(self, ks, tilt):
        """Three states on the equator take the equatorial rule; tilting the
        third 1e-9 out of the plane of the first two takes the product rule."""
        p, q = (0.6, 0.8, 0.0), (-1.0, 0.0, 0.0)
        r = (np.cos(tilt) * 0.28, np.cos(tilt) * -0.96, np.sin(tilt))
        states = [state_on(a) for a in (p, q, r)]
        if tilt:
            self.assert_product_frame(ks, states)
        else:
            assert takes_equatorial_rule(ks.sample(states)[0])
        assert ontomodel.overlap_triple(ks, *states) == \
            TestSphereIntegralsBitwise.min_integral(ks, states, equatorial=not tilt)

    def test_ks2_verify_takes_equatorial_rule_on_every_frame(self, monkeypatch, capsys):
        """The Born check's frame from sample and every frame stacked by
        rings (two Born gates and the overlap, per pair) are one ring of
        nodes on the equator; no pair falls back to the per-pair frames."""
        sampled, rings = [], []
        sample, stack = ontomodel.KSQubitModel.sample, ontomodel.rings

        def recorded(self, states, m=None):
            out = sample(self, states, m)
            sampled.append(out[0])
            return out

        def stacked(axes):
            out = stack(axes)
            rings.append(out)
            return out

        monkeypatch.setattr(ontomodel.KSQubitModel, "sample", recorded)
        monkeypatch.setattr(ontomodel, "rings", stacked)
        assert main(["model", "verify", "--model", "ks2", "--pairs", "3"]) == 0
        assert len(sampled) == 3 and all(takes_equatorial_rule(wts) for wts in sampled)
        assert sum(len(on_ring) for _, _, _, on_ring in rings) == 9
        for _, wts, _, on_ring in rings:
            assert np.all(on_ring)
            assert all(takes_equatorial_rule(row) for row in wts)

    def test_support_intersection_stays_on_product_rule(self, ks):
        """Thresholding sin(theta) * mu_eq > tol depends on theta, so the
        equatorial rule would move the measure for tol > 0."""
        psi, phi = qubit_pair(700)
        chi = ep.random_state(2, 701)
        for pair in ([psi, phi], [psi, antipode(psi)], [chi, chi]):
            for tol in (1e-12, 1e-9, 0.1):
                assert ontomodel.support_intersection_measure(ks, pair, tol) == \
                    TestSphereIntegralsBitwise.support(ks, pair, tol)
        wts, mus, _ = ks.sample([chi, chi])
        on_equator = float(wts @ ((mus[0] > 0.1) * mus[0]))
        assert abs(on_equator - ontomodel.support_intersection_measure(ks, [chi, chi], 0.1)) > 0.01


class TestStackedOverlapCheck:
    """The sphere model's stacked overlap check agrees with the per-pair
    path it replaces, and hands that path the pairs it cannot stack."""

    PAIRS = [qubit_pair(900 + seed) for seed in range(200)]

    @staticmethod
    def check(ks, pairs):
        return ontomodel._stacked_check(ks, pairs)

    @staticmethod
    def stacks(pairs):
        return (np.array([psi.amplitudes for psi, _ in pairs]),
                np.array([phi.amplitudes for _, phi in pairs]))

    def test_gaps_and_gates_match_per_pair_path(self, ks):
        """The gaps agree to 4e-15. A gate residual is rounding noise on
        either path (up to 1.55e-15 per pair and 1.33e-15 stacked over 4,000
        seeded pairs; 1.2e-15 per pair here, where the stacked one reads
        1.9e-16), so the two agree to 2e-15, not to 1e-15."""
        gaps = ontomodel.overlap_gaps(ks, self.PAIRS)
        rows = self.check(ks, self.PAIRS)
        assert None not in rows
        for (psi, phi), gap, (_, residual) in zip(self.PAIRS, gaps, rows):
            m = discriminating_measurement(psi, phi)
            reference = max(ontomodel._born_residual(ks, psi, m),
                            ontomodel._born_residual(ks, phi, m))
            assert abs(residual - reference) <= 2e-15
            assert abs(gap - (ontomodel.overlap_pair(ks, psi, phi)
                              - ep.quantum_overlap(psi, phi))) <= 4e-15
        assert ontomodel.verify_overlap_inequality(ks, self.PAIRS) == max(gaps)

    def test_closed_form_bases_match_eigh(self):
        """Column by column, in eigh's order, up to a phase per column."""
        pairs = self.PAIRS + [(basis_state(2, 0), basis_state(2, 1)),
                              (basis_state(2, 1), basis_state(2, 0))]
        bases = frames.discriminating_bases(*self.stacks(pairs))
        for (psi, phi), basis in zip(pairs, bases):
            reference = discriminating_measurement(psi, phi).basis.matrix
            fidelities = abs(np.sum(reference.conj() * basis, axis=0)) ** 2
            assert np.allclose(fidelities, 1.0, rtol=0.0, atol=1e-14)

    def test_zero_difference_takes_a_valid_basis(self):
        psi = ep.random_state(2, 910)
        basis = frames.discriminating_bases(*self.stacks([(psi, psi)]))
        ep.qstate.check_orthonormal(basis)

    @staticmethod
    def degenerate_pairs():
        """Equal states, antipodes, basis states, and a pair 1e-5 apart whose
        computed measurement axes leave the pair's plane by more than
        EQUATOR_TOL."""
        psi = ep.random_state(2, 920)
        near = ep.PureState.normalized(psi.amplitudes + 1e-5 * np.array([1, -1j]))
        return [(psi, psi), (psi, antipode(psi)), (basis_state(2, 0), basis_state(2, 1)),
                (basis_state(2, 0), basis_state(2, 0)), (psi, near)]

    def test_degenerate_pairs_take_the_per_pair_path(self, ks, monkeypatch):
        pairs = self.degenerate_pairs()
        assert self.check(ks, pairs) == [None] * len(pairs)
        per_pair = []
        measure = ontomodel.discriminating_measurement
        monkeypatch.setattr(ontomodel, "discriminating_measurement",
                            lambda psi, phi: per_pair.append(psi) or measure(psi, phi))
        gaps = ontomodel.overlap_gaps(ks, [self.PAIRS[0], *pairs, self.PAIRS[1]])
        assert len(per_pair) == len(pairs)
        for (psi, phi), gap in zip(pairs, gaps[1:-1]):
            assert gap == ontomodel.overlap_pair(ks, psi, phi) - ep.quantum_overlap(psi, phi)

    @pytest.mark.parametrize("tilt", [0.0, 1e-9])
    def test_tilted_ring_is_flagged(self, tilt):
        """The axes of TestEquatorialRule.test_tilted_axis_takes_product_rule."""
        r = (np.cos(tilt) * 0.28, np.cos(tilt) * -0.96, np.sin(tilt))
        axes = np.array([[(0.6, 0.8, 0.0), (-1.0, 0.0, 0.0), r]])
        _, wts, _, on_ring = frames.rings(axes)
        assert on_ring[0] == (not tilt)
        assert takes_equatorial_rule(wts[0])

    def test_gate_refuses_a_corrupted_hemisphere_response(self, monkeypatch):
        """A first response cut at x . a >= 0.2 instead of 0 moves every Born
        prediction far past BORN_GATE_TOL; the stacked path raises before
        any pair reaches the per-pair one."""
        class Corrupted(ontomodel.KSQubitModel):
            @staticmethod
            def _responses(axes, pts):
                first = [(pts @ a >= 0.2).astype(float) for a in axes[:-1]]
                return first + [np.clip(1.0 - np.sum(first, axis=0), 0.0, None)]

        monkeypatch.setattr(ontomodel, "discriminating_measurement", None)
        with pytest.raises(BornPreconditionError, match="fails the Born rule"):
            ontomodel.overlap_gaps(Corrupted(), self.PAIRS[:5])

    def test_chunk_size_does_not_change_the_gaps(self, ks, monkeypatch):
        reference = ontomodel.overlap_gaps(ks, self.PAIRS[:40])
        for chunk in (1, 7, 500):
            monkeypatch.setattr(ontomodel, "CHUNK", chunk)
            assert np.array_equal(ontomodel.overlap_gaps(ks, self.PAIRS[:40]), reference)

    def test_qutrit_pair_rejected(self, ks):
        with pytest.raises(ValueError, match="qubits only"):
            ontomodel.overlap_gaps(ks, [(basis_state(3, 0), basis_state(3, 1))])


class TestDiscreteOverlaps:
    def test_three_point_cyclic_densities(self):
        states = [basis_state(3, k) for k in range(3)]
        model = DiscreteModel([
            (states[0], np.array([0.5, 0.5, 0.0])),
            (states[1], np.array([0.0, 0.5, 0.5])),
            (states[2], np.array([0.5, 0.0, 0.5])),
        ])
        assert ontomodel.overlap_triple(model, *states) == 0.0
        assert ontomodel.overlap_pair(model, states[0], states[1]) == 0.5

    def test_triple_below_pairwise(self):
        rng = np.random.default_rng(0)
        states = [basis_state(3, k) for k in range(3)]
        for _ in range(25):
            model = DiscreteModel([(s, rng.dirichlet(np.ones(12))) for s in states])
            triple = ontomodel.overlap_triple(model, *states)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert triple <= ontomodel.overlap_pair(
                        model, states[i], states[j]) + 1e-12

    def test_pair_overlap_bounded_by_support_mass(self):
        rng = np.random.default_rng(1)
        a, b = basis_state(2, 0), basis_state(2, 1)
        for _ in range(25):
            wa, wb = rng.dirichlet(np.ones(9)), rng.dirichlet(np.ones(9))
            model = DiscreteModel([(a, wa), (b, wb)])
            on_support = wa[wb > 0].sum()
            assert on_support >= ontomodel.overlap_pair(model, a, b) - 1e-12


class TestBonferroni:
    def test_identical_states(self):
        w = np.full(10, 0.1)
        labeled = {(alpha, i): w for alpha in (1, 2) for i in (1, 2, 3)}
        assert ontomodel.bonferroni_check(w, labeled) >= -1e-12

    def test_disjoint_supports(self):
        n = 12
        ref = np.zeros(n)
        ref[0] = 1.0
        labeled = {}
        k = 1
        for alpha in (1, 2):
            for i in (1, 2, 3):
                w = np.zeros(n)
                w[k] = 1.0
                labeled[(alpha, i)] = w
                k += 1
        assert ontomodel.bonferroni_check(ref, labeled) == pytest.approx(1.0, abs=1e-15)

    def test_random_families(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            ref = rng.dirichlet(np.ones(50))
            labeled = {(alpha, i): rng.dirichlet(np.ones(50))
                       for alpha in (1, 2) for i in (1, 2, 3)}
            assert ontomodel.bonferroni_check(ref, labeled) >= -1e-9

    def test_mismatched_supports_rejected(self):
        with pytest.raises(SpaceMismatchError):
            ontomodel.bonferroni_check(np.array([1.0]), {
                (1, 1): np.array([0.5, 0.5])})

    def test_ks_states_on_common_frame(self, ks):
        states = [ep.random_state(2, s) for s in range(7)]
        wts, mus, _ = ks.sample(states)
        masses = [wts * mu / float(wts @ mu) for mu in mus]
        labeled = {(1, i): masses[i] for i in range(3)}
        labeled.update({(2, i): masses[3 + i] for i in range(3)})
        assert ontomodel.bonferroni_check(masses[6], labeled) >= -1e-9


class TestResponseMinBound:
    def test_random_discrete_models(self):
        rng = np.random.default_rng(7)
        basis = ep.random_unitary(4, 3)
        meas = basis_measurement(basis)
        for _ in range(50):
            table = rng.dirichlet(np.ones(4), size=20)  # 20 points x 4 outcomes
            rule_table = dict(zip(meas.labels, table.T))
            states = list(basis.vectors)
            model = DiscreteModel(
                [(s, rng.dirichlet(np.ones(20))) for s in states],
                response_rule=lambda m, t=rule_table: t)
            assert ontomodel.response_min_bound(model, states, meas) >= -1e-9

    def test_disjoint_states_trivial(self):
        states = [basis_state(2, 0), basis_state(2, 1)]
        model = ep.psi_ontic_model(states)
        meas = basis_measurement(ep.random_unitary(2, 1))
        assert ontomodel.response_min_bound(model, states, meas) >= -1e-12

    def test_arity_mismatch(self):
        states = [basis_state(2, 0), basis_state(2, 1)]
        model = ep.psi_ontic_model(states)
        meas = basis_measurement(ep.random_unitary(2, 1))
        with pytest.raises(ValueError):
            ontomodel.response_min_bound(model, states[:1], meas)


class TestDiscriminatingMeasurement:
    def test_orthogonal_states_distinguished(self):
        m = discriminating_measurement(basis_state(2, 0), basis_state(2, 1))
        probs = m.probabilities(basis_state(2, 0))
        assert sorted(np.round(probs, 12)) == [0.0, 1.0]

    def test_success_probability_matches_helstrom(self):
        psi, phi = qubit_pair(9)
        m = discriminating_measurement(psi, phi)
        # guessing by outcome sign achieves the optimal success probability
        p_psi = m.probabilities(psi)
        p_phi = m.probabilities(phi)
        success = 0.5 * sum(max(a, b) for a, b in zip(p_psi, p_phi))
        assert success == pytest.approx(ep.helstrom_success(psi, phi), abs=1e-12)


class TestAbstractModel:
    def test_round_trip_and_verify(self):
        obj = {
            "points": 3,
            "states": {"s0": [1.0, 0.0, 0.0], "s1": [0.0, 0.5, 0.5]},
            "responses": {"m0": {"a": [1.0, 0.2, 0.0], "b": [0.0, 0.8, 1.0]}},
        }
        model = ontomodel.abstract_model_from_obj(obj)
        report = model.verify()
        assert report["points"] == 3
        assert report["values_in_range"] is True
        assert report["state_normalization_residuals"]["s1"] < 1e-12
        assert report["response_normalization_residuals"]["m0"] < 1e-12
        assert report["pairwise_overlaps"]["s0|s1"] == 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ontomodel.abstract_model_from_obj(
                {"points": 3, "states": {"s0": [1.0, 0.0]}})

    @pytest.mark.parametrize("obj", [
        [1, 2],
        {"states": {"s0": [1.0]}},
        {"points": 0, "states": {}},
        {"points": 2.5, "states": {}},
        {"points": True, "states": {}},
        {"points": 2},
        {"points": 2, "states": [1.0, 0.0]},
        {"points": 2, "states": {"s0": ["1", "0"]}},
        {"points": 2, "states": {"s0": [[1.0], [0.0]]}},
        {"points": 2, "states": {"s0": [float("nan"), 1.0]}},
        {"points": 2, "states": {"s0": [10 ** 400, 0]}},
        {"points": 2, "states": {"s0": [1.0, 0.0]}, "responses": {"m": {}}},
        {"points": 2, "states": {"s0": [1.0, 0.0]}, "responses": {"m": [1, 0]}},
        {"points": 2, "states": {"s0": [1.0, 0.0]}, "responses": []},
    ])
    def test_malformed_documents_raise_input_error(self, obj):
        with pytest.raises(ep.InputError):
            ontomodel.abstract_model_from_obj(obj)
