"""Ontological models over discrete and spherical ontic spaces.

A model assigns each pure state an epistemic state (a density over ontic
states) and each measurement a response function; reproducing quantum
statistics means the response-weighted integral of the density matches the
Born probability for every outcome. This module provides:

* discrete models backed by explicit tables, including the state-per-point
  toy in which every quantum state owns one ontic point;
* the Kochen-Specker qubit model on the unit sphere, with densities
  mu_psi(x) = (n_psi . x)+ / pi and hemisphere-indicator responses;
* the Born check, overlap integrals (pairwise and triple pointwise
  minima) and the response-normalization bound that drives the noise
  analysis. A model has one method, ``sample(states, m=None)``, returning
  integration weights, one density array per state and one response array
  per outcome of m in outcome order; each integral is written once, over
  those arrays, for every model. The one exception is the sphere model's
  overlap check (overlap_gaps, verify_overlap_inequality): it runs a chunk
  of CHUNK pairs at a time on the stacked equatorial frames of
  frames.overlap_check, with the model's own density and response rules,
  and a pair whose frames cannot be stacked takes the per-pair integrals;
* the union-bound slack check on a family of densities given as point
  masses on one shared support. Sphere densities enter it as ``wts * mu``
  from one ``sample`` call, so they share that call's frame.

Sphere integrals use a quadrature frame whose polar axis is orthogonal to
the Bloch axes involved. Every discontinuity circle of the integrand then
lies on a pair of meridians, the azimuthal panels split at those meridians,
and Gauss-Legendre nodes converge spectrally despite the kinks. There are
two polar rules over the same azimuthal panels, N_PHI nodes per panel:

* the product rule, N_THETA Gauss-Legendre polar nodes, built on first use
  and shared read-only by every frame; its weights sum to 4*pi, and it is
  the only rule of sphere_frame;
* the equatorial rule, one polar node at theta = pi/2 with weight pi/2.
  The sphere model's ``sample`` takes it when every Bloch axis lies in the
  frame's equatorial plane (to within EQUATOR_TOL). Its weights sum to
  pi**2, not 4*pi: it integrates exactly only integrands that scale as
  sin(theta), such as one density times responses, or a pointwise minimum
  of densities, whose polar factor integrates to pi/2 in closed form.

The frame geometry (polar and in-plane axes, panel edges) is in frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .frames import (
    _any_orthogonal,
    _axis,
    _breakpoints,
    _cross,
    _orthogonal_frame,
    overlap_check,
)
from .qstate import (
    InputError,
    Measurement,
    OrthonormalBasis,
    PureState,
    basis_measurement,
    fidelity,
    finite_vector,
    quantum_overlap,
)


class SpaceMismatchError(ValueError):
    """Operands are defined over different ontic spaces."""


class BornPreconditionError(RuntimeError):
    """A check requiring Born-rule reproduction was run on a model that fails it."""


# ---------------------------------------------------------------------------
# Sphere quadrature
# ---------------------------------------------------------------------------

N_THETA, N_PHI = 48, 24  # polar nodes on [0, pi]; nodes per azimuthal panel

# Largest out-of-plane component |a . u| of a Bloch axis for which the sphere
# model takes the equatorial rule. Coplanar axes come out of the frame
# geometry below ~1e-15 (1.2e-15 at worst over 12,000 frames of `model verify
# --model ks2`). A true tilt t costs the equatorial rule ~0.21 t on the
# minimum of two nearly coincident densities (its worst case; Born terms
# move by rounding only), so at t = 1e-14 that is ~2e-15, the size of the
# product rule's own rounding.
EQUATOR_TOL = 1e-14


@cache
def _sphere_rule():
    """Read-only (sin theta, cos theta, polar weights, azimuthal nodes,
    azimuthal weights) of the Gauss-Legendre product rule. The polar weights
    carry the sin theta area element; the azimuthal rule is on [-1, 1]."""
    xt, wt = np.polynomial.legendre.leggauss(N_THETA)
    theta = 0.5 * np.pi * (xt + 1.0)
    sin_t = np.sin(theta)
    w_t = 0.5 * np.pi * wt * sin_t
    xp, wp = np.polynomial.legendre.leggauss(N_PHI)
    if abs(float(w_t.sum() * wp.sum()) * np.pi - 4.0 * np.pi) > 1e-9:
        raise ValueError("quadrature weights do not sum to the sphere area")
    rule = (sin_t, np.cos(theta), w_t, xp, wp)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def sphere_frame(axes=()):
    """Quadrature nodes and weights aligned to the given Bloch axes.

    The polar axis is chosen orthogonal to the first two independent axes,
    so their hemisphere boundaries and the bisector circle between them
    become meridians. Returns (points, weights) on the product rule, with
    points of shape (n, 3) and weights summing to 4*pi, both freshly
    allocated. An axis that is not a finite 3-vector of unit length raises
    ValueError.
    """
    return _fill(axes)


def _fill(axes, equatorial=False):
    """The frame's points and weights, both freshly allocated. The polar
    rule is the equatorial rule's one node (weight pi/2, the integral of
    sin(theta)**2 over [0, pi]) when ``equatorial`` is set and every axis
    lies within EQUATOR_TOL of the equatorial plane, else the product
    rule's N_THETA Gauss-Legendre nodes."""
    u, in_plane, tilt = _orthogonal_frame([_axis(a) for a in axes])
    e1 = in_plane[0] if in_plane else _any_orthogonal(u)
    e2 = _cross(u, e1)

    brk = _breakpoints([float(np.arctan2(np.dot(a, e2), np.dot(a, e1))) for a in in_plane])
    panels = [(lo, hi) for lo, hi in zip(brk[:-1], brk[1:]) if not hi - lo < 1e-12]
    half = np.array([[0.5 * (hi - lo)] for lo, hi in panels])
    mid = np.array([[0.5 * (lo + hi)] for lo, hi in panels])

    sin_t, cos_t, w_t, xp, wp = _sphere_rule()
    if equatorial and tilt <= EQUATOR_TOL:
        sin_t, cos_t, w_t = np.ones(1), np.zeros(1), np.full(1, np.pi / 2)
    phi = (half * xp + mid).ravel()
    w_phi = (half * wp).ravel()

    st = sin_t[:, None]
    a = st * np.cos(phi)[None, :]
    b = st * np.sin(phi)[None, :]
    c = cos_t[:, None]
    pts = np.empty(a.shape + (3,))
    # a*e1 + b*e2 + c*u, one coordinate at a time, through two scratch rows
    s, t = np.empty_like(a), np.empty_like(a)
    for k in range(3):
        np.multiply(a, e1[k], out=s)
        np.multiply(b, e2[k], out=t)
        np.add(s, t, out=s)
        np.add(s, c * u[k], out=pts[..., k])
    wts = w_t[:, None] * w_phi[None, :]
    return pts.reshape(-1, 3), wts.ravel()


# ---------------------------------------------------------------------------
# Discrete models
# ---------------------------------------------------------------------------

def _check_responses(table: dict) -> None:
    """Raise ValueError unless the per-outcome response values lie in [0, 1]
    and sum to 1 pointwise."""
    stack = np.stack(list(table.values()))
    if np.any(stack < -1e-12) or np.any(stack > 1 + 1e-12):
        raise ValueError("response values must lie in [0, 1]")
    worst = float(np.max(np.abs(stack.sum(axis=0) - 1.0)))
    if not worst <= 1e-9:
        raise ValueError(f"response functions do not sum to 1 pointwise (worst {worst!r})")


class DiscreteModel:
    """A tabular model over finitely many ontic points.

    ``states`` maps registered pure states to densities. Responses come
    from ``response_rule``, which maps a measurement to a table of response
    values per outcome label; a model without one has no responses.
    """

    def __init__(self, states, response_rule=None):
        states = [(psi, np.asarray(w, dtype=float).reshape(-1)) for psi, w in states]
        if not states:
            raise ValueError("a model needs at least one registered state")
        n = states[0][1].size
        self.points = n
        self.dim = states[0][0].dim
        for psi, w in states:
            if w.size != n:
                raise SpaceMismatchError("registered densities have mismatched support sizes")
            if np.any(w < 0):
                raise ValueError("epistemic state has negative density")
            total = float(np.sum(w))
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"epistemic state integrates to {total!r}, expected 1")
            if psi.dim != self.dim:
                raise ValueError("registered states have mixed dimensions")
        self._states = states
        self._rule = response_rule

    def epistemic(self, psi: PureState) -> np.ndarray:
        for reg, w in self._states:
            if reg.dim == psi.dim and abs(fidelity(reg, psi) - 1.0) < 1e-10:
                return w
        raise KeyError("state is not registered with this model")

    def response(self, m: Measurement) -> dict:
        table = self._rule(m) if self._rule is not None else None
        if table is None:
            raise KeyError("measurement is not registered with this model")
        table = {k: np.asarray(v, dtype=float).reshape(-1) for k, v in table.items()}
        if any(v.size != self.points for v in table.values()):
            raise SpaceMismatchError(
                f"response tables must have one value per point ({self.points})")
        _check_responses(table)
        return table

    def sample(self, states, m: Measurement | None = None):
        """Unit weights over the points, the states' densities and, given a
        measurement, its response tables in outcome order."""
        densities = [self.epistemic(s) for s in states]
        responses = []
        if m is not None:
            table = self.response(m)
            responses = [table[label] for label in m.labels]
        return np.ones(self.points), densities, responses


def psi_ontic_model(states) -> DiscreteModel:
    """One ontic point per quantum state; responses copy Born probabilities.

    Reproduces quantum statistics for every projective measurement with
    exactly zero residual, and every pair of epistemic states is disjoint.
    """
    states = list(states)
    n = len(states)

    def rule(m: Measurement) -> dict:
        return dict(zip(m.labels, np.array([m.probabilities(s) for s in states]).T))

    table = []
    for k, psi in enumerate(states):
        w = np.zeros(n)
        w[k] = 1.0
        table.append((psi, w))
    return DiscreteModel(table, response_rule=rule)


# ---------------------------------------------------------------------------
# The Kochen-Specker qubit model
# ---------------------------------------------------------------------------

def bloch_axis(psi: PureState) -> np.ndarray:
    """Bloch vector of a qubit state."""
    if psi.dim != 2:
        raise ValueError("Bloch axes exist for qubits only")
    a, b = psi.amplitudes
    return np.array([2 * (np.conj(a) * b).real,
                     2 * (np.conj(a) * b).imag,
                     abs(a) ** 2 - abs(b) ** 2])


class KSQubitModel:
    """Qubit model with cosine densities on Bloch hemispheres.

    mu_psi(x) = (n_psi . x)+ / pi and a projective measurement {phi, phi_perp}
    responds with the indicator of the hemisphere around the Bloch axis of
    phi. Reproduces the Born rule exactly, and the overlap of any two
    epistemic states equals the quantum overlap of the underlying states.
    """

    dim = 2

    @staticmethod
    def _density(axis: np.ndarray, pts: np.ndarray) -> np.ndarray:
        return np.clip(pts @ axis, 0.0, None) / np.pi

    @staticmethod
    def _responses(axes, pts) -> list:
        return _hemisphere_responses(axes, pts)

    @staticmethod
    def _measurement_axes(m: Measurement) -> list:
        if m.dim != 2:
            raise ValueError("the sphere model supports complete qubit measurements")
        if any(rank != 1 for rank in m.ranks):
            raise ValueError("the sphere model supports rank-1 qubit effects")
        return [bloch_axis(v) for v in m.basis.vectors]

    def sample(self, states, m: Measurement | None = None):
        """Weights of the frame aligned to the states' axes followed by the
        measurement's, the states' densities and the hemisphere responses.

        When every axis lies in the frame's equatorial plane (within
        EQUATOR_TOL), the frame is one ring of nodes on the equator whose
        weights sum to pi**2, not 4*pi: they integrate exactly only
        integrands that scale as sin(theta), such as a density times
        responses or a pointwise minimum of densities. Other frames take the
        product rule.
        """
        return self._sample(states, m, equatorial=True)

    def _sample(self, states, m, equatorial):
        axes = [bloch_axis(s) for s in states]
        m_axes = self._measurement_axes(m) if m is not None else []
        pts, wts = _fill(axes + m_axes, equatorial)
        densities = [self._density(a, pts) for a in axes]
        responses = self._responses(m_axes, pts) if m is not None else []
        return wts, densities, responses


def _hemisphere_responses(axes, pts) -> list:
    """Indicator responses for rank-1 qubit effects; the final outcome takes
    the complement so the responses sum to exactly 1 pointwise."""
    resp = [(pts @ a >= 0).astype(float) for a in axes[:-1]]
    total = np.sum(resp, axis=0) if resp else np.zeros(pts.shape[0])
    resp.append(np.clip(1.0 - total, 0.0, None))
    return resp


def ks_model_d2() -> KSQubitModel:
    """The Kochen-Specker qubit model on the sphere quadrature."""
    return KSQubitModel()


# ---------------------------------------------------------------------------
# Model checks
# ---------------------------------------------------------------------------

def _predictions(model, psi: PureState, m: Measurement) -> list:
    """The model's probability of each outcome of m for psi, in outcome order."""
    wts, (mu,), responses = model.sample([psi], m)
    return [float(wts @ (xi * mu)) for xi in responses]


def _born_residual(model, psi: PureState, m: Measurement) -> float:
    worst = 0.0
    for born, pred in zip(m.probabilities(psi), _predictions(model, psi, m)):
        worst = max(worst, abs(pred - float(born)))
    return worst


def _min_integral(model, states) -> float:
    wts, mus, _ = model.sample(states)
    return float(wts @ np.minimum.reduce(mus))


def born_check(model, psi: PureState, m: Measurement) -> float:
    """Worst absolute deviation of model outcome probabilities from Born."""
    return _born_residual(model, psi, m)


def overlap_pair(model, psi: PureState, phi: PureState) -> float:
    """Integral of the pointwise minimum of the two epistemic densities."""
    return _min_integral(model, [psi, phi])


def overlap_triple(model, a: PureState, b: PureState, c: PureState) -> float:
    """Integral of the pointwise minimum of three epistemic densities."""
    return _min_integral(model, [a, b, c])


def support_intersection_measure(model, states, tol: float = 1e-12) -> float:
    """Mass the first state assigns to the region where all densities exceed tol."""
    # mu > tol is not a condition that scales with sin(theta), so the sphere
    # model thresholds its densities on the product rule
    if isinstance(model, KSQubitModel):
        wts, mus, _ = model._sample(states, None, equatorial=False)
    else:
        wts, mus, _ = model.sample(states)
    mask = np.ones(wts.size, dtype=bool)
    for mu in mus:
        mask &= mu > tol
    return float(wts @ (mask * mus[0]))


def discriminating_measurement(a: PureState, b: PureState) -> Measurement:
    """The projective measurement in the eigenbasis of |a><a| - |b><b|,
    which realizes the optimal single-shot discrimination of a and b."""
    rho = np.outer(a.amplitudes, a.amplitudes.conj()) \
        - np.outer(b.amplitudes, b.amplitudes.conj())
    _, vecs = np.linalg.eigh(rho)
    return basis_measurement(OrthonormalBasis(vecs))


BORN_GATE_TOL = 1e-6  # Born residual above which an overlap comparison is refused

# Pairs per stacked overlap check of the sphere model. Its arrays grow with
# it (~40 KB a pair), and so does the process's peak RSS: in `model verify
# --model ks2 --pairs 500` 8 reads ~0.4 MB below the per-pair path, 16
# level with it and 32 ~0.5 MB above (BENCH_stacked_overlap.json).
CHUNK = 8


def verify_overlap_inequality(model, pairs) -> float:
    """Worst value of overlap_pair - quantum_overlap across the given pairs.

    Each pair is first gated on Born reproduction for its discriminating
    measurement; a failure raises BornPreconditionError rather than being
    reported as an overlap violation.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("at least one pair is required")
    return max(overlap_gaps(model, pairs).tolist())


def overlap_gaps(model, pairs) -> np.ndarray:
    """overlap_pair - quantum_overlap for each pair, in order, each after the
    Born gates of verify_overlap_inequality.

    The sphere model checks CHUNK pairs at a time on stacked equatorial
    frames (frames.overlap_check). A pair it cannot stack, and every pair
    of another model, takes the per-pair path: each gate and the overlap on
    its own frame of ``model.sample``.
    """
    pairs = list(pairs)
    gaps = []
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start:start + CHUNK]
        stacked = [None] * len(chunk)
        if isinstance(model, KSQubitModel):
            stacked = overlap_check(model, chunk, _sphere_rule()[3:], EQUATOR_TOL)
        for (psi, phi), row in zip(chunk, stacked):
            if row is None:
                m = discriminating_measurement(psi, phi)
                residual = max(_born_residual(model, psi, m), _born_residual(model, phi, m))
            else:
                overlap, residual = row
            if not residual <= BORN_GATE_TOL:
                raise BornPreconditionError(
                    f"model fails the Born rule on a discriminating measurement "
                    f"(residual {residual:.3e}); the overlap comparison is not meaningful")
            if row is None:
                overlap = overlap_pair(model, psi, phi)
            gaps.append(overlap - quantum_overlap(psi, phi))
    return np.array(gaps)


def bonferroni_check(reference, labeled_states) -> float:
    """Union-bound slack for a labeled family of epistemic states.

    Every density is given as point masses on one shared support:
    ``labeled_states`` maps (group, index) labels to mass arrays, and
    ``reference`` is the mass array whose total caps the union. Returns

        1 + sum_{groups g < h, i, j} Int min(ref, e_gi, e_hj)
          + sum_{g, i < j} Int min(e_gi, e_gj)
          - sum_{g, i} Int min(ref, e_gi)

    which is nonnegative for every valid input; a return below -1e-9 means
    a normalization invariant was violated upstream. Arrays of different
    sizes raise SpaceMismatchError.

    Sphere densities need no separate path. Quadrature weights are
    positive, so a pointwise minimum commutes with weighting, and the masses
    ``wts * mu`` from one ``model.sample(states)`` call all lie on that
    call's frame. Only the first two Bloch axes are aligned to the frame,
    so with more states divide each mass array by its total to keep it
    normalized.
    """
    labels = sorted(labeled_states)
    ref = np.asarray(reference, dtype=float).reshape(-1)
    vals = [np.asarray(labeled_states[label], dtype=float).reshape(-1) for label in labels]
    if any(v.size != ref.size for v in vals):
        raise SpaceMismatchError("densities have mismatched support sizes")

    lhs = sum(float(np.sum(np.minimum(ref, v))) for v in vals)
    rhs = 1.0
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            if labels[a][0] == labels[b][0]:
                rhs += float(np.sum(np.minimum(vals[a], vals[b])))
            else:
                rhs += float(np.sum(np.minimum.reduce([ref, vals[a], vals[b]])))
    return float(rhs - lhs)


def response_min_bound(model, states, m: Measurement) -> float:
    """Slack of Int min_j mu_j <= sum_i P(f_i | psi_i), outcomes matched to
    states in order. Nonnegative whenever the model's responses are valid."""
    states = list(states)
    if len(states) != len(m.labels):
        raise ValueError(
            f"need one state per outcome: {len(states)} states, {len(m.labels)} outcomes")
    lhs = _min_integral(model, states)
    rhs = sum(_predictions(model, s, m)[k] for k, s in enumerate(states))
    return float(rhs - lhs)


# ---------------------------------------------------------------------------
# JSON-backed abstract models (no quantum labels, structural checks only)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractDiscreteModel:
    """A discrete model given purely by labeled tables, as loaded from JSON."""

    points: int
    states: dict
    responses: dict

    def verify(self) -> dict:
        """Structural report: normalization residuals, response residuals,
        range violations, and the pairwise overlap matrix of the states."""
        state_residuals = {}
        range_ok = True
        for label, w in self.states.items():
            state_residuals[label] = abs(float(np.sum(w)) - 1.0)
            if np.any(np.asarray(w) < 0):
                range_ok = False
        response_residuals = {}
        for mlabel, table in self.responses.items():
            stack = np.stack([np.asarray(v, dtype=float) for v in table.values()])
            if np.any(stack < 0) or np.any(stack > 1):
                range_ok = False
            response_residuals[mlabel] = float(np.max(np.abs(stack.sum(axis=0) - 1.0)))
        labels = sorted(self.states)
        overlaps = {}
        for i, la in enumerate(labels):
            for lb in labels[i + 1:]:
                overlaps[f"{la}|{lb}"] = float(
                    np.minimum(self.states[la], self.states[lb]).sum())
        return {
            "points": self.points,
            "state_normalization_residuals": state_residuals,
            "response_normalization_residuals": response_residuals,
            "values_in_range": range_ok,
            "pairwise_overlaps": overlaps,
        }


def abstract_model_from_obj(obj: dict) -> AbstractDiscreteModel:
    """Load a model document; a malformed one raises InputError."""
    if not isinstance(obj, dict):
        raise InputError("a model must be an object with points and states")
    n = obj.get("points")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InputError("points must be an integer >= 1")

    def table(value, what, item):
        if not isinstance(value, dict):
            raise InputError(f"{what} must be an object of labeled lists")
        out = {}
        for label, w in value.items():
            arr = finite_vector(w, f"{item} {label!r}")
            if arr.size != n:
                raise InputError(f"{item} {label!r} has {arr.size} values, expected {n}")
            out[label] = arr
        return out

    states = table(obj.get("states"), "states", "state")
    raw = obj.get("responses", {})
    if not isinstance(raw, dict):
        raise InputError("responses must be an object of response tables")
    responses = {}
    for mlabel, outcomes in raw.items():
        responses[mlabel] = table(outcomes, f"response {mlabel!r}",
                                  f"response {mlabel!r} outcome")
        if not responses[mlabel]:
            raise InputError(f"response {mlabel!r} has no outcomes")
    return AbstractDiscreteModel(points=n, states=states, responses=responses)
