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
  frames.rings, with the model's own density and response rules, and a
  pair whose frames cannot be stacked takes the per-pair integrals;
* the union-bound slack check on a family of densities given as point
  masses on one shared support. Sphere densities enter it as ``wts * mu``
  from one ``sample`` call, so they share that call's frame.

Sphere integrals run on the quadrature frames of frames, which decides
where the nodes go and what they weigh (the product rule, and the
equatorial rule for coplanar Bloch axes); every integrand and check over
them is here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import bloch_axes, discriminating_bases, rings, sphere_frame
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
        frames.EQUATOR_TOL), the frame is one ring of nodes on the equator
        whose weights sum to pi**2, not 4*pi: they integrate exactly only
        integrands that scale as sin(theta), such as a density times
        responses or a pointwise minimum of densities. Other frames take the
        product rule.
        """
        axes = [bloch_axis(s) for s in states]
        m_axes = self._measurement_axes(m) if m is not None else []
        pts, wts = sphere_frame(axes + m_axes, equatorial=True)
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
        axes = [bloch_axis(s) for s in states]
        pts, wts = sphere_frame(axes)
        mus = [model._density(a, pts) for a in axes]
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


def _stacked_check(model, pairs) -> list:
    """The sphere model's overlap check on qubit pairs, on the equatorial
    frames of frames.rings.

    Per pair: the discriminating basis, the two Born gates and the overlap,
    each integral one weighted sum over its frame, row by row, with the
    densities and responses of ``model._density`` and ``model._responses``.
    Returns, per pair, (overlap integral, larger Born residual of the two
    gates), or None where one of its frames is off its ring. Nothing is
    raised on a residual.
    """
    if any(s.dim != 2 for pair in pairs for s in pair):
        raise ValueError("Bloch axes exist for qubits only")
    psi, phi = (np.array([s.amplitudes for s in states]) for states in zip(*pairs))
    n = len(psi)
    bases = discriminating_bases(psi, phi)
    p, q = bloch_axes(psi), bloch_axes(phi)
    m = bloch_axes(bases.transpose(0, 2, 1))
    amps = np.sum(np.concatenate([bases, bases]).conj()
                  * np.concatenate([psi, phi])[:, :, None], axis=1)
    born = amps.real ** 2 + amps.imag ** 2

    gates = [np.concatenate([s[:, None], m], axis=1) for s in (p, q)]
    nodes, wts, coords, on_ring = rings(np.concatenate(gates))
    mu = model._density(coords[:, 0], nodes)
    residual = np.zeros(2 * n)
    for k, xi in enumerate(model._responses([coords[:, 1], coords[:, 2]], nodes)):
        pred = np.sum(wts * (xi * mu)[..., 0], axis=1)
        residual = np.maximum(residual, abs(pred - born[:, k]))

    nodes, wts, coords, overlap_on_ring = rings(np.stack([p, q], axis=1))
    mu_p, mu_q = (model._density(coords[:, k], nodes)[..., 0] for k in range(2))
    overlaps = np.sum(wts * np.minimum(mu_p, mu_q), axis=1)
    residuals = np.maximum(residual[:n], residual[n:])
    flat = [a and b and c for a, b, c in zip(on_ring[:n], on_ring[n:], overlap_on_ring)]
    return [(o, r) if f else None for o, r, f in zip(overlaps.tolist(), residuals.tolist(), flat)]


def overlap_gaps(model, pairs) -> np.ndarray:
    """overlap_pair - quantum_overlap for each pair, in order, each after the
    Born gates of verify_overlap_inequality.

    The sphere model checks CHUNK pairs at a time on stacked equatorial
    frames (_stacked_check). A pair it cannot stack, and every pair
    of another model, takes the per-pair path: each gate and the overlap on
    its own frame of ``model.sample``.
    """
    pairs = list(pairs)
    gaps = []
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start:start + CHUNK]
        stacked = [None] * len(chunk)
        if isinstance(model, KSQubitModel):
            stacked = _stacked_check(model, chunk)
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
    for label in states:
        if "|" in label:  # it joins the two labels of a pairwise_overlaps key
            raise InputError(f"state label {label!r} contains '|'")
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
