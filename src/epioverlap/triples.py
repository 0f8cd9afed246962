"""Post-Peierls incompatibility of state triples.

A triple (a, b, c) spanning a three-dimensional subspace is PP-incompatible
when some orthonormal basis {f1, f2, f3} of the span satisfies
<f1|a> = <f2|b> = <f3|c> = 0, so a single measurement can "misfire" on a
different member of the triple for each outcome. The algebraic criterion in
terms of the pairwise fidelities x1 = |<a|b>|^2, x2 = |<b|c>|^2,
x3 = |<c|a>|^2 is

    x1 + x2 + x3 < 1          (strict)
    (x1 + x2 + x3 - 1)^2 >= 4 x1 x2 x3   (non-strict)

The constructive side searches for the basis minimizing the misfire average
eps = (P(f1|a) + P(f2|b) + P(f3|c)) / 3. With G the triple in span
coordinates and U a frame of the span, the residuals are the diagonal of
M = U^H G and eps = |diag M|^2 / 3. Multi-start Levenberg-Marquardt moves
each frame on U(3) by U <- U exp(X), X skew-Hermitian with zero diagonal
(the per-vector phases do not change eps), using the closed-form Jacobian
and second derivatives of the residuals. A census of triples runs as one
stack: restart 0 of every triple forms one (n, 3, 3) stack, each row with
its own span coordinates, and the later restarts of the triples it left
open form a second, into one Census record. find_conjugate_basis is its row 0.

Minimizing eps is minimum-error state exclusion with priors 1/3
(Bandyopadhyay, Jain, Oppenheim, Perry, PRA 89, 022336 (2014)). Its dual,
as in Yuen, Kennedy, Lax (IEEE TIT 21, 125 (1975)), certifies a frame: with
s = diag M, Y = herm(U diag(s) G^H) / 3 has trace eps, and for
delta = max(0, -min_j lambda_min(g_j g_j^H / 3 - Y)), eps - 3 delta bounds
the misfire of every measurement, POVMs included, from below. A search
stops at the first restart whose dual gap 3 delta is at most DUAL_GAP_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .qstate import (
    DimensionMismatchError,
    Measurement,
    OrthonormalBasis,
    PureState,
    check_orthonormal,
    haar_unitary,
)

SPAN_RANK_TOL = 1e-8
DUAL_GAP_TOL = 1e-10  # a frame whose dual gap is at most this is a global minimum
# Rows per stack after restart 0: restarts 1.. run in stacks of whole triples
# of at most this many rows (or one triple's restarts, if more), and
# triple_measurements completes bases this many at a time. A row holds ~3 kB
# in the kernel and ~0.1 d^2 kB in the completion (traced), so a restart
# stack stays near 3 MB and a completion block near 12 MB at d = 11.
MAX_STACK_ROWS = 1024

# Levenberg-Marquardt settings: a row stops once its gradient or its
# proposed step falls below the tolerances, or at the iteration cap; a row
# whose accepted step kept more than LM_SLOW_RATIO of the cost takes the
# residual curvature into its next step.
LM_MAX_ITERATIONS = 500
LM_GRADIENT_TOL = 1e-15
LM_STEP_TOL = 1e-12
LM_DAMPING_START = 1e-3
LM_DAMPING_FACTOR = 10.0
LM_SLOW_RATIO = 0.2


class DegenerateSpanError(ValueError):
    """The three states do not span a three-dimensional subspace."""


@dataclass(frozen=True)
class TripleOverlaps:
    """Pairwise fidelities of a triple, in cyclic order (a,b), (b,c), (c,a)."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name, x in (("x1", self.x1), ("x2", self.x2), ("x3", self.x3)):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name} = {x!r} is outside [0, 1]")

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True, eq=False)
class ConjugateBasisResult:
    """Outcome of the misfire-minimizing basis search for one triple. matrix
    is read-only, d x 3: the orthonormal columns f1, f2, f3 in span{a, b, c};
    full_measurement completes them to a basis."""

    matrix: np.ndarray
    epsilon: float
    triple_sum: float
    converged: bool       # dual_gap <= DUAL_GAP_TOL
    restarts_used: int
    evaluations: int = 0  # objective evaluations over the restarts used
    dual_gap: float = 0.0  # epsilon minus the dual lower bound of the returned frame


@dataclass(frozen=True, eq=False)
class Census:
    """The searches of n triples as read-only (n, ...) arrays, with the meanings
    of the ConjugateBasisResult fields (matrices: (n, d, 3), each row's
    f1, f2, f3); keys labels the rows, row(t) reads one."""

    keys: tuple
    matrices: np.ndarray
    epsilon: np.ndarray
    dual_gap: np.ndarray
    converged: np.ndarray
    restarts_used: np.ndarray
    evaluations: np.ndarray

    def row(self, t: int) -> ConjugateBasisResult:
        eps = float(self.epsilon[t])
        return ConjugateBasisResult(self.matrices[t], eps, 3.0 * eps, bool(self.converged[t]),
                                    int(self.restarts_used[t]), int(self.evaluations[t]),
                                    float(self.dual_gap[t]))


def _span_bases(triples):
    """The members of each triple (a, b, c) as the columns of a (n, d, 3)
    stack, and orthonormal columns spanning each triple, also (n, d, 3)."""
    for a, b, c in triples:
        if not (a.dim == b.dim == c.dim):
            raise DimensionMismatchError("triple members have mixed dimensions")
        if a.dim < 3:
            raise DegenerateSpanError(
                f"states of dimension {a.dim} cannot span a 3-dimensional subspace")
    members = np.stack([np.column_stack([a.amplitudes, b.amplitudes, c.amplitudes])
                        for a, b, c in triples])
    u, s, _ = np.linalg.svd(members, full_matrices=False)
    for third in s[:, 2]:
        if third < SPAN_RANK_TOL:
            raise DegenerateSpanError(
                f"states span fewer than 3 dimensions (third singular value {third:.2e})")
    return members, u


def triple_overlaps(a: PureState, b: PureState, c: PureState) -> TripleOverlaps:
    """The three pairwise fidelities, clamped to 1; raises DegenerateSpanError
    on rank < 3."""
    _span_bases([(a, b, c)])
    ab = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
    bc = abs(np.vdot(b.amplitudes, c.amplitudes)) ** 2
    ca = abs(np.vdot(c.amplitudes, a.amplitudes)) ** 2
    return TripleOverlaps(min(ab, 1.0), min(bc, 1.0), min(ca, 1.0))


def pp_incompatible(x) -> bool:
    """Algebraic PP-incompatibility test on pairwise fidelities.

    Accepts a TripleOverlaps or any 3-sequence. The first inequality is
    strict, the second is not; no tolerance is applied.
    """
    if isinstance(x, TripleOverlaps):
        x1, x2, x3 = x.as_tuple()
    else:
        x1, x2, x3 = x
    s = x1 + x2 + x3
    return bool(s < 1.0 and (s - 1.0) ** 2 >= 4.0 * x1 * x2 * x3)


def triple_epsilon(a: PureState, b: PureState, c: PureState,
                   basis: OrthonormalBasis) -> float:
    """Misfire average (P(f1|a) + P(f2|b) + P(f3|c)) / 3 for a given basis.

    Only the first three basis vectors are used, so a full-dimension basis
    whose leading vectors lie in the span works too.
    """
    return _misfire_average(basis.matrix[:, :3].T.copy(), (a, b, c))


def _misfire_average(vectors, triple) -> float:
    """(|<f1|a>|^2 + |<f2|b>|^2 + |<f3|c>|^2) / 3 with one vdot per
    contiguous vector f_k, so that every caller gets the same bits."""
    return sum(abs(np.vdot(f, psi.amplitudes)) ** 2 for f, psi in zip(vectors, triple)) / 3.0


def _skew_generators() -> np.ndarray:
    """Basis E_0..E_5 of the zero-diagonal skew-Hermitian 3x3 matrices.

    X = sum_a p_a E_a has X_01 = p0 + i p1, X_02 = p2 + i p3, X_12 = p4 + i p5.
    """
    gens = np.zeros((6, 3, 3), dtype=complex)
    for col, (i, j) in zip((0, 2, 4), ((0, 1), (0, 2), (1, 2))):
        gens[col, i, j], gens[col, j, i] = 1.0, -1.0
        gens[col + 1, i, j] = gens[col + 1, j, i] = 1j
    return gens


_GENERATORS = _skew_generators()
# E_a E_b + E_b E_a: the second derivative of exp(-X) at X = 0 is half of it
_ANTICOMMUTATORS = (np.einsum("aij,bjk->abik", _GENERATORS, _GENERATORS)
                    + np.einsum("bij,ajk->abik", _GENERATORS, _GENERATORS))


def _misfire_overlaps(frames: np.ndarray, coords: np.ndarray):
    """M = U^H G for a stack of frames, and its squared diagonal norm 3 eps."""
    m = frames.conj().transpose(0, 2, 1) @ coords
    return m, np.sum(np.abs(np.diagonal(m, axis1=1, axis2=2)) ** 2, axis=1)


def _residual_jacobian(m: np.ndarray) -> np.ndarray:
    """Real 6x6 Jacobian of the residuals (Re s, Im s) under U -> U exp(X).

    With s_k = M_kk and M -> exp(-X) M, to first order ds_k = -(X M)_kk.
    """
    jac = -np.einsum("akj,njk->nka", _GENERATORS, m)
    return np.concatenate([jac.real, jac.imag], axis=1)


def _residual_curvature(m: np.ndarray) -> np.ndarray:
    """Second-order part of the Hessian of |s|^2 / 2: Re sum_k conj(s_k) d2 s_k.

    From exp(-X) = I - X + X^2 / 2 + ..., d2 s_k / dp_a dp_b is half the
    kk entry of (E_a E_b + E_b E_a) M. Gauss-Newton drops this term; it
    is what curves the landscape at a minimum with non-zero misfire.
    """
    s = np.diagonal(m, axis1=1, axis2=2)
    return 0.5 * np.einsum("abkj,njk,nk->nab", _ANTICOMMUTATORS, m, s.conj()).real


def _skew_exp(step: np.ndarray) -> np.ndarray:
    """exp(X) for X = sum_a step_a E_a, one 6-vector per row."""
    x = np.einsum("na,aij->nij", step, _GENERATORS)
    vals, vecs = np.linalg.eigh(1j * x)  # exp(X) = exp(-i (iX))
    return (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def _minimize_misfire(coords: np.ndarray, frames: np.ndarray):
    """Levenberg-Marquardt on U(3) for every frame of a (n, 3, 3) stack.

    coords holds each row's triple in span coordinates, as a (n, 3, 3)
    stack, or one (3, 3) matrix shared by every row.

    Each step solves (H + damping I) p = -g for the gradient g of
    |s|^2 / 2 and moves U -> U exp(X(p)). H is the Gauss-Newton matrix
    J^T J, plus the residual curvature on rows whose last accepted step
    cut the cost by less than 1 / LM_SLOW_RATIO, when the sum is positive
    definite: Gauss-Newton alone crawls into a minimum with non-zero
    misfire, where J^T J is nearly singular. A row's damping shrinks on an
    accepted step and grows on a rejected one. Rows never interact, so a
    row's trajectory does not depend on the stack it rides in.

    Returns the final frames, misfire averages and objective evaluations
    per row; a row that hit the iteration cap made LM_MAX_ITERATIONS + 1.
    """
    n = frames.shape[0]
    coords = np.broadcast_to(coords, frames.shape)
    frames = frames.copy()
    m, cost = _misfire_overlaps(frames, coords)
    damping = np.full(n, LM_DAMPING_START)
    evaluations = np.ones(n, dtype=int)
    slow = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for _ in range(LM_MAX_ITERATIONS):
        mi = m[active]
        jac = _residual_jacobian(mi)
        diag = np.diagonal(mi, axis1=1, axis2=2)
        grad = np.einsum("kij,ki->kj", jac, np.concatenate([diag.real, diag.imag], axis=1))
        hessian = jac.transpose(0, 2, 1) @ jac
        if slow[active].any():
            newton = hessian + _residual_curvature(mi)
            use = slow[active] & (np.linalg.eigvalsh(newton)[:, 0] > 0)
            hessian = np.where(use[:, None, None], newton, hessian)
        step = -np.linalg.solve(hessian + damping[active, None, None] * np.eye(6),
                                grad[..., None])[..., 0]
        done = ((np.max(np.abs(grad), axis=1) < LM_GRADIENT_TOL)
                | (np.max(np.abs(step), axis=1) < LM_STEP_TOL))
        active, step = active[~done], step[~done]
        if active.size == 0:
            break
        trial = frames[active] @ _skew_exp(step)
        trial_m, trial_cost = _misfire_overlaps(trial, coords[active])
        evaluations[active] += 1
        better = trial_cost < cost[active]
        won = active[better]
        slow[won] = trial_cost[better] > LM_SLOW_RATIO * cost[won]
        frames[won], m[won], cost[won] = trial[better], trial_m[better], trial_cost[better]
        damping[active] = np.where(better, damping[active] / LM_DAMPING_FACTOR,
                                   damping[active] * LM_DAMPING_FACTOR)
    return frames, cost / 3.0, evaluations


def _dual_gaps(coords: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """The dual gap 3 delta of each frame of a (n, 3, 3) stack, with one eigh
    over the (n, 3, 3, 3) stack of g_j g_j^H / 3 - Y."""
    s = np.diagonal(_misfire_overlaps(frames, coords)[0], axis1=1, axis2=2)
    y = (frames * s[:, None, :]) @ coords.conj().transpose(0, 2, 1)
    y = (y + y.conj().transpose(0, 2, 1)) / 6.0  # herm(U diag(s) G^H) / 3
    slack = np.einsum("nij,nkj->njik", coords, coords.conj()) / 3.0 - y[:, None]
    return 3.0 * np.maximum(0.0, -np.linalg.eigh(slack)[0][:, :, 0].min(axis=1))


def _haar_starts(seed_key: tuple, restarts: range) -> np.ndarray:
    """Starting frames, one Haar draw from the stream (*seed_key, r) per restart."""
    return np.stack([haar_unitary(3, np.random.default_rng(
        np.random.SeedSequence((*seed_key, r)))) for r in restarts])


def find_conjugate_basis(a: PureState, b: PureState, c: PureState,
                         restarts: int = 32, seed=0) -> ConjugateBasisResult:
    """Minimize the misfire average over orthonormal bases of span{a, b, c}.

    Multi-start local search, restart r from a Haar-random frame drawn from
    the stream (seed, r); restarts is a cap. This is the one-triple case of
    the stacked search of _conjugate_bases: the first restart whose dual gap
    closes, or the lowest misfire with converged False if none does.
    """
    seed_key = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return _conjugate_bases([(a, b, c)], restarts, [seed_key]).row(0)


def cross_basis_census(bases, c: PureState, restarts: int, seed) -> Census:
    """The conjugate-basis search of every cross-basis triple (e^alpha_i, e^beta_j, c).

    Rows run over basis pairs alpha < beta in order, then over i and j, all
    1-based, keyed (alpha, i, beta, j). Row t draws its restart streams from
    the key (seed, t), so it equals find_conjugate_basis(e^alpha_i,
    e^beta_j, c, restarts, seed=(seed, t)) bit for bit.
    """
    census = [((alpha, i, beta, j), a, b)
              for alpha, beta in combinations(range(1, len(bases) + 1), 2)
              for i, a in enumerate(bases[alpha - 1].vectors, start=1)
              for j, b in enumerate(bases[beta - 1].vectors, start=1)]
    return _conjugate_bases([(a, b, c) for _, a, b in census], restarts,
                            [(seed, t) for t in range(len(census))],
                            [key for key, _, _ in census])


def _conjugate_bases(triples, restarts: int, seed_keys, keys=None) -> Census:
    """The misfire-minimizing basis of each triple, all triples in one stack.

    Triple t draws restart r from the stream (*seed_keys[t], r). Restart 0
    of every triple runs as one stack; restarts 1..restarts-1 of every
    triple whose restart 0 left its dual gap above DUAL_GAP_TOL run as a
    second one, split between whole triples into stacks of at most
    MAX_STACK_ROWS rows when it would be larger. Each row keeps the first
    restart whose gap closes, as a loop stopping there would, or else the
    first lowest value; kernel rows never interact, so it is the row a lone
    search gives, bit for bit. Rows are labelled by keys, or else seed_keys.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    members, spans = _span_bases(triples)
    coords = spans.conj().transpose(0, 2, 1) @ members
    frames, values, evaluations, gaps = _certified(coords, np.concatenate(
        [_haar_starts(key, range(1)) for key in seed_keys]))
    used = np.where(gaps <= DUAL_GAP_TOL, 1, restarts)
    later = range(1, restarts)
    open_rows = np.flatnonzero(gaps > DUAL_GAP_TOL) if later else []
    group = max(1, MAX_STACK_ROWS // max(1, len(later)))
    for g in range(0, len(open_rows), group):
        rows = open_rows[g:g + group]
        rest = _certified(
            np.repeat(coords[rows], len(later), axis=0),
            np.concatenate([_haar_starts(seed_keys[t], later) for t in rows]))
        # (rows, restarts) tables of the kernel's output, restart 0 in column 0
        table_frames, table_values, table_evaluations, table_gaps = (
            np.concatenate([first[rows, None], part.reshape(len(rows), -1, *part.shape[1:])], 1)
            for first, part in zip((frames, values, evaluations, gaps), rest))
        closed = table_gaps <= DUAL_GAP_TOL
        stopped = closed.any(axis=1)
        best = np.where(stopped, np.argmax(closed, axis=1), np.argmin(table_values, axis=1))
        used[rows] = np.where(stopped, best + 1, restarts)
        pick = np.arange(len(rows))
        frames[rows], values[rows], gaps[rows] = (
            table_frames[pick, best], table_values[pick, best], table_gaps[pick, best])
        evaluations[rows] = np.cumsum(table_evaluations, axis=1)[pick, used[rows] - 1]

    # columns f1, f2, f3 in the ambient dimension, checked as one stack
    matrices = spans @ frames
    check_orthonormal(matrices)
    leading = matrices.transpose(0, 2, 1).copy()  # f1, f2, f3 as rows
    epsilon = np.array([_misfire_average(f, t) for f, t in zip(leading, triples)])
    off = np.flatnonzero(np.abs(epsilon - values) > 1e-9)
    if off.size:
        raise AssertionError(f"returned basis realizes {epsilon[off[0]]!r}, "
                             f"optimizer reported {values[off[0]]!r}")
    arrays = (matrices, epsilon, gaps, gaps <= DUAL_GAP_TOL, used, evaluations)
    for array in arrays:
        array.setflags(write=False)
    return Census(tuple(keys or seed_keys), *arrays)


def _certified(coords: np.ndarray, frames: np.ndarray):
    """The kernel's output for a stack, and the dual gap of each final frame."""
    final, values, evaluations = _minimize_misfire(coords, frames)
    return final, values, evaluations, _dual_gaps(coords, final)


def _complete_bases(columns: np.ndarray) -> np.ndarray:
    """Extend each (d, k) matrix of orthonormal columns in a stack to a unitary."""
    _, dim, k = columns.shape
    if k == dim:
        return columns
    proj = np.eye(dim, dtype=complex) - columns @ columns.conj().transpose(0, 2, 1)
    _, _, vh = np.linalg.svd(proj)
    full = np.concatenate([columns, vh.conj().transpose(0, 2, 1)[:, :, : dim - k]], axis=2)
    # re-orthonormalize to scrub accumulated error
    q, r = np.linalg.qr(full)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def triple_measurements(columns: np.ndarray) -> list:
    """The measurement on each (d, 3) matrix f1, f2, f3 of a census stack:
    its columns completed to a basis, MAX_STACK_ROWS at a time, and checked
    as an OrthonormalBasis; rank-1 outcomes f1, f2, f3, and f4 projecting
    onto the orthocomplement of the span, omitted at d = 3."""
    dim = columns.shape[1]
    n = min(dim, 4)
    labels, ranks = ("f1", "f2", "f3", "f4")[:n], (1, 1, 1, dim - 3)[:n]
    return [Measurement(OrthonormalBasis(m), labels, ranks)
            for start in range(0, len(columns), MAX_STACK_ROWS)
            for m in _complete_bases(columns[start:start + MAX_STACK_ROWS])]


def full_measurement(a: PureState, b: PureState, c: PureState,
                     conjugate: ConjugateBasisResult) -> Measurement:
    """The four-outcome measurement built on a conjugate basis of (a, b, c):
    the one-triple case of triple_measurements."""
    if not (a.dim == b.dim == c.dim):
        raise DimensionMismatchError("triple members have mixed dimensions")
    if a.dim < 3:
        raise ValueError("full_measurement needs ambient dimension >= 3")
    return triple_measurements(conjugate.matrix[None])[0]
