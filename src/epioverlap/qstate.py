"""Pure states, orthonormal bases, projective measurements, and the
classical/quantum distance and overlap measures built on them.

All objects are immutable values and every operation is a pure function,
so everything here is safe for concurrent use without coordination. Objects
with array fields compare and hash by identity; compare their arrays with
np.array_equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands live in Hilbert spaces of different dimension."""


class InputError(ValueError):
    """An input document is malformed: a missing key, a wrong type, or a
    value that no state or model can carry."""


# Tolerances of the invariant checks: ORTHOGONALITY_TOL gates inner products
# that should vanish, NORMALIZATION_TOL gates norms and probability sums.
ORTHOGONALITY_TOL = 1e-10
NORMALIZATION_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector in C^dim, stored as complex double amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if amps.size < 2:
            raise ValueError(f"state dimension must be >= 2, got {amps.size}")
        check_normalized(amps[None])

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a state from finite, not all zero amplitudes, rescaling to unit norm."""
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = np.linalg.norm(amps)
        if not 0 < norm < np.inf:
            raise ValueError(f"cannot normalize a vector of norm {norm!r}")
        return cls(amps / norm)


def check_normalized(rows: np.ndarray) -> None:
    """Norm check of every row of a (n, dim) amplitude stack, the check a
    PureState makes of its one row: sum |a_i|^2 within NORMALIZATION_TOL of
    1. Raises ValueError for the first row that fails; NaN fails."""
    for norm_sq in (np.abs(rows) ** 2).sum(axis=1).tolist():
        if not abs(norm_sq - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")


def basis_state(dim: int, index: int) -> PureState:
    """The computational basis vector |index> in dimension dim."""
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """A complete orthonormal basis of C^dim: the columns of one read-only
    dim x dim matrix, validated by one Gram check."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"a basis matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise ValueError(f"basis dimension must be >= 2, got {m.shape[0]}")
        check_orthonormal(m[None])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def vectors(self) -> tuple:
        """The columns as PureStates, built on first read."""
        return tuple(PureState(v) for v in self.matrix.T)


def check_orthonormal(matrices: np.ndarray) -> None:
    """Gram check of every (d, k) matrix in a (n, d, k) stack, k <= d: its
    columns must be orthogonal within ORTHOGONALITY_TOL and of unit norm
    within NORMALIZATION_TOL. Raises ValueError otherwise; NaN fails."""
    n, _, k = matrices.shape
    off = np.abs(matrices.conj().transpose(0, 2, 1) @ matrices - np.eye(k)).reshape(n, -1)
    diag_dev = float(np.max(off[:, ::k + 1]))  # row-major: every (k + 1)-th entry
    off[:, ::k + 1] = 0.0
    cross_dev = float(np.max(off))
    if not cross_dev <= ORTHOGONALITY_TOL:
        raise ValueError(f"basis vectors not orthogonal: max |<v_i|v_j>| = {cross_dev!r}")
    if not diag_dev <= NORMALIZATION_TOL:
        raise ValueError(f"basis vectors not normalized: max ||v_i|^2 - 1| = {diag_dev!r}")


@dataclass(frozen=True)
class Measurement:
    """A complete projective measurement on one orthonormal basis: outcome k
    projects onto the next ranks[k] basis columns, so the outcomes are
    orthogonal and their projectors sum to 1 by construction."""

    basis: OrthonormalBasis
    labels: tuple
    ranks: tuple

    def __post_init__(self):
        labels, ranks = tuple(self.labels), tuple(self.ranks)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ranks", ranks)
        if len(labels) != len(ranks):
            raise ValueError(f"{len(labels)} labels for {len(ranks)} outcome ranks")
        if not all(r >= 1 for r in ranks):
            raise ValueError(f"every outcome rank must be >= 1, got {ranks}")
        if sum(ranks) != self.basis.dim:
            raise ValueError(f"outcome ranks sum to {sum(ranks)}, expected {self.basis.dim}")

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def _born(self) -> tuple:
        """The conjugate-transposed basis matrix, read-only, whose rows are
        the <v| of the basis vectors, and the first row of each outcome when
        some rank exceeds 1, else None."""
        bras = self.basis.matrix.conj().T.copy()
        bras.setflags(write=False)
        if all(rank == 1 for rank in self.ranks):
            return bras, None
        return bras, _freeze((0,) + tuple(accumulate(self.ranks))[:-1])

    def probabilities(self, psi) -> np.ndarray:
        """Outcome probabilities for a pure input state, a PureState or its
        (dim,) amplitude vector, in outcome order: one matrix-vector product
        z = <v|psi> over the basis, |z|^2 as re^2 + im^2, summed within an
        outcome. A bare vector is taken as it is, its norm unchecked."""
        amps = psi.amplitudes if isinstance(psi, PureState) else psi
        bras, starts = self._born
        if amps.shape != bras.shape[1:]:
            raise DimensionMismatchError("state and measurement dimensions differ")
        z = bras.dot(amps)  # bras @ amps bit for bit, ~0.4 us less dispatch per call
        p = z.real ** 2 + z.imag ** 2
        return p if starts is None else np.add.reduceat(p, starts)


def basis_measurement(basis: OrthonormalBasis, labels=None) -> Measurement:
    """The rank-1 projective measurement onto a basis."""
    if labels is None:
        labels = [f"out{k}" for k in range(basis.dim)]
    return Measurement(basis, tuple(labels), (1,) * basis.dim)


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """A probability mass function on a finite set of points."""

    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(np.asarray(self.weights, dtype=float).reshape(-1))
        object.__setattr__(self, "weights", w)
        if w.size < 1:
            raise ValueError("empty support")
        if np.any(w < 0):
            raise ValueError("negative probability mass")
        total = float(w.sum())
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @property
    def support_size(self) -> int:
        return self.weights.size


# ---------------------------------------------------------------------------
# Distance and overlap measures
# ---------------------------------------------------------------------------

def inner(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2. Symmetric, in [0, 1]."""
    return abs(inner(a, b)) ** 2


def born_probability(f: PureState, psi: PureState) -> float:
    """Probability of outcome f when measuring psi: |<f|psi>|^2."""
    return fidelity(f, psi)


def quantum_trace_distance(a: PureState, b: PureState) -> float:
    """sqrt(1 - |<a|b>|^2), the trace distance for pure states."""
    return float(np.sqrt(max(0.0, 1.0 - fidelity(a, b))))


def quantum_overlap(a: PureState, b: PureState) -> float:
    """1 - sqrt(1 - |<a|b>|^2): one minus the pure-state trace distance."""
    return 1.0 - quantum_trace_distance(a, b)


def helstrom_success(a: PureState, b: PureState) -> float:
    """Optimal single-shot probability of telling a from b at equal priors.

    Equals (1 + sqrt(1 - |<a|b>|^2)) / 2, i.e. 1 - quantum_overlap(a, b)/2.
    """
    return 0.5 * (1.0 + quantum_trace_distance(a, b))


def classical_trace_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Half the L1 distance between two mass functions on the same support."""
    if p.support_size != q.support_size:
        raise DimensionMismatchError(
            f"support sizes differ: {p.support_size} vs {q.support_size}")
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


def classical_overlap(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Sum of pointwise minima: 1 - classical_trace_distance(p, q)."""
    if p.support_size != q.support_size:
        raise DimensionMismatchError(
            f"support sizes differ: {p.support_size} vs {q.support_size}")
    return float(np.minimum(p.weights, q.weights).sum())


# ---------------------------------------------------------------------------
# Haar-random test inputs
# ---------------------------------------------------------------------------

def random_state(dim: int, seed) -> PureState:
    """A Haar-distributed pure state, deterministic per seed."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix: complex Ginibre + QR with phase-fixed diagonal."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed) -> OrthonormalBasis:
    """A Haar-random orthonormal basis, deterministic per seed."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    u = haar_unitary(dim, np.random.default_rng(seed))
    return OrthonormalBasis(u)


# ---------------------------------------------------------------------------
# JSON-friendly serialization
# ---------------------------------------------------------------------------

def state_to_obj(psi: PureState) -> dict:
    """{"dim": d, "amplitudes": [[re, im], ...]}"""
    return {
        "dim": psi.dim,
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def finite_vector(value, what: str) -> np.ndarray:
    """A float array read from a JSON list of finite numbers; anything else
    raises InputError naming ``what``."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise InputError(f"{what} must be a list of numbers")
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        arr = None
    if arr is None or not np.all(np.isfinite(arr)):
        raise InputError(f"{what} has a non-finite value")
    return arr


def state_from_obj(obj: dict) -> PureState:
    """Inverse of state_to_obj; a malformed document raises InputError."""
    if not isinstance(obj, dict):
        raise InputError("a state must be an object with dim and amplitudes")
    pairs = obj.get("amplitudes")
    if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InputError("amplitudes must be a list of [re, im] pairs")
    finite_vector([x for p in pairs for x in p], "amplitudes")
    if not _is_number(obj.get("dim")) or obj["dim"] != len(pairs):
        raise InputError("amplitude count does not match declared dim")
    try:
        return PureState(np.array([complex(re, im) for re, im in pairs]))
    except ValueError as exc:
        raise InputError(str(exc)) from None


def basis_to_obj(basis: OrthonormalBasis) -> dict:
    return {"dim": basis.dim, "vectors": [state_to_obj(v) for v in basis.vectors]}

