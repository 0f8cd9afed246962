"""Mutually unbiased bases: construction, verification, prime-power
subdimension selection, and padding states into larger spaces.

Supported dimensions for construction: 2, every odd prime, and the three
composite prime powers 4, 8, 9. Two constructions cover them, both evaluated
on the multiplication and addition tables of a ring Z_m[t]/(f): for odd p,
the Wootters-Fields phases w^tr(a x^2 + b x) over GF(p^n) (Ann. Phys. 191,
363 (1989)); for p = 2, the phases i^tr((a + 2b) x) over the Teichmueller set
of the Galois ring GR(4, n) (Klappenecker and Roetteler, LNCS 2948 (2004)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qstate import OrthonormalBasis, PureState, basis_to_obj


class UnsupportedDimensionError(ValueError):
    """Requested dimension has no built-in MUB construction."""


@dataclass(frozen=True)
class MubFamily:
    """A family of pairwise mutually unbiased orthonormal bases.

    ``subspace_dim`` is the dimension in which unbiasedness holds: it equals
    ``dim`` for native families and stays at the original dimension after
    zero-padding into a larger space.
    """

    dim: int
    bases: tuple
    subspace_dim: int = 0

    def __post_init__(self):
        bases = tuple(self.bases)
        object.__setattr__(self, "bases", bases)
        if self.subspace_dim == 0:
            object.__setattr__(self, "subspace_dim", self.dim)
        if not 2 <= self.subspace_dim <= self.dim:
            raise ValueError(f"subspace_dim {self.subspace_dim} is outside [2, {self.dim}]")
        if len(bases) > self.subspace_dim + 1:
            raise ValueError("a family holds at most subspace_dim + 1 bases")
        if any(b.dim != self.dim for b in bases):
            raise ValueError("all bases must live in the family dimension")

    @property
    def count(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class MubVerification:
    """Worst-case deviations of a family from exact mutual unbiasedness."""

    max_cross_deviation: float
    worst_pair: tuple
    orthonormality_deviation: float


# ---------------------------------------------------------------------------
# Dimension classification
# ---------------------------------------------------------------------------

def prime_power_base(n: int):
    """The prime p with n = p^k, or None if n is not a prime power."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return n  # n itself is prime
        if n % p == 0:
            m = n
            while m % p == 0:
                m //= p
            return p if m == 1 else None
    return None


def is_prime_power(n: int) -> bool:
    return prime_power_base(n) is not None


def largest_prime_power_leq(d: int) -> int:
    """Largest prime power d' with 4 <= d' <= d.

    Always exceeds d/2: there is a prime strictly between floor(d/2) and d
    for every d >= 4.
    """
    if d < 4:
        raise ValueError("d must be >= 4")
    for n in range(d, 3, -1):
        if is_prime_power(n):
            return n
    raise AssertionError("unreachable: 4 is a prime power")


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _poly_mul_mod(u, v, f, m):
    """(u*v) mod f over Z_m, coefficient lists low-to-high; f monic."""
    n = len(f) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] = (prod[i + j] + ui * vj) % m
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for j in range(n + 1):
                prod[k - n + j] = (prod[k - n + j] - c * f[j]) % m
    out = list(prod[:n]) + [0] * (n - len(prod[:n]))
    return tuple(x % m for x in out)


# The ring Z_m[t]/(f) behind each dimension that is not an odd prime, f monic
# with coefficients low-to-high. m = 4 gives a Galois ring GR(4, n), whose
# monic f lifts an irreducible polynomial mod 2; m = 3 gives the field GF(9).
# An odd prime p is the field Z_p[t]/(t).
_RINGS = {2: (4, (1, 1)), 4: (4, (1, 1, 1)), 8: (4, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}

SUPPORTED_DIMENSIONS = "{" + ", ".join(map(str, _RINGS)) + "} together with every odd prime"


def _ring_tables(m: int, f) -> tuple:
    """Multiplication and addition of Z_m[t]/(f) as (m^n, m^n) index arrays.

    Element (c_0, ..., c_{n-1}) = sum c_k t^k has index sum c_k m^(n-1-k),
    so elements are numbered lexicographically, constant coefficient first.
    """
    n = len(f) - 1
    coeffs = np.array(list(product(range(m), repeat=n)))
    weights = m ** np.arange(n - 1, -1, -1)
    units = np.eye(n, dtype=int)
    structure = np.array([[_poly_mul_mod(u, v, f, m) for v in units] for u in units])
    mul = np.einsum("xi,yj,ijk->xyk", coeffs, coeffs, structure) % m @ weights
    add = (coeffs[:, None, :] + coeffs[None, :, :]) % m @ weights
    return mul, add


def _trace(add, frobenius, n: int, m: int):
    """Sum of the n Frobenius images of every element, as a base-ring value."""
    total = cur = np.arange(len(add))
    for _ in range(n - 1):
        cur = frobenius[cur]
        total = add[total, cur]
    base, rest = np.divmod(total, m ** (n - 1))
    if rest.any():
        raise AssertionError("trace left the base ring")
    return base


def _field_family(p: int, f) -> list:
    """MUBs over GF(q), p odd: basis a, column b is w^tr(a x^2 + b x) / sqrt(q)."""
    n = len(f) - 1
    q = p ** n
    mul, add = _ring_tables(p, f)
    frobenius = x = np.arange(q)
    for _ in range(p - 1):  # x -> x^p
        frobenius = mul[frobenius, x]
    # phases[a, b, x] = tr(a x^2 + b x)
    phases = _trace(add, frobenius, n, p)[add[mul[:, None, mul[x, x]], mul]]
    w = np.exp(2j * np.pi / p)
    return [np.eye(q, dtype=complex), *(w ** phases.transpose(0, 2, 1) / np.sqrt(q))]


def _galois_ring_family(f) -> list:
    """MUBs in d = 2^n over the Teichmueller set T of GR(4, n): basis a,
    column b is i^tr((a + 2b) x) / sqrt(q) for a, b, x in T."""
    n = len(f) - 1
    q = 2 ** n
    mul, add = _ring_tables(4, f)
    one = 4 ** (n - 1)  # the index of (1, 0, ..., 0)

    def order(e):
        """Smallest k >= 1 with e^k = 1, or q if there is none below q."""
        k, power = 1, e
        while power != one and k < q:
            power, k = int(mul[power, e]), k + 1
        return k

    xi = next(e for e in range(len(mul)) if order(e) == q - 1)
    teich = [0, one]
    for _ in range(q - 2):
        teich.append(int(mul[teich[-1], xi]))
    teich = np.array(teich)
    # every element is a + 2b for exactly one pair a, b in T; Frobenius
    # maps it to a^2 + 2b^2
    double = np.diagonal(add)
    e = add[teich[:, None], double[teich]]
    square = mul[teich, teich]
    frobenius = np.empty(len(mul), dtype=int)
    frobenius[e] = add[square[:, None], double[square]]
    # phases[a, b, x] = tr((a + 2b) x)
    phases = _trace(add, frobenius, n, 4)[mul[e[:, :, None], teich]]
    units = np.array([1j ** k for k in range(4)])
    return [np.eye(q, dtype=complex), *(units[phases.transpose(0, 2, 1)] * (1.0 / np.sqrt(q)))]


def generate_mub(dim: int) -> MubFamily:
    """A maximal family of dim + 1 mutually unbiased bases.

    Raises UnsupportedDimensionError outside the supported set.
    """
    if dim in _RINGS:
        m, f = _RINGS[dim]
    elif dim % 2 == 1 and prime_power_base(dim) == dim:
        m, f = dim, (0, 1)
    else:
        raise UnsupportedDimensionError(
            f"unsupported dimension {dim}: constructions exist for {SUPPORTED_DIMENSIONS}")
    mats = _galois_ring_family(f) if m == 4 else _field_family(m, f)
    bases = tuple(OrthonormalBasis(mat) for mat in mats)
    return MubFamily(dim=dim, bases=bases)


# ---------------------------------------------------------------------------
# Verification and comparison
# ---------------------------------------------------------------------------

def verify_mub(family: MubFamily) -> MubVerification:
    """Worst deviation of any cross-basis fidelity from 1/subspace_dim.

    Embedded families are checked on their first subspace_dim vectors per
    basis; padding vectors shared between bases carry no unbiasedness claim.
    """
    target = 1.0 / family.subspace_dim
    k = family.subspace_dim
    worst = 0.0
    worst_pair = ((0, 0), (0, 0))
    orth = 0.0
    for a, basis_a in enumerate(family.bases):
        g = basis_a.matrix.conj().T @ basis_a.matrix
        orth = max(orth, float(np.max(np.abs(g - np.eye(family.dim)))))
        ma = basis_a.matrix[:, :k]
        for b in range(a + 1, family.count):
            fid = np.abs(ma.conj().T @ family.bases[b].matrix[:, :k]) ** 2
            dev = np.abs(fid - target)
            i, j = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[i, j] > worst:
                worst = float(dev[i, j])
                worst_pair = ((a, int(i)), (b, int(j)))
    return MubVerification(worst, worst_pair, orth)


# ---------------------------------------------------------------------------
# Subspace embedding
# ---------------------------------------------------------------------------

def embed_state(psi: PureState, dim: int) -> PureState:
    """Zero-pad a state into a larger space; inner products are unchanged."""
    if dim < psi.dim:
        raise ValueError(f"cannot embed dimension {psi.dim} into smaller dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[: psi.dim] = psi.amplitudes
    return PureState(amps)


def embed_states(states, dim: int) -> list:
    return [embed_state(s, dim) for s in states]


def embed_family(family: MubFamily, dim: int) -> MubFamily:
    """Zero-pad every basis of a family, completing each with standard vectors.

    The returned family is unbiased only within the original subspace, which
    is what ``subspace_dim`` records.
    """
    if dim < family.dim:
        raise ValueError("target dimension is smaller than the family dimension")
    bases = []
    for basis in family.bases:
        m = np.zeros((dim, dim), dtype=complex)
        m[: family.dim, : family.dim] = basis.matrix
        for k in range(family.dim, dim):
            m[k, k] = 1.0
        bases.append(OrthonormalBasis(m))
    return MubFamily(dim=dim, bases=tuple(bases), subspace_dim=family.subspace_dim)


def family_to_obj(family: MubFamily) -> dict:
    return {
        "dim": family.dim,
        "subspace_dim": family.subspace_dim,
        "bases": [basis_to_obj(b) for b in family.bases],
    }
