"""Mutually unbiased bases: construction, verification, prime-power
subdimension selection, and padding states into larger spaces.

Supported dimensions for construction: 2, every odd prime, and the three
composite prime powers 4, 8, 9. The odd-prime case uses quadratic phases
exp(2*pi*i*(g*k^2 + i*k)/d); d=2 uses the Pauli eigenbases; 4 and 8 use the
Teichmueller set of the Galois ring GR(4, n); 9 uses GF(9) arithmetic from
precomputed tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qstate import OrthonormalBasis, PureState, basis_to_obj


class UnsupportedDimensionError(ValueError):
    """Requested dimension has no built-in MUB construction."""


SUPPORTED_DIMENSIONS = "{2, 4, 8, 9} together with every odd prime"


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

def _odd_prime_family(p: int) -> list:
    w = np.exp(2j * np.pi / p)
    bases = [np.eye(p, dtype=complex)]
    k = np.arange(p)
    for g in range(p):
        cols = [w ** ((g * k * k + i * k) % p) / np.sqrt(p) for i in range(p)]
        bases.append(np.column_stack(cols))
    return bases


def _qubit_family() -> list:
    s = 1 / np.sqrt(2)
    z = np.eye(2, dtype=complex)
    x = np.array([[s, s], [s, -s]], dtype=complex)
    y = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
    return [z, x, y]


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


def _poly_add(u, v, m):
    return tuple((a + b) % m for a, b in zip(u, v))


def _galois_ring_family(n: int) -> list:
    """MUBs in d = 2^n from the Teichmueller set of GR(4, n), n in {2, 3}."""
    q = 2 ** n
    f = {2: (1, 1, 1), 3: (1, 1, 0, 1)}[n]  # monic lifts of irreducibles mod 2
    zero = (0,) * n
    one = (1,) + (0,) * (n - 1)

    def mul(a, b):
        return _poly_mul_mod(a, b, f, 4)

    def order(e):
        p, k = e, 1
        while p != one:
            p = mul(p, e)
            k += 1
            if k > 4 ** n:
                return 0
        return k

    xi = next(e for e in product(range(4), repeat=n) if e != zero and order(e) == q - 1)

    teich = [zero, one]
    p = one
    for _ in range(q - 2):
        p = mul(p, xi)
        teich.append(p)

    double = {t: tuple(2 * x % 4 for x in t) for t in teich}
    two_adic = {}
    for a in teich:
        for b in teich:
            two_adic.setdefault(_poly_add(a, double[b], 4), (a, b))

    def frobenius(e):
        a, b = two_adic[e]
        return _poly_add(mul(a, a), tuple(2 * x % 4 for x in mul(b, b)), 4)

    def trace(e):
        t, cur = zero, e
        for _ in range(n):
            t = _poly_add(t, cur, 4)
            cur = frobenius(cur)
        if any(t[1:]):
            raise AssertionError("Galois-ring trace left the base ring")
        return t[0]

    norm = 1.0 / np.sqrt(q)
    bases = [np.eye(q, dtype=complex)]
    for a in teich:
        cols = []
        for b in teich:
            e = _poly_add(a, double[b], 4)
            cols.append(np.array([1j ** trace(mul(e, x)) for x in teich]) * norm)
        bases.append(np.column_stack(cols))
    return bases


def _gf9_family() -> list:
    """MUBs in d=9 over GF(9) = GF(3)[t]/(t^2 + 1)."""
    els = [(c0, c1) for c0 in range(3) for c1 in range(3)]

    def mul(x, y):
        return ((x[0] * y[0] + 2 * x[1] * y[1]) % 3, (x[0] * y[1] + x[1] * y[0]) % 3)

    def add(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3)

    def trace(x):
        s = add(x, mul(mul(x, x), x))  # x + x^3
        if s[1]:
            raise AssertionError("GF(9) trace left the prime field")
        return s[0]

    w = np.exp(2j * np.pi / 3)
    bases = [np.eye(9, dtype=complex)]
    for a in els:
        cols = []
        for b in els:
            phases = [trace(add(mul(a, mul(x, x)), mul(b, x))) for x in els]
            cols.append(np.array([w ** t for t in phases]) / 3.0)
        bases.append(np.column_stack(cols))
    return bases


def generate_mub(dim: int) -> MubFamily:
    """A maximal family of dim + 1 mutually unbiased bases.

    Raises UnsupportedDimensionError outside the supported set.
    """
    if dim == 2:
        mats = _qubit_family()
    elif dim in (4, 8):
        mats = _galois_ring_family({4: 2, 8: 3}[dim])
    elif dim == 9:
        mats = _gf9_family()
    elif dim % 2 == 1 and prime_power_base(dim) == dim:
        mats = _odd_prime_family(dim)
    else:
        raise UnsupportedDimensionError(
            f"unsupported dimension {dim}: constructions exist for {SUPPORTED_DIMENSIONS}")
    bases = tuple(OrthonormalBasis.from_matrix(m) for m in mats)
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
        bases.append(OrthonormalBasis.from_matrix(m))
    return MubFamily(dim=dim, bases=tuple(bases), subspace_dim=family.subspace_dim)


def family_to_obj(family: MubFamily) -> dict:
    return {
        "dim": family.dim,
        "subspace_dim": family.subspace_dim,
        "bases": [basis_to_obj(b) for b in family.bases],
    }
