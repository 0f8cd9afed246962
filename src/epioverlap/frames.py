"""Sphere-frame geometry for the qubit model of ontomodel.

The helpers here place a frame: its polar axis and in-plane axes from the
Bloch axes involved (on 3-tuples of Python floats), and its azimuthal panel
edges (_breakpoints), which every frame of ontomodel uses. The rest stacks
frames for the sphere model's overlap check, which ``ontomodel.overlap_gaps``
hands here a chunk of pairs at a time. Each pair needs three frames: two
Born gates (a state's Bloch axis with the axes of the pair's discriminating
measurement) and the overlap (both states' axes). The axes of each are
coplanar, so each frame is one ring of nodes on its equator, ontomodel's
equatorial rule, and ``overlap_check`` builds and integrates all of a
chunk's frames at once:

* the discriminating bases in closed form, as the eigenvectors of the
  traceless 2 x 2 matrix |psi><psi| - |phi><phi|, with one Gram check over
  the stack;
* each frame's panel edges from _breakpoints, sorted in Python;
* nodes as in-plane coordinates (cos phi, sin phi) and each axis as its
  coordinates (a . e1, a . e2), so the model's own density and response
  rules, written for ``pts @ a``, take ``nodes @ coords`` unchanged;
* one weighted sum per frame and integral, row by row, so a pair's result
  does not depend on the chunk around it.

Neither numpy's eigh nor its sorts run here: each maps code pages that
nothing else in ``model verify --model ks2`` touches, and they count in the
process's peak RSS. The code is apart from ontomodel for a like reason:
without cached bytecode, compiling a module holds its whole token list and
syntax tree, so the largest module sets the memory the import peaks at.
CPython 3.11's parser doubles its token array at 4,096 tokens (~0.23 MB
more memory), and ontomodel would pass that with this code in it.
"""

from __future__ import annotations

import math

import numpy as np

from .qstate import check_orthonormal


def _breakpoints(phis) -> list:
    """A frame's panel edges over one turn, in order and with repeats: the
    meridians at +-pi/2 from each in-plane axis at azimuth phi and the
    bisectors of each pair of axes, mod 2*pi, closed by the first edge plus
    2*pi. A panel narrower than 1e-12, such as one between repeats, is
    dropped by the caller."""
    angles = []
    for p in phis:
        angles.extend((p + np.pi / 2, p - np.pi / 2))
    for i in range(len(phis)):
        for j in range(i + 1, len(phis)):
            mid = 0.5 * (phis[i] + phis[j])
            angles.extend((mid, mid + np.pi))
    brk = sorted(x % (2 * np.pi) for x in angles) or [0.0]
    brk.append(brk[0] + 2 * np.pi)
    return brk


# Frame geometry runs on 3-tuples of Python floats. Cross products, scaling
# and differences give numpy's bits; dot products and norms stay on np.dot
# (OpenBLAS ddot fuses multiply-adds, a Python sum does not) and angles on
# np.arctan2 (math.atan2 rounds differently).

def _axis(a) -> tuple:
    v = np.asarray(a, dtype=float)
    xyz = tuple(v.tolist()) if v.shape == (3,) else ()
    if not xyz or not abs(math.hypot(*xyz) - 1.0) <= 1e-9:  # NaN and inf fail too
        raise ValueError(f"a Bloch axis needs 3 finite coordinates of unit length: {a!r}")
    return xyz


def _cross(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(v) -> float:
    return math.sqrt(np.dot(v, v))


def _orthogonal_frame(axes):
    """A unit vector u orthogonal to the first two independent axes, the
    axes that have a component in its orthogonal plane (normalized
    projections), and the largest |a . u| over the axes (0.0 with none)."""
    u = None
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            c = _cross(axes[i], axes[j])
            n = _norm(c)
            if n > 1e-9:
                u = tuple(x / n for x in c)
                break
        if u is not None:
            break
    if u is None:
        u = _any_orthogonal(axes[0]) if axes else (0.0, 0.0, 1.0)
    in_plane, tilt = [], 0.0
    for a in axes:
        d = float(np.dot(a, u))
        tilt = max(tilt, abs(d))
        proj = tuple(x - d * y for x, y in zip(a, u))
        n = _norm(proj)
        if n > 1e-9:
            in_plane.append(tuple(x / n for x in proj))
    return u, in_plane, tilt


def _any_orthogonal(v) -> tuple:
    t = (1.0, 0.0, 0.0) if abs(v[0]) < 0.9 else (0.0, 1.0, 0.0)
    c = _cross(v, t)
    n = _norm(c)
    return tuple(x / n for x in c)


def _rings(axes, xp, wp):
    """Equatorial frames for a (F, A, 3) stack of Bloch axes, A >= 2, each
    laid out as ontomodel lays out one: the polar axis u along the first two
    axes' cross product, e1 the first axis's projection, e2 = u x e1, and
    the panels of _breakpoints, with the azimuthal Gauss-Legendre nodes xp
    and weights wp on [-1, 1] in each, on the ring theta = pi/2 of weight
    pi/2.

    Returns (nodes, wts, coords, tilt). nodes (F, N, 2) are the in-plane
    coordinates (cos phi, sin phi) and wts (F, N) their weights, N = (2A +
    A(A - 1)) * len(xp); a panel narrower than 1e-12 keeps its nodes at
    weight zero. coords (F, A, 2, 1) are the axes' (a . e1, a . e2). tilt
    (F,) is the largest |a . u|, inf where the first two axes are parallel
    to within 1e-9; a frame whose tilt is too large for the ring holds
    finite values that mean nothing.
    """
    a0 = axes[:, 0]
    c = np.cross(a0, axes[:, 1])
    n = np.sqrt(np.sum(c * c, axis=-1))
    u = c / np.where(n > 1e-9, n, 1.0)[:, None]
    d = np.sum(axes * u[:, None], axis=-1)
    e1 = a0 - d[:, :1] * u
    e1 /= np.sqrt(np.sum(e1 * e1, axis=-1))[:, None]
    e2 = np.cross(u, e1)
    x, y = np.sum(axes * e1[:, None], axis=-1), np.sum(axes * e2[:, None], axis=-1)

    brk = np.array([_breakpoints(row) for row in np.arctan2(y, x).tolist()])
    lo, hi = brk[:, :-1, None], brk[:, 1:, None]
    half = np.where(hi - lo < 1e-12, 0.0, 0.5 * (hi - lo))
    phi = (half * xp + 0.5 * (lo + hi)).reshape(len(axes), -1)
    wts = (np.pi / 2 * (half * wp)).reshape(len(axes), -1)
    nodes = np.empty(phi.shape + (2,))
    np.cos(phi, out=nodes[..., 0])
    np.sin(phi, out=nodes[..., 1])
    tilt = np.where(n > 1e-9, np.max(abs(d), axis=-1), np.inf)
    return nodes, wts, np.stack([x, y], axis=-1)[..., None], tilt


def _bloch_axes(amps: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (..., 2) stack of qubit amplitudes, (..., 3)."""
    a, b = amps[..., 0], amps[..., 1]
    ab = a.conj() * b
    z = a.real ** 2 + a.imag ** 2 - (b.real ** 2 + b.imag ** 2)
    return np.stack([2 * ab.real, 2 * ab.imag, z], axis=-1)


def _discriminating_bases(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Eigenbases of |psi><psi| - |phi><phi| for (n, 2) stacks of amplitudes,
    in closed form: (n, 2, 2), columns for the eigenvalues -lambda then
    +lambda, the order of eigh.

    The matrix is [[a, b], [conj(b), -a]], lambda**2 = a**2 + |b|**2. With
    c = lambda + |a| the eigenvectors are (-b, c) and (c, conj(b)) when
    a >= 0, else (-c, conj(b)) and (b, c); c never cancels. A zero matrix
    takes the swapped standard basis.
    """
    a = (psi[:, 0] * psi[:, 0].conj() - phi[:, 0] * phi[:, 0].conj()).real
    b = psi[:, 0] * psi[:, 1].conj() - phi[:, 0] * phi[:, 1].conj()
    b2 = b.real ** 2 + b.imag ** 2
    lam = np.sqrt(a * a + b2)
    c = np.where(lam > 0, lam + abs(a), 1.0)
    pos = a >= 0
    bases = np.empty((len(a), 2, 2), dtype=complex)
    bases[:, 0, 0] = np.where(pos, -b, -c)
    bases[:, 1, 0] = np.where(pos, c, b.conj())
    bases[:, 0, 1] = np.where(pos, c, b)
    bases[:, 1, 1] = np.where(pos, b.conj(), c)
    bases /= np.sqrt(c * c + b2)[:, None, None]
    return bases


def overlap_check(model, pairs, rule, tol) -> list:
    """The sphere model's overlap check on qubit pairs, on rings with the
    azimuthal Gauss-Legendre rule = (nodes, weights) on [-1, 1].

    Per pair: the discriminating basis, the two Born gates and the overlap,
    each integral one weighted sum over its frame, with the densities and
    responses of ``model._density`` and ``model._responses``. Returns, per
    pair, (overlap integral, larger Born residual of the two gates), or
    None where one of its frames leaves the ring by more than tol (see
    _rings). Nothing is raised on a residual.
    """
    if any(s.dim != 2 for pair in pairs for s in pair):
        raise ValueError("Bloch axes exist for qubits only")
    psi, phi = (np.array([s.amplitudes for s in states]) for states in zip(*pairs))
    n = len(psi)
    bases = _discriminating_bases(psi, phi)
    check_orthonormal(bases)
    p, q = _bloch_axes(psi), _bloch_axes(phi)
    m = _bloch_axes(bases.transpose(0, 2, 1))
    amps = np.sum(np.concatenate([bases, bases]).conj()
                  * np.concatenate([psi, phi])[:, :, None], axis=1)
    born = amps.real ** 2 + amps.imag ** 2

    gates = [np.concatenate([s[:, None], m], axis=1) for s in (p, q)]
    nodes, wts, coords, tilt = _rings(np.concatenate(gates), *rule)
    mu = model._density(coords[:, 0], nodes)
    residual = np.zeros(2 * n)
    for k, xi in enumerate(model._responses([coords[:, 1], coords[:, 2]], nodes)):
        pred = np.sum(wts * (xi * mu)[..., 0], axis=1)
        residual = np.maximum(residual, abs(pred - born[:, k]))
    tilts = np.maximum(tilt[:n], tilt[n:])

    nodes, wts, coords, tilt = _rings(np.stack([p, q], axis=1), *rule)
    mu_p, mu_q = (model._density(coords[:, k], nodes)[..., 0] for k in range(2))
    overlaps = np.sum(wts * np.minimum(mu_p, mu_q), axis=1)
    residuals = np.maximum(residual[:n], residual[n:])
    return [(o, r) if t <= tol else None for o, r, t in zip(
        overlaps.tolist(), residuals.tolist(), np.maximum(tilts, tilt).tolist())]
