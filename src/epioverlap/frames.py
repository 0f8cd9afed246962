"""Sphere quadrature frames for the qubit model of ontomodel.

A frame is a quadrature of the unit sphere whose polar axis is orthogonal
to the Bloch axes involved. Every discontinuity circle of the model's
integrands then lies on a pair of meridians, the azimuthal panels split at
those meridians (_breakpoints), and Gauss-Legendre nodes converge
spectrally despite the kinks. There are two polar rules over the same
azimuthal panels, N_PHI nodes per panel:

* the product rule, N_THETA Gauss-Legendre polar nodes, built on first use
  and shared read-only by every frame; its weights sum to 4*pi;
* the equatorial rule, one ring of nodes at theta = pi/2 with weight pi/2,
  taken when every Bloch axis lies in the frame's equatorial plane (to
  within EQUATOR_TOL). Its weights sum to pi**2, not 4*pi: it integrates
  exactly only integrands that scale as sin(theta), such as one density
  times responses, or a pointwise minimum of densities, whose polar factor
  integrates to pi/2 in closed form.

sphere_frame builds one frame as points and weights. rings builds a stack
of equatorial frames at once, each laid out as sphere_frame lays out one,
with nodes as in-plane coordinates (cos phi, sin phi) and each axis as its
coordinates (a . e1, a . e2), so rules written for ``pts @ a`` take
``nodes @ coords`` unchanged. The module also gives the Bloch vectors and
the closed-form discriminating bases of amplitude stacks. It holds
geometry only: every density, response, integral and check over these
frames is in ontomodel.

Neither numpy's eigh nor its sorts run here, and rings compares its tilts
in Python: each of those numpy routines maps code pages that nothing else
in ``model verify --model ks2`` touches, and they count in the process's
peak RSS.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .qstate import check_orthonormal

N_THETA, N_PHI = 48, 24  # polar nodes on [0, pi]; nodes per azimuthal panel

# Largest out-of-plane component |a . u| of a Bloch axis for which a frame
# takes the equatorial rule. Coplanar axes come out of the frame geometry
# below ~1e-15 (1.2e-15 at worst over 12,000 frames of `model verify --model
# ks2`). A true tilt t costs the equatorial rule ~0.21 t on the
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


def sphere_frame(axes=(), equatorial=False):
    """Quadrature points and weights aligned to the given Bloch axes.

    The polar axis is chosen orthogonal to the first two independent axes,
    so their hemisphere boundaries and the bisector circle between them
    become meridians. Returns (points, weights), points of shape (n, 3),
    both freshly allocated. The polar rule is the equatorial rule's one
    node (weight pi/2, the integral of sin(theta)**2 over [0, pi]) when
    ``equatorial`` is set and every axis lies within EQUATOR_TOL of the
    equatorial plane, else the product rule, whose weights sum to 4*pi. An
    axis that is not a finite 3-vector of unit length raises ValueError.
    """
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


def rings(axes):
    """Equatorial frames for a (F, A, 3) stack of Bloch axes, A >= 2, each
    laid out as sphere_frame lays out one: the polar axis u along the first
    two axes' cross product, e1 the first axis's projection, e2 = u x e1,
    and the panels of _breakpoints, with the product rule's N_PHI azimuthal
    nodes in each, on the ring theta = pi/2 of weight pi/2.

    Returns (nodes, wts, coords, on_ring). nodes (F, N, 2) are the in-plane
    coordinates (cos phi, sin phi) and wts (F, N) their weights, N = (2A +
    A(A - 1)) * N_PHI; a panel narrower than 1e-12 keeps its nodes at
    weight zero, so a frame's bits do not depend on the stack around it.
    coords (F, A, 2, 1) are the axes' (a . e1, a . e2). on_ring, a list
    of F bools, is False where the first two axes are parallel to within
    1e-9 or an axis leaves the ring's plane by more than EQUATOR_TOL; such a
    frame holds finite values that mean nothing.
    """
    xp, wp = _sphere_rule()[3:]
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
    on_ring = [t <= EQUATOR_TOL for t in tilt.tolist()]
    return nodes, wts, np.stack([x, y], axis=-1)[..., None], on_ring


def bloch_axes(amps: np.ndarray) -> np.ndarray:
    """Bloch vectors of a (..., 2) stack of qubit amplitudes, (..., 3)."""
    a, b = amps[..., 0], amps[..., 1]
    ab = a.conj() * b
    z = a.real ** 2 + a.imag ** 2 - (b.real ** 2 + b.imag ** 2)
    return np.stack([2 * ab.real, 2 * ab.imag, z], axis=-1)


def discriminating_bases(psi: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Eigenbases of |psi><psi| - |phi><phi| for (n, 2) stacks of amplitudes,
    in closed form: (n, 2, 2), columns for the eigenvalues -lambda then
    +lambda, the order of eigh, checked by one Gram check over the stack.

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
    check_orthonormal(bases)
    return bases
