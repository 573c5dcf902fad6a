"""Discrete six-parameter invariant second-order Sobolev metric.

The metric on vertex fields ``h, k`` over a mesh ``q`` is the weighted sum

    a0 * sum_i <h_i, k_i> vol_i
  + a1 * sum_f tr(g^-1 dg(h) g^-1 dg(k)) area_f
  + b1 * sum_f tr(g^-1 dg(h)) tr(g^-1 dg(k)) area_f
  + c1 * sum_f <dn(h), dn(k)> area_f
  + d1 * sum_f tr(g^-1 xi(h) g^-1 xi(k)^T) area_f
  + a2 * sum_i <(L h)_i, (L k)_i> vol_i

with ``dg(h) = dq^T dh + dh^T dq`` the metric-tensor variation, ``dn(h)`` the
normal variation, ``xi(h) = dq^T dh - dh^T dq`` and ``L`` the cotangent
Laplacian.  The four first-order terms penalize shearing, stretching, bending
and in-plane rotation respectively.

:func:`_geometry` gathers the per-mesh quantities the metric reads, and
:func:`_union_geometry` those of a disjoint union of meshes on one face
array, which the latent and mesh path energies evaluate in one call.

:func:`h2_inner` evaluates the polarized analytic form; :func:`path_energy`
checks a mesh path and returns the discrete geodesic energy of
:func:`_diff.path_energy_with_grads`, where all foot-point quantities (areas,
inverse metric tensors, Laplacian weights) are taken at the left endpoint
``q`` of each step.  A step's energy is the analytic form
at ``u = r - q`` with ``du^T du`` added to the symmetric part of ``dg``, so
that it becomes the finite difference ``dr^T dr - dq^T dq``; only the normal
term is a finite difference of its own, between unit normals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .mesh import (
    DegenerateFaceError,
    FaceFrames,
    MeshError,
    TriangleMesh,
    _check_field,
    _union_laplacian,
    cross,
    face_frames,
    vertex_volumes,
)

#: faces whose metric tensor has a larger condition number are rejected
COND_LIMIT = 1e12


@dataclass(frozen=True)
class MetricCoefficients:
    """Nonnegative weights ``(a0, a1, b1, c1, d1, a2)`` of the metric terms."""

    a0: float
    a1: float
    b1: float
    c1: float
    d1: float
    a2: float

    def __post_init__(self):
        if any(c < 0 for c in self.as_array()):
            raise ValueError(f"metric coefficients must be nonnegative: {self}")

    def as_array(self):
        return np.array([self.a0, self.a1, self.b1, self.c1, self.d1, self.a2])

    @property
    def is_nondegenerate(self):
        """True if the induced geodesic distance is provably a true distance.

        Requires ``a0 > 0`` together with either all four first-order weights
        positive or ``a2 > 0``.
        """
        first_order = self.a1 > 0 and self.b1 > 0 and self.c1 > 0 and self.d1 > 0
        return self.a0 > 0 and (first_order or self.a2 > 0)

    @classmethod
    def bodies(cls):
        """Default weights for whole-body surfaces (near-isometric motion)."""
        return cls(1.0, 1000.0, 100.0, 1.0, 1.0, 1.0)

    @classmethod
    def faces(cls):
        """Default weights for face surfaces (normal-consistent expression)."""
        return cls(1.0, 10.0, 10.0, 10.0, 1.0, 1.0)


@dataclass(frozen=True)
class MetricTerms:
    """Analytic first/second-order variations of a mesh along a vertex field.

    Attributes
    ----------
    dg : ndarray, (M, 2, 2)
        Variation of the metric tensor, ``dq^T dh + dh^T dq``.
    dn : ndarray, (M, 3)
        Variation of the unit normal.
    dh : ndarray, (M, 3, 2)
        Per-face differential of the field.
    lap : ndarray, (N, 3)
        Image of the field under the cotangent Laplacian.
    """

    dg: np.ndarray
    dn: np.ndarray
    dh: np.ndarray
    lap: np.ndarray


@dataclass(frozen=True)
class _MeshGeometry:
    """Cached per-mesh quantities shared by metric evaluations."""

    mesh: TriangleMesh
    frames: object
    ginv: np.ndarray
    vol: np.ndarray
    lap: object  # sparse cotangent Laplacian


def _inverse_2x2(g):
    """Closed-form inverses of symmetric positive definite 2x2 blocks.

    Raises ``DegenerateFaceError`` when a block's condition number exceeds
    ``COND_LIMIT``.
    """
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    half_tr = 0.5 * (g[:, 0, 0] + g[:, 1, 1])
    root = np.sqrt(np.maximum(half_tr**2 - det, 0.0))
    lo = half_tr - root
    hi = half_tr + root
    bad = (det <= 0.0) | (lo * COND_LIMIT <= hi)
    if bad.any():
        raise DegenerateFaceError(
            "ill-conditioned metric tensor", int(np.flatnonzero(bad)[0])
        )
    inv = np.empty_like(g)
    inv[:, 0, 0] = g[:, 1, 1] / det
    inv[:, 1, 1] = g[:, 0, 0] / det
    inv[:, 0, 1] = -g[:, 0, 1] / det
    inv[:, 1, 0] = -g[:, 1, 0] / det
    return inv


def _geometry(mesh, copies=1):
    """The metric's quantities on ``mesh``, a union of ``copies`` copies of one template."""
    frames = face_frames(mesh)
    return _MeshGeometry(
        mesh=mesh,
        frames=frames,
        ginv=_inverse_2x2(frames.g),
        vol=vertex_volumes(mesh, areas=frames.area),
        lap=_union_laplacian(mesh, frames, copies),
    )


def _name_knot(exc, n_faces, first_knot=0):
    """``exc`` raised on a union of template copies, naming its copy as a knot.

    Copy ``k`` of a union holds faces ``[k M, (k + 1) M)``; it is knot
    ``first_knot + k``, and the error keeps the template face index.  Every
    degenerate-face check (:func:`mesh.face_frames`, :func:`_inverse_2x2`)
    gives the face index.
    """
    knot, face = divmod(exc.face_index, n_faces)
    return DegenerateFaceError(f"{exc.reason} at knot {first_knot + knot}", face)


def _union_geometry(knots, faces, first_knot=0):
    """Geometry of the disjoint union of the meshes ``knots`` on one face array.

    ``knots`` is a ``(K, N, 3)`` stack of vertex arrays on the template
    ``faces``.  Copy ``k`` holds vertices ``[k N, (k + 1) N)`` and faces
    ``[k M, (k + 1) M)``; every per-face and per-vertex quantity is that of
    its own copy, and the cotangent Laplacian is block diagonal.  The
    template's indices are valid, so only the vertices are checked: a
    non-finite one raises ``MeshError``, and a zero-area or ill-conditioned
    face ``DegenerateFaceError`` with its template face index, naming the
    knot (``first_knot + k``).
    """
    K, N = knots.shape[:2]
    if not np.all(np.isfinite(knots)):
        raise MeshError("non-finite vertex coordinates")
    union_faces = (faces + N * np.arange(K)[:, None, None]).reshape(-1, 3)
    try:
        return _geometry(TriangleMesh(knots.reshape(-1, 3), union_faces, validate=False), K)
    except DegenerateFaceError as exc:
        raise _name_knot(exc, len(faces), first_knot) from exc


def _union_tail(geom, n_copies, start):
    """The geometry of copies ``[start, n_copies)`` of a :func:`_union_geometry`."""
    mesh = geom.mesh
    n0 = start * (mesh.n_vertices // n_copies)
    m0 = start * (mesh.n_faces // n_copies)
    fr = geom.frames
    return _MeshGeometry(
        mesh=TriangleMesh(mesh.vertices[n0:], mesh.faces[m0:] - n0, validate=False),
        frames=FaceFrames(**{f.name: getattr(fr, f.name)[m0:] for f in fields(FaceFrames)}),
        ginv=geom.ginv[m0:],
        vol=geom.vol[n0:],
        lap=geom.lap[n0:, n0:],
    )


def _field_differential(faces, h):
    """Per-face 3x2 differential ``[h1 - h0, h2 - h0]`` of ``(..., N, 3)`` fields."""
    h0 = h[..., faces[:, 0], :]
    out = np.empty(h0.shape + (2,))
    np.subtract(h[..., faces[:, 1], :], h0, out=out[..., 0])
    np.subtract(h[..., faces[:, 2], :], h0, out=out[..., 1])
    return out


def _normal_variation(frames, dh):
    """Analytic variation of the unit normal along fields with differentials ``dh``.

    The tangential part of the variation ``w = dh_1 x e2 + e1 x dh_2`` of
    the edge cross product ``e1 x e2``, over ``|e1 x e2|``.  It serves
    :func:`metric_terms`, the tests' reference for the normal term;
    :mod:`_diff` reads the same term through the normal components of ``dh``.
    """
    e1 = frames.dq[:, :, 0]
    e2 = frames.dq[:, :, 1]
    w = cross(dh[:, :, 0], e2) + cross(e1, dh[:, :, 1])
    n = frames.n
    return (w - n * np.einsum("ij,ij->i", n, w)[:, None]) / (2.0 * frames.area)[:, None]


def metric_terms(mesh, h, geometry=None):
    """Analytic directional derivatives of the mesh geometry along ``h``."""
    h = _check_field(mesh, h)
    geom = geometry if geometry is not None else _geometry(mesh)
    dh = _field_differential(mesh.faces, h)
    dg = np.einsum("mia,mib->mab", geom.frames.dq, dh)
    dg = dg + dg.transpose(0, 2, 1)
    dn = _normal_variation(geom.frames, dh)
    return MetricTerms(dg=dg, dn=dn, dh=dh, lap=geom.lap @ h)


def h2_inner_terms(mesh, h, k, geometry=None):
    """The six unweighted metric terms as an array ``[T0, ..., T5]``.

    ``h2_inner`` equals the dot product of this vector with the coefficient
    vector; exposing the raw terms supports per-term validation and the exact
    per-coefficient linearity of the metric.
    """
    geom = geometry if geometry is not None else _geometry(mesh)
    th = metric_terms(mesh, h, geometry=geom)
    tk = th if k is h else metric_terms(mesh, k, geometry=geom)
    return _terms_from_variations(geom, _check_field(mesh, h), _check_field(mesh, k), th, tk)


def _terms_from_variations(geom, h, k, th, tk):
    area = geom.frames.area
    vol = geom.vol
    ginv = geom.ginv
    dq = geom.frames.dq

    t0 = float(np.einsum("ij,ij,i->", h, k, vol))
    gh = np.einsum("mab,mbc->mac", ginv, th.dg)
    gk = np.einsum("mab,mbc->mac", ginv, tk.dg)
    t1 = float(np.einsum("mab,mba,m->", gh, gk, area))
    t2 = float(np.einsum("maa,mbb,m->", gh, gk, area))
    t3 = float(np.einsum("mi,mi,m->", th.dn, tk.dn, area))
    xi_h = np.einsum("mia,mib->mab", dq, th.dh)
    xi_h = xi_h - xi_h.transpose(0, 2, 1)
    xi_k = np.einsum("mia,mib->mab", dq, tk.dh)
    xi_k = xi_k - xi_k.transpose(0, 2, 1)
    # tr(ginv xi_h ginv xi_k^T)
    t4 = float(np.einsum("mab,mbc,mcd,mad,m->", ginv, xi_h, ginv, xi_k, area))
    t5 = float(np.einsum("ij,ij,i->", th.lap, tk.lap, vol))
    return np.array([t0, t1, t2, t3, t4, t5])


def h2_inner(mesh, h, k, coefficients, geometry=None):
    """Polarized metric inner product of two vertex fields at a mesh.

    Emits a warning (not an error) when the coefficient vector fails the
    non-degeneracy condition, since the bilinear form itself is still well
    defined.
    """
    if not coefficients.is_nondegenerate:
        warnings.warn(
            "metric coefficients do not satisfy the non-degeneracy condition",
            stacklevel=2,
        )
    terms = h2_inner_terms(mesh, h, k, geometry=geometry)
    return float(coefficients.as_array() @ terms)


def path_energy(meshes, coefficients):
    """Discrete geodesic energy of a mesh path with shared topology.

    ``E = T * sum_t G_{q_t}(q_{t+1} - q_t)`` where the metric-tensor and
    normal variations are finite differences between consecutive meshes and
    all weights are evaluated at the left endpoint (forward convention).
    The value is that of :func:`_diff.path_energy_with_grads`, which sums
    the steps in passes over disjoint unions of consecutive left knots; it
    matches a step-by-step sum to rounding (the tests pin 1e-14 relative).
    """
    meshes = list(meshes)
    if len(meshes) < 2:
        raise ValueError("a path needs at least two meshes")
    first = meshes[0]
    for m in meshes[1:]:
        if not first.same_topology(m):
            raise MeshError("path meshes must share topology")
    from ._diff import path_energy_with_grads

    return path_energy_with_grads([m.vertices for m in meshes], first.faces, coefficients)[0]
