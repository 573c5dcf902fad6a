"""Finite-dimensional latent deformation space with pullback metric.

A :class:`LatentBasis` is a template mesh together with ``P`` linearly
independent deformation fields, split into a shape block (first ``n_shape``
fields) and a pose block (remaining ``n_pose``).  A latent code is a plain
``(P,)`` float vector; :func:`decode` maps it affinely to a mesh by adding
the weighted fields to the template.  Latent paths are ``(T+1, P)`` arrays
with implicit uniform time step ``1/T``.

The Euclidean structure of the code space is irrelevant; distances come from
pulling the mesh metric back through the decoder.  The path energy
``T sum_t d_t^T G(alpha_t) d_t`` contracts each code increment against the
metric at its left knot (forward convention, matching the discrete mesh path
energy).  It never forms the ``P x P`` Gram matrix: all left knots are
decoded at once into one disjoint union of template copies, and the metric
is applied to each increment's field ``u = d . fields`` on that union mesh,
in one pass for every knot (:func:`latent_path_energy` and
:func:`latent_path_energy_with_grad`, which adds the foot-point term from one
:func:`_diff.h2_vertex_gradient` call on the union).  :func:`gram` assembles
the matrix of pairwise metric products of the basis fields at one code; it
serves geodesic shooting (:func:`solvers.geodesic_ivp`) and the tests.

The fields' per-face differentials do not depend on the foot point, so the
basis caches them once (:attr:`LatentBasis.differentials`).  The Gram pairs
them with one 6x6 metric block per face (:func:`_diff.face_blocks`), and
the shooting Jacobian pairs them with the 6x6 blocks of the metric's
foot-point derivative (:func:`_diff.h2_gradient_pairing`), both through
:func:`_diff.pair_blocks`; the path energy applies the same blocks to the
increments' differentials.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (
    MeshError,
    TriangleMesh,
    mesh_from_ply_bytes,
    ply_bytes,
    read_exact,
)
from .metric import _field_differential, _geometry, _union_geometry, _union_tail
from ._diff import face_blocks, h2_vertex_gradient, pair_blocks

_BASIS_MAGIC = b"ELSABAS1"


@dataclass(frozen=True)
class LatentBasis:
    """Template plus ordered deformation fields with a shape/pose split.

    Parameters
    ----------
    template : TriangleMesh
    fields : ndarray, (P, N, 3)
        Deformation fields on the template vertices, shape block first.
    n_shape, n_pose : int
        Block sizes; ``n_shape + n_pose = P``.  Shape fields occupy indices
        ``[0, n_shape)``, pose fields ``[n_shape, P)``.
    """

    template: TriangleMesh
    fields: np.ndarray
    n_shape: int
    n_pose: int

    #: relative singular-value cutoff for the linear-independence check
    RANK_TOL = 1e-8

    def __post_init__(self):
        fields = np.asarray(self.fields, dtype=np.float64)
        n = self.template.n_vertices
        if fields.ndim != 3 or fields.shape[1:] != (n, 3):
            raise MeshError(
                f"fields must be (P, {n}, 3), got {fields.shape}"
            )
        p = fields.shape[0]
        if self.n_shape < 0 or self.n_pose < 0 or self.n_shape + self.n_pose != p:
            raise ValueError(
                f"block sizes ({self.n_shape}, {self.n_pose}) do not partition P={p}"
            )
        sv = np.linalg.svd(fields.reshape(p, -1), compute_uv=False)
        if sv[-1] < self.RANK_TOL * sv[0]:
            raise ValueError(
                f"deformation fields are not linearly independent "
                f"(singular value ratio {sv[-1] / sv[0]:.2e})"
            )
        fields.setflags(write=False)
        object.__setattr__(self, "fields", fields)

    @property
    def dim(self):
        return self.fields.shape[0]

    @property
    def shape_slice(self):
        return slice(0, self.n_shape)

    @property
    def pose_slice(self):
        return slice(self.n_shape, self.dim)

    @property
    def fields_matrix(self):
        """Fields flattened to a ``(P, 3N)`` matrix."""
        return self.fields.reshape(self.dim, -1)

    @cached_property
    def differentials(self):
        """Per-face differentials of the fields, ``(M, 6, P)``, read-only.

        Face ``f`` holds each field's 3x2 differential ``[h1 - h0, h2 - h0]``
        flattened row-major; built on first use and kept, as the fields are
        fixed.
        """
        P = self.dim
        M = self.template.n_faces
        df = _field_differential(self.template.faces, self.fields)
        df = np.ascontiguousarray(df.reshape(P, M, 6).transpose(1, 2, 0))
        df.setflags(write=False)
        return df

    def check_code(self, alpha):
        alpha = np.asarray(alpha, dtype=np.float64)
        if alpha.shape != (self.dim,):
            raise ValueError(f"latent code must have shape ({self.dim},), got {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("latent code has non-finite entries")
        return alpha


def decode(basis, alpha, validate=True):
    """Affine decoder: template vertices plus the weighted deformation fields.

    With ``validate`` on, a decoded mesh containing a degenerate face raises
    (the image of the decoder is not guaranteed to stay inside the space of
    immersed meshes).
    """
    alpha = basis.check_code(alpha)
    vertices = basis.template.vertices + np.tensordot(alpha, basis.fields, axes=1)
    return TriangleMesh(vertices, basis.template.faces, validate=validate)


def gram(basis, alpha, coefficients, geometry=None):
    """Pullback metric Gram matrix at a latent code.

    Entry ``(i, j)`` is the metric inner product of fields ``i`` and ``j``
    over the decoded mesh, or over ``geometry`` when the caller already has
    the foot point's.  The face-local terms (a1, b1, c1, d1) pair the
    basis's cached per-face differentials with one 6x6 block per face
    (:func:`_diff.face_blocks`), ``sum_f df_i^T Q_f df_j``, through the same
    :func:`_diff.pair_blocks` as the shooting Jacobian.  The a0 term is one
    product of the fields weighted by the vertex volumes, and the a2 term
    one of their Laplacian images, after one sparse product ``L H``.  The
    result is symmetrized to make the bilinear form exactly symmetric.

    The path energy applies the metric to its increments without this matrix;
    the Gram serves geodesic shooting, whose Jacobian needs it whole, and the
    tests, as the reference for the path energy's one pass.
    """
    geom = geometry if geometry is not None else _geometry(decode(basis, alpha))
    H = basis.fields
    P, N = H.shape[:2]
    root_vol = np.sqrt(geom.vol)
    weighted = (H * root_vol[:, None]).reshape(P, -1)
    out = coefficients.a0 * (weighted @ weighted.T)
    del weighted  # before the pair product, the call's largest temporary
    out += pair_blocks(basis.differentials, face_blocks(geom, coefficients))
    lap = (geom.lap @ H.transpose(1, 2, 0).reshape(N, 3 * P)).reshape(3 * N, P)
    lap *= np.repeat(root_vol, 3)[:, None]
    out += coefficients.a2 * (lap.T @ lap)
    return 0.5 * (out + out.T)


def _check_path(basis, path):
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 2 or path.shape[1] != basis.dim:
        raise ValueError(f"path must be (T+1, {basis.dim}), got {path.shape}")
    if path.shape[0] < 2:
        raise ValueError("path needs at least two knots")
    if not np.all(np.isfinite(path)):
        raise ValueError("path has non-finite entries")
    return path


def _knot_pass(basis, path, coefficients):
    """The metric applied to every increment of a path, in one pass over its knots.

    Returns ``(energy, geom, u, gd)``: the path energy, the geometry of the
    union of the left knots (:func:`metric._union_geometry`), the increments'
    fields ``u = d_t . fields`` stacked as ``(T N, 3)`` on it, and the
    ``(T, P)`` products ``G(alpha_t) d_t``.  Each product reads ``u`` as
    :func:`gram` reads the fields: the face-local terms as
    ``df^T (Q_f (df d))`` with the 6x6 blocks of :func:`_diff.face_blocks`,
    applied in their contiguous faces-last layout, a0 as ``H^T (vol u)`` and
    a2 as ``H^T L^T (vol L u)``.
    """
    path = _check_path(basis, path)
    d = np.diff(path, axis=0)
    T = len(d)
    P, N = basis.fields.shape[:2]
    template = basis.template
    M = template.n_faces
    geom = _union_geometry(template.vertices + np.tensordot(path[:-1], basis.fields, axes=1),
                           template.faces)
    u = np.tensordot(d, basis.fields, axes=1).reshape(T * N, 3)
    df = basis.differentials.reshape(6 * M, P)
    du = np.ascontiguousarray((df @ d.T).T.reshape(T * M, 6).T)  # (6, T M), knot-major faces
    qdu = np.einsum("ijf,jf->fi", face_blocks(geom, coefficients).transpose(1, 2, 0), du)
    gd = qdu.reshape(T, 6 * M) @ df
    del du, qdu
    vol = geom.vol[:, None]
    w = coefficients.a0 * (vol * u)
    w += coefficients.a2 * (geom.lap.T @ (vol * (geom.lap @ u)))
    gd += w.reshape(T, 3 * N) @ basis.fields_matrix.T
    return T * float(np.einsum("tp,tp->", d, gd)), geom, u, gd


def latent_path_energy(basis, path, coefficients):
    """Discrete path energy ``T * sum_t d_t^T Gram(alpha_t) d_t``.

    Increments are forward differences; the metric is evaluated at the left
    knot of each step, for all steps in one pass (:func:`_knot_pass`),
    without the Gram matrix or a foot-point derivative.  The value equals
    that of :func:`latent_path_energy_with_grad` bit for bit.
    """
    return _knot_pass(basis, path, coefficients)[0]


def latent_path_energy_with_grad(basis, path, coefficients, fixed_start=False):
    """Path energy and its gradient with respect to every knot.

    The gradient at a knot combines the quadratic terms ``2 G d`` of its two
    adjacent steps with the foot-point derivative of the metric (the metric
    differentiated in the decoded vertices, chained through the decoder
    fields).  That derivative comes from one :func:`_diff.h2_vertex_gradient`
    call on the union of the left knots, whose copies do not interact.
    ``fixed_start`` holds the first knot: its row is left zero, and the
    foot-point pass skips its copy.
    """
    energy, geom, u, gd = _knot_pass(basis, path, coefficients)
    T = len(gd)
    start = 1 if fixed_start else 0
    grad = np.zeros((T + 1, gd.shape[1]))
    if start < T:
        if start:
            geom = _union_tail(geom, T, start)
            u = u[start * basis.template.n_vertices:]
        foot = h2_vertex_gradient(geom, u, u, coefficients)
        grad[start:-1] = foot.reshape(T - start, -1) @ basis.fields_matrix.T
    grad[start:-1] -= 2.0 * gd[start:]
    grad[1:] += 2.0 * gd
    return energy, T * grad


def substitute_shape_block(codes, target, n_shape):
    """Replace the shape block of every code, keeping pose blocks verbatim.

    Parameters
    ----------
    codes : ndarray, (K, P) or sequence of (P,) vectors
    target : ndarray, (P,)
        Code whose shape block ``[0, n_shape)`` is copied in.
    """
    codes = np.atleast_2d(np.asarray(codes, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (codes.shape[1],):
        raise ValueError(
            f"target code length {target.shape} does not match codes {codes.shape}"
        )
    if not 0 <= n_shape <= codes.shape[1]:
        raise ValueError(f"invalid shape-block size {n_shape}")
    out = codes.copy()
    out[:, :n_shape] = target[:n_shape]
    return out


# ---------------------------------------------------------------------------
# basis container file
#
# layout (little endian):
#   8 bytes   magic "ELSABAS1"
#   u64       byte length of the embedded binary PLY template
#   ...       template mesh as binary little-endian PLY
#   u32 x3    P, n_shape, n_pose
#   u64       N (vertex count, redundant check)
#   f64 x P*N*3   deformation fields, C order
# ---------------------------------------------------------------------------


def save_basis(basis, path):
    """Write a basis to its binary container file."""
    blob = ply_bytes(basis.template, binary=True)
    with open(path, "wb") as fh:
        fh.write(_BASIS_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<IIIQ", basis.dim, basis.n_shape, basis.n_pose,
                             basis.template.n_vertices))
        fh.write(np.ascontiguousarray(basis.fields, dtype="<f8").tobytes())


def load_basis(path):
    """Read a basis container written by :func:`save_basis`."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BASIS_MAGIC:
            raise MeshError(f"{path}: not a basis file (bad magic {magic!r})")
        (blob_len,) = struct.unpack("<Q", read_exact(fh, 8, path))
        template = mesh_from_ply_bytes(read_exact(fh, blob_len, path))
        p, m, n, nv = struct.unpack("<IIIQ", read_exact(fh, 20, path))
        if nv != template.n_vertices:
            raise MeshError(f"{path}: vertex count mismatch in basis file")
        fields = np.frombuffer(read_exact(fh, 8 * p * nv * 3, path), dtype="<f8")
        fields = fields.reshape(p, nv, 3).copy()
    return LatentBasis(template=template, fields=fields, n_shape=m, n_pose=n)
