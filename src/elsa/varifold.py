"""Parametrization-blind kernel distance between surface meshes.

Each mesh is represented by its face atoms (barycenter, unit normal, area),
read off its :class:`mesh.FaceFrames` (``centers``, ``n``, ``area``), and
compared through the kernel

    k(x, n, x', n') = exp(-|x - x'|^2 / sigma^2) * (n . n')^2

summed with area weights over all face pairs.  The squared distance
``<a,a> - 2<a,b> + <b,b>`` depends only on the atom multisets, so it is
blind to vertex ordering, face ordering and (through the squared cosine)
to orientation flips.  The gradient with respect to the vertex positions of
the first mesh is assembled analytically; no kernel approximation is used,
pair sums run exactly in blocks of first-mesh atoms, as many per block as
keep the block's kernel buffers within a fixed byte budget.

Each block of the kernel is formed in place: one matrix product gives the
exponent, which is clamped, exponentiated and multiplied by the cosines
without a temporary, and the block is then reduced against the second
mesh's area-weighted atoms.  The pair sum and all three atom gradients come
out of these reductions as matrix products (see :func:`_pair_pass`).

The module has one target and one evaluation.  A :class:`VarifoldTarget` is
a fixed mesh at one kernel scale ``sigma`` (checked positive there): its face
frames (its atoms) and its ``<b,b>``, computed once.
:func:`varifold_value_and_grad` evaluates a mesh against it in two blockwise
passes, a-a and a-b; each returns its pair sum and the atom gradients from
the same kernel blocks.  Every distance and gradient is read off these two
passes; :func:`varifold_sqdist` is the same evaluation of two meshes.  A mesh
with no faces has no atoms, so its varifold is zero.

A sum in another order, such as one over the direct differences
``c_a - c_b``, agrees to rounding only; the center gradient differs most,
through cancellation in the expanded exponent (about 1e-13 of its largest
entry).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._diff import area_edge_grads, edge_corners, normal_edge_grads
from .mesh import FaceFrames, TriangleMesh, face_frames, scatter_corners

#: most first-mesh atoms per block in pair sums
_BLOCK = 1024
#: bytes of one (rows, n_b) float64 kernel buffer: a block takes as many
#: first-mesh atoms as fit (1 to ``_BLOCK``), so its two buffers stay in cache.
#: Rows depend only on n_b, so results are deterministic per input; another
#: split changes the last bits of the row sums.
_BLOCK_BYTES = 512 * 1024


def _kernel_products(ca, na, cb, nb, ab, sigma, normals=True):
    """Kernel reductions of the atoms of a against the area-weighted atoms of b.

    With E = exp(-|c_a - c_b|^2 / sigma^2), D = n_a . n_b and the kernel
    K = E D^2, returns ``K @ [a_b, a_b c_b]`` (one row of 4 per atom of a)
    and, if ``normals``, ``(E D) @ (a_b n_b)`` (one row of 3), else None.

    The atoms of a run in blocks of ``_BLOCK_BYTES // (8 n_b)`` rows (at
    least one, at most ``_BLOCK``).  Each block's exponent is one matrix
    product of the lifted centers (2 c_a / sigma^2, -|c_a|^2 / sigma^2, -1)
    and (c_b, 1, |c_b|^2 / sigma^2), clamped at zero against cancellation;
    it is exponentiated and multiplied by the cosines in place, in two
    (rows, n_b) buffers that every block reuses.
    """
    inv_s2 = 1.0 / sigma**2
    sq_a = inv_s2 * np.einsum("ij,ij->i", ca, ca)
    sq_b = inv_s2 * np.einsum("ij,ij->i", cb, cb)
    xa = np.column_stack([2.0 * inv_s2 * ca, -sq_a, -np.ones_like(sq_a)])
    xb = np.column_stack([cb, np.ones_like(sq_b), sq_b])
    wb = np.column_stack([ab, ab[:, None] * cb])
    wn = ab[:, None] * nb if normals else None
    n = ca.shape[0]
    # a mesh with no faces has no atoms: its products are all zero
    rows = min(_BLOCK, max(1, _BLOCK_BYTES // (8 * max(cb.shape[0], 1))))
    expo = np.empty((min(n, rows), cb.shape[0]))
    kern = np.empty_like(expo)
    kw = np.empty((n, 4))
    en = np.empty((n, 3)) if normals else None
    for start in range(0, n, rows):
        sl = slice(start, min(start + rows, n))
        e = expo[: sl.stop - start]
        k = kern[: sl.stop - start]
        np.matmul(xa[sl], xb.T, out=e)
        np.minimum(e, 0.0, out=e)
        np.exp(e, out=e)
        np.matmul(na[sl], nb.T, out=k)
        e *= k  # E D
        k *= e  # K = E D^2
        np.matmul(k, wb, out=kw[sl])
        if normals:
            np.matmul(e, wn, out=en[sl])
    return kw, en


@dataclass(frozen=True, eq=False)
class VarifoldTarget:
    """A fixed mesh's face frames (its atoms) and squared norm ``<b,b>`` at one kernel scale.

    ``sigma`` is the spatial kernel scale, in the units of the vertex
    coordinates.  Build it once per mesh and scale; distances to it then skip
    ``<b,b>``.
    """

    mesh: TriangleMesh
    sigma: float
    frames: FaceFrames = field(init=False, repr=False)
    norm_sq: float = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        fr = face_frames(self.mesh)
        object.__setattr__(self, "frames", fr)
        # the sum _pair_pass forms, bit for bit, without its normal reduction:
        # that costs about 1.15x on 2000 faces, and target builds (one per
        # kernel scale) take about 7 % of a registration round
        kw, _ = _kernel_products(fr.centers, fr.n, fr.centers, fr.n, fr.area, self.sigma, normals=False)
        object.__setattr__(self, "norm_sq", float(fr.area @ kw[:, 0]))


def _pair_pass(ca, na, aa, cb, nb, ab, sigma):
    """Pair sum and its gradients w.r.t. the atoms of the first mesh.

    Returns ``(sum, d/d_center, d/d_normal, d/d_area)``, the gradients per
    face, from one pass of :func:`_kernel_products` over the blocks:

        d/d_area   = K a_b
        d/d_center = -(2 / sigma^2) a_a * ((K a_b) c_a - K (a_b c_b))
        d/d_normal = 2 a_a * ((E D) (a_b n_b))

    The sum is ``a_a . (K a_b)``.
    """
    kw, en = _kernel_products(ca, na, cb, nb, ab, sigma)
    ka = kw[:, 0]
    gc = (-2.0 / sigma**2) * aa[:, None] * (ka[:, None] * ca - kw[:, 1:])
    return float(aa @ ka), gc, 2.0 * aa[:, None] * en, ka


def varifold_value_and_grad(mesh, target):
    """Clamped squared distance to a cached target and its vertex gradient.

    Two pair passes (a-a and a-b) give ``<a,a> - 2<a,b>`` and its atom
    gradients together; the target's ``<b,b>`` comes from its cache.  The
    chain rule runs through barycenters (uniform thirds), unit normals and
    areas of the faces of ``mesh``.  The clamp guards against floating-point
    cancellation when the two atom multisets (barycenter, normal, area)
    coincide.
    """
    sigma = target.sigma
    fr, fb = face_frames(mesh), target.frames
    # d<a,a>/datom carries a factor 2 by symmetry of the kernel
    aa, gc, gn, ga = _pair_pass(fr.centers, fr.n, fr.area, fr.centers, fr.n, fr.area, sigma)
    ab, gc2, gn2, ga2 = _pair_pass(fr.centers, fr.n, fr.area, fb.centers, fb.n, fb.area, sigma)
    gc = 2.0 * gc - 2.0 * gc2
    gn = 2.0 * gn - 2.0 * gn2
    ga = 2.0 * ga - 2.0 * ga2

    g_dq = normal_edge_grads(fr.dq, fr.n, 2.0 * fr.area, gn) + area_edge_grads(fr.dq, fr.n, ga)
    # a barycenter moves by a third of each corner's displacement
    corners = (gc / 3.0)[:, None] + edge_corners(g_dq)
    grad = scatter_corners(mesh.faces, corners, mesh.n_vertices)
    return max(aa - 2.0 * ab + target.norm_sq, 0.0), grad


def varifold_sqdist(a, b, sigma):
    """Squared kernel distance between two meshes at scale ``sigma``, clamped at zero."""
    return varifold_value_and_grad(a, VarifoldTarget(b, sigma))[0]
