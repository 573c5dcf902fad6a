"""Hand-derived vertex gradients of the discrete metric energies.

Everything here is internal machinery for the solvers.  Two functionals are
differentiated with respect to vertex positions:

* the analytic metric inner product ``G_q(u, v)`` at a mesh ``q`` with the
  vertex fields ``u, v`` held fixed (the foot-point derivative used by the
  latent-space path energy, in one call on the disjoint union of all its
  left knots, and by geodesic shooting), and
* the discrete one-step path energy between a left mesh ``q`` and right
  vertex positions ``r``, with all weights on ``q``.  It is the analytic
  form at ``u = r - q`` with ``du^T du`` added to the symmetric part
  ``dq^T du + du^T dq``, which makes that part the finite difference
  ``dr^T dr - dq^T dq`` of the metric tensor; only the normal term is its
  own finite difference of unit normals.

:func:`path_energy_with_grads` sums the steps of a mesh path, for
:func:`metric.path_energy` and the mesh geodesic solver alike.  It runs in
passes over consecutive steps, each one step-energy call on the disjoint
union of its left knots (:func:`metric._union_geometry`, as for the latent
path's foot points) with its right knots as the right vertices.  A pass
holds at most ``PASS_FACES`` faces: a single union of every step is slower
at the paper's mesh sizes once its temporaries fall out of cache.

Both functionals share the a1 and b1 trace form on the symmetric part of
``dq^T dh`` (:func:`trace_form`), the d1 term as one rotation scalar per face
and the per-vertex a0 and a2 terms (:func:`vertex_terms`); c1 is read through
the normal components of ``dh`` as in :func:`face_blocks`, except in the step
energy's finite difference of unit normals.  Edges, unit normals and areas
are read from :func:`mesh.face_frames`, the single source of per-face geometry.
Every term is formed whatever its weight, with no branch on a zero weight:
a zero weight multiplies its term's full work by zero, so a one-hot weight
vector runs the presets' code.
Per-face arrays cross function boundaries faces first, ``(M, ...)``, as
:func:`mesh.face_frames` gives them.  Inside :func:`face_blocks`,
:func:`trace_form`, :func:`face_terms` and the step energy, each per-face
product is one ``np.einsum`` over contiguous faces-last copies
(:func:`_faces_last`): edges and differentials ``(3, 2, M)``, inverse
metrics ``(2, 2, M)`` and normals ``(3, M)``, so that its inner loop runs
over adjacent faces; a stacked ``@`` pays tens of nanoseconds per 2x2 or
3x2 matrix.  Only :func:`pair_blocks` keeps ``@``, whose
``(M, 6, 6) @ (M, 6, P)`` product is large enough for BLAS.
Gradients are assembled per face from a handful of adjoint channels (area,
unit normal, edge matrix, vertex volume) into one ``(M, 3, 2)`` edge-matrix
adjoint, which :func:`edge_corners` and the one scatter,
:func:`mesh.scatter_corners`, sum onto the vertices; the a2 term's cotangent
adjoints (:func:`corner_adjoints`) fold into the edge and area adjoints in
closed form (:func:`cot_adjoints`).

Stacks of fields meet the metric through per-face 6x6 blocks paired with
their cached per-face differentials (:func:`pair_blocks`,
``sum_f df_i^T B_f df_j``).  The face-local metric terms themselves are one
closed-form block per face (:func:`face_blocks`).  The latent path energy
applies the blocks to each increment's differential, ``df^T (Q_f (df d))``,
for all knots in one pass and without a Gram matrix; the latent Gram pairs
them, and serves only geodesic shooting and the tests.  The face-local
terms of the foot-point gradient (a1, b1, c1, d1 and their area channel,
:func:`face_terms`) are linear in the second field's per-face differential,
so their edge adjoint is one 6x6 block per face applied to it:
:func:`h2_gradient_pairing` builds those blocks from the six unit
differentials and returns the pairing matrix of a shooting step's
Jacobian, at a fixed number of mesh passes whatever the number of fields.
Each channel is exercised against central finite differences by the test
suite; the algebra is unforgiving, the tests are not optional.
"""

from __future__ import annotations

import numpy as np

from .mesh import (
    _OPPOSITE,
    DegenerateFaceError,
    cross,
    face_frames,
    scatter_corners,
)
from .metric import _field_differential, _name_knot, _union_geometry

#: faces per pass of :func:`path_energy_with_grads`; a larger union of steps
#: loses to the step-by-step loop once its temporaries fall out of cache
PASS_FACES = 8192


def _rowdot(a, b):
    return np.einsum("...i,...i->...", a, b)


def edge_corners(g_e):
    """Per-corner gradients ``(M, 3, 3)`` of edge-matrix gradients ``(M, 3, 2)``.

    The edge matrix of a face is ``[v1 - v0, v2 - v0]``.
    """
    return np.concatenate([-g_e.sum(axis=2)[:, None], g_e.swapaxes(1, 2)], axis=1)


def cross_edge_grads(dq, p):
    """Edge-matrix gradients of ``sum_f <p_f, e1_f x e2_f>`` for ``dq = [e1, e2]``.

    Either operand may carry leading axes, ``(..., M, 3, 2)`` and ``(..., M, 3)``.
    """
    return np.stack([cross(dq[..., 1], p), cross(p, dq[..., 0])], axis=-1)


def area_edge_grads(dq, n, g_area):
    """Edge-matrix gradients of ``sum_f g_area_f * area_f``; ``g_area`` may be ``(..., M)``."""
    return cross_edge_grads(dq, 0.5 * g_area[..., None] * n)


def normal_edge_grads(dq, n, s, g_n):
    """Edge-matrix gradients of ``sum_f <g_n_f, n_f>`` for unit normals ``n = c/s``."""
    return cross_edge_grads(dq, (g_n - n * _rowdot(n, g_n)[:, None]) / s[:, None])


def cot_adjoints(geom, lam):
    """Edge and area adjoints of ``sum_{f, corner} lam[f, corner] * cot(angle)``.

    The cotangents (:func:`mesh.face_cotangents`) are ``e1.e2 / s``,
    ``e1.(e1 - e2) / s`` and ``e2.(e2 - e1) / s`` for ``s = 2 area``: their
    numerators vary with the edges as ``dq Lam``, ``Lam = [[2 l1, off], [off,
    2 l2]]`` with ``off = l0 - l1 - l2``, and ``s`` gives the area adjoint
    ``-2 sum_k l_k cot_k / s``.  ``lam`` may carry leading axes, ``(..., M, 3)``;
    returns ``(g_dq, g_area)`` shaped ``(..., M, 3, 2)`` and ``(..., M)``.
    """
    fr = geom.frames
    ls = np.moveaxis(lam, -1, -2) / (2.0 * fr.area)  # (..., 3, M)
    l0, l1, l2 = ls[..., 0, :], ls[..., 1, :], ls[..., 2, :]
    off = l0 - l1 - l2
    Lam = np.stack([np.stack([2.0 * l1, off], -2), np.stack([off, 2.0 * l2], -2)], -3)
    g_dq = np.einsum("kam,...abm->...kbm", _faces_last(fr.dq), Lam)
    g_area = np.einsum("...km,mk->...m", ls, geom.cot)
    g_area *= -2.0
    return np.moveaxis(g_dq, -1, -3), g_area


#: corner k's opposite-edge difference ``h_i - h_j``, ``(i, j) = _OPPOSITE[k]``,
#: as a combination of the differential's columns: dh_0 - dh_1, dh_1 and -dh_0
_CORNER_EDGES = np.array([[1.0, -1.0], [0.0, 1.0], [-1.0, 0.0]])


def _corner_edges(dh):
    """The corners' opposite-edge differences ``(3, M, 3)`` of differentials ``(M, 3, 2)``."""
    return np.tensordot(_CORNER_EDGES, dh, axes=(1, 2))


def corner_adjoints(du, dwv, dv, dwu):
    """Adjoints ``(M, 3)`` of the corner cotangents in the a2 term of ``G_q(u, v)``.

    Corner ``k``, opposite the edge ``(i, j)``, has ``(u_i - u_j).(wv_i - wv_j)
    + (v_i - v_j).(wu_i - wu_j)`` for ``wu = a2 vol L u`` and ``wv`` likewise,
    read off the differentials of ``u, wv, v, wu`` (:func:`_corner_edges`)
    without a gather; with ``dv is du`` and ``dwu is dwv`` the terms are one.
    """
    lam = np.einsum("cmk,cmk->mc", _corner_edges(du), _corner_edges(dwv))
    same = dv is du and dwu is dwv
    lam += lam if same else np.einsum("cmk,cmk->mc", _corner_edges(dv), _corner_edges(dwu))
    return lam


def _vertex_thirds(faces, g_vol):
    """Area adjoint of vertex-volume adjoints ``(N, ...)``: one third from each corner."""
    return (g_vol[faces[:, 0]] + g_vol[faces[:, 1]] + g_vol[faces[:, 2]]) / 3.0


def _faces_last(a):
    """A contiguous copy of ``a`` with its first (face) axis moved last."""
    return np.ascontiguousarray(np.moveaxis(a, 0, -1))


def _dot3(a, b):
    """Dot products over the coordinate axis of ``(K, 3, ...)`` arrays."""
    return np.einsum("ic...,ic...->i...", a, b)


def trace_form(G, X, Y, c, b):
    """Per-face ``c tr(G X G Y) + b tr(G X) tr(G Y)`` and its adjoint channels.

    Faces last: ``X`` and ``Y`` are symmetric ``(2, 2, M)`` stacks and ``G``
    the inverse metric tensors; ``Y`` may carry leading axes,
    ``(..., 2, 2, M)``.  Returns ``(value, Ax, Ay, S)``:
    ``value = tr(X Ax) = tr(Y Ay)`` per face, where
    ``Ax = c G Y G + b tr(G Y) G`` and ``Ay`` likewise from ``X``, and
    ``S = G (X Ax + Y Ay)`` is the inverse-metric channel, ``d(G) = -G d(g) G``.
    """

    def adjoint(GZ):
        tr = GZ[..., 0, 0, :] + GZ[..., 1, 1, :]
        return c * np.einsum("...abm,bcm->...acm", GZ, G) + b * tr[..., None, None, :] * G

    GX = np.einsum("abm,bcm->acm", G, X)
    if Y is X:
        Ax = Ay = adjoint(GX)
    else:
        Ax, Ay = adjoint(np.einsum("abm,...bcm->...acm", G, Y)), adjoint(GX)
    value = np.einsum("...abm,...bam->...m", X, Ax)
    XY = np.einsum("abm,...bcm->...acm", X, Ax)
    XY += np.einsum("...abm,bcm->...acm", Y, Ay)
    return value, Ax, Ay, np.einsum("abm,...bcm->...acm", G, XY)


def vertex_terms(geom, u, v, a0, a2):
    """The a0 and a2 terms of ``G_q(u, v)`` as a per-vertex density.

    ``v`` may carry trailing axes, ``(N, 3, ...)``, over which the results
    broadcast.  Returns ``(density, lap_v)``: the terms sum to
    ``density @ vol``, so the density is also the adjoint of the vertex
    volumes, and ``lap_v`` is the Laplacian of ``v``.  The a2 term's
    cotangent adjoints are the callers' (:func:`corner_adjoints`).  Both
    terms are always formed; a zero weight multiplies its term by zero.
    """
    lap_v = (geom.lap @ v.reshape(len(v), -1)).reshape(v.shape)
    lap_u = lap_v if v is u else geom.lap @ u
    density = a0 * _dot3(u, v)
    density += a2 * _dot3(lap_u, lap_v)
    return density, lap_v


def face_blocks(geom, coefficients):
    """Per-face 6x6 blocks ``Q_f`` of the face-local terms (a1, b1, c1, d1).

    With per-face differentials flattened row-major to 6-vectors, the a1, b1,
    c1 and d1 part of ``G_q(h, k)`` is ``sum_f dh_f^T Q_f dk_f``.  The terms
    read ``dh`` through ``X = dq^T dh`` and its normal components
    ``z = n^T dh``: the normal variation is ``(z_0 n x e2 + z_1 e1 x n) / s``
    with ``s = 2 area``, whose Gram is ``s^2 G`` for the inverse metric
    tensor ``G``, and an antisymmetric ``X - X^T = x J`` has
    ``tr(G J G J^T) = 2 det G = 2 / s^2``.  With the dual edges ``R = dq G``
    and ``V = [-e2, e1]``, in index pairs ``(k, b), (l, d)``:

        Q = area ((2 a1 (I - n n^T) + c1 n n^T)_kl G_bd
                  + 2 a1 R_kd R_lb + 4 b1 R_kb R_ld) + (d1 / s) V_kb V_ld

    Each block is symmetric, and positive semidefinite for nonnegative
    weights.  Each term is one einsum over contiguous faces-last copies of
    the edges, inverse metrics and normals, and each entry one product
    taken in a fixed order, so the blocks do not depend on how the faces
    are batched.  The result is an ``(M, 6, 6)`` view of the contiguous
    ``(6, 6, M)`` blocks, whose ``transpose(1, 2, 0)`` is that array.
    """
    fr = geom.frames
    _, a1, b1, c1, d1, _ = coefficients.as_array()
    area = fr.area
    e = _faces_last(fr.dq)  # (3, 2, M)
    G = _faces_last(geom.ginv)  # (2, 2, M)
    n = _faces_last(fr.n)  # (3, M)
    normal = ((c1 - 2.0 * a1) * area) * (n[:, None] * n[None])  # (3, 3, M)
    normal[[0, 1, 2], [0, 1, 2]] += 2.0 * a1 * area
    R = e[:, 0, None] * G[0] + e[:, 1, None] * G[1]  # (3, 2, M)
    V = np.stack([-e[:, 1], e[:, 0]], axis=1)
    Q = np.einsum("klm,bdm->kbldm", normal, G)  # (k, b, l, d, M)
    Q += np.einsum("kdm,lbm->kbldm", (2.0 * a1 * area) * R, R)
    Q += np.einsum("kbm,ldm->kbldm", (4.0 * b1 * area) * R, R)
    Q += np.einsum("kbm,ldm->kbldm", (d1 / (2.0 * area)) * V, V)
    return Q.reshape(6, 6, -1).transpose(2, 0, 1)


def pair_blocks(df, blocks):
    """``sum_f df_f^T B_f df_f``, a ``(P, P)`` matrix, over per-face 6x6 blocks.

    ``df`` holds ``P`` fields' per-face differentials as ``(M, 6, P)`` and
    ``blocks`` the ``(M, 6, 6)`` blocks ``B_f``.
    """
    M, _, P = df.shape
    return df.reshape(6 * M, P).T @ (blocks @ df).reshape(6 * M, P)


def face_terms(geom, du, dv, coefficients):
    """Face-local part (a1, b1, c1, d1) of the foot-point gradient of ``G_q(u, v)``.

    ``du`` and ``dv`` are the per-face differentials of ``u`` and ``v``;
    ``dv`` may carry leading axes, ``(..., M, 3, 2)``, over which the result
    broadcasts, and ``dv is du`` reuses the first field's coordinates.  Each
    differential ``dh`` is read as in :func:`face_blocks`: a1 and b1 through
    the symmetric part of ``dq^T dh`` (:func:`trace_form`), d1 through the
    rotation ``x = e1.dh_1 - e2.dh_0`` as ``d1 x_u x_v / s``, and c1 through
    the normal components ``z = dh^T n`` as ``c1 area z_u^T G z_v``.  Returns
    ``(g_dq, g_area)``, the adjoints of the edge matrices and of the face
    areas, shaped like ``dv`` and ``dv[..., 0, 0]``; both are linear in ``dv``.
    The algebra runs on faces-last copies, and ``g_dq`` is a view of its
    contiguous ``(..., 3, 2, M)`` array.
    """
    fr = geom.frames
    area = fr.area
    s = 2.0 * area
    e = _faces_last(fr.dq)  # (3, 2, M)
    n = _faces_last(fr.n)  # (3, M)
    G = _faces_last(geom.ginv)  # (2, 2, M)
    _, a1, b1, c1, d1, _ = coefficients.as_array()
    same = dv is du
    hu = _faces_last(du)
    hv = hu if same else _faces_last(np.moveaxis(dv, -3, 0))  # (..., 3, 2, M)

    pu = np.einsum("kam,kbm->abm", e, hu)
    pv = pu if same else np.einsum("kam,...kbm->...abm", e, hv)
    X = pu + pu.swapaxes(0, 1)
    Y = X if same else pv + pv.swapaxes(-3, -2)
    g_area, Ax, Ay, S = trace_form(G, X, Y, a1, b1)
    del X, Y
    # s (du Ax + dv Ay - dq S), one (..., 3, 2, M) temporary at a time
    g_dq = np.einsum("kam,...abm->...kbm", hu, Ax)
    g_dq += np.einsum("...kam,abm->...kbm", hv, Ay)
    g_dq -= np.einsum("kam,...abm->...kbm", e, S)
    g_dq *= s
    del Ax, Ay, S

    # d1: x varies with the edges as [dh_1, -dh_0]
    xu = pu[0, 1] - pu[1, 0]
    xv = xu if same else pv[..., 0, 1, :] - pv[..., 1, 0, :]
    del pu, pv
    g_area -= (2.0 * d1 / s**2) * xu * xv
    rot = d1 / s
    xv3 = xv[..., None, :]
    g_dq[..., 0, :] += rot * (xv3 * hu[:, 1] + xu * hv[..., 1, :])
    g_dq[..., 1, :] -= rot * (xv3 * hu[:, 0] + xu * hv[..., 0, :])

    # c1: along an edge variation E, G varies as -G (E^T dq + dq^T E) G and n
    # as -dq G E^T n; with a = G z_u and b = G z_v the edge adjoint is
    # -c1 area (dq b a^T + dq a b^T + n m^T) for m = G dq^T (du b + dv a)
    zu = np.einsum("kam,km->am", hu, n)
    a = np.einsum("abm,bm->am", G, zu)
    b = a if same else np.einsum("abm,...bm->...am", G, np.einsum("...kam,km->...am", hv, n))
    g_area += c1 * np.einsum("am,...am->...m", zu, b)
    qa = np.einsum("kam,am->km", e, a)
    qb = np.einsum("kam,...am->...km", e, b)
    w = np.einsum("kam,...am->...km", hu, b)
    w += np.einsum("...kam,am->...km", hv, a)
    m = np.einsum("abm,...bm->...am", G, np.einsum("kam,...km->...am", e, w))
    c = c1 * area
    for k in range(2):
        g_dq[..., k, :] -= c * (qb * a[k] + qa * b[..., None, k, :] + n * m[..., None, k, :])
    return np.moveaxis(g_dq, -1, -3), g_area


def h2_vertex_gradient(geom, u, v, coefficients):
    """Gradient of the analytic ``h2_inner(q, u, v)`` w.r.t. the vertices of q.

    Parameters
    ----------
    geom : metric._MeshGeometry
        Precomputed geometry of the foot-point mesh.
    u, v : ndarray, (N, 3)
        Fixed vertex fields.  With ``v is u`` the second field's
        differential, symmetric part, rotation and normal components are
        those of the first; the result equals that for a copy of ``u``.
    """
    F = geom.mesh.faces
    fr = geom.frames
    du = _field_differential(F, u)
    dv = du if v is u else _field_differential(F, v)
    g_dq, g_area = face_terms(geom, du, dv, coefficients)
    g_vol, lap_v = vertex_terms(geom, u, v, coefficients.a0, coefficients.a2)
    weight = coefficients.a2 * geom.vol[:, None]
    dwv = _field_differential(F, weight * lap_v)
    dwu = dwv if v is u else _field_differential(F, weight * (geom.lap @ u))
    g_cot, g_area_cot = cot_adjoints(geom, corner_adjoints(du, dwv, dv, dwu))
    g_dq += g_cot
    g_area += g_area_cot
    # vertex volumes distribute one third of each incident area
    g_area += _vertex_thirds(F, g_vol)
    g_dq += area_edge_grads(fr.dq, fr.n, g_area)
    return scatter_corners(F, edge_corners(g_dq), geom.mesh.n_vertices)


def h2_gradient_pairing(geom, fields, df, b, coefficients):
    """The pairings ``K[i, j] = <f_i, grad_q G_q(u, f_j)>`` for ``u = sum_k b_k f_k``.

    ``fields`` is a ``(P, N, 3)`` stack ``f``, ``df`` its per-face
    differentials as ``(M, 6, P)`` (``LatentBasis.differentials``) and ``b``
    the code; returns the ``(P, P)`` matrix ``K`` without a per-field
    :func:`h2_vertex_gradient`, and reads the differential of ``u`` off
    ``df``.  That gradient is
    the scatter of a per-face edge adjoint, so ``K[i, j]`` pairs the adjoint
    for ``f_j`` with the differentials ``df_i`` (6-vectors), summed over the
    faces:

    * the face-local terms (a1, b1, c1, d1 and their area channel) depend on
      ``f_j`` only through ``df_j``: their edge adjoint is ``B_f df_j`` with
      one 6x6 block ``B_f`` per face, which :func:`face_terms` gives from
      the six unit differentials, so this part is :func:`pair_blocks`, as in
      the Gram's ``sum_f df_i^T Q_f df_j``;
    * the a0/a2 density enters through the vertex-volume thirds, paired with
      the area derivatives ``darea_i``;
    * the a2 cotangent channel pairs each corner's edge rows (:func:`cot_adjoints`
      at a unit adjoint) with ``lam_j``, one corner and ``(M, P)`` array at a
      time: ``lam_j`` reads the corner differences of ``f_j`` off ``df`` and
      gathers those of ``a2 vol L f_j`` one coordinate at a time.
    """
    F = geom.mesh.faces
    fr = geom.frames
    M = len(fr)
    P = len(fields)
    unit = np.broadcast_to(np.eye(6).reshape(6, 3, 2, 1), (6, 3, 2, M))  # faces last

    # the temporaries are dropped as soon as they are used, so that the pair
    # product holds no more than the blocks and their product with df
    g_dq, g_area = face_terms(geom, (df.reshape(6 * M, P) @ b).reshape(M, 3, 2),
                              np.moveaxis(unit, -1, 1), coefficients)
    g_dq += area_edge_grads(fr.dq, fr.n, g_area)
    del g_area
    # B_f[r, j] is entry r of field j's adjoint, read off the contiguous (6, 3, 2, M) array
    out = pair_blocks(df, np.moveaxis(g_dq, 1, -1).reshape(6, 6, M).transpose(2, 1, 0))
    del g_dq
    u = np.tensordot(b, fields, axes=1)
    density, lap_f = vertex_terms(geom, u, fields.transpose(1, 2, 0), coefficients.a0,
                                  coefficients.a2)
    darea = np.einsum("mr,mrp->pm", area_edge_grads(fr.dq, fr.n, np.ones(M)).reshape(M, 6), df)
    out += darea @ _vertex_thirds(F, density)
    del density, darea
    # corner c's adjoint for f_j is (w_i - w_k).du_c + (f_j,i - f_j,k).dw_c on
    # its opposite edge (i, k), for w = a2 vol L f_j and dw that of a2 vol L u
    weight = coefficients.a2 * geom.vol
    lap_f *= weight[:, None, None]
    w = np.ascontiguousarray(np.moveaxis(lap_f, 1, 0))  # (3, N, P)
    del lap_f
    du = _corner_edges(_field_differential(F, u))
    dw = _corner_edges(_field_differential(F, weight[:, None] * (geom.lap @ u)))
    coef = (_CORNER_EDGES[:, None, None, :] * dw[..., None]).reshape(3, M, 6)  # on df's rows
    g_cot, g_area = cot_adjoints(geom, np.broadcast_to(np.eye(3)[:, None], (3, M, 3)))
    rows = (g_cot + area_edge_grads(fr.dq, fr.n, g_area)).reshape(3, M, 6)
    for c, (i, k) in enumerate(_OPPOSITE):
        lam = np.einsum("mr,mrp->mp", coef[c], df)
        for x in range(3):
            d = w[x].take(F[:, i], axis=0)
            d -= w[x].take(F[:, k], axis=0)
            d *= du[c, :, x, None]
            lam += d
        out += np.einsum("mr,mrp->pm", rows[c], df) @ lam
    return out


def step_energy_discrete_with_grads(geom_left, right_vertices, coefficients):
    """Discrete one-step energy and its gradients w.r.t. both vertex sets.

    With ``u = r - q`` the energy is the analytic ``G_q(u, u)`` with
    ``du^T du`` added to the symmetric part ``dq^T du + du^T dq`` (so that it
    is ``dr^T dr - dq^T dq``) and the normal variation replaced by the
    finite difference of unit normals.  Outside the normal term, the left
    gradient is the foot-point gradient of that form minus the right one.

    Returns
    -------
    (float, ndarray, ndarray)
        Energy, gradient w.r.t. the left mesh vertices, gradient w.r.t. the
        right vertex positions.
    """
    mesh = geom_left.mesh
    F = mesh.faces
    fr = geom_left.frames
    dq = fr.dq
    n = fr.n
    area = fr.area
    vol = geom_left.vol
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    s = 2.0 * area
    u = right_vertices - mesh.vertices
    du = _field_differential(F, u)
    fr_r = face_frames(mesh.with_vertices(right_vertices, validate=False))
    dr = fr_r.dq

    # dr^T dr - dq^T dq = (dq^T du + du^T dq) + du^T du changes by dr^T E + E^T dr
    # along a variation E of dr, and by -(dq^T E + E^T dq) along one of dq;
    # the algebra runs on faces-last copies
    e, h, r = _faces_last(dq), _faces_last(du), _faces_last(dr)
    pu = np.einsum("kam,kbm->abm", e, h)
    X = pu + pu.swapaxes(0, 1)
    X += np.einsum("kam,kbm->abm", h, h)
    g_area, Ax, _, S = trace_form(_faces_last(geom_left.ginv), X, X, a1, b1)
    value = float(g_area @ area)
    g_e = np.einsum("kam,abm->kbm", e, 2.0 * Ax + S)
    g_e *= -s
    g_r = np.einsum("kam,abm->kbm", r, Ax)
    g_r *= 2.0 * s

    # the rotation x = e1.dr_1 - e2.dr_0 = e1.du_1 - e2.du_0 gives the term
    # d1 x^2 / s; x varies as [dr_1, -dr_0] with dq and as [-e2, e1] with dr
    x = pu[0, 1] - pu[1, 0]
    rot = 2.0 * d1 * x / s  # adjoint of x
    value += 0.5 * float(rot @ x)
    g_area -= rot * x / s
    g_e[:, 0] += rot * r[:, 1]
    g_e[:, 1] -= rot * r[:, 0]
    g_r[:, 0] -= rot * e[:, 1]
    g_r[:, 1] += rot * e[:, 0]
    g_dq, g_dr = np.moveaxis(g_e, -1, 0), np.moveaxis(g_r, -1, 0)

    g_vol, lap_u = vertex_terms(geom_left, u, u, a0, a2)
    value += float(g_vol @ vol)
    w = (a2 * vol)[:, None] * lap_u
    grad_r = (2.0 * a0) * vol[:, None] * u
    grad_r += 2.0 * (geom_left.lap @ w)
    dw = _field_differential(F, w)
    g_cot, g_area_cot = cot_adjoints(geom_left, corner_adjoints(du, dw, du, dw))
    g_dq += g_cot
    g_area += g_area_cot

    dn = fr_r.n - n
    value += c1 * float(_rowdot(dn, dn) @ area)
    gn = (2.0 * c1 * area)[:, None] * dn
    g_dr += normal_edge_grads(dr, fr_r.n, 2.0 * fr_r.area, gn)
    g_dq += normal_edge_grads(dq, n, s, -gn)
    g_area += c1 * _rowdot(dn, dn)

    g_area += _vertex_thirds(F, g_vol)
    g_dq += area_edge_grads(dq, n, g_area)
    grad_l = scatter_corners(F, edge_corners(g_dq), mesh.n_vertices) - grad_r
    grad_r += scatter_corners(F, edge_corners(g_dr), mesh.n_vertices)
    return value, grad_l, grad_r


def path_energy_with_grads(knots, faces, coefficients):
    """Path energy ``T * sum_t E(q_t, q_{t+1})`` and its ``(T+1, N, 3)`` knot gradient.

    ``knots`` are the vertex arrays of a path on ``faces``.  The steps run
    in passes over consecutive steps, each holding at most ``PASS_FACES``
    faces (and at least one step): a pass is one
    :func:`step_energy_discrete_with_grads` call on the disjoint union of
    its left knots (:func:`metric._union_geometry`), whose right vertices
    are its right knots.  A degenerate face of either raises
    ``DegenerateFaceError`` with its template face index, naming the knot.
    """
    knots = np.asarray(knots, dtype=np.float64)
    T = len(knots) - 1
    M = len(faces)
    steps = max(1, PASS_FACES // max(M, 1))
    total = 0.0
    grads = np.zeros(knots.shape)
    for start in range(0, T, steps):
        stop = min(start + steps, T)
        geom = _union_geometry(knots[start:stop], faces, start)
        try:
            value, grad_l, grad_r = step_energy_discrete_with_grads(
                geom, knots[start + 1:stop + 1].reshape(-1, 3), coefficients
            )
        except DegenerateFaceError as exc:  # the right knots' unit normals
            raise _name_knot(exc, M, start + 1) from exc
        total += value
        grads[start:stop] += grad_l.reshape(stop - start, -1, 3)
        grads[start + 1:stop + 1] += grad_r.reshape(stop - start, -1, 3)
    return T * total, T * grads
