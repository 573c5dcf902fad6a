"""Hand-derived vertex gradients of the discrete metric energies.

Everything here is internal machinery for the solvers.  Two functionals are
differentiated with respect to vertex positions:

* the analytic metric inner product ``G_q(u, v)`` at a mesh ``q`` with the
  vertex fields ``u, v`` held fixed (the foot-point derivative used by the
  latent-space path energy), and
* the discrete one-step path energy between a left mesh ``q`` and right
  vertex positions ``r``, with all weights on ``q``.  It is the analytic
  form at ``u = r - q`` with ``du^T du`` added to the symmetric part
  ``dq^T du + du^T dq``, which makes that part the finite difference
  ``dr^T dr - dq^T dq`` of the metric tensor; only the normal term is its
  own finite difference of unit normals.

Both share the per-face trace form of the a1, b1 and d1 terms
(:func:`trace_form`) and the per-vertex a0 and a2 terms
(:func:`vertex_terms`).  Edges, unit normals and areas are read from
:func:`mesh.face_frames`, the single source of per-face geometry.
Gradients are assembled per face from a handful of adjoint channels (area,
unit normal, edge matrix, vertex volume, cotangent weights) into one
``(M, 3, 3)`` array of per-corner gradients, which the one scatter,
:func:`mesh.scatter_corners`, sums onto the vertices.  Each channel is
exercised against central finite differences by the test suite; the
algebra is unforgiving, the tests are not optional.
"""

from __future__ import annotations

import numpy as np

from .mesh import _OPPOSITE, face_frames, scatter_corners
from .metric import _field_differential, _normal_variation


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def edge_corners(g_e):
    """Per-corner gradients ``(M, 3, 3)`` of edge-matrix gradients ``(M, 3, 2)``.

    The edge matrix of a face is ``[v1 - v0, v2 - v0]``.
    """
    return np.concatenate([-g_e.sum(axis=2)[:, None], g_e.swapaxes(1, 2)], axis=1)


def cross_edge_grads(dq, p):
    """Edge-matrix gradients of ``sum_f <p_f, e1_f x e2_f>`` for ``dq = [e1, e2]``."""
    return np.stack([np.cross(dq[:, :, 1], p), np.cross(p, dq[:, :, 0])], axis=2)


def area_edge_grads(dq, n, g_area):
    """Edge-matrix gradients of ``sum_f g_area_f * area_f``."""
    return cross_edge_grads(dq, 0.5 * g_area[:, None] * n)


def normal_edge_grads(dq, n, s, g_n):
    """Edge-matrix gradients of ``sum_f <g_n_f, n_f>`` for unit normals ``n = c/s``."""
    return cross_edge_grads(dq, (g_n - n * _rowdot(n, g_n)[:, None]) / s[:, None])


def add_cot_channel(corners, geom, lam):
    """Accumulate gradients of ``sum_{f, corner} lam[f, corner] * cot(angle)`` on the corners.

    The angle at corner ``k`` spans the edges ``a``, ``b`` to the two other
    corners in cyclic order, so ``a x b`` is the face's ``2 * area * n`` from
    ``geom.frames``.  ``lam`` is typically the adjoint of the Laplacian edge
    weight opposite that corner.
    """
    x = geom.mesh.vertices[geom.mesh.faces]  # corner positions, (M, 3, 3)
    s = 2.0 * geom.frames.area[:, None]
    n = geom.frames.n
    for corner, (ia, ib) in enumerate(_OPPOSITE):
        a = x[:, ia] - x[:, corner]
        b = x[:, ib] - x[:, corner]
        lam_c = lam[:, corner][:, None]
        q = lam_c * _rowdot(a, b)[:, None] / s**2
        ga = lam_c * b / s - q * np.cross(b, n)
        gb = lam_c * a / s - q * np.cross(n, a)
        corners[:, ia] += ga
        corners[:, ib] += gb
        corners[:, corner] -= ga + gb


def _laplacian_edge_lambda(faces, vol, u, lap_u, v, lap_v):
    """Per-face-corner adjoints of the cotangent weights for the a2 term.

    Corner ``k`` owns the cotangent feeding edge ``(i, j)``; its adjoint is
    ``(u_i - u_j).(vol_i (Lv)_i - vol_j (Lv)_j)`` plus the ``u <-> v`` term,
    which is the same term again when ``v is u``.
    """
    lam = np.empty((faces.shape[0], 3))
    wv = vol[:, None] * lap_v
    wu = wv if v is u else vol[:, None] * lap_u
    for corner, (ia, ib) in enumerate(_OPPOSITE):
        i = faces[:, ia]
        j = faces[:, ib]
        t = _rowdot(u[i] - u[j], wv[i] - wv[j])
        lam[:, corner] = t + (t if v is u else _rowdot(v[i] - v[j], wu[i] - wu[j]))
    return lam


def trace_form(G, X, Y, c, b):
    """Per-face ``c tr(G X G Y) + b tr(G X) tr(G Y)`` and its adjoint channels.

    ``X`` and ``Y`` are ``(M, 2, 2)`` stacks, both symmetric or both
    antisymmetric, and ``G`` the inverse metric tensors.  Returns
    ``(value, Ax, Ay, S)``: ``value = tr(X Ax) = tr(Y Ay)`` per face, where
    ``Ax = c G Y G + b tr(G Y) G`` and ``Ay`` likewise from ``X``, and
    ``S = G (X Ax + Y Ay)`` is the inverse-metric channel, ``d(G) = -G d(g) G``.
    """

    def adjoint(GZ):
        return c * (GZ @ G) + b * np.trace(GZ, axis1=1, axis2=2)[:, None, None] * G

    GX = G @ X
    if Y is X:
        Ax = Ay = adjoint(GX)
    else:
        Ax, Ay = adjoint(G @ Y), adjoint(GX)
    value = np.einsum("mab,mba->m", X, Ax)
    return value, Ax, Ay, G @ (X @ Ax + Y @ Ay)


def vertex_terms(geom, u, v, a0, a2, corners):
    """The a0 and a2 terms of ``G_q(u, v)`` as a per-vertex density.

    Returns ``(density, lap_v)``: the terms sum to ``density @ vol``, so the
    density is also the adjoint of the vertex volumes; ``lap_v`` is the
    Laplacian of ``v`` (``None`` without a2).  The a2 term's cotangent-weight
    adjoint is accumulated on the face ``corners``.
    """
    density = a0 * _rowdot(u, v) if a0 else np.zeros(len(u))
    lap_v = None
    if a2:
        lap_v = geom.lap @ v
        lap_u = lap_v if v is u else geom.lap @ u
        density += a2 * _rowdot(lap_u, lap_v)
        lam = _laplacian_edge_lambda(geom.mesh.faces, geom.vol, u, lap_u, v, lap_v)
        add_cot_channel(corners, geom, a2 * lam)
    return density, lap_v


def h2_vertex_gradient(geom, u, v, coefficients):
    """Gradient of the analytic ``h2_inner(q, u, v)`` w.r.t. the vertices of q.

    Parameters
    ----------
    geom : metric._MeshGeometry
        Precomputed geometry of the foot-point mesh.
    u, v : ndarray, (N, 3)
        Fixed vertex fields.  With ``v is u`` the second field's
        differential, trace-form part and normal variation are those of the
        first; the result equals that for a copy of ``u``.
    """
    mesh = geom.mesh
    F = mesh.faces
    fr = geom.frames
    dq = fr.dq
    n = fr.n
    area = fr.area
    s = 2.0 * area
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    M = F.shape[0]
    corners = np.zeros((M, 3, 3))
    g_area = np.zeros(M)
    g_dq = np.zeros((M, 3, 2))

    du = _field_differential(F, u)
    dv = du if v is u else _field_differential(F, v)

    # For antisymmetric X, Y: tr(G X G Y^T) = -tr(G X G Y), so the rotation
    # term d1 is the shear form a1 on the antisymmetric parts, weighted -d1.
    pu = dq.swapaxes(1, 2) @ du
    pv = pu if v is u else dq.swapaxes(1, 2) @ dv
    for c, b, part in ((a1, b1, np.add), (-d1, 0.0, np.subtract)):
        if not (c or b):
            continue
        X = part(pu, pu.swapaxes(1, 2))
        Y = X if v is u else part(pv, pv.swapaxes(1, 2))
        value, Ax, Ay, S = trace_form(geom.ginv, X, Y, c, b)
        g_area += value
        g_dq += s[:, None, None] * (du @ Ax + dv @ Ay - dq @ S)

    if c1:
        dnu, wu = _normal_variation(fr, du)
        dnv, wv = (dnu, wu) if v is u else _normal_variation(fr, dv)
        g_area += c1 * _rowdot(dnu, dnv)

        def normal_pass(dn_self, dn_other, w_self, dh):
            """Edge adjoints of ``c1 <dn_self, dn_other> area`` through ``dn_self``."""
            t = (c1 * area)[:, None] * dn_other  # adjoint of dn_self; t is normal-free
            a_c = (
                -(_rowdot(n, w_self) / s**2)[:, None] * t
                - (_rowdot(t, dn_self) / s)[:, None] * n
            )
            return cross_edge_grads(dh, t / s[:, None]) + cross_edge_grads(dq, a_c)

        g_u = normal_pass(dnu, dnv, wu, du)
        g_dq += g_u + (g_u if v is u else normal_pass(dnv, dnu, wv, dv))

    g_vol, _ = vertex_terms(geom, u, v, a0, a2, corners)
    # vertex volumes distribute one third of each incident area
    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0

    g_dq += area_edge_grads(dq, n, g_area)
    return scatter_corners(F, corners + edge_corners(g_dq), mesh.n_vertices)


def step_energy_discrete(geom_left, right_vertices, coefficients):
    """Discrete one-step energy with finite-difference variations."""
    return step_energy_discrete_with_grads(geom_left, right_vertices, coefficients)[0]


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

    M = F.shape[0]
    u = right_vertices - mesh.vertices
    du = _field_differential(F, u)
    dr = _field_differential(F, right_vertices)
    corners = np.zeros((M, 3, 3))
    g_area = np.zeros(M)
    g_dq = np.zeros((M, 3, 2))
    g_dr = np.zeros((M, 3, 2))

    g_vol, lap_u = vertex_terms(geom_left, u, u, a0, a2, corners)
    value = float(g_vol @ vol)
    grad_r = (2.0 * a0) * vol[:, None] * u
    if a2:
        grad_r += (2.0 * a2) * (geom_left.lap @ (vol[:, None] * lap_u))

    # dr^T dr - dq^T dq = (dq^T du + du^T dq) + du^T du and
    # dq^T dr - dr^T dq = dq^T du - du^T dq; along a variation e of dr the
    # parts change by w^T e +- e^T w
    pu = dq.swapaxes(1, 2) @ du
    for c, b, X, w in (
        (a1, b1, pu + pu.swapaxes(1, 2) + du.swapaxes(1, 2) @ du, dr),
        (-d1, 0.0, pu - pu.swapaxes(1, 2), -dq),
    ):
        if not (c or b):
            continue
        t, Ax, _, S = trace_form(geom_left.ginv, X, X, c, b)
        value += float(t @ area)
        g_area += t
        g_dq += (2.0 * area)[:, None, None] * (2.0 * ((du - w) @ Ax) - dq @ S)
        g_dr += (4.0 * area)[:, None, None] * (w @ Ax)

    if c1:
        fr_r = face_frames(mesh.with_vertices(right_vertices, validate=False))
        dn = fr_r.n - n
        value += c1 * float(_rowdot(dn, dn) @ area)
        gn = (2.0 * c1 * area)[:, None] * dn
        g_dr += normal_edge_grads(dr, fr_r.n, 2.0 * fr_r.area, gn)
        g_dq += normal_edge_grads(dq, n, 2.0 * area, -gn)
        g_area += c1 * _rowdot(dn, dn)

    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0
    g_dq += area_edge_grads(dq, n, g_area)
    grad_l = scatter_corners(F, corners + edge_corners(g_dq), mesh.n_vertices) - grad_r
    grad_r += scatter_corners(F, edge_corners(g_dr), mesh.n_vertices)
    return value, grad_l, grad_r
