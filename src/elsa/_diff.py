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
(:func:`vertex_terms`).  Gradients are assembled per face from a handful of
adjoint channels (area, unit normal, edge matrix, vertex volume, cotangent
weights) and scattered to vertices.  Each channel is exercised against
central finite differences by the test suite; the algebra is unforgiving,
the tests are not optional.
"""

from __future__ import annotations

import numpy as np

from .mesh import _OPPOSITE, DegenerateFaceError
from .metric import _field_differential


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def scatter_edge_grads(grad, faces, ge1, ge2):
    """Accumulate per-face gradients w.r.t. the edges (v1-v0, v2-v0)."""
    np.add.at(grad, faces[:, 1], ge1)
    np.add.at(grad, faces[:, 2], ge2)
    np.add.at(grad, faces[:, 0], -(ge1 + ge2))


def area_edge_grads(e1, e2, n, g_area):
    """Edge gradients of ``sum_f g_area_f * area_f``."""
    w = 0.5 * g_area[:, None]
    return w * np.cross(e2, n), w * np.cross(n, e1)


def normal_edge_grads(e1, e2, n, s, g_n):
    """Edge gradients of ``sum_f <g_n_f, n_f>`` for unit normals ``n = c/s``."""
    p = (g_n - n * _rowdot(n, g_n)[:, None]) / s[:, None]
    return np.cross(e2, p), np.cross(p, e1)


def add_cot_channel(grad, vertices, faces, lam):
    """Accumulate gradients of ``sum_{f, corner} lam[f, corner] * cot(angle)``.

    The angle at corner ``k`` spans the two edges leaving ``k``; ``lam`` is
    typically the adjoint of the Laplacian edge weight opposite that corner.
    """
    for corner, (ia, ib) in enumerate(_OPPOSITE):
        i = faces[:, ia]
        j = faces[:, ib]
        k = faces[:, corner]
        a = vertices[i] - vertices[k]
        b = vertices[j] - vertices[k]
        w = np.cross(a, b)
        s = np.linalg.norm(w, axis=1)
        d = _rowdot(a, b)
        lam_c = lam[:, corner][:, None]
        ds3 = (d / s**3)[:, None]
        ga = b / s[:, None] - ds3 * np.cross(b, w)
        gb = a / s[:, None] - ds3 * np.cross(w, a)
        np.add.at(grad, i, lam_c * ga)
        np.add.at(grad, j, lam_c * gb)
        np.add.at(grad, k, -lam_c * (ga + gb))


def _laplacian_edge_lambda(faces, vol, u, lap_u, v, lap_v):
    """Per-face-corner adjoints of the cotangent weights for the a2 term.

    Corner ``k`` owns the cotangent feeding edge ``(i, j)``; its adjoint is
    ``(u_i - u_j).(vol_i (Lv)_i - vol_j (Lv)_j)`` plus the ``u <-> v`` term.
    """
    lam = np.empty((faces.shape[0], 3))
    wu = vol[:, None] * lap_u
    wv = vol[:, None] * lap_v
    for corner, (ia, ib) in enumerate(_OPPOSITE):
        i = faces[:, ia]
        j = faces[:, ib]
        lam[:, corner] = _rowdot(u[i] - u[j], wv[i] - wv[j]) + _rowdot(
            v[i] - v[j], wu[i] - wu[j]
        )
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


def vertex_terms(geom, u, v, a0, a2, grad):
    """The a0 and a2 terms of ``G_q(u, v)`` as a per-vertex density.

    Returns ``(density, lap_v)``: the terms sum to ``density @ vol``, so the
    density is also the adjoint of the vertex volumes; ``lap_v`` is the
    Laplacian of ``v`` (``None`` without a2).  The a2 term's cotangent-weight
    adjoint is accumulated into ``grad``.
    """
    density = a0 * _rowdot(u, v) if a0 else np.zeros(len(u))
    lap_v = None
    if a2:
        mesh = geom.mesh
        lap_v = geom.lap @ v
        lap_u = lap_v if v is u else geom.lap @ u
        density += a2 * _rowdot(lap_u, lap_v)
        add_cot_channel(
            grad,
            mesh.vertices,
            mesh.faces,
            a2 * _laplacian_edge_lambda(mesh.faces, geom.vol, u, lap_u, v, lap_v),
        )
    return density, lap_v


def h2_vertex_gradient(geom, u, v, coefficients):
    """Gradient of the analytic ``h2_inner(q, u, v)`` w.r.t. the vertices of q.

    Parameters
    ----------
    geom : metric._MeshGeometry
        Precomputed geometry of the foot-point mesh.
    u, v : ndarray, (N, 3)
        Fixed vertex fields.
    """
    mesh = geom.mesh
    F = mesh.faces
    fr = geom.frames
    dq = fr.dq
    e1 = dq[:, :, 0]
    e2 = dq[:, :, 1]
    n = fr.n
    area = fr.area
    s = 2.0 * area
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    M = F.shape[0]
    grad = np.zeros((mesh.n_vertices, 3))
    g_area = np.zeros(M)
    g_dq = np.zeros((M, 3, 2))
    ge1 = np.zeros((M, 3))
    ge2 = np.zeros((M, 3))

    du = _field_differential(F, u)
    dv = _field_differential(F, v)

    # For antisymmetric X, Y: tr(G X G Y^T) = -tr(G X G Y), so the rotation
    # term d1 is the shear form a1 on the antisymmetric parts, weighted -d1.
    pu = dq.swapaxes(1, 2) @ du
    pv = dq.swapaxes(1, 2) @ dv
    for c, b, part in ((a1, b1, np.add), (-d1, 0.0, np.subtract)):
        if not (c or b):
            continue
        X = part(pu, pu.swapaxes(1, 2))
        Y = part(pv, pv.swapaxes(1, 2))
        value, Ax, Ay, S = trace_form(geom.ginv, X, Y, c, b)
        g_area += value
        g_dq += (2.0 * area)[:, None, None] * (du @ Ax + dv @ Ay - dq @ S)

    if c1:
        wu = np.cross(du[:, :, 0], e2) + np.cross(e1, du[:, :, 1])
        wv = np.cross(dv[:, :, 0], e2) + np.cross(e1, dv[:, :, 1])
        dnu = (wu - n * _rowdot(n, wu)[:, None]) / s[:, None]
        dnv = (wv - n * _rowdot(n, wv)[:, None]) / s[:, None]
        g_area += c1 * _rowdot(dnu, dnv)
        for dn_self, dn_other, w_self, dh in ((dnu, dnv, wu, du), (dnv, dnu, wv, dv)):
            t = (c1 * area)[:, None] * dn_other  # adjoint of dn_self; t is normal-free
            a_w = t / s[:, None]
            ge1 += np.cross(dh[:, :, 1], a_w)
            ge2 += np.cross(a_w, dh[:, :, 0])
            a_c = (
                -(_rowdot(n, w_self) / s**2)[:, None] * t
                - (_rowdot(t, dn_self) / s)[:, None] * n
            )
            ge1 += np.cross(e2, a_c)
            ge2 += np.cross(a_c, e1)

    g_vol, _ = vertex_terms(geom, u, v, a0, a2, grad)
    # vertex volumes distribute one third of each incident area
    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0

    da1, da2 = area_edge_grads(e1, e2, n, g_area)
    ge1 += da1 + g_dq[:, :, 0]
    ge2 += da2 + g_dq[:, :, 1]
    scatter_edge_grads(grad, F, ge1, ge2)
    return grad


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
    e1 = dq[:, :, 0]
    e2 = dq[:, :, 1]
    n = fr.n
    area = fr.area
    vol = geom_left.vol
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    M = F.shape[0]
    u = right_vertices - mesh.vertices
    du = _field_differential(F, u)
    dr = _field_differential(F, right_vertices)
    grad_l = np.zeros((mesh.n_vertices, 3))
    g_area = np.zeros(M)
    g_dq = np.zeros((M, 3, 2))
    g_dr = np.zeros((M, 3, 2))
    gl_e1 = gl_e2 = 0.0  # left edge adjoints of the normal term

    g_vol, lap_u = vertex_terms(geom_left, u, u, a0, a2, grad_l)
    value = float(g_vol @ vol)
    grad_r = (2.0 * a0) * vol[:, None] * u
    if a2:
        grad_r += (2.0 * a2) * (geom_left.lap @ (vol[:, None] * lap_u))
    grad_l -= grad_r

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
        cr = np.cross(dr[:, :, 0], dr[:, :, 1])
        sr = np.linalg.norm(cr, axis=1)
        if np.any(sr <= 0.0):
            raise DegenerateFaceError(
                "zero-area face in path step", int(np.flatnonzero(sr <= 0.0)[0])
            )
        nr = cr / sr[:, None]
        dn = nr - n
        value += c1 * float(_rowdot(dn, dn) @ area)
        gn = (2.0 * c1 * area)[:, None] * dn
        r1, r2 = normal_edge_grads(dr[:, :, 0], dr[:, :, 1], nr, sr, gn)
        g_dr[:, :, 0] += r1
        g_dr[:, :, 1] += r2
        gl_e1, gl_e2 = normal_edge_grads(e1, e2, n, 2.0 * area, -gn)
        g_area += c1 * _rowdot(dn, dn)

    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0
    da1, da2 = area_edge_grads(e1, e2, n, g_area)
    scatter_edge_grads(
        grad_l, F, gl_e1 + da1 + g_dq[:, :, 0], gl_e2 + da2 + g_dq[:, :, 1]
    )
    scatter_edge_grads(grad_r, F, g_dr[:, :, 0], g_dr[:, :, 1])
    return value, grad_l, grad_r
