"""Hand-derived vertex gradients of the discrete metric energies.

Everything here is internal machinery for the solvers.  Two functionals are
differentiated with respect to vertex positions:

* the analytic metric inner product ``G_q(u, v)`` at a mesh ``q`` with the
  vertex fields ``u, v`` held fixed (the foot-point derivative used by the
  latent-space path energy), and
* the discrete one-step path energy between a left mesh ``q`` and right
  vertex positions ``r``, where metric-tensor and normal variations are
  finite differences and all weights live on ``q``.

Gradients are assembled per face from a handful of adjoint channels (area,
unit normal, edge matrix, vertex volume, cotangent weights) and scattered to
vertices.  Each channel is exercised against central finite differences by
the test suite; the algebra is unforgiving, the tests are not optional.
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
    V = mesh.vertices
    fr = geom.frames
    G = geom.ginv
    dq = fr.dq
    e1 = dq[:, :, 0]
    e2 = dq[:, :, 1]
    n = fr.n
    area = fr.area
    s = 2.0 * area
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    M = F.shape[0]
    N = V.shape[0]
    grad = np.zeros((N, 3))
    g_area = np.zeros(M)
    g_dq = np.zeros((M, 3, 2))
    g_vol = np.zeros(N)
    ge1 = np.zeros((M, 3))
    ge2 = np.zeros((M, 3))

    du = _field_differential(F, u)
    dv = _field_differential(F, v)

    if a0:
        g_vol += a0 * _rowdot(u, v)

    # For antisymmetric X, Y: tr(G X G Y^T) = -tr(G X G Y), so the rotation
    # term d1 is the shear form a1 on the antisymmetric parts, weighted -d1.
    # Per face a pass contributes area tr(X Ax) = area tr(Y Ay), where Ax is
    # built from Y and Ay from X.
    pu = dq.swapaxes(1, 2) @ du
    pv = dq.swapaxes(1, 2) @ dv
    for c, b, part in ((a1, b1, np.add), (-d1, 0.0, np.subtract)):
        if not (c or b):
            continue
        X = part(pu, pu.swapaxes(1, 2))
        Y = part(pv, pv.swapaxes(1, 2))
        GX = G @ X
        GY = G @ Y
        Ax = c * (GY @ G) + b * np.trace(GY, axis1=1, axis2=2)[:, None, None] * G
        Ay = c * (GX @ G) + b * np.trace(GX, axis1=1, axis2=2)[:, None, None] * G
        g_area += np.einsum("mab,mba->m", X, Ax)
        # the last product is the inverse-metric channel, d(G) = -G d(g) G
        g_dq += (2.0 * area)[:, None, None] * (
            du @ Ax + dv @ Ay - dq @ (G @ (X @ Ax + Y @ Ay))
        )

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

    if a2:
        lap_u = geom.lap @ u
        lap_v = geom.lap @ v
        g_vol += a2 * _rowdot(lap_u, lap_v)
        add_cot_channel(
            grad, V, F, a2 * _laplacian_edge_lambda(F, geom.vol, u, lap_u, v, lap_v)
        )

    # vertex volumes distribute one third of each incident area
    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0

    da1, da2 = area_edge_grads(e1, e2, n, g_area)
    ge1 += da1 + g_dq[:, :, 0]
    ge2 += da2 + g_dq[:, :, 1]
    scatter_edge_grads(grad, F, ge1, ge2)
    return grad


def step_energy_discrete(geom_left, right_vertices, coefficients):
    """Discrete one-step energy with finite-difference variations."""
    return _step_discrete(geom_left, right_vertices, coefficients, want_grads=False)[0]


def step_energy_discrete_with_grads(geom_left, right_vertices, coefficients):
    """Discrete one-step energy and its gradients w.r.t. both vertex sets.

    Returns
    -------
    (float, ndarray, ndarray)
        Energy, gradient w.r.t. the left mesh vertices, gradient w.r.t. the
        right vertex positions.
    """
    return _step_discrete(geom_left, right_vertices, coefficients, want_grads=True)


def _step_discrete(geom, vr, coefficients, want_grads):
    mesh = geom.mesh
    F = mesh.faces
    V = mesh.vertices
    fr = geom.frames
    G = geom.ginv
    dq = fr.dq
    e1 = dq[:, :, 0]
    e2 = dq[:, :, 1]
    n = fr.n
    area = fr.area
    vol = geom.vol
    a0, a1, b1, c1, d1, a2 = coefficients.as_array()

    M = F.shape[0]
    N = V.shape[0]
    u = vr - V
    dr = np.stack([vr[F[:, 1]] - vr[F[:, 0]], vr[F[:, 2]] - vr[F[:, 0]]], axis=2)

    value = 0.0
    if want_grads:
        grad_l = np.zeros((N, 3))
        grad_r = np.zeros((N, 3))
        g_area = np.zeros(M)
        g_dql = np.zeros((M, 3, 2))
        g_dr = np.zeros((M, 3, 2))
        g_vol = np.zeros(N)
        gl_e1 = np.zeros((M, 3))
        gl_e2 = np.zeros((M, 3))
        gr_e1 = np.zeros((M, 3))
        gr_e2 = np.zeros((M, 3))

    if a0:
        value += a0 * float(_rowdot(u, u) @ vol)
        if want_grads:
            d = (2.0 * a0) * vol[:, None] * u
            grad_r += d
            grad_l -= d
            g_vol += a0 * _rowdot(u, u)

    if a1 or b1:
        gr = np.einsum("mia,mib->mab", dr, dr)
        X = gr - fr.g
        GX = np.einsum("mab,mbc->mac", G, X)
        if a1:
            tr_sq = np.einsum("mab,mba->m", GX, GX)
            value += a1 * float(tr_sq @ area)
            if want_grads:
                GXG = np.einsum("mab,mbc->mac", GX, G)
                C = 2.0 * GXG  # dT/dX, symmetric
                Sr = a1 * area[:, None, None] * C
                g_dr += 2.0 * np.einsum("mia,mab->mib", dr, Sr)
                g_dql -= 2.0 * np.einsum("mia,mab->mib", dq, Sr)
                Sg = (-2.0 * a1 * area)[:, None, None] * np.einsum(
                    "mab,mbc->mac", GX, GXG
                )
                g_dql += 2.0 * np.einsum("mia,mab->mib", dq, Sg)
                g_area += a1 * tr_sq
        if b1:
            trGX = np.einsum("maa->m", GX)
            value += b1 * float((trGX**2) @ area)
            if want_grads:
                Sr = (2.0 * b1 * area * trGX)[:, None, None] * G
                g_dr += 2.0 * np.einsum("mia,mab->mib", dr, Sr)
                g_dql -= 2.0 * np.einsum("mia,mab->mib", dq, Sr)
                GXG = np.einsum("mab,mbc->mac", GX, G)
                Sg = (-2.0 * b1 * area * trGX)[:, None, None] * GXG
                g_dql += 2.0 * np.einsum("mia,mab->mib", dq, Sg)
                g_area += b1 * trGX**2

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
        if want_grads:
            gn = (2.0 * c1 * area)[:, None] * dn
            r1, r2 = normal_edge_grads(dr[:, :, 0], dr[:, :, 1], nr, sr, gn)
            gr_e1 += r1
            gr_e2 += r2
            l1, l2 = normal_edge_grads(e1, e2, n, 2.0 * area, -gn)
            gl_e1 += l1
            gl_e2 += l2
            g_area += c1 * _rowdot(dn, dn)

    if d1:
        Xi = np.einsum("mia,mib->mab", dq, dr)
        Xi = Xi - Xi.transpose(0, 2, 1)
        GXi = np.einsum("mab,mbc->mac", G, Xi)
        GXiG = np.einsum("mab,mbc->mac", GXi, G)
        value += d1 * float(np.einsum("mab,mbc,mcd,mad->m", G, Xi, G, Xi) @ area)
        if want_grads:
            C = 2.0 * GXiG  # dT/dXi (Frobenius), antisymmetric
            Aw = (d1 * area)[:, None, None]
            g_dr += 2.0 * Aw * np.einsum("mia,mab->mib", dq, C)
            g_dql -= 2.0 * Aw * np.einsum("mia,mab->mib", dr, C)
            Sg = (2.0 * d1 * area)[:, None, None] * np.einsum("mab,mbc->mac", GXi, GXiG)
            g_dql += 2.0 * np.einsum("mia,mab->mib", dq, Sg)
            g_area += d1 * np.einsum("mab,mbc,mcd,mad->m", G, Xi, G, Xi)

    if a2:
        lap_u = geom.lap @ u
        value += a2 * float(_rowdot(lap_u, lap_u) @ vol)
        if want_grads:
            d = (2.0 * a2) * (geom.lap @ (vol[:, None] * lap_u))
            grad_r += d
            grad_l -= d
            g_vol += a2 * _rowdot(lap_u, lap_u)
            add_cot_channel(
                grad_l, V, F, a2 * _laplacian_edge_lambda(F, vol, u, lap_u, u, lap_u)
            )

    if not want_grads:
        return value, None, None

    g_area += (g_vol[F[:, 0]] + g_vol[F[:, 1]] + g_vol[F[:, 2]]) / 3.0
    da1, da2 = area_edge_grads(e1, e2, n, g_area)
    gl_e1 += da1 + g_dql[:, :, 0]
    gl_e2 += da2 + g_dql[:, :, 1]
    gr_e1 += g_dr[:, :, 0]
    gr_e2 += g_dr[:, :, 1]
    scatter_edge_grads(grad_l, F, gl_e1, gl_e2)
    scatter_edge_grads(grad_r, F, gr_e1, gr_e2)
    return value, grad_l, grad_r
