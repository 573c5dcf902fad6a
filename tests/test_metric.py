import dataclasses

import numpy as np
import pytest

from elsa import (
    MetricCoefficients,
    TriangleMesh,
    cotan_laplacian,
    face_frames,
    h2_inner,
    h2_inner_terms,
    metric_terms,
    path_energy,
    vertex_volumes,
)
from elsa.mesh import DegenerateFaceError, FaceFrames, MeshError
from elsa.metric import _union_geometry, _union_tail

import synthetic as syn

BODY = MetricCoefficients.bodies()
A0_ONLY = MetricCoefficients(1.0, 0, 0, 0, 0, 0)


def _naive_terms(mesh, h, k):
    """Independent per-face/per-vertex loop oracle for the six metric terms."""
    v = mesh.vertices
    vol = vertex_volumes(mesh)
    lap_h = cotan_laplacian(mesh) @ h
    lap_k = cotan_laplacian(mesh) @ k
    t = np.zeros(6)
    t[0] = sum(float(h[i] @ k[i]) * vol[i] for i in range(mesh.n_vertices))
    t[5] = sum(float(lap_h[i] @ lap_k[i]) * vol[i] for i in range(mesh.n_vertices))
    for f0, f1, f2 in mesh.faces:
        dq = np.column_stack([v[f1] - v[f0], v[f2] - v[f0]])
        dh = np.column_stack([h[f1] - h[f0], h[f2] - h[f0]])
        dk = np.column_stack([k[f1] - k[f0], k[f2] - k[f0]])
        g = dq.T @ dq
        ginv = np.linalg.inv(g)
        cross = np.cross(dq[:, 0], dq[:, 1])
        s = np.linalg.norm(cross)
        area = 0.5 * s
        n = cross / s
        dgh = dq.T @ dh + dh.T @ dq
        dgk = dq.T @ dk + dk.T @ dq
        proj = np.eye(3) - np.outer(n, n)
        dnh = proj @ (np.cross(dh[:, 0], dq[:, 1]) + np.cross(dq[:, 0], dh[:, 1])) / s
        dnk = proj @ (np.cross(dk[:, 0], dq[:, 1]) + np.cross(dq[:, 0], dk[:, 1])) / s
        xih = dq.T @ dh - dh.T @ dq
        xik = dq.T @ dk - dk.T @ dq
        t[1] += np.trace(ginv @ dgh @ ginv @ dgk) * area
        t[2] += np.trace(ginv @ dgh) * np.trace(ginv @ dgk) * area
        t[3] += float(dnh @ dnk) * area
        t[4] += np.trace(ginv @ xih @ ginv @ xik.T) * area
    return t


def test_coefficients_validation():
    with pytest.raises(ValueError):
        MetricCoefficients(-1, 0, 0, 0, 0, 0)
    assert BODY.is_nondegenerate
    assert MetricCoefficients(1, 0, 0, 0, 0, 1).is_nondegenerate
    assert not MetricCoefficients(0, 1, 1, 1, 1, 1).is_nondegenerate
    assert not MetricCoefficients(1, 1, 0, 1, 1, 0).is_nondegenerate


def test_degenerate_coefficients_warn_not_error():
    mesh = syn.icosphere(1)
    h = syn.random_field(mesh, 0, 0.1)
    with pytest.warns(UserWarning):
        value = h2_inner(mesh, h, h, MetricCoefficients(0, 1, 1, 1, 1, 1))
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# metric terms (analytic variations)
# ---------------------------------------------------------------------------


def test_terms_vanish_for_constant_field():
    mesh = syn.icosphere(1)
    h = np.tile([0.2, -0.7, 1.0], (mesh.n_vertices, 1))
    t = metric_terms(mesh, h)
    assert np.max(np.abs(t.dg)) < 1e-14
    assert np.max(np.abs(t.dn)) < 1e-14
    assert np.max(np.abs(t.dh)) < 1e-14


def test_normal_field_on_flat_triangle():
    # field proportional to the plane normal: analytic metric variation is
    # exactly zero, the finite difference of g is second order in epsilon
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0.2, 1.1, 0]], [[0, 1, 2]])
    weights = np.array([0.5, -1.0, 2.0])
    h = np.outer(weights, [0, 0, 1.0])
    t = metric_terms(mesh, h)
    assert np.max(np.abs(t.dg)) < 1e-14
    for eps in (1e-3, 1e-4):
        moved = mesh.with_vertices(mesh.vertices + eps * h)
        gap = face_frames(moved).g - face_frames(mesh).g
        assert np.max(np.abs(gap)) < 4.0 * eps**2 * np.max(np.abs(h)) ** 2


def test_metric_variation_matches_finite_difference():
    rng = np.random.default_rng(11)
    for seed in range(5):
        mesh = syn.bumpy_mesh(40, seed=seed)
        h = rng.standard_normal((mesh.n_vertices, 3))
        t = metric_terms(mesh, h)
        eps = 1e-5
        plus = face_frames(mesh.with_vertices(mesh.vertices + eps * h))
        minus = face_frames(mesh.with_vertices(mesh.vertices - eps * h))
        fd_g = (plus.g - minus.g) / (2 * eps)
        fd_n = (plus.n - minus.n) / (2 * eps)
        assert np.max(np.abs(t.dg - fd_g)) < 1e-6 * max(1.0, np.max(np.abs(fd_g)))
        assert np.max(np.abs(t.dn - fd_n)) < 1e-6 * max(1.0, np.max(np.abs(fd_n)))


# ---------------------------------------------------------------------------
# inner product
# ---------------------------------------------------------------------------


def test_constant_field_a0_only_closed_form():
    mesh = syn.icosphere(2)
    vvec = np.array([0.3, -0.2, 0.9])
    h = np.tile(vvec, (mesh.n_vertices, 1))
    total_area = face_frames(mesh).area.sum()
    expected = 2.5 * float(vvec @ vvec) * total_area
    got = h2_inner(mesh, h, h, MetricCoefficients(2.5, 0, 0, 0, 0, 0))
    assert got == pytest.approx(expected, rel=1e-12)


def test_zero_and_symmetry():
    mesh = syn.bumpy_mesh(50, seed=3)
    zero = np.zeros((mesh.n_vertices, 3))
    assert h2_inner(mesh, zero, zero, BODY) == 0.0
    h = syn.random_field(mesh, 4, 0.3)
    k = syn.random_field(mesh, 5, 0.3)
    hk = h2_inner(mesh, h, k, BODY)
    kh = h2_inner(mesh, k, h, BODY)
    assert hk == pytest.approx(kh, rel=1e-12)


def test_bilinearity():
    mesh = syn.bumpy_mesh(40, seed=6)
    h = syn.random_field(mesh, 7, 0.2)
    k = syn.random_field(mesh, 8, 0.2)
    l = syn.random_field(mesh, 9, 0.2)
    left = h2_inner(mesh, 2.0 * h + 3.0 * k, l, BODY)
    right = 2.0 * h2_inner(mesh, h, l, BODY) + 3.0 * h2_inner(mesh, k, l, BODY)
    assert left == pytest.approx(right, rel=1e-10)


def test_body_coefficients_against_naive_oracle():
    mesh = syn.bumpy_mesh(30, seed=10)
    h = syn.random_field(mesh, 11, 0.2)
    k = syn.random_field(mesh, 12, 0.2)
    terms = h2_inner_terms(mesh, h, k)
    oracle = _naive_terms(mesh, h, k)
    assert np.allclose(terms, oracle, rtol=1e-9, atol=1e-12)
    value = h2_inner(mesh, h, k, BODY)
    assert value == pytest.approx(float(BODY.as_array() @ oracle), rel=1e-9)
    assert h2_inner(mesh, h, h, BODY) > 0


def test_per_coefficient_linear_scaling():
    mesh = syn.bumpy_mesh(30, seed=13)
    h = syn.random_field(mesh, 14, 0.2)
    base = h2_inner_terms(mesh, h, h)
    for idx in range(6):
        coeffs = [0.0] * 6
        coeffs[idx] = 2.0
        doubled = MetricCoefficients(*coeffs)
        with pytest.warns(UserWarning):
            val = h2_inner(mesh, h, h, doubled)
        assert val == pytest.approx(2.0 * base[idx], rel=1e-12, abs=1e-15)


def test_rigid_motion_invariance():
    mesh = syn.bumpy_mesh(40, seed=15)
    h = syn.random_field(mesh, 16, 0.2)
    k = syn.random_field(mesh, 17, 0.2)
    rot, shift = syn.rigid_motion(18)
    moved = mesh.with_vertices(mesh.vertices @ rot.T + shift)
    ref = h2_inner(mesh, h, k, BODY)
    got = h2_inner(moved, h @ rot.T, k @ rot.T, BODY)
    assert got == pytest.approx(ref, rel=1e-10)


def test_relabeling_invariance():
    mesh = syn.icosphere(1)
    h = syn.random_field(mesh, 19, 0.2)
    k = syn.random_field(mesh, 20, 0.2)
    permuted, perm = syn.permute_mesh(mesh, seed=21)
    ref = h2_inner(mesh, h, k, BODY)
    got = h2_inner(permuted, h[perm], k[perm], BODY)
    assert got == pytest.approx(ref, rel=1e-12)


def test_positive_for_nonzero_fields():
    mesh = syn.icosphere(1)
    rng = np.random.default_rng(22)
    for _ in range(10):
        h = rng.standard_normal((mesh.n_vertices, 3))
        assert h2_inner(mesh, h, h, BODY) > 0
        assert h2_inner(mesh, h, h, A0_ONLY) > 0


def test_degenerate_face_rejected():
    # near-degenerate sliver beyond the condition limit
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0.5, 1e-9, 0]], [[0, 1, 2]])
    h = np.zeros((3, 3))
    with pytest.raises(DegenerateFaceError):
        h2_inner(mesh, h, h, BODY)


# ---------------------------------------------------------------------------
# path energy (discrete differences)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start", [0, 1, 3])
def test_union_tail_matches_union_of_tail_knots(start):
    # every per-face and per-vertex quantity is summed within its own copy in
    # face order, so a slice of the union equals the union of the slice
    mesh = syn.bumpy_mesh(40, seed=3)
    K = 4
    knots = mesh.vertices * (1.0 + 0.05 * np.random.default_rng(5).standard_normal((K, 1, 1)))
    tail = _union_tail(_union_geometry(knots, mesh.faces), K, start)
    ref = _union_geometry(knots[start:], mesh.faces)
    assert np.array_equal(tail.mesh.vertices, ref.mesh.vertices)
    assert np.array_equal(tail.mesh.faces, ref.mesh.faces)
    for field in dataclasses.fields(FaceFrames):
        got, want = getattr(tail.frames, field.name), getattr(ref.frames, field.name)
        assert np.array_equal(got, want), field.name
    assert np.array_equal(tail.ginv, ref.ginv)
    assert np.array_equal(tail.vol, ref.vol)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(tail.lap, name), getattr(ref.lap, name))


def test_constant_path_zero_energy():
    mesh = syn.icosphere(1)
    assert path_energy([mesh, mesh, mesh], BODY) == 0.0


def test_translation_path_closed_form():
    mesh = syn.icosphere(1)
    shift = np.array([0.4, -0.1, 0.25])
    T = 4
    meshes = [mesh.with_vertices(mesh.vertices + (t / T) * shift) for t in range(T + 1)]
    area = face_frames(mesh).area.sum()
    expected = 3.0 * float(shift @ shift) * area
    got = path_energy(meshes, MetricCoefficients(3.0, 0, 0, 0, 0, 0))
    assert got == pytest.approx(expected, rel=1e-10)


def test_topology_mismatch_rejected():
    a = syn.icosphere(1)
    b = syn.icosphere(2)
    with pytest.raises(MeshError):
        path_energy([a, b], BODY)


def _smooth_path(mesh, T, amplitude=0.15):
    """Analytic normal-ish bulge path, smooth in time."""
    meshes = []
    for t in range(T + 1):
        tau = t / T
        factor = 1.0 + amplitude * np.sin(np.pi * tau) * np.cos(mesh.vertices[:, 2] * 4.0)
        meshes.append(mesh.with_vertices(mesh.vertices * factor[:, None]))
    return meshes


def test_refinement_changes_energy_mildly():
    mesh = syn.icosphere(1)
    e_coarse = path_energy(_smooth_path(mesh, 8), BODY)
    e_fine = path_energy(_smooth_path(mesh, 16), BODY)
    assert abs(e_fine - e_coarse) < 0.05 * e_coarse


def test_discrete_energy_approaches_analytic_quadratic_form():
    # the discrete-difference step energy converges to the analytic bilinear
    # form of the step field as the path is refined
    mesh = syn.icosphere(1)
    gaps = []
    for T in (4, 8, 16):
        meshes = _smooth_path(mesh, T)
        discrete = path_energy(meshes, BODY)
        analytic = T * sum(
            h2_inner(meshes[t], meshes[t + 1].vertices - meshes[t].vertices,
                     meshes[t + 1].vertices - meshes[t].vertices, BODY)
            for t in range(T)
        )
        gaps.append(abs(discrete - analytic) / analytic)
    assert gaps[2] < gaps[1] < gaps[0]
