import tracemalloc

import numpy as np
import pytest

from elsa import TriangleMesh, VarifoldTarget, varifold_sqdist, varifold_value_and_grad
from elsa.mesh import face_frames
from elsa.varifold import _BLOCK, _BLOCK_BYTES, _pair_pass

import synthetic as syn

SIGMA = 0.3


@pytest.mark.parametrize("sigma", [0.0, -0.1, float("nan")])
def test_sigma_must_be_positive(sigma):
    with pytest.raises(ValueError, match="sigma must be positive"):
        VarifoldTarget(syn.icosphere(0), sigma)


def test_self_distance_zero():
    mesh = syn.icosphere(2)
    assert varifold_sqdist(mesh, mesh, SIGMA) <= 1e-10 * VarifoldTarget(mesh, SIGMA).norm_sq


def test_permutation_blindness():
    mesh = syn.bumpy_mesh(60, seed=1)
    permuted, _ = syn.permute_mesh(mesh, seed=2)
    d = varifold_sqdist(mesh, permuted, SIGMA)
    assert d <= 1e-12 * VarifoldTarget(mesh, SIGMA).norm_sq


def test_two_parallel_triangles_closed_form():
    d, sigma = 0.1, 0.1
    tri = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    lifted = tri.with_vertices(tri.vertices + [0, 0, d])
    area = 0.5
    expected = 2.0 * area**2 * (1.0 - np.exp(-(d**2) / sigma**2))
    got = varifold_sqdist(tri, lifted, sigma)
    assert got == pytest.approx(expected, rel=1e-12)


def test_symmetry():
    a = syn.bumpy_mesh(50, seed=3)
    b = syn.bumpy_mesh(55, seed=4)
    ab = varifold_sqdist(a, b, SIGMA)
    ba = varifold_sqdist(b, a, SIGMA)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert ab > 0


def test_rigid_motion_invariance():
    a = syn.bumpy_mesh(50, seed=5)
    b = syn.bumpy_mesh(45, seed=6)
    rot, shift = syn.rigid_motion(7)
    a2 = a.with_vertices(a.vertices @ rot.T + shift)
    b2 = b.with_vertices(b.vertices @ rot.T + shift)
    assert varifold_sqdist(a2, b2, SIGMA) == pytest.approx(
        varifold_sqdist(a, b, SIGMA), rel=1e-10
    )


def test_orientation_flip_invariance():
    a = syn.bumpy_mesh(40, seed=8)
    b = syn.bumpy_mesh(42, seed=9)
    flipped = TriangleMesh(a.vertices, a.faces[:, [0, 2, 1]])
    assert varifold_sqdist(flipped, b, SIGMA) == pytest.approx(
        varifold_sqdist(a, b, SIGMA), rel=1e-14
    )


def test_identical_atom_multisets_give_zero():
    # same faces listed in a different order with permuted vertices: the atom
    # multiset is unchanged, distance is exactly zero after clamping
    mesh = syn.icosphere(1)
    permuted, _ = syn.permute_mesh(mesh, seed=10)
    assert varifold_sqdist(mesh, permuted, 0.05) <= 1e-12 * VarifoldTarget(mesh, 0.05).norm_sq


def test_distance_to_faceless_mesh_is_the_other_norm():
    # a mesh with no faces has no atoms: its varifold is zero
    tri = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    bare = TriangleMesh(tri.vertices, np.empty((0, 3), dtype=int))
    norm_sq = VarifoldTarget(tri, SIGMA).norm_sq
    assert norm_sq > 0
    assert VarifoldTarget(bare, SIGMA).norm_sq == 0.0
    assert varifold_sqdist(tri, bare, SIGMA) == norm_sq
    value, grad = varifold_value_and_grad(bare, VarifoldTarget(tri, SIGMA))
    assert value == norm_sq
    assert grad.shape == (3, 3) and not grad.any()


def test_two_faceless_meshes_at_distance_zero():
    a = TriangleMesh([[0, 0, 0], [1, 0, 0]], np.empty((0, 3), dtype=int))
    b = TriangleMesh([[0, 2, 0]], np.empty((0, 3), dtype=int))
    value, grad = varifold_value_and_grad(a, VarifoldTarget(b, SIGMA))
    assert value == 0.0
    assert grad.shape == (2, 3) and not grad.any()


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_vanishes_at_coincidence():
    mesh = syn.icosphere(1)
    g = varifold_value_and_grad(mesh, VarifoldTarget(mesh, SIGMA))[1]
    scale = VarifoldTarget(mesh, SIGMA).norm_sq
    assert np.max(np.abs(g)) < 1e-8 * max(1.0, scale)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    a = syn.bumpy_mesh(30, seed=12)
    b = syn.bumpy_mesh(25, seed=13)
    grad = varifold_value_and_grad(a, VarifoldTarget(b, SIGMA))[1]
    faces = a.faces

    def fun(x):
        return varifold_sqdist(TriangleMesh(x, faces, validate=False), b, SIGMA)

    eps = 1e-6
    for _ in range(6):
        d = rng.standard_normal(a.vertices.shape)
        fd = (fun(a.vertices + eps * d) - fun(a.vertices - eps * d)) / (2 * eps)
        got = float(grad.ravel() @ d.ravel())
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9 * max(1.0, abs(fd)))


def test_translation_directional_derivative():
    # moving mesh a rigidly changes only the cross term; the derivative along
    # the translation equals the analytic cross-term derivative
    a = syn.bumpy_mesh(30, seed=14)
    b = syn.bumpy_mesh(28, seed=15)
    t = np.array([0.3, -0.2, 0.5])
    grad = varifold_value_and_grad(a, VarifoldTarget(b, SIGMA))[1]
    got = float(grad.sum(axis=0) @ t)

    fa = face_frames(a)
    fb = face_frames(b)
    inv_s2 = 1.0 / SIGMA**2
    diff = fa.centers[:, None, :] - fb.centers[None, :, :]
    d2 = np.sum(diff**2, axis=2)
    dots = fa.n @ fb.n.T
    kern = np.exp(-d2 * inv_s2) * dots**2
    w = fa.area[:, None] * fb.area[None, :]
    # d/dt [-2 <a+t, b>] = 4/sigma^2 sum k * (c_a - c_b) . t * w
    expected = float(np.sum(4.0 * inv_s2 * kern * w * (diff @ t)))
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# cached target and fused value and gradient
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.3, 0.1])
def test_fused_equals_reference_across_blocks(sigma):
    # both meshes exceed the row cap, so every pass runs full blocks and a tail
    a = syn.icosphere(3)
    b = syn.bumpy_mesh(560, seed=16)
    assert a.n_faces > _BLOCK and b.n_faces > _BLOCK
    value, _ = varifold_value_and_grad(a, VarifoldTarget(b, sigma))
    assert value == varifold_sqdist(a, b, sigma)


def test_fused_equals_reference_small():
    a = syn.bumpy_mesh(30, seed=12)
    b = syn.bumpy_mesh(25, seed=13)
    value, _ = varifold_value_and_grad(a, VarifoldTarget(b, SIGMA))
    assert value == varifold_sqdist(a, b, SIGMA)


def test_fused_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    a = syn.bumpy_mesh(30, seed=18)
    target = VarifoldTarget(syn.bumpy_mesh(25, seed=19), SIGMA)
    _, grad = varifold_value_and_grad(a, target)
    faces = a.faces

    def fun(x):
        return varifold_value_and_grad(TriangleMesh(x, faces, validate=False), target)[0]

    eps = 1e-6
    for _ in range(6):
        d = rng.standard_normal(a.vertices.shape)
        fd = (fun(a.vertices + eps * d) - fun(a.vertices - eps * d)) / (2 * eps)
        got = float(grad.ravel() @ d.ravel())
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9 * max(1.0, abs(fd)))


def _dense_pair_pass(fa, fb, sigma):
    """Pair sum and atom gradients from the direct differences c_a - c_b."""
    diff = fa.centers[:, None, :] - fb.centers[None, :, :]
    expo = np.exp(-np.sum(diff**2, axis=2) / sigma**2)
    dots = fa.n @ fb.n.T
    w = fa.area[:, None] * fb.area[None, :]
    kern = expo * dots**2
    total = float(np.sum(kern * w))
    gc = -2.0 / sigma**2 * np.sum((kern * w)[:, :, None] * diff, axis=1)
    gn = (2.0 * expo * dots * w) @ fb.n
    ga = kern @ fb.area
    return total, gc, gn, ga


def _self_pair():
    mesh = syn.uv_sphere(26, 40)
    return mesh, mesh


@pytest.mark.parametrize("sigma", [0.1, 0.3])
@pytest.mark.parametrize("meshes", [
    lambda: (syn.icosphere(2), syn.uv_sphere(26, 40)),  # 10 full blocks of a
    lambda: (syn.icosphere(3), syn.bumpy_mesh(560, seed=16)),  # 22 blocks of a and a tail
    _self_pair,  # 62 blocks and a tail, against itself: a target's <b,b>
])
def test_pair_pass_matches_dense_oracle(meshes, sigma):
    a, b = meshes()
    fa, fb = face_frames(a), face_frames(b)
    got = _pair_pass(fa.centers, fa.n, fa.area, fb.centers, fb.n, fb.area, sigma)
    want = _dense_pair_pass(fa, fb, sigma)
    assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-11 * np.max(np.abs(w))
    if a is b:
        # the target's value-only pass sums the same products
        assert VarifoldTarget(a, (sigma)).norm_sq == got[0]


def test_target_build_holds_at_most_three_blocks():
    # 2000 faces at sigma = 0.1: blocks of 32 first-mesh atoms against 2000,
    # well inside three blocks of the row cap
    mesh = syn.uv_sphere(26, 40)
    assert _BLOCK < mesh.n_faces <= 2 * _BLOCK
    tracemalloc.start()
    try:
        VarifoldTarget(mesh, (0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _BLOCK * mesh.n_faces * 8


def _traced_peak(fun):
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scratch_memory_bounded_by_block_bytes():
    # 7800 faces: 1024-row blocks would hold 2 x 1024 x 7800 x 8 B = 128 MB;
    # byte-sized blocks hold two kernel buffers and O(n) atom arrays
    # (about 290 B per face for a target build)
    mesh = syn.uv_sphere(40, 100)
    assert mesh.n_faces == 7800
    peak = _traced_peak(lambda: VarifoldTarget(mesh, 0.1))
    assert peak <= 3 * _BLOCK_BYTES + 512 * mesh.n_faces
    target = VarifoldTarget(mesh, 0.1)
    a = syn.icosphere(2)
    peak = _traced_peak(lambda: varifold_value_and_grad(a, target))
    assert peak <= 3 * _BLOCK_BYTES + 512 * (a.n_faces + mesh.n_faces)


# ---------------------------------------------------------------------------
# remeshing invariance
# ---------------------------------------------------------------------------


def _remesh_error(a, a_remeshed, sigmas):
    """``sqrt(sqdist(a, a_remeshed)) / |a_remeshed|_Var`` for each sigma."""
    out = []
    for sigma in sigmas:
        target = VarifoldTarget(a_remeshed, sigma)
        value, _ = varifold_value_and_grad(a, target)
        out.append(float(np.sqrt(value) / np.sqrt(target.norm_sq)))
    return out


def test_remeshing_error_zero_on_identity():
    mesh = syn.icosphere(1)
    errs = _remesh_error(mesh, mesh, [0.5, 0.1, 0.02])
    assert all(e <= 1e-8 for e in errs)


def test_remeshing_invariance_scales():
    # for scales well above the triangle size the error of a faithful remesh
    # stays near zero; it grows once sigma resolves individual faces
    coarse = syn.icosphere(2)
    fine = syn.subdivide_midpoint(coarse)  # same surface, 4x faces
    diam = syn.mean_triangle_diameter(coarse)
    errs = _remesh_error(coarse, fine, [2.0 * diam, 0.1 * diam])
    assert errs[0] < 0.05
    assert errs[1] > 0.05
