import re

import numpy as np
import pytest

from elsa import (
    DegenerateFaceError,
    LatentBasis,
    MetricCoefficients,
    decode,
    face_frames,
    gram,
    h2_inner,
    h2_inner_terms,
    latent_path_energy,
    load_basis,
    save_basis,
    substitute_shape_block,
)
import elsa.latent
from elsa._diff import h2_vertex_gradient
from elsa.latent import latent_path_energy_with_grad
from elsa.mesh import MeshError
from elsa.metric import _geometry

import synthetic as syn

BODY = MetricCoefficients.bodies()
A0 = MetricCoefficients(1.0, 0, 0, 0, 0, 0)


def _basis(seed=0, n_shape=2, n_pose=3):
    return syn.random_basis(syn.icosphere(1), n_shape, n_pose, seed=seed)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_zero_is_template():
    basis = _basis()
    mesh = decode(basis, np.zeros(basis.dim))
    assert np.array_equal(mesh.vertices, basis.template.vertices)
    assert np.array_equal(mesh.faces, basis.template.faces)


def test_decode_translation_field():
    template = syn.icosphere(1)
    v = np.array([0.2, -0.5, 1.0])
    fields = np.tile(v, (1, template.n_vertices, 1))
    basis = LatentBasis(template=template, fields=fields, n_shape=1, n_pose=0)
    mesh = decode(basis, np.array([2.0]))
    assert np.allclose(mesh.vertices, template.vertices + 2.0 * v, atol=1e-15)


def test_decode_matches_dense_matrix_oracle():
    basis = _basis(3)
    rng = np.random.default_rng(4)
    alpha = 0.3 * rng.standard_normal(basis.dim)
    dense = basis.fields_matrix  # (P, 3N)
    expected = basis.template.vertices.ravel() + alpha @ dense
    mesh = decode(basis, alpha)
    assert np.max(np.abs(mesh.vertices.ravel() - expected)) < 1e-12


def test_decode_is_affine():
    basis = _basis(5)
    rng = np.random.default_rng(6)
    a = 0.2 * rng.standard_normal(basis.dim)
    b = 0.2 * rng.standard_normal(basis.dim)
    lam = 0.3
    mixed = decode(basis, lam * a + (1 - lam) * b, validate=False)
    combo = lam * decode(basis, a, validate=False).vertices + (1 - lam) * decode(
        basis, b, validate=False
    ).vertices
    assert np.max(np.abs(mixed.vertices - combo)) < 1e-14


def test_rank_deficient_basis_rejected():
    template = syn.icosphere(0)
    n = template.n_vertices
    fields = np.zeros((2, n, 3))
    fields[0, :, 0] = 1.0
    fields[1, :, 0] = 2.0  # colinear with the first
    with pytest.raises(ValueError):
        LatentBasis(template=template, fields=fields, n_shape=1, n_pose=1)


def test_block_partition_validation():
    template = syn.icosphere(0)
    fields = np.zeros((2, template.n_vertices, 3))
    fields[0, :, 0] = 1.0
    fields[1, :, 1] = 1.0
    with pytest.raises(ValueError):
        LatentBasis(template=template, fields=fields, n_shape=2, n_pose=1)


# ---------------------------------------------------------------------------
# gram matrix
# ---------------------------------------------------------------------------


def test_gram_single_translation_field_closed_form():
    template = syn.icosphere(1)
    v = np.array([1.0, 2.0, -1.0])
    fields = np.tile(v, (1, template.n_vertices, 1))
    basis = LatentBasis(template=template, fields=fields, n_shape=1, n_pose=0)
    alpha = np.array([0.7])
    area = face_frames(decode(basis, alpha)).area.sum()
    g = gram(basis, alpha, A0)
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(float(v @ v) * area, rel=1e-12)


def test_gram_translation_basis_independent_of_alpha():
    basis = syn.translation_basis(syn.icosphere(1))
    g0 = gram(basis, np.zeros(3), BODY)
    g1 = gram(basis, np.array([0.5, -1.0, 2.0]), BODY)
    assert np.allclose(g0, g1, rtol=1e-12)


def test_gram_entries_match_h2_inner():
    basis = _basis(7)
    rng = np.random.default_rng(8)
    alpha = 0.2 * rng.standard_normal(basis.dim)
    g = gram(basis, alpha, BODY)
    mesh = decode(basis, alpha)
    for i in range(basis.dim):
        for j in range(basis.dim):
            ref = h2_inner(mesh, basis.fields[i], basis.fields[j], BODY)
            assert g[i, j] == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_gram_quadratic_form_matches_combined_fields():
    basis = _basis(9)
    rng = np.random.default_rng(10)
    alpha = 0.2 * rng.standard_normal(basis.dim)
    beta = rng.standard_normal(basis.dim)
    eta = rng.standard_normal(basis.dim)
    g = gram(basis, alpha, BODY)
    mesh = decode(basis, alpha)
    combined = h2_inner(
        mesh,
        np.tensordot(beta, basis.fields, axes=1),
        np.tensordot(eta, basis.fields, axes=1),
        BODY,
    )
    assert float(beta @ g @ eta) == pytest.approx(combined, rel=1e-10)


@pytest.mark.parametrize("term", ["a0", "a1", "b1", "c1", "d1", "a2"])
def test_gram_single_term_matches_h2_inner_terms(term):
    # one non-zero weight at a time isolates each term's feature map
    index = ["a0", "a1", "b1", "c1", "d1", "a2"].index(term)
    basis = syn.random_basis(syn.icosphere(2), 4, 4, seed=11)
    alpha = 0.2 * np.random.default_rng(12).standard_normal(basis.dim)
    g = gram(basis, alpha, MetricCoefficients(*np.eye(6)[index]))
    mesh = decode(basis, alpha)
    ref = np.array(
        [[h2_inner_terms(mesh, hi, hj)[index] for hj in basis.fields] for hi in basis.fields]
    )
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("term", ["a0", "a1", "b1", "c1", "d1", "a2"])
@pytest.mark.parametrize(
    "mesh", [syn.grid_mesh(6, 6, 0.2), syn.bumpy_mesh(60)], ids=["grid_with_boundary", "bumpy60"]
)
def test_gram_single_term_matches_h2_inner_terms_off_the_sphere(mesh, term):
    # the per-face blocks on boundary edges and on a non-convex surface
    index = ["a0", "a1", "b1", "c1", "d1", "a2"].index(term)
    basis = syn.random_basis(mesh, 4, 4, seed=11)
    alpha = 0.2 * np.random.default_rng(12).standard_normal(basis.dim)
    g = gram(basis, alpha, MetricCoefficients(*np.eye(6)[index]))
    deformed = decode(basis, alpha)
    ref = np.array(
        [[h2_inner_terms(deformed, hi, hj)[index] for hj in basis.fields] for hi in basis.fields]
    )
    assert np.max(np.abs(ref)) > 0
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_differentials_cached_read_only():
    basis = _basis(28)
    df = basis.differentials
    assert df is basis.differentials
    assert not df.flags.writeable
    faces = basis.template.faces
    expected = basis.fields[:, faces[:, 1:]] - basis.fields[:, faces[:, :1]]  # (P, M, 2, 3)
    assert df.shape == (basis.template.n_faces, 6, basis.dim)
    assert np.array_equal(df, expected.transpose(1, 3, 2, 0).reshape(df.shape))


def test_gram_symmetric_positive_definite():
    for seed in range(5):
        basis = _basis(20 + seed)
        rng = np.random.default_rng(seed)
        alpha = 0.1 * rng.standard_normal(basis.dim)
        g = gram(basis, alpha, BODY)
        assert np.max(np.abs(g - g.T)) == 0.0
        assert np.linalg.eigvalsh(g).min() > 0


# ---------------------------------------------------------------------------
# path energy
# ---------------------------------------------------------------------------


def test_constant_path_energy_zero():
    basis = _basis(11)
    path = np.tile(0.1 * np.ones(basis.dim), (5, 1))
    assert latent_path_energy(basis, path, BODY) == 0.0


def test_translation_straight_line_closed_form():
    basis = syn.translation_basis(syn.icosphere(1))
    alpha1 = np.array([0.5, -0.3, 1.0])
    T = 6
    path = np.linspace(0, 1, T + 1)[:, None] * alpha1
    g = gram(basis, np.zeros(3), BODY)
    expected = float(alpha1 @ g @ alpha1)
    assert latent_path_energy(basis, path, BODY) == pytest.approx(expected, rel=1e-12)


def test_energy_refinement_stability():
    basis = _basis(12)
    rng = np.random.default_rng(13)
    a1 = 0.3 * rng.standard_normal(basis.dim)

    def curved(T):
        ts = np.linspace(0, 1, T + 1)[:, None]
        return ts * a1 + 0.05 * np.sin(np.pi * ts) * np.ones(basis.dim)

    e8 = latent_path_energy(basis, curved(8), BODY)
    e16 = latent_path_energy(basis, curved(16), BODY)
    assert abs(e16 - e8) < 0.05 * e8


def test_reversal_exact_in_flat_case_and_gap_shrinks_generally():
    flat = syn.translation_basis(syn.icosphere(1))
    a1 = np.array([0.4, 0.2, -0.6])
    path = np.linspace(0, 1, 7)[:, None] * a1
    assert latent_path_energy(flat, path, BODY) == pytest.approx(
        latent_path_energy(flat, path[::-1], BODY), rel=1e-12
    )
    basis = _basis(14)
    rng = np.random.default_rng(15)
    end = 0.4 * rng.standard_normal(basis.dim)
    gaps = []
    for T in (5, 10, 20):
        p = np.linspace(0, 1, T + 1)[:, None] * end
        ef = latent_path_energy(basis, p, BODY)
        eb = latent_path_energy(basis, p[::-1], BODY)
        gaps.append(abs(ef - eb) / ef)
    assert gaps[2] < gaps[0]


def test_path_energy_gradient_matches_finite_differences():
    basis = _basis(16, n_shape=2, n_pose=2)
    rng = np.random.default_rng(17)
    T = 3
    path = 0.15 * rng.standard_normal((T + 1, basis.dim))
    energy, grad = latent_path_energy_with_grad(basis, path, BODY)
    assert energy == pytest.approx(latent_path_energy(basis, path, BODY), rel=1e-12)
    eps = 1e-6
    for _ in range(5):
        d = rng.standard_normal(path.shape)
        fd = (
            latent_path_energy(basis, path + eps * d, BODY)
            - latent_path_energy(basis, path - eps * d, BODY)
        ) / (2 * eps)
        got = float(grad.ravel() @ d.ravel())
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_path_energy_gradient_with_fixed_start():
    basis = _basis(16, n_shape=2, n_pose=2)
    path = 0.15 * np.random.default_rng(23).standard_normal((4, basis.dim))
    energy, grad = latent_path_energy_with_grad(basis, path, BODY)
    energy_fixed, grad_fixed = latent_path_energy_with_grad(basis, path, BODY, fixed_start=True)
    assert energy_fixed == energy
    assert np.array_equal(grad_fixed[1:], grad[1:])
    assert not grad_fixed[0].any()


def test_fixed_start_foot_point_pass_skips_first_knot(monkeypatch):
    basis = _basis(24)
    M = basis.template.n_faces
    path = 0.15 * np.random.default_rng(25).standard_normal((5, basis.dim))
    faces_seen = []

    def counted(geom, *args, **kwargs):
        faces_seen.append(geom.mesh.n_faces)
        return h2_vertex_gradient(geom, *args, **kwargs)

    monkeypatch.setattr(elsa.latent, "h2_vertex_gradient", counted)
    latent_path_energy_with_grad(basis, path, BODY)
    latent_path_energy_with_grad(basis, path, BODY, fixed_start=True)
    assert faces_seen == [4 * M, 3 * M]
    # one step with a fixed start has no foot point to differentiate
    energy, grad = latent_path_energy_with_grad(basis, path[:2], BODY, fixed_start=True)
    assert faces_seen == [4 * M, 3 * M]
    assert not grad[0].any() and grad[1].any()


def _per_knot_reference(basis, path, coefficients, fixed_start):
    """The path energy and its gradient from one Gram and one foot-point pass per knot."""
    T = len(path) - 1
    grad = np.zeros_like(path)
    total = 0.0
    for t in range(T):
        geom = _geometry(decode(basis, path[t]))
        gm = gram(basis, path[t], coefficients, geometry=geom)
        d = path[t + 1] - path[t]
        total += float(d @ gm @ d)
        grad[t] -= 2.0 * (gm @ d)
        grad[t + 1] += 2.0 * (gm @ d)
        if t or not fixed_start:
            u = np.tensordot(d, basis.fields, axes=1)
            grad[t] += basis.fields_matrix @ h2_vertex_gradient(geom, u, u, coefficients).ravel()
    return T * total, T * grad


@pytest.mark.parametrize("term", ["a0", "a1", "b1", "c1", "d1", "a2"])
@pytest.mark.parametrize(
    "mesh",
    [syn.icosphere(2), syn.grid_mesh(6, 6, 0.2), syn.bumpy_mesh(60)],
    ids=["icosphere2", "grid_with_boundary", "bumpy60"],
)
def test_path_energy_one_pass_matches_per_knot_gram(mesh, term):
    # the union of the left knots applies the metric to each increment as the
    # Gram at its knot does; sums are reordered, so agreement is to rounding:
    # 1e-12 relative for the energy and of the largest gradient entry
    index = ["a0", "a1", "b1", "c1", "d1", "a2"].index(term)
    coefficients = MetricCoefficients(*np.eye(6)[index])
    basis = syn.random_basis(mesh, 4, 4, seed=11)
    for T in (1, 3):
        path = 0.2 * np.random.default_rng(12 + T).standard_normal((T + 1, basis.dim))
        for fixed_start in (False, True):
            energy, grad = latent_path_energy_with_grad(basis, path, coefficients, fixed_start)
            ref_energy, ref_grad = _per_knot_reference(basis, path, coefficients, fixed_start)
            assert ref_energy > 0
            assert abs(energy - ref_energy) <= 1e-12 * ref_energy
            if fixed_start:
                assert not grad[0].any()
                ref_grad[0] = 0.0
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_path_energy_value_makes_no_foot_point_pass(monkeypatch):
    basis = _basis(29)
    path = 0.15 * np.random.default_rng(30).standard_normal((5, basis.dim))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return h2_vertex_gradient(*args, **kwargs)

    monkeypatch.setattr(elsa.latent, "h2_vertex_gradient", counted)
    energy = latent_path_energy(basis, path, BODY)
    assert not calls
    assert energy == latent_path_energy_with_grad(basis, path, BODY, fixed_start=True)[0]
    assert len(calls) == 1  # every knot's foot point from one call on the union


@pytest.mark.parametrize("lift", [0.0, 1e-9], ids=["zero_area", "ill_conditioned"])
def test_degenerate_interior_knot_names_template_face_and_knot(lift):
    # field 0 moves vertex 5 onto the midpoint of the opposite edge of face 8,
    # exactly (zero area, caught by validation) or lifted off the plane by
    # ``lift`` (a metric tensor past the condition limit)
    template = syn.grid_mesh(4, 4, 1.0)
    face = 8
    v0, v1, v2 = template.faces[face]
    assert v0 == 5
    fields = np.zeros((2, template.n_vertices, 3))
    verts = template.vertices
    fields[0, v0] = 0.5 * (verts[v1] + verts[v2]) - verts[v0] + [0.0, 0.0, lift]
    fields[1] = 0.1 * np.sin(verts + 1.0)
    basis = LatentBasis(template=template, fields=fields, n_shape=1, n_pose=1)
    path = np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 0.0], [0.2, 0.0]])
    reason = "zero-area face" if lift == 0.0 else "ill-conditioned metric tensor"
    for energy in (
        lambda: latent_path_energy(basis, path, BODY),
        lambda: latent_path_energy_with_grad(basis, path, BODY),
    ):
        with pytest.raises(DegenerateFaceError) as err:
            energy()
        assert err.value.face_index == face < template.n_faces
        assert str(err.value) == f"{reason} at knot 2 (face {face})"


def test_relabeling_basis_invariance():
    basis = _basis(18)
    rng = np.random.default_rng(19)
    path = 0.2 * rng.standard_normal((4, basis.dim))
    perm = rng.permutation(basis.dim)
    permuted = LatentBasis(
        template=basis.template,
        fields=basis.fields[perm],
        n_shape=basis.n_shape,
        n_pose=basis.n_pose,
    )
    assert latent_path_energy(basis, path, BODY) == pytest.approx(
        latent_path_energy(permuted, path[:, perm], BODY), rel=1e-12
    )


# ---------------------------------------------------------------------------
# shape-block substitution
# ---------------------------------------------------------------------------


def test_substitute_own_identity_is_noop():
    rng = np.random.default_rng(24)
    codes = rng.standard_normal((5, 7))
    out = substitute_shape_block(codes, codes[0], n_shape=3)
    assert np.array_equal(out[:, 3:], codes[:, 3:])
    assert np.array_equal(out[0], codes[0])


def test_substitute_preserves_pose_and_inverts():
    rng = np.random.default_rng(25)
    codes = rng.standard_normal((6, 5))
    target = rng.standard_normal(5)
    out = substitute_shape_block(codes, target, n_shape=2)
    assert np.array_equal(out[:, 2:], codes[:, 2:])
    assert np.all(out[:, :2] == target[:2])
    back = substitute_shape_block(out, codes[0], n_shape=2)
    # original sequence had uniform shape block equal to codes[0]'s?  only the
    # pose blocks are guaranteed; check the full involution on uniform input
    uniform = substitute_shape_block(codes, codes[0], n_shape=2)
    again = substitute_shape_block(uniform, codes[0], n_shape=2)
    assert np.array_equal(uniform, again)
    assert back.shape == codes.shape


def test_substitute_block_mismatch():
    with pytest.raises(ValueError):
        substitute_shape_block(np.zeros((2, 4)), np.zeros(5), n_shape=2)


# ---------------------------------------------------------------------------
# container round trip
# ---------------------------------------------------------------------------


def test_basis_save_load_roundtrip(tmp_path):
    basis = _basis(26)
    path = tmp_path / "basis.lsb"
    save_basis(basis, path)
    back = load_basis(path)
    assert back.n_shape == basis.n_shape
    assert back.n_pose == basis.n_pose
    assert np.array_equal(back.fields, basis.fields)
    assert np.array_equal(back.template.vertices, basis.template.vertices)
    assert np.array_equal(back.template.faces, basis.template.faces)


def test_basis_truncated_in_every_section(tmp_path):
    basis = _basis(27)
    path = tmp_path / "basis.lsb"
    save_basis(basis, path)
    data = path.read_bytes()
    blob_end = 16 + int.from_bytes(data[8:16], "little")
    header_end = data.index(b"end_header\n") + len(b"end_header\n")
    faces_start = header_end + 24 * basis.template.n_vertices
    # blob length, PLY header, vertices, faces, block sizes, fields
    for cut in (8, 12, 26, header_end + 5, faces_start + 7, blob_end + 10, len(data) - 1):
        cut_path = tmp_path / f"cut_{cut}.lsb"
        cut_path.write_bytes(data[:cut])
        with pytest.raises(MeshError, match=re.escape(f"{cut_path}: truncated")):
            load_basis(cut_path)


def test_basis_bad_magic(tmp_path):
    path = tmp_path / "junk.lsb"
    path.write_bytes(b"NOTABASIS" + b"\0" * 64)
    with pytest.raises(Exception):
        load_basis(path)
