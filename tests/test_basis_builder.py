import numpy as np
import pytest

from elsa import MetricCoefficients, decode, save_mesh
from elsa.basis_builder import (
    ManifestRecord,
    PCAResult,
    TangentSample,
    assemble_basis,
    build_from_manifest,
    pca,
    pose_tangents,
    read_manifest,
    shape_tangents,
)
from elsa.mesh import MeshError

import synthetic as syn

BODY = MetricCoefficients.bodies()
A0 = MetricCoefficients(1.0, 0, 0, 0, 0, 0)


def _samples_from_rows(rows, label="shape"):
    n = rows.shape[1] // 3
    return [TangentSample(vector=r.reshape(n, 3), label=label) for r in rows]


# ---------------------------------------------------------------------------
# tangent collection
# ---------------------------------------------------------------------------


def test_shape_tangents_template_only_empty():
    mesh = syn.icosphere(1)
    assert shape_tangents([mesh], 0, BODY, time_steps=2) == []


def test_shape_tangents_count_contract():
    template = syn.icosphere(1)
    meshes = [template] + [
        template.with_vertices(template.vertices * s) for s in (1.05, 0.95, 1.1)
    ]
    samples = shape_tangents(meshes, 0, BODY, time_steps=2)
    assert len(samples) == 3
    assert all(s.label == "shape" for s in samples)


def test_shape_tangent_of_translation_is_constant_field():
    template = syn.icosphere(1)
    shift = np.array([0.1, -0.05, 0.2])
    moved = template.with_vertices(template.vertices + shift)
    samples = shape_tangents([template, moved], 0, BODY, time_steps=3)
    tangent = samples[0].vector
    assert np.max(np.abs(tangent - shift)) < 1e-6


def test_shape_tangents_skips_failed_geodesic():
    from elsa.solvers import OptimizerConfig

    template = syn.icosphere(1)
    stretched = syn.scale_vertices(template, 1.1, 1.0, 1.0)
    # at T=2 the linear start to the point reflection is degenerate
    reflected = template.with_vertices(-template.vertices)
    with pytest.warns(UserWarning, match="skipping training mesh 2"):
        samples = shape_tangents(
            [template, stretched, reflected], 0, BODY, time_steps=2,
            config=OptimizerConfig(max_iterations=5),
        )
    assert [s.provenance for s in samples] == ["mesh[1]"]


def test_shape_tangents_topology_mismatch():
    with pytest.raises(MeshError):
        shape_tangents([syn.icosphere(1), syn.icosphere(2)], 0, BODY)


def test_pose_tangents_counts_and_values():
    mesh = syn.icosphere(1)
    seq1 = [mesh.with_vertices(syn.twist_vertices(mesh.vertices, a)) for a in (0.0, 0.1, 0.2)]
    seq2 = [mesh, mesh.with_vertices(mesh.vertices * 1.02)]
    samples = pose_tangents([seq1, seq2])
    assert len(samples) == (3 - 1) + (2 - 1)
    assert np.allclose(samples[0].vector, seq1[1].vertices - seq1[0].vertices)
    assert all(s.label == "pose" for s in samples)


def test_pose_tangents_constant_sequence_zero():
    mesh = syn.icosphere(1)
    samples = pose_tangents([[mesh, mesh, mesh]])
    assert all(np.max(np.abs(s.vector)) == 0.0 for s in samples)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_rank_one_pair():
    n = 10
    e1 = np.zeros(3 * n)
    e1[0] = 1.0
    rows = np.stack([e1, -e1])
    result = pca(_samples_from_rows(rows), k=1, center=True)
    assert np.allclose(result.mean, 0.0, atol=1e-15)
    assert abs(abs(result.components[0, 0]) - 1.0) < 1e-12
    assert result.singular_values[0] > 0


def test_pca_orthonormal_components():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((12, 3 * 20))
    result = pca(_samples_from_rows(rows), k=5)
    grammat = result.components @ result.components.T
    assert np.max(np.abs(grammat - np.eye(5))) < 1e-10
    assert np.all(np.diff(result.singular_values) <= 1e-12)


def test_pca_matches_covariance_eigendecomposition():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((50, 3 * 15))
    result = pca(_samples_from_rows(rows), k=4)
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered
    vals, vecs = np.linalg.eigh(cov)
    top = vecs[:, ::-1][:, :4]
    from scipy.linalg import subspace_angles

    assert np.max(subspace_angles(result.components.T, top)) < 1e-8
    assert np.allclose(result.singular_values**2, vals[::-1][:4], rtol=1e-8)


def test_pca_reconstruction_of_centered_samples():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((8, 3 * 12))
    result = pca(_samples_from_rows(rows), k=8, center=True)
    centered = rows - result.mean
    recon = (centered @ result.components.T) @ result.components
    assert np.max(np.abs(recon - centered)) < 1e-8 * max(1.0, np.max(np.abs(centered)))


def test_pca_deterministic_sign():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((10, 3 * 8))
    r1 = pca(_samples_from_rows(rows), k=3)
    r2 = pca(_samples_from_rows(rows.copy()), k=3)
    assert np.array_equal(r1.components, r2.components)
    for comp in r1.components:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_pca_sign_stable_on_tied_entries():
    # entries 0 and 3 are the x coordinates of two mirrored vertices, so the
    # leading component's largest entries tie with opposite signs; rounding-
    # level changes that break the tie either way must not flip a component
    rng = np.random.default_rng(6)
    rows = 0.1 * rng.standard_normal((6, 3 * 4))
    t = rng.standard_normal(6)
    rows[:, 0] = t
    rows[:, 3] = -t
    results = []
    for eps in (1e-12, -1e-12):
        perturbed = rows.copy()
        perturbed[:, 0] *= 1.0 + eps
        results.append(pca(_samples_from_rows(perturbed), k=3))
    lead = np.abs(results[0].components[0])
    assert set(np.argsort(lead)[-2:]) == {0, 3}
    assert lead[0] == pytest.approx(lead[3], rel=1e-9)
    agree = np.sum(results[0].components * results[1].components, axis=1)
    assert np.all(agree > 0.99)


def test_pca_input_validation():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, 3 * 5))
    with pytest.raises(ValueError):
        pca(_samples_from_rows(rows), k=4)
    with pytest.raises(ValueError):
        pca(_samples_from_rows(rows[:1]), k=1)


def _translation_subspace_angle(coefficients, shift_scale, config=None):
    from elsa.solvers import OptimizerConfig
    from scipy.linalg import subspace_angles

    template = syn.icosphere(1)
    rng = np.random.default_rng(5)
    shifts = [rng.standard_normal(3) * shift_scale for _ in range(6)]
    meshes = [template] + [template.with_vertices(template.vertices + s) for s in shifts]
    cfg = config or OptimizerConfig(max_iterations=1000, gradient_tolerance=1e-12)
    samples = shape_tangents(meshes, 0, coefficients, time_steps=2, config=cfg)
    result = pca(samples, k=3, center=False)
    n = template.n_vertices
    trans = np.zeros((3, 3 * n))
    for k in range(3):
        trans[k].reshape(n, 3)[:, k] = 1.0
    trans /= np.linalg.norm(trans, axis=1, keepdims=True)
    return float(np.max(subspace_angles(result.components.T, trans.T)))


def test_translation_subspace_recovered():
    # translated duplicates of the template: the tangent PCA recovers the
    # translation subspace once the higher-order terms pin down transport
    assert _translation_subspace_angle(BODY, 0.01) < 1e-6


def test_translation_subspace_zeroth_order_only_is_biased():
    # with only the zeroth-order term the discrete geodesics shrink through
    # smaller surfaces, contaminating the tangents; the recovery is coarse
    angle = _translation_subspace_angle(
        A0, 0.1, config=__import__("elsa").OptimizerConfig(max_iterations=300)
    )
    assert 1e-4 < angle < 0.5


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _orthonormal_pca(template, count, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, template.n_vertices * 3))
    q, _ = np.linalg.qr(raw.T)
    comps = q.T[:count]
    return PCAResult(
        mean=np.zeros(template.n_vertices * 3),
        components=comps,
        singular_values=np.linspace(2.0, 1.0, count),
    )


def test_assemble_basis_blocks():
    template = syn.icosphere(1)
    sp = _orthonormal_pca(template, 2, 6)
    pp = _orthonormal_pca(template, 3, 7)
    basis = assemble_basis(template, sp, pp, 2, 3)
    assert basis.dim == 5
    assert basis.n_shape == 2
    assert basis.shape_slice == slice(0, 2)
    assert basis.pose_slice == slice(2, 5)
    assert np.allclose(basis.fields[0].ravel(), sp.components[0])
    assert np.allclose(basis.fields[2].ravel(), pp.components[0])
    assert np.array_equal(decode(basis, np.zeros(5)).vertices, template.vertices)


def test_assemble_insufficient_components():
    template = syn.icosphere(1)
    sp = _orthonormal_pca(template, 2, 8)
    pp = _orthonormal_pca(template, 2, 9)
    with pytest.raises(ValueError):
        assemble_basis(template, sp, pp, 3, 1)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


def _write_training_set(tmp_path):
    template = syn.icosphere(1)
    files = {}

    def put(name, mesh):
        path = tmp_path / name
        save_mesh(mesh, path)
        files[name] = mesh
        return name

    lines = []
    lines.append(f"{put('template.obj', template)} id0 rest -")
    for i, s in enumerate((1.08, 0.92)):
        name = put(f"shape{i}.obj", template.with_vertices(template.vertices * s))
        lines.append(f"{name} id{i + 1} rest -")
    for j, angle in enumerate((0.0, 0.2, 0.4)):
        name = put(
            f"frame{j}.obj",
            template.with_vertices(syn.twist_vertices(template.vertices, angle)),
        )
        lines.append(f"{name} id0 twist{j} seqA")
    manifest = tmp_path / "train.txt"
    manifest.write_text("# toy training set\n" + "\n".join(lines) + "\n")
    return manifest


def test_read_manifest(tmp_path):
    manifest = _write_training_set(tmp_path)
    records = read_manifest(manifest)
    assert len(records) == 6
    assert records[0].pose == "rest"
    assert records[0].sequence == "-"
    assert records[-1].sequence == "seqA"
    assert records[0].path.endswith("template.obj")


def test_manifest_field_count_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("a b c\n")
    with pytest.raises(ValueError):
        read_manifest(bad)


def test_build_from_manifest(tmp_path):
    manifest = _write_training_set(tmp_path)
    basis = build_from_manifest(manifest, n_shape=2, n_pose=2, coefficients=BODY, time_steps=2)
    assert basis.dim == 4
    assert basis.n_shape == 2
    assert basis.n_pose == 2
    assert basis.template.n_vertices == syn.icosphere(1).n_vertices
