import numpy as np
import pytest

from scipy.spatial import cKDTree

from elsa import TriangleMesh, registered_mse
from elsa.evaluation import EvalReport, _geodesic_error, evaluate_pair
from elsa.mesh import MeshError

import synthetic as syn


def _chain_mesh(n=5):
    """Path-graph-ish strip: vertices on a line, thin triangles between."""
    verts = []
    for i in range(n):
        verts.append([float(i), 0.0, 0.0])
    for i in range(n - 1):
        verts.append([i + 0.5, 0.3, 0.0])
    faces = [[i, i + 1, n + i] for i in range(n - 1)]
    return TriangleMesh(verts, faces)


def _brute_hausdorff(a, b):
    d = np.linalg.norm(a.vertices[:, None, :] - b.vertices[None, :, :], axis=2)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _brute_chamfer(a, b):
    d = np.linalg.norm(a.vertices[:, None, :] - b.vertices[None, :, :], axis=2)
    return d.min(axis=1).mean() + d.min(axis=0).mean()


def test_identical_meshes_all_zero():
    mesh = syn.icosphere(1)
    values = evaluate_pair(mesh, mesh).values
    assert values["hausdorff"] == 0.0
    assert values["chamfer"] == 0.0
    assert registered_mse(mesh, mesh) == 0.0
    assert values["geodesic_error"] == 0.0


def test_single_point_closed_forms():
    # degenerate single-point sets: a vertex with no faces is a valid mesh
    a = TriangleMesh(np.zeros((1, 3)), np.empty((0, 3), dtype=int))
    b = TriangleMesh([[1.0, 0.0, 0.0]], np.empty((0, 3), dtype=int))
    values = evaluate_pair(a, b, 0.3).values
    assert values["hausdorff"] == pytest.approx(1.0, rel=1e-14)
    assert values["chamfer"] == pytest.approx(2.0, rel=1e-14)
    # no faces, so no varifold atoms: the varifold distance is zero
    assert values["varifold"] == 0.0


def test_hausdorff_chamfer_match_bruteforce():
    rng = np.random.default_rng(0)
    for seed in range(10):
        a = syn.bumpy_mesh(30 + seed, seed=seed)
        b = syn.bumpy_mesh(25 + seed, seed=seed + 50)
        values = evaluate_pair(a, b).values
        assert values["hausdorff"] == pytest.approx(_brute_hausdorff(a, b), abs=1e-12)
        assert values["chamfer"] == pytest.approx(_brute_chamfer(a, b), abs=1e-12)


def test_symmetry_and_bound():
    a = syn.bumpy_mesh(40, seed=1)
    b = syn.bumpy_mesh(35, seed=2)
    ab, ba = evaluate_pair(a, b).values, evaluate_pair(b, a).values
    assert ab["hausdorff"] == ba["hausdorff"]
    assert ab["chamfer"] == ba["chamfer"]
    assert ab["chamfer"] <= 2.0 * ab["hausdorff"] + 1e-15


def test_registered_mse_translation():
    mesh = syn.icosphere(1)
    t = np.array([0.1, -0.2, 0.3])
    moved = mesh.with_vertices(mesh.vertices + t)
    assert registered_mse(mesh, moved) == pytest.approx(float(t @ t), rel=1e-12)


def test_registered_mse_oracle():
    mesh = syn.icosphere(1)
    rng = np.random.default_rng(3)
    other = mesh.with_vertices(mesh.vertices + 0.05 * rng.standard_normal((mesh.n_vertices, 3)))
    direct = np.mean(np.sum((mesh.vertices - other.vertices) ** 2, axis=1))
    assert registered_mse(mesh, other) == pytest.approx(direct, rel=1e-14)


def test_registered_mse_topology_check():
    with pytest.raises(MeshError):
        registered_mse(syn.icosphere(1), syn.icosphere(2))


def test_geodesic_error_two_swapped_vertices_on_chain():
    truth = _chain_mesh(5)
    pred_verts = truth.vertices.copy()
    # swap tip vertices 0 and 4: each snaps to the other's position
    pred_verts[[0, 4]] = pred_verts[[4, 0]]
    pred = TriangleMesh(pred_verts, truth.faces)
    # edge-graph distance between 0 and 4 along the spine is 4 in both
    # directions; averaged over all 9 vertices
    expected = (4.0 + 4.0) / truth.n_vertices
    assert evaluate_pair(pred, truth).values["geodesic_error"] == pytest.approx(expected, rel=1e-12)


def test_geodesic_error_rigid_invariance():
    truth = syn.icosphere(1)
    rng = np.random.default_rng(4)
    pred = truth.with_vertices(
        truth.vertices + 0.02 * rng.standard_normal((truth.n_vertices, 3))
    )
    base = evaluate_pair(pred, truth).values["geodesic_error"]
    rot, shift = syn.rigid_motion(5)
    pred2 = pred.with_vertices(pred.vertices @ rot.T + shift)
    truth2 = truth.with_vertices(truth.vertices @ rot.T + shift)
    assert evaluate_pair(pred2, truth2).values["geodesic_error"] == pytest.approx(base, rel=1e-10)


def test_geodesic_error_disconnected_truth():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5], [6, 5, 5], [5, 6, 5]]
    faces = [[0, 1, 2], [3, 4, 5]]
    truth = TriangleMesh(verts, faces)
    pred_verts = np.array(verts, dtype=float)
    pred_verts[0] = [5.1, 5.1, 5.0]  # snaps into the other component
    pred = TriangleMesh(pred_verts, faces)
    with pytest.raises(MeshError):
        evaluate_pair(pred, truth)


def test_rigid_invariance_of_set_metrics():
    a = syn.bumpy_mesh(30, seed=6)
    b = syn.bumpy_mesh(28, seed=7)
    rot, shift = syn.rigid_motion(8)
    a2 = a.with_vertices(a.vertices @ rot.T + shift)
    b2 = b.with_vertices(b.vertices @ rot.T + shift)
    moved, values = evaluate_pair(a2, b2).values, evaluate_pair(a, b).values
    assert moved["hausdorff"] == pytest.approx(values["hausdorff"], rel=1e-10)
    assert moved["chamfer"] == pytest.approx(values["chamfer"], rel=1e-10)


def test_eval_report_validation():
    with pytest.raises(ValueError):
        EvalReport(values={"bad": -1.0})
    with pytest.raises(ValueError):
        EvalReport(values={"bad": float("nan")})


def test_evaluate_pair_contents():
    mesh = syn.icosphere(1)
    other = mesh.with_vertices(mesh.vertices * 1.02)
    report = evaluate_pair(mesh, other, 0.2)
    assert set(report.values) == {"hausdorff", "chamfer", "varifold", "mse", "geodesic_error"}
    different = syn.icosphere(2)
    report2 = evaluate_pair(mesh, different)
    assert set(report2.values) == {"hausdorff", "chamfer"}


def test_evaluate_pair_builds_two_kd_trees(monkeypatch):
    # the geodesic error snaps through the a -> b query of the set metrics
    import elsa.evaluation

    built = []

    class Counted(elsa.evaluation.cKDTree):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(elsa.evaluation, "cKDTree", Counted)
    mesh = syn.bumpy_mesh(40, seed=2)
    other = mesh.with_vertices(mesh.vertices[::-1])
    report = evaluate_pair(mesh, other)
    assert len(built) == 2
    # the metrics as separate queries would form them, one tree per query
    d_ab, snapped = cKDTree(other.vertices).query(mesh.vertices)
    d_ba = cKDTree(mesh.vertices).query(other.vertices)[0]
    assert report.values["geodesic_error"] == _geodesic_error(other, snapped)
    assert report.values["hausdorff"] == float(max(d_ab.max(), d_ba.max()))
    assert report.values["chamfer"] == float(d_ab.mean() + d_ba.mean())
