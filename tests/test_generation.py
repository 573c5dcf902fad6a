import numpy as np
import pytest

from elsa import (
    GmmModel,
    LatentBasis,
    MetricCoefficients,
    fit_gmm,
    generate_shape,
    load_gmm,
    sample_code,
    save_gmm,
)
from elsa.solvers import SolverFailure

import synthetic as syn

BODY = MetricCoefficients.bodies()


def _point_model(mean):
    mean = np.asarray(mean, dtype=float)
    d = mean.size
    return GmmModel(
        weights=np.array([1.0]),
        means=mean[None, :],
        covariances=np.zeros((1, d, d)),
    )


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------


def test_single_component_closed_form():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3))
    model = fit_gmm(data, 1, seed=1)
    assert np.allclose(model.means[0], data.mean(axis=0), atol=1e-10)
    expected_cov = np.cov(data, rowvar=False, bias=True)
    load = 1e-8 * np.trace(expected_cov) / 3
    assert np.allclose(model.covariances[0], expected_cov + load * np.eye(3), atol=1e-10)
    assert model.weights[0] == 1.0


def test_recovers_gaussian_mean():
    rng = np.random.default_rng(2)
    true_mean = np.array([1.0, -2.0, 0.5])
    n = 2000
    data = true_mean + 0.7 * rng.standard_normal((n, 3))
    model = fit_gmm(data, 1, seed=3)
    tol = 3.0 * 0.7 / np.sqrt(n)
    assert np.max(np.abs(model.means[0] - true_mean)) < 3 * tol


def test_loglikelihood_monotone():
    rng = np.random.default_rng(4)
    data = np.concatenate(
        [
            rng.standard_normal((60, 4)) + 4.0,
            rng.standard_normal((60, 4)) - 4.0,
        ]
    )
    model = fit_gmm(data, 2, seed=5)
    history = np.array(model.log_likelihoods)
    assert len(history) >= 2
    assert np.all(np.diff(history) >= -1e-12 * np.maximum(1.0, np.abs(history[:-1])))


def test_no_convergence_test_right_after_a_reseed():
    # component 2 empties and is re-seeded on the whole data's covariance; the
    # re-seeded likelihood falls below the one before, which is no convergence
    # (the fit used to stop there and return the re-seeded, unfitted model);
    # EM then empties the component again, the documented failure
    x = [-7105.769442, -53.446184, -53.486878, -53.448143, -53.486998, -53.436597,
         -53.458746, -53.441868, 2.597757, 2.625268, 2.618718, 2.592776, 2.559905]
    with pytest.raises(SolverFailure, match="empty mixture component twice"):
        fit_gmm(np.array(x)[:, None], 4, seed=515)


def test_two_well_separated_clusters():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((80, 2)) * 0.3 + [5, 0]
    b = rng.standard_normal((80, 2)) * 0.3 - [5, 0]
    model = fit_gmm(np.concatenate([a, b]), 2, seed=7)
    centers = sorted(model.means[:, 0])
    assert centers[0] == pytest.approx(-5.0, abs=0.2)
    assert centers[1] == pytest.approx(5.0, abs=0.2)
    assert np.allclose(model.weights, 0.5, atol=0.05)


def test_fit_determinism():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((50, 3))
    m1 = fit_gmm(data, 3, seed=9)
    m2 = fit_gmm(data, 3, seed=9)
    assert np.array_equal(m1.means, m2.means)
    assert np.array_equal(m1.covariances, m2.covariances)
    assert np.array_equal(m1.weights, m2.weights)


def test_too_few_samples():
    with pytest.raises(ValueError):
        fit_gmm(np.zeros((2, 3)), 5)


def test_model_validation():
    with pytest.raises(ValueError):
        GmmModel(
            weights=np.array([0.5, 0.4]),
            means=np.zeros((2, 2)),
            covariances=np.stack([np.eye(2)] * 2),
        )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_point_mixtures_return_means_exactly():
    shape = _point_model([1.0, 2.0])
    pose = _point_model([-1.0, 0.5, 3.0])
    draw = sample_code(shape, pose, seed=0)
    assert np.array_equal(draw, np.array([1.0, 2.0, -1.0, 0.5, 3.0]))


def test_sampling_determinism():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((30, 3))
    model = fit_gmm(data, 2, seed=11)
    d1 = sample_code(model, model, seed=123)
    d2 = sample_code(model, model, seed=123)
    assert np.array_equal(d1, d2)
    d3 = sample_code(model, model, seed=124)
    assert not np.array_equal(d1, d3)


def test_empirical_mean_of_draws():
    rng = np.random.default_rng(12)
    data = rng.standard_normal((200, 2)) * 0.5 + [1.0, -1.0]
    model = fit_gmm(data, 1, seed=13)
    draws = np.stack([sample_code(model, _point_model([0.0]), seed=s) for s in range(10_000)])
    block = draws[:, :2]
    se = np.sqrt(np.diag(model.covariances[0]) / draws.shape[0])
    assert np.all(np.abs(block.mean(axis=0) - model.means[0]) < 4.0 * se + 1e-12)


# ---------------------------------------------------------------------------
# shape generation
# ---------------------------------------------------------------------------


def test_zero_velocity_returns_template():
    basis = syn.translation_basis(syn.icosphere(1))
    shape = _point_model([0.0])
    pose = _point_model([0.0, 0.0])
    mesh = generate_shape(basis, shape, pose, steps=3, coefficients=BODY, seed=0)
    assert np.array_equal(mesh.vertices, basis.template.vertices)


def test_translation_basis_flat_shot():
    basis = syn.translation_basis(syn.icosphere(1))
    shape = _point_model([0.25])
    pose = _point_model([-0.1, 0.4])
    mesh = generate_shape(basis, shape, pose, steps=4, coefficients=BODY, seed=1)
    expected = basis.template.vertices + np.array([0.25, -0.1, 0.4])
    assert np.max(np.abs(mesh.vertices - expected)) < 1e-8


def test_generation_dimension_check():
    basis = syn.translation_basis(syn.icosphere(1))
    with pytest.raises(ValueError):
        generate_shape(basis, _point_model([0.0, 0.0]), _point_model([0.0]), 3, BODY)


def test_distinct_seeds_distinct_meshes():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=14, scale=0.03)
    rng = np.random.default_rng(15)
    vel = 0.2 * rng.standard_normal((8, basis.dim))
    shape = fit_gmm(vel[:, :2], 1, seed=16)
    pose = fit_gmm(vel[:, 2:], 1, seed=17)
    meshes = [
        generate_shape(basis, shape, pose, steps=3, coefficients=BODY, seed=s)
        for s in range(4)
    ]
    for i in range(len(meshes)):
        for j in range(i + 1, len(meshes)):
            assert np.max(np.abs(meshes[i].vertices - meshes[j].vertices)) > 0


# ---------------------------------------------------------------------------
# container round trip
# ---------------------------------------------------------------------------


def test_gmm_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(18)
    shape = fit_gmm(rng.standard_normal((30, 2)), 2, seed=19)
    pose = fit_gmm(rng.standard_normal((40, 3)), 3, seed=20)
    path = tmp_path / "model.gmm"
    save_gmm(path, shape, pose)
    s2, p2 = load_gmm(path)
    assert np.array_equal(s2.weights, shape.weights)
    assert np.array_equal(s2.means, shape.means)
    assert np.array_equal(s2.covariances, shape.covariances)
    assert np.array_equal(p2.means, pose.means)


def test_gmm_truncated_in_every_section(tmp_path):
    rng = np.random.default_rng(21)
    shape = fit_gmm(rng.standard_normal((30, 2)), 2, seed=22)
    pose = fit_gmm(rng.standard_normal((40, 3)), 3, seed=23)
    path = tmp_path / "model.gmm"
    save_gmm(path, shape, pose)
    data = path.read_bytes()
    k, d = shape.n_components, shape.dim
    weights, means, covs = 20, 20 + 8 * k, 20 + 8 * (k + k * d)
    second = covs + 8 * k * d * d
    # block count, block sizes, weights, means, covariances, second block
    for cut in (10, 14, weights + 4, means + 4, covs + 4, second + 3, len(data) - 1):
        cut_path = tmp_path / f"cut_{cut}.gmm"
        cut_path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"{cut_path.name}: truncated"):
            load_gmm(cut_path)


def test_gmm_bad_file(tmp_path):
    path = tmp_path / "junk.gmm"
    path.write_bytes(b"NOPE")
    with pytest.raises(ValueError):
        load_gmm(path)


def test_failed_shot_names_the_seed():
    # the only field pulls every vertex to the origin: the first knot collapses,
    # and no smaller velocity is tried in its place
    template = syn.icosphere(1)
    shift = np.broadcast_to([1.0, 0.0, 0.0], template.vertices.shape)
    basis = LatentBasis(template, np.stack([-template.vertices, shift]), 1, 1)
    with pytest.raises(SolverFailure, match="seed 7 failed: zero-area face at knot 1"):
        generate_shape(basis, _point_model([4.0]), _point_model([0.0]), 4, BODY, seed=7)
