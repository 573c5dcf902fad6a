"""Finite-difference validation of the hand-assembled vertex gradients.

Each metric term is checked in isolation (one-hot coefficient vectors) and
in combination, for both the analytic inner product's foot-point gradient
and the discrete path-step energy's two-sided gradients.  Any sign or factor
slip in the adjoint algebra shows up here as an O(1) mismatch.
"""

import warnings

import numpy as np
import pytest

from elsa import DegenerateFaceError, MetricCoefficients, TriangleMesh, h2_inner
from elsa import _diff
from elsa._diff import (
    face_blocks,
    h2_vertex_gradient,
    path_energy_with_grads,
    step_energy_discrete_with_grads,
)
from elsa.mesh import MeshError, vertex_volumes
from elsa.metric import _field_differential, _geometry

import synthetic as syn

ONE_HOTS = [
    MetricCoefficients(*(1.0 if i == j else 0.0 for j in range(6))) for i in range(6)
]
LABELS = ["a0", "a1", "b1", "c1", "d1", "a2"]
BODY = MetricCoefficients.bodies()


def _directional_match(fun, grad, x, rng, n_dirs=4, eps=1e-6, tol=1e-6):
    analytic = grad.ravel()
    for _ in range(n_dirs):
        d = rng.standard_normal(x.shape)
        fd = (fun(x + eps * d) - fun(x - eps * d)) / (2.0 * eps)
        got = float(analytic @ d.ravel())
        assert got == pytest.approx(fd, rel=tol, abs=tol * max(1.0, abs(fd))), (
            f"directional derivative mismatch: {got} vs {fd}"
        )


@pytest.mark.parametrize("idx", range(6), ids=LABELS)
def test_h2_vertex_gradient_per_term(idx):
    coeffs = ONE_HOTS[idx]
    rng = np.random.default_rng(100 + idx)
    mesh = syn.bumpy_mesh(35, seed=idx, bump=0.05)
    u = 0.3 * rng.standard_normal((mesh.n_vertices, 3))
    v = 0.3 * rng.standard_normal((mesh.n_vertices, 3))
    faces = mesh.faces

    def fun(x):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return h2_inner(TriangleMesh(x, faces, validate=False), u, v, coeffs)

    grad = h2_vertex_gradient(_geometry(mesh), u, v, coeffs)
    _directional_match(fun, grad, mesh.vertices.copy(), rng)


def test_h2_vertex_gradient_full_metric():
    rng = np.random.default_rng(42)
    mesh = syn.icosphere(1)
    u = 0.2 * rng.standard_normal((mesh.n_vertices, 3))
    faces = mesh.faces
    # with every term active, a value carried from one term's pass into the
    # next shows only when u and v differ
    for polarized in (False, True):
        v = 0.2 * rng.standard_normal((mesh.n_vertices, 3)) if polarized else u

        def fun(x):
            return h2_inner(TriangleMesh(x, faces, validate=False), u, v, BODY)

        grad = h2_vertex_gradient(_geometry(mesh), u, v, BODY)
        _directional_match(fun, grad, mesh.vertices.copy(), rng)


@pytest.mark.parametrize("idx", range(6), ids=LABELS)
def test_step_energy_gradients_per_term(idx):
    coeffs = ONE_HOTS[idx]
    rng = np.random.default_rng(200 + idx)
    left = syn.bumpy_mesh(35, seed=10 + idx, bump=0.05)
    vr = left.vertices + 0.1 * rng.standard_normal(left.vertices.shape)
    faces = left.faces

    _, grad_l, grad_r = step_energy_discrete_with_grads(_geometry(left), vr, coeffs)

    def fun_r(x):
        return step_energy_discrete_with_grads(_geometry(left), x, coeffs)[0]

    _directional_match(fun_r, grad_r, vr.copy(), rng)

    def fun_l(x):
        return step_energy_discrete_with_grads(
            _geometry(TriangleMesh(x, faces, validate=False)), vr, coeffs
        )[0]

    _directional_match(fun_l, grad_l, left.vertices.copy(), rng)


def test_step_energy_gradients_full_metric():
    rng = np.random.default_rng(77)
    left = syn.icosphere(1)
    vr = left.vertices + 0.08 * rng.standard_normal(left.vertices.shape)
    faces = left.faces

    _, grad_l, grad_r = step_energy_discrete_with_grads(_geometry(left), vr, BODY)

    def fun_r(x):
        return step_energy_discrete_with_grads(_geometry(left), x, BODY)[0]

    def fun_l(x):
        return step_energy_discrete_with_grads(
            _geometry(TriangleMesh(x, faces, validate=False)), vr, BODY
        )[0]

    _directional_match(fun_r, grad_r, vr.copy(), rng)
    _directional_match(fun_l, grad_l, left.vertices.copy(), rng)


@pytest.mark.parametrize("coeffs", [ONE_HOTS[0], BODY], ids=["a0", "body"])
def test_path_energy_gradients_every_knot(coeffs):
    # a three-step path: interior knots collect the right gradient of one
    # step and the left gradient of the next, and all carry the factor T
    rng = np.random.default_rng(500)
    mesh = syn.bumpy_mesh(35, seed=5, bump=0.05)
    steps = 0.05 * rng.standard_normal((3,) + mesh.vertices.shape)
    knots = mesh.vertices + np.concatenate([np.zeros((1,) + mesh.vertices.shape),
                                            np.cumsum(steps, axis=0)])
    faces = mesh.faces

    energy, grad = path_energy_with_grads(knots, faces, coeffs)
    assert grad.shape == knots.shape
    if coeffs is ONE_HOTS[0]:
        # a0 alone: T * sum_t sum_i |q_{t+1, i} - q_{t, i}|^2 vol_i(q_t)
        vols = [vertex_volumes(TriangleMesh(q, faces)) for q in knots[:-1]]
        expected = 3 * sum(float(np.sum(s * s, axis=1) @ v) for s, v in zip(steps, vols))
        assert energy == pytest.approx(expected, rel=1e-12)

    def fun(x):
        return path_energy_with_grads(x, faces, coeffs)[0]

    _directional_match(fun, grad, knots.copy(), rng)


@pytest.mark.parametrize(
    "subdivisions, T, passes", [(2, 3, 1), (3, 8, 2)], ids=["one_pass", "two_passes"]
)
def test_path_energy_passes_match_per_step_sum(subdivisions, T, passes):
    # passes over unions of consecutive steps reorder only the energy's sum:
    # 1e-14 relative for the energy, 1e-13 of the largest gradient entry
    mesh = syn.icosphere(subdivisions)
    steps = _diff.PASS_FACES // mesh.n_faces  # steps per pass
    assert steps > 1 and -(-T // steps) == passes
    rng = np.random.default_rng(600 + T)
    faces = mesh.faces
    knots = mesh.vertices + np.concatenate([
        np.zeros((1,) + mesh.vertices.shape),
        np.cumsum(0.01 * rng.standard_normal((T,) + mesh.vertices.shape), axis=0),
    ])
    energy, grad = path_energy_with_grads(knots, faces, BODY)
    ref_energy, ref_grad = 0.0, np.zeros_like(knots)
    for t in range(T):
        geom = _geometry(TriangleMesh(knots[t], faces, validate=False))
        value, grad_l, grad_r = step_energy_discrete_with_grads(geom, knots[t + 1], BODY)
        ref_energy += value
        ref_grad[t] += grad_l
        ref_grad[t + 1] += grad_r
    ref_energy, ref_grad = T * ref_energy, T * ref_grad
    assert ref_energy > 0
    assert abs(energy - ref_energy) <= 1e-14 * ref_energy
    assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("steps_per_pass", [1, 2, 3])
@pytest.mark.parametrize(
    "lift, knot",
    [(0.0, 2), (1e-9, 2), (0.0, 3)],
    ids=["zero_area", "ill_conditioned", "zero_area_last_knot"],
)
def test_mesh_path_degenerate_knot_names_template_face_and_knot(monkeypatch, lift, knot,
                                                                steps_per_pass):
    # the knots of the latent twin of this test, decoded: vertex 5 sits on the
    # midpoint of the opposite edge of face 8 at ``knot``, or ``lift`` above it.
    # A right knot fails on its unit normals, a left knot on its geometry;
    # the last knot is only a right knot, whose metric tensor is not inverted
    template = syn.grid_mesh(4, 4, 1.0)
    face = 8
    v0, v1, v2 = template.faces[face]
    fields = np.zeros((2, template.n_vertices, 3))
    verts = template.vertices
    fields[0, v0] = 0.5 * (verts[v1] + verts[v2]) - verts[v0] + [0.0, 0.0, lift]
    fields[1] = 0.1 * np.sin(verts + 1.0)
    path = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.0], [0.2, 0.0]])
    path[knot] = [1.0, 0.0]
    knots = verts + np.tensordot(path, fields, axes=1)
    monkeypatch.setattr(_diff, "PASS_FACES", steps_per_pass * template.n_faces)
    reason = "zero-area face" if lift == 0.0 else "ill-conditioned metric tensor"
    with pytest.raises(DegenerateFaceError) as err:
        path_energy_with_grads(knots, template.faces, BODY)
    assert err.value.face_index == face < template.n_faces
    assert str(err.value) == f"{reason} at knot {knot} (face {face})"


def test_mesh_path_non_finite_knot_raises():
    mesh = syn.icosphere(1)
    knots = np.stack([mesh.vertices, 1.1 * mesh.vertices, 1.2 * mesh.vertices])
    knots[1, 3, 0] = np.nan
    with pytest.raises(MeshError, match="non-finite vertex coordinates"):
        path_energy_with_grads(knots, mesh.faces, BODY)


@pytest.mark.parametrize(
    "coeffs",
    [ONE_HOTS[0], ONE_HOTS[4], ONE_HOTS[5], MetricCoefficients(1.0, 0, 0, 0, 1.0, 1.0)],
    ids=["a0", "d1", "a2", "a0+d1+a2"],
)
def test_step_energy_is_analytic_form_without_finite_differences(coeffs):
    # the a0, d1 and a2 variations of a step are linear in u = r - q, so the
    # step energy is the analytic G_q(u, u) and its two gradients sum to the
    # analytic foot-point gradient
    rng = np.random.default_rng(300)
    mesh = syn.bumpy_mesh(35, seed=3, bump=0.05)
    u = 0.1 * rng.standard_normal(mesh.vertices.shape)
    geom = _geometry(mesh)

    value, grad_l, grad_r = step_energy_discrete_with_grads(geom, mesh.vertices + u, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one-hot weights are degenerate
        analytic = h2_inner(mesh, u, u, coeffs, geometry=geom)
    assert value == pytest.approx(analytic, rel=1e-12)
    expected = h2_vertex_gradient(geom, u, u, coeffs)
    assert np.max(np.abs(grad_l + grad_r - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "mesh", [syn.icosphere(2), syn.bumpy_mesh(60), syn.grid_mesh(6, 6, 0.2)],
    ids=["icosphere2", "bumpy60", "grid_with_boundary"],
)
def test_face_blocks_symmetric_positive_semidefinite(mesh):
    geom = _geometry(mesh)
    blocks = face_blocks(geom, BODY)
    assert blocks.shape == (mesh.n_faces, 6, 6)
    scale = np.abs(blocks).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(blocks - blocks.transpose(0, 2, 1)) <= 4e-16 * scale)
    eig = np.linalg.eigvalsh(blocks)
    assert np.all(eig[:, 0] >= -1e-12 * eig[:, -1])
    # the blocks reproduce the face-local terms of the analytic form
    rng = np.random.default_rng(41)
    h, k = rng.standard_normal((2,) + mesh.vertices.shape)
    dh, dk = (_field_differential(mesh.faces, x).reshape(-1, 6) for x in (h, k))
    local = MetricCoefficients(0.0, BODY.a1, BODY.b1, BODY.c1, BODY.d1, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = h2_inner(mesh, h, k, local, geometry=geom)
    assert np.einsum("mi,mij,mj->", dh, blocks, dk) == pytest.approx(expected, rel=1e-12)


def test_h2_vertex_gradient_same_field_equals_copy():
    # v is u reuses the first field's differential, symmetric part, rotation
    # and normal components; the result must not depend on that shortcut
    meshes = [syn.bumpy_mesh(35, seed=4, bump=0.05), syn.icosphere(3), syn.bumpy_mesh(30),
              syn.grid_mesh(6, 6, 0.2)]
    rng = np.random.default_rng(400)
    for mesh in meshes:
        u = 0.3 * rng.standard_normal(mesh.vertices.shape)
        geom = _geometry(mesh)
        for coeffs in (BODY, MetricCoefficients.faces(), ONE_HOTS[3], ONE_HOTS[4]):
            assert np.array_equal(
                h2_vertex_gradient(geom, u, u, coeffs),
                h2_vertex_gradient(geom, u, u.copy(), coeffs),
            ), (mesh.n_vertices, coeffs)


def test_step_energy_zero_at_rest():
    mesh = syn.icosphere(1)
    value, grad_l, grad_r = step_energy_discrete_with_grads(
        _geometry(mesh), mesh.vertices, BODY
    )
    assert value == 0.0
    assert np.max(np.abs(grad_l)) < 1e-12
    assert np.max(np.abs(grad_r)) < 1e-12


def _assert_linear_in_weights(fun, coefficients):
    """``fun(w)`` equals ``sum_i w_i fun(e_i)`` over the six one-hot weight vectors."""
    full = fun(coefficients)
    parts = sum(w * fun(e) for w, e in zip(coefficients.as_array(), ONE_HOTS))
    assert np.max(np.abs(full - parts)) <= 1e-12 * np.max(np.abs(full))


def test_h2_vertex_gradient_linear_in_the_weights():
    # a one-hot weight vector runs the full metric's code with five terms
    # multiplied by zero; the six one-hot gradients must add up to the preset's
    mesh = syn.bumpy_mesh(35, seed=5, bump=0.05)
    rng = np.random.default_rng(500)
    u = 0.3 * rng.standard_normal(mesh.vertices.shape)
    v = 0.3 * rng.standard_normal(mesh.vertices.shape)
    geom = _geometry(mesh)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for second in (v, u):
            _assert_linear_in_weights(lambda c: h2_vertex_gradient(geom, u, second, c), BODY)


def test_step_energy_linear_in_the_weights():
    left = syn.bumpy_mesh(35, seed=6, bump=0.05)
    rng = np.random.default_rng(501)
    vr = left.vertices + 0.1 * rng.standard_normal(left.vertices.shape)
    geom = _geometry(left)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for part in range(3):  # the value and the left and right gradients
            _assert_linear_in_weights(
                lambda c: np.asarray(step_energy_discrete_with_grads(geom, vr, c)[part]), BODY
            )
