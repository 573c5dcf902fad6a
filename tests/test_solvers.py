import tracemalloc

import numpy as np
import pytest

from elsa import (
    MetricCoefficients,
    MultiscaleSchedule,
    OptimizerConfig,
    SolveReport,
    SolverFailure,
    VarifoldTarget,
    decode,
    face_frames,
    geodesic_bvp,
    geodesic_ivp,
    gram,
    latent_path_energy,
    minimize,
    parametrized_geodesic,
    relaxed_geodesic,
    retrieve_latent,
    varifold_sqdist,
)
from elsa import _diff, latent, metric, solvers
from elsa.latent import LatentBasis, latent_path_energy_with_grad
from elsa.mesh import DegenerateFaceError, MeshError
from elsa.metric import _geometry

import synthetic as syn

BODY = MetricCoefficients.bodies()
A0 = MetricCoefficients(1.0, 0, 0, 0, 0, 0)

# small schedule keeping unit tests fast; the full presets run in acceptance
FAST_SCHEDULE = MultiscaleSchedule(stages=((0.3, 1e3), (0.1, 1e6), (0.05, 1e8)))
TIGHT = OptimizerConfig(max_iterations=800, gradient_tolerance=1e-10)


# ---------------------------------------------------------------------------
# quasi-Newton engine
# ---------------------------------------------------------------------------


def test_quadratic_matches_direct_solve():
    rng = np.random.default_rng(0)
    d = 10
    root = rng.standard_normal((d, d))
    amat = root @ root.T + d * np.eye(d)
    b = rng.standard_normal(d)

    def fun(x):
        return 0.5 * float(x @ amat @ x) - float(b @ x), amat @ x - b

    x, report = minimize(fun, np.zeros(d), TIGHT)
    expected = np.linalg.solve(amat, b)
    assert np.max(np.abs(x - expected)) < 1e-6
    assert report.reason == "converged"


def test_already_optimal_returns_immediately():
    def fun(x):
        return float(x @ x), 2.0 * x

    x, report = minimize(fun, np.zeros(4))
    assert report.iterations[0] <= 1
    assert report.reason == "converged"
    assert np.array_equal(x, np.zeros(4))


def test_rosenbrock_standard_start():
    def fun(x):
        a, b = x
        f = (1 - a) ** 2 + 100.0 * (b - a**2) ** 2
        g = np.array(
            [-2 * (1 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)]
        )
        return f, g

    x, report = minimize(
        fun, np.array([-1.2, 1.0]), OptimizerConfig(max_iterations=200, gradient_tolerance=1e-12)
    )
    f, _ = fun(x)
    assert f < 1e-8
    assert report.iterations[0] <= 200


def test_monotone_accepted_iterates():
    rng = np.random.default_rng(1)
    d = 6
    root = rng.standard_normal((d, d))
    amat = root @ root.T + np.eye(d)
    values = []

    def fun(x):
        return float(x @ amat @ x) + float(np.sin(x).sum()), (amat + amat.T) @ x + np.cos(x)

    minimize(fun, rng.standard_normal(d), callback=lambda x, f: values.append(f))
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_failed_memory_direction_retried_along_steepest_descent(monkeypatch):
    amat = np.diag([1.0, 10.0, 100.0])
    real = solvers._line_search
    steepest = []

    def memory_direction_fails_once(fun, x, f0, g0, d):
        steepest.append(bool(np.array_equal(d, -g0)))
        if steepest.count(False) == 1 and not steepest[-1]:
            return None
        return real(fun, x, f0, g0, d)

    monkeypatch.setattr(solvers, "_line_search", memory_direction_fails_once)
    x, report = minimize(lambda x: (0.5 * float(x @ amat @ x), amat @ x), np.ones(3), TIGHT)
    first_failure = steepest.index(False)
    assert steepest[first_failure + 1]
    assert report.reason == "converged"
    assert np.max(np.abs(x)) < 1e-9


def test_line_search_gives_up_below_the_rounding_of_f():
    # every step changes f = 1 + 1e-20 |x|^2 by far less than an ulp of 1
    evaluations = []

    def fun(x):
        evaluations.append(x)
        return 1.0 + 1e-20 * float(x @ x), 2e-20 * x

    _, report = minimize(fun, np.ones(2), OptimizerConfig(gradient_tolerance=1e-30))
    assert report.reason == "line_search_failure"
    assert len(evaluations) <= 3


def test_nonfinite_start_raises():
    def fun(x):
        return np.inf, None

    with pytest.raises(SolverFailure):
        minimize(fun, np.zeros(2))


def test_nonfinite_region_backed_off():
    # objective is a valley with an invalid region at x[0] > 1
    def fun(x):
        if x[0] > 1.0:
            return np.inf, None
        return float((x - 0.9) @ (x - 0.9)), 2.0 * (x - 0.9)

    x, report = minimize(fun, np.array([0.0, 0.0]))
    assert report.value < 1e-12
    assert np.max(np.abs(x - 0.9)) < 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        MultiscaleSchedule(stages=())
    with pytest.raises(ValueError):
        MultiscaleSchedule(stages=((0.1, 1.0), (0.2, 2.0)))  # sigma increases
    with pytest.raises(ValueError):
        MultiscaleSchedule(stages=((0.2, 2.0), (0.1, 1.0)))  # lambda decreases
    bodies = MultiscaleSchedule.bodies()
    assert bodies.stages[0] == (0.4, 1e2)
    assert bodies.stages[-1] == (0.025, 1e8)
    faces = MultiscaleSchedule.faces()
    assert faces.stages == ((0.01, 1e6), (0.005, 1e10))


# ---------------------------------------------------------------------------
# latent code retrieval
# ---------------------------------------------------------------------------


def test_retrieve_template_is_zero_path():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=1)
    path, report = retrieve_latent(basis, basis.template, BODY, FAST_SCHEDULE, time_steps=3)
    assert report.details["varifold_sqdist"] < 1e-8
    assert np.max(np.abs(path)) < 1e-2
    assert np.array_equal(path[0], np.zeros(basis.dim))


def test_retrieve_round_trip():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=2)
    rng = np.random.default_rng(3)
    alpha = 0.1 * rng.standard_normal(basis.dim)
    target = decode(basis, alpha)
    path, report = retrieve_latent(basis, target, BODY, FAST_SCHEDULE, time_steps=3)
    norm = VarifoldTarget(target, FAST_SCHEDULE.stages[-1][0]).norm_sq
    assert report.details["varifold_sqdist"] < 1e-6 * norm
    # the interior knots are the geodesic to the retrieved code
    energy, grad = latent_path_energy_with_grad(basis, path, BODY)
    assert np.max(np.abs(grad[1:-1])) < 1e-6 * energy


def test_retrieve_permutation_invariant_objective():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=4)
    rng = np.random.default_rng(5)
    alpha = 0.1 * rng.standard_normal(basis.dim)
    target = decode(basis, alpha)
    shuffled, _ = syn.permute_mesh(target, seed=6)
    path_a, rep_a = retrieve_latent(basis, target, BODY, FAST_SCHEDULE, time_steps=3)
    path_b, rep_b = retrieve_latent(basis, shuffled, BODY, FAST_SCHEDULE, time_steps=3)
    assert np.max(np.abs(path_a - path_b)) < 1e-6 * max(1.0, np.max(np.abs(path_a)))
    norm = VarifoldTarget(target, FAST_SCHEDULE.stages[-1][0]).norm_sq
    assert rep_b.details["varifold_sqdist"] < 1e-6 * norm


def test_multistage_solves_report_every_stage_reason():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=4)
    target = decode(basis, 0.1 * np.random.default_rng(5).standard_normal(basis.dim))
    schedule = MultiscaleSchedule(stages=((0.3, 1e3), (0.1, 1e6)))
    budget = OptimizerConfig(max_iterations=2)
    _, retrieved = retrieve_latent(basis, target, BODY, schedule, time_steps=2, config=budget)
    _, relaxed = relaxed_geodesic(basis, target, target, 2, BODY, schedule, budget)
    for report in (retrieved, relaxed):
        assert report.iterations == [2, 2]
        assert report.reasons == ["max_iters", "max_iters"]
        assert report.reason == report.reasons[-1]


def test_relaxed_solvers_build_each_target_once_per_stage(monkeypatch):
    built = []
    post_init = VarifoldTarget.__post_init__

    def counted(self):
        built.append(self.sigma)
        post_init(self)

    monkeypatch.setattr(VarifoldTarget, "__post_init__", counted)
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=4)
    target = decode(basis, 0.1 * np.random.default_rng(5).standard_normal(basis.dim))
    schedule = MultiscaleSchedule(stages=((0.3, 1e3), (0.1, 1e6)))
    budget = OptimizerConfig(max_iterations=3)
    retrieve_latent(basis, target, BODY, schedule, time_steps=2, config=budget)
    assert built == [0.3, 0.1]
    built.clear()
    relaxed_geodesic(basis, target, target, 2, BODY, schedule, budget)
    assert built == [0.3, 0.3, 0.1, 0.1]


def test_solve_report_needs_one_reason_per_stage():
    with pytest.raises(ValueError):
        SolveReport(value=0.0, grad_norm=0.0, iterations=[1, 2], reason="converged",
                    reasons=["converged"])


# ---------------------------------------------------------------------------
# boundary value problem
# ---------------------------------------------------------------------------


def test_bvp_equal_endpoints():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=7)
    alpha = 0.05 * np.ones(basis.dim)
    path, report = geodesic_bvp(basis, alpha, alpha, 5, BODY, TIGHT)
    assert latent_path_energy(basis, path, BODY) < 1e-10
    assert np.max(np.abs(path - alpha)) < 1e-6


def test_bvp_single_step_has_no_free_knot():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=7)
    a0 = 0.05 * np.ones(basis.dim)
    a1 = -0.03 * np.arange(basis.dim)
    path, report = geodesic_bvp(basis, a0, a1, 1, BODY, TIGHT)
    assert np.array_equal(path, np.stack([a0, a1]))
    assert report.iterations == [0]
    assert report.reason == "converged"
    assert report.value == latent_path_energy(basis, path, BODY)


def test_bvp_translation_basis_straight_line():
    basis = syn.translation_basis(syn.icosphere(1))
    a0 = np.zeros(3)
    a1 = np.array([0.4, -0.2, 0.3])
    path, report = geodesic_bvp(basis, a0, a1, 5, BODY, TIGHT)
    expected = np.linspace(0, 1, 6)[:, None] * a1
    assert np.max(np.abs(path - expected)) < 1e-8


def test_bvp_improves_on_linear_initialization():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=8, scale=0.08)
    rng = np.random.default_rng(9)
    a0 = 0.1 * rng.standard_normal(basis.dim)
    a1 = 0.1 * rng.standard_normal(basis.dim)
    T = 5
    linear = np.linspace(0, 1, T + 1)[:, None] * (a1 - a0) + a0
    e_init = latent_path_energy(basis, linear, BODY)
    path, report = geodesic_bvp(basis, a0, a1, T, BODY)
    e_final = latent_path_energy(basis, path, BODY)
    assert e_final <= e_init + 1e-12
    assert np.allclose(path[0], a0) and np.allclose(path[-1], a1)


def test_bvp_endpoint_swap_symmetry():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=10, scale=0.05)
    rng = np.random.default_rng(11)
    a0 = 0.08 * rng.standard_normal(basis.dim)
    a1 = 0.08 * rng.standard_normal(basis.dim)
    T = 20
    fwd, _ = geodesic_bvp(basis, a0, a1, T, BODY, TIGHT)
    bwd, _ = geodesic_bvp(basis, a1, a0, T, BODY, TIGHT)
    ef = latent_path_energy(basis, fwd, BODY)
    eb = latent_path_energy(basis, bwd, BODY)
    assert abs(ef - eb) < 0.02 * ef


# ---------------------------------------------------------------------------
# relaxed two-endpoint matching
# ---------------------------------------------------------------------------


def test_relaxed_template_endpoints():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=12)
    path, report = relaxed_geodesic(
        basis, basis.template, basis.template, 3, BODY, FAST_SCHEDULE
    )
    assert report.details["gamma0"] < 1e-8
    assert report.details["gamma1"] < 1e-8
    assert latent_path_energy(basis, path, BODY) < 1e-8


def test_relaxed_round_trip_with_permuted_targets():
    basis = syn.random_basis(syn.icosphere(1), 2, 3, seed=13)
    rng = np.random.default_rng(14)
    alpha0 = 0.08 * rng.standard_normal(basis.dim)
    alpha1 = 0.08 * rng.standard_normal(basis.dim)
    q0, _ = syn.permute_mesh(decode(basis, alpha0), seed=15)
    q1, _ = syn.permute_mesh(decode(basis, alpha1), seed=16)
    path, report = relaxed_geodesic(basis, q0, q1, 3, BODY, FAST_SCHEDULE)
    sig = FAST_SCHEDULE.stages[-1][0]
    assert report.details["gamma0"] < 1e-4 * VarifoldTarget(q0, sig).norm_sq
    assert report.details["gamma1"] < 1e-4 * VarifoldTarget(q1, sig).norm_sq


def test_relaxed_consistent_with_two_stage_pipeline():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=17, scale=0.06)
    rng = np.random.default_rng(18)
    alpha0 = 0.1 * rng.standard_normal(basis.dim)
    alpha1 = 0.1 * rng.standard_normal(basis.dim)
    q0 = decode(basis, alpha0)
    q1 = decode(basis, alpha1)
    T = 4
    joint_path, joint_rep = relaxed_geodesic(basis, q0, q1, T, BODY, FAST_SCHEDULE, TIGHT)
    ra, _ = retrieve_latent(basis, q0, BODY, FAST_SCHEDULE, time_steps=T, config=TIGHT)
    rb, _ = retrieve_latent(basis, q1, BODY, FAST_SCHEDULE, time_steps=T, config=TIGHT)
    two_stage, _ = geodesic_bvp(basis, ra[-1], rb[-1], T, BODY, TIGHT)
    e_joint = latent_path_energy(basis, joint_path, BODY)
    e_two = latent_path_energy(basis, two_stage, BODY)
    assert abs(e_joint - e_two) < 0.01 * max(e_joint, e_two)


# ---------------------------------------------------------------------------
# initial value problem (shooting)
# ---------------------------------------------------------------------------


def test_ivp_zero_velocity_constant_path():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=19)
    alpha = 0.05 * np.ones(basis.dim)
    path = geodesic_ivp(basis, alpha, np.zeros(basis.dim), 5, BODY)
    assert np.max(np.abs(path - alpha)) < 1e-12


def test_ivp_translation_basis_uniform_steps():
    basis = syn.translation_basis(syn.icosphere(1))
    beta = np.array([0.6, -0.3, 0.9])
    n = 5
    path = geodesic_ivp(basis, np.zeros(3), beta, n, BODY)
    expected = np.linspace(0, 1, n + 1)[:, None] * beta
    assert np.max(np.abs(path - expected)) < 1e-8


def test_ivp_consistent_with_bvp():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=20, scale=0.05)
    rng = np.random.default_rng(21)
    a0 = 0.05 * rng.standard_normal(basis.dim)
    a1 = a0 + 0.15 * rng.standard_normal(basis.dim)
    n = 5
    bvp_path, _ = geodesic_bvp(basis, a0, a1, n, BODY, TIGHT)
    beta = n * (bvp_path[1] - bvp_path[0])
    shot = geodesic_ivp(basis, a0, beta, n, BODY)
    err = np.linalg.norm(shot[-1] - a1) / max(np.linalg.norm(a1 - a0), 1e-12)
    assert err < 1e-2


def test_shooting_jacobian_matches_central_differences():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=23)
    rng = np.random.default_rng(24)
    alpha = 0.3 * rng.standard_normal(basis.dim)
    geom = _geometry(decode(basis, alpha))
    g_cur = gram(basis, alpha, BODY)
    rhs = rng.standard_normal(basis.dim)
    residual, jacobian = solvers._shooting_system(basis, geom, g_cur, rhs, BODY)
    b = 0.5 * rng.standard_normal(basis.dim)
    # the residual is quadratic in b: central differences are exact up to rounding
    h = 1e-3
    eye = np.eye(basis.dim)
    fd = np.stack([(residual(b + h * e) - residual(b - h * e)) / (2 * h) for e in eye], axis=1)
    jac = jacobian(b)
    assert np.max(np.abs(jac - fd)) < 1e-9 * np.max(np.abs(jac))
    # the derivative part alone: the polarized foot-point calls against D(b, b)
    assert np.max(np.abs(jac + 2.0 * g_cur)) > 1e-3 * np.max(np.abs(jac))


@pytest.mark.parametrize(
    "mesh",
    [syn.icosphere(2), syn.bumpy_mesh(60), syn.grid_mesh(6, 6, 0.2)],
    ids=["icosphere2", "bumpy60", "grid_with_boundary"],
)
def test_shooting_jacobian_matches_polarized_columns(mesh, monkeypatch):
    # the Jacobian from per-face blocks against the column loop it replaces:
    # one polarized foot-point gradient per field
    basis = syn.random_basis(mesh, 3, 3, seed=25)
    rng = np.random.default_rng(26)
    alpha = 0.3 * rng.standard_normal(basis.dim)
    geom = _geometry(decode(basis, alpha))
    b = 0.5 * rng.standard_normal(basis.dim)
    u = np.tensordot(b, basis.fields, axes=1)
    one_hots = [MetricCoefficients(*np.eye(6)[k]) for k in range(6)]
    for coefficients in [BODY, MetricCoefficients.faces(), *one_hots]:
        g_cur = gram(basis, alpha, coefficients, geometry=geom)
        columns = np.stack([
            basis.fields_matrix @ solvers.h2_vertex_gradient(geom, u, f, coefficients).ravel()
            for f in basis.fields
        ], axis=1)
        expected = 2.0 * (columns - g_cur)
        _, jacobian = solvers._shooting_system(basis, geom, g_cur, np.zeros(basis.dim), coefficients)
        jac = jacobian(b)
        assert np.max(np.abs(jac - expected)) <= 1e-12 * np.max(np.abs(expected))

    calls = []

    def counting(original):
        def counted(*args):
            calls.append(None)
            return original(*args)

        return counted

    for module in (solvers, _diff):
        monkeypatch.setattr(module, "h2_vertex_gradient", counting(module.h2_vertex_gradient))
    _, jacobian = solvers._shooting_system(basis, geom, g_cur, np.zeros(basis.dim), BODY)
    jacobian(b)
    assert calls == []


def test_shooting_jacobian_peaks_below_gram():
    # the per-face blocks and the fields' differentials must not cost more
    # memory than the Gram matrix at the same foot point
    basis = syn.random_basis(syn.icosphere(3), 20, 20, seed=31)
    rng = np.random.default_rng(32)
    alpha = 0.3 * rng.standard_normal(basis.dim)
    geom = _geometry(decode(basis, alpha))
    b = 0.3 * rng.standard_normal(basis.dim)
    g_cur = gram(basis, alpha, BODY, geometry=geom)

    def peak(fun):
        tracemalloc.start()
        try:
            fun()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def one_jacobian():
        _, jacobian = solvers._shooting_system(basis, geom, g_cur, np.zeros(basis.dim), BODY)
        return jacobian(b)

    assert peak(one_jacobian) <= peak(lambda: gram(basis, alpha, BODY, geometry=geom))


def test_field_differentials_built_once_per_basis(monkeypatch):
    # the Gram and the shooting Jacobian read the basis's cached differentials;
    # no call differentiates the P fields again
    basis = syn.random_basis(syn.icosphere(2), 3, 3, seed=33)
    rng = np.random.default_rng(34)
    stacks = []

    def counting(original):
        def counted(faces, h):
            if np.ndim(h) == 3:
                stacks.append(None)
            return original(faces, h)

        return counted

    for module in (_diff, latent, metric):
        monkeypatch.setattr(module, "_field_differential", counting(module._field_differential))
    for _ in range(3):
        alpha = 0.2 * rng.standard_normal(basis.dim)
        geom = _geometry(decode(basis, alpha))
        g_cur = gram(basis, alpha, BODY, geometry=geom)
        _, jacobian = solvers._shooting_system(basis, geom, g_cur, np.zeros(basis.dim), BODY)
        jacobian(0.3 * rng.standard_normal(basis.dim))
        jacobian(0.3 * rng.standard_normal(basis.dim))
    assert len(stacks) == 1
    assert not basis.differentials.flags.writeable


def test_ivp_knots_are_discrete_geodesic_knots():
    # every interior knot of a long shot is the discrete geodesic midpoint of its
    # two neighbours
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=14, scale=0.1)
    rng = np.random.default_rng(14)
    alpha0 = 0.05 * rng.standard_normal(basis.dim)
    beta = rng.standard_normal(basis.dim)
    tol = 1e-8 * basis.dim
    path = geodesic_ivp(basis, alpha0, 4.0 * beta / np.linalg.norm(beta), 5, BODY)
    for k in range(1, len(path) - 1):
        _, grad = latent_path_energy_with_grad(basis, path[k - 1:k + 2], BODY)
        # the two-step energy's middle-knot gradient is T = 2 times the residual
        assert np.linalg.norm(grad[1]) / 2 <= tol


def test_ivp_residual_tolerance_enforced(monkeypatch):
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=22)
    calls = []
    original = solvers.h2_vertex_gradient

    def counted(*args):
        calls.append(None)
        return original(*args)

    # the residual reaches its rounding within a few evaluations; the solve must
    # give up there instead of backtracking on noise
    monkeypatch.setattr(solvers, "h2_vertex_gradient", counted)
    monkeypatch.setattr(solvers, "RESIDUAL_TOLERANCE", 1e-300)
    with pytest.raises(SolverFailure) as err:
        geodesic_ivp(basis, np.zeros(basis.dim), 0.05 * np.ones(basis.dim), 4, BODY)
    assert "step" in str(err.value)
    assert len(calls) <= 100


def _newton(residual, jacobian, b, tol=1e-12):
    """Run the shooting step's solve on a synthetic system; count residual calls."""
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return residual(x)

    b = np.asarray(b, dtype=float)
    out, rn = solvers._midpoint_residual_solve(
        counted, jacobian, b, np.zeros((b.size, b.size)), np.zeros(b.size), tol
    )
    return out, rn, calls


def test_newton_full_steps_converge():
    # a linear system: one full Newton step lands on the root
    amat = np.array([[3.0, 1.0], [1.0, 2.0]])
    rhs = np.array([1.0, -2.0])
    b, rn, calls = _newton(lambda x: amat @ x - rhs, lambda x: amat, np.zeros(2))
    assert rn <= 1e-12
    assert np.allclose(b, np.linalg.solve(amat, rhs), rtol=0, atol=1e-14)
    assert len(calls) == 2


def test_newton_step_accepted_after_halving():
    # arctan's full Newton step from b = 1.5 overshoots to |b| > 1.5; the
    # halved step falls, and Newton then converges to the root at 0
    b, rn, calls = _newton(np.arctan, lambda x: np.diag(1.0 / (1.0 + x**2)), [1.5])
    assert rn <= 1e-12 and abs(b[0]) <= 1e-12
    full = 1.5 - np.arctan(1.5) * (1.0 + 1.5**2)
    assert calls[1][0] == pytest.approx(full, rel=1e-14)
    assert abs(np.arctan(calls[1][0])) > np.arctan(1.5)
    assert calls[2][0] == pytest.approx(0.5 * (1.5 + full), rel=1e-14)


def test_newton_stops_at_halving_cap_without_root():
    # b^2 + 1 has no real root: the solve gives up once MAX_NEWTON_HALVINGS
    # halvings find no fall, above tolerance, after a bounded number of calls
    b, rn, calls = _newton(lambda x: x**2 + 1.0, lambda x: np.diag(2.0 * x), [0.5])
    assert rn >= 1.0
    assert np.isfinite(b).all()
    # the last iterate tried every halving
    last = calls[-(solvers.MAX_NEWTON_HALVINGS + 1):]
    assert all(float(c[0] ** 2 + 1.0) >= rn for c in last)
    assert len(calls) <= 3 * (solvers.MAX_NEWTON_HALVINGS + 1)


def test_newton_singular_jacobian_ends_above_tolerance():
    # a singular Jacobian has no Newton step: the solve stops there instead of
    # raising LinAlgError, and its residual stays above tolerance
    b0 = np.array([1.0, 2.0])
    b, rn, calls = _newton(lambda x: x + 1.0, lambda x: np.zeros((2, 2)), b0)
    assert np.array_equal(b, b0)
    assert rn == np.linalg.norm(b0 + 1.0)
    assert len(calls) == 1



def _built_at(jacobian):
    """Wrap a Jacobian callable; the list records the iterate of each build."""
    where = []

    def counted(x):
        where.append(np.array(x))
        return jacobian(x)

    return counted, where


def test_newton_reuses_the_jacobian_while_steps_halve_the_residual():
    # a mildly nonlinear system: every step on the starting Jacobian at least
    # halves |Phi|, so the solve converges without building another
    amat = np.array([[3.0, 1.0], [1.0, 2.0]])
    rhs = np.array([1.0, -2.0])
    jacobian, where = _built_at(lambda x: amat + np.diag(0.1 * x))
    b, rn, calls = _newton(lambda x: amat @ x + 0.05 * x**2 - rhs, jacobian, np.zeros(2))
    assert rn <= 1e-12
    assert len(where) == 1 and np.array_equal(where[0], np.zeros(2))
    assert len(calls) > 3
    norms = [np.linalg.norm(amat @ c + 0.05 * c**2 - rhs) for c in calls]
    assert all(n1 <= 0.5 * n0 for n0, n1 in zip(norms, norms[1:]))


def test_newton_rebuilds_the_jacobian_at_the_iterate_not_the_rejected_step():
    # arctan from b = 1.5: the first step is accepted after one halving (calls
    # 1, 2); the full step on that stale Jacobian does not halve |Phi| (call 3),
    # so it is dropped and the Jacobian rebuilt at the accepted iterate
    jacobian, where = _built_at(lambda x: np.diag(1.0 / (1.0 + x**2)))
    b, rn, calls = _newton(np.arctan, jacobian, [1.5])
    assert rn <= 1e-12 and abs(b[0]) <= 1e-12
    accepted, rejected = calls[2], calls[3]
    assert abs(np.arctan(rejected[0])) > 0.5 * abs(np.arctan(accepted[0]))
    assert rejected[0] == pytest.approx(accepted[0] - np.arctan(accepted[0]) * (1.0 + 1.5**2))
    assert len(where) == 2
    assert where[0][0] == 1.5 and where[1][0] == accepted[0]
    # the later steps reuse the rebuilt Jacobian: every one after the rejected
    # candidate lands at least halfway to the root
    after = [abs(np.arctan(c[0])) for c in [accepted, *calls[4:]]]
    assert all(n1 <= 0.5 * n0 for n0, n1 in zip(after, after[1:]))


def test_ivp_builds_one_jacobian_per_step(monkeypatch):
    basis = syn.random_basis(syn.icosphere(2), 3, 3, seed=5)
    rng = np.random.default_rng(5)
    alpha0 = 0.1 * rng.standard_normal(basis.dim)
    beta = rng.standard_normal(basis.dim)
    original = solvers._shooting_system
    steps = []

    def counted(*args):
        residual, jacobian = original(*args)
        jacobian, where = _built_at(jacobian)
        steps.append(where)
        return residual, jacobian

    monkeypatch.setattr(solvers, "_shooting_system", counted)
    geodesic_ivp(basis, alpha0, 0.5 * beta / np.linalg.norm(beta), 5, BODY)
    assert [len(where) for where in steps] == [1, 1, 1, 1]


def test_ivp_singular_jacobian_fails_the_step(monkeypatch):
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=22)
    original = solvers._shooting_system

    def singular(*args):
        residual, _ = original(*args)
        return residual, lambda b: np.zeros((b.size, b.size))

    monkeypatch.setattr(solvers, "_shooting_system", singular)
    with pytest.raises(SolverFailure, match="at step 1"):
        geodesic_ivp(basis, np.zeros(basis.dim), 0.5 * np.ones(basis.dim), 4, BODY)


def test_ivp_rejects_velocity_of_wrong_shape():
    basis = syn.random_basis(syn.icosphere(1), 2, 2, seed=22)
    with pytest.raises(ValueError, match="shape"):
        geodesic_ivp(basis, np.zeros(basis.dim), [0.5], 4, BODY)


def _collapse_basis():
    # the only field pulls every vertex to the origin: code 1 is a point
    template = syn.icosphere(1)
    return LatentBasis(template, -template.vertices[None], 1, 0)


@pytest.mark.parametrize("alpha0, beta, knot", [(1.0, 0.4, 0), (0.0, 4.0, 1)])
def test_ivp_degenerate_knot_named(alpha0, beta, knot):
    with pytest.raises(DegenerateFaceError, match=f"zero-area face at knot {knot}"):
        geodesic_ivp(_collapse_basis(), [alpha0], [beta], 4, BODY)


def test_ivp_degenerate_later_knot_named(monkeypatch):
    # a step that lands on the collapsed code names the knot it makes
    def to_collapse(residual, jacobian, b, g_cur, rhs, tol):
        return 0.9, 0.0

    monkeypatch.setattr(solvers, "_midpoint_residual_solve", to_collapse)
    with pytest.raises(DegenerateFaceError, match="zero-area face at knot 2"):
        geodesic_ivp(_collapse_basis(), [0.0], [0.4], 4, BODY)


# ---------------------------------------------------------------------------
# same-topology mesh geodesics
# ---------------------------------------------------------------------------


def test_parametrized_equal_endpoints():
    mesh = syn.icosphere(1)
    path = parametrized_geodesic(mesh, mesh, 3, BODY)
    assert len(path) == 4
    from elsa import path_energy

    assert path_energy(path, BODY) < 1e-12


def test_parametrized_translation_near_linear():
    # under the full metric a pure translation only pays the zeroth-order
    # term; the solver may undercut the linear path by a discretization-size
    # margin (the zeroth-order term alone is degenerate: paths can shrink
    # through smaller surfaces, so exact linearity holds only in the
    # translation-restricted latent setting)
    mesh = syn.icosphere(1)
    shift = np.array([0.08, 0.02, -0.05])
    target = mesh.with_vertices(mesh.vertices + shift)
    path = parametrized_geodesic(mesh, target, 4, BODY, TIGHT)
    from elsa import path_energy

    area = face_frames(mesh).area.sum()
    expected = float(shift @ shift) * area
    got = path_energy(path, BODY)
    assert got <= expected * (1 + 1e-9)
    assert got == pytest.approx(expected, rel=1e-4)
    for t, knot in enumerate(path):
        lin = mesh.vertices + (t / 4) * shift
        assert np.max(np.abs(knot.vertices - lin)) < 1e-3


def test_parametrized_translation_a0_only_upper_bound():
    # the zeroth-order-only energy admits shrink shortcuts; the solver must
    # do at least as well as the linear path
    mesh = syn.icosphere(1)
    shift = np.array([0.3, 0.0, 0.1])
    target = mesh.with_vertices(mesh.vertices + shift)
    path = parametrized_geodesic(mesh, target, 3, A0, OptimizerConfig(max_iterations=200))
    from elsa import path_energy

    area = face_frames(mesh).area.sum()
    assert path_energy(path, A0) <= float(shift @ shift) * area * (1 + 1e-10)


def test_parametrized_sphere_to_ellipsoid_improves():
    sphere = syn.icosphere(2)
    ellipsoid = syn.scale_vertices(sphere, 1.3, 0.9, 1.1)
    T = 3
    from elsa import path_energy

    ts = np.linspace(0, 1, T + 1)
    linear = [
        sphere.with_vertices((1 - t) * sphere.vertices + t * ellipsoid.vertices) for t in ts
    ]
    e_lin = path_energy(linear, BODY)
    path = parametrized_geodesic(
        sphere, ellipsoid, T, BODY, OptimizerConfig(max_iterations=150)
    )
    e_opt = path_energy(path, BODY)
    assert e_opt < e_lin


def test_parametrized_degenerate_start_raises():
    # the linear start's midpoint collapses every vertex onto the origin
    mesh = syn.icosphere(1)
    with pytest.raises(SolverFailure, match="initial point"):
        parametrized_geodesic(mesh, mesh.with_vertices(-mesh.vertices), 2, BODY)


def test_parametrized_topology_mismatch():
    with pytest.raises(MeshError):
        parametrized_geodesic(syn.icosphere(1), syn.icosphere(2), 3, BODY)


def test_shooting_jacobian_linear_in_the_weights():
    # the one-hot weights run the presets' code: their six Jacobians, each
    # against its own Gram, add up to the preset's
    basis = syn.random_basis(syn.bumpy_mesh(60), 3, 3, seed=35)
    rng = np.random.default_rng(36)
    alpha = 0.3 * rng.standard_normal(basis.dim)
    geom = _geometry(decode(basis, alpha))
    b = 0.5 * rng.standard_normal(basis.dim)

    def jacobian(coefficients):
        g_cur = gram(basis, alpha, coefficients, geometry=geom)
        _, jac = solvers._shooting_system(basis, geom, g_cur, np.zeros(basis.dim), coefficients)
        return jac(b)

    one_hots = [MetricCoefficients(*np.eye(6)[k]) for k in range(6)]
    full = jacobian(BODY)
    parts = sum(w * jacobian(c) for w, c in zip(BODY.as_array(), one_hots))
    assert np.max(np.abs(full - parts)) <= 1e-12 * np.max(np.abs(full))


def test_ivp_builds_one_gram_per_step(monkeypatch):
    # the step carries its momentum 2 G_k (alpha_{k+1} - alpha_k): knots
    # 0 .. N-1 each build one Gram, and knot N none
    basis = syn.random_basis(syn.icosphere(2), 3, 3, seed=5)
    rng = np.random.default_rng(37)
    alpha0 = 0.1 * rng.standard_normal(basis.dim)
    beta = rng.standard_normal(basis.dim)
    original = solvers.gram
    codes = []

    def counted(basis, alpha, *args, **kwargs):
        codes.append(np.array(alpha))
        return original(basis, alpha, *args, **kwargs)

    monkeypatch.setattr(solvers, "gram", counted)
    path = geodesic_ivp(basis, alpha0, 0.5 * beta / np.linalg.norm(beta), 5, BODY)
    assert len(codes) == 5
    assert all(np.array_equal(code, knot) for code, knot in zip(codes, path[:5]))
