"""Optimization drivers for registration, geodesics and shooting.

All variational problems funnel through one quasi-Newton engine
(:func:`minimize`, limited-memory BFGS with a strong-Wolfe line search).
Objectives return ``(value, gradient)``; gradients are assembled analytically
from the metric/varifold vertex gradients.  Mesh degeneracies encountered
during a line search surface as non-finite objective values, which the
search treats as "step too far" and halves away from (up to
``MAX_STEP_HALVINGS`` times) before giving up.

The shooting solver (:func:`geodesic_ivp`) advances a discrete geodesic by
requiring each knot to be the geodesic midpoint of its neighbors: every step
solves the stationarity system of the two-step energy for the next knot by a
chord-Newton iteration on that square system, and differentiates the metric
with the same exact foot-point gradient as the path energy.  A step carries
only its discrete momentum ``2 G_k (alpha_{k+1} - alpha_k)`` to the next one,
which builds its own knot's geometry and Gram.  A step builds
its Jacobian once and reuses it while its full steps at least halve the
residual; a reused step that does not is dropped and the Jacobian rebuilt at
the current iterate, whose step is halved until the residual falls.  A step
whose residual stays above tolerance fails the shot with
:class:`SolverFailure`.  The residual makes the only foot-point gradient call
per iterate; the Jacobian pairs the basis fields' cached per-face
differentials with 6x6 blocks of that gradient's face-local terms
(:func:`_diff.h2_gradient_pairing`), with no call per field.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from ._diff import h2_gradient_pairing, h2_vertex_gradient, path_energy_with_grads
from .latent import decode, gram, latent_path_energy, latent_path_energy_with_grad
from .mesh import MeshError, TriangleMesh
from .metric import _union_geometry
from .varifold import VarifoldTarget, varifold_value_and_grad


#: strong-Wolfe sufficient-decrease and curvature constants of the line search
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
#: step halvings (and zoom steps) before a line search gives up
MAX_STEP_HALVINGS = 30
#: shooting: residual tolerance per latent dimension of each step's solve
RESIDUAL_TOLERANCE = 1e-8
#: shooting: Newton iterations of one step, and halvings of one Newton step
#: without a fall of the residual, before the step gives up
MAX_NEWTON_ITERATIONS = 200
MAX_NEWTON_HALVINGS = 10


class SolverFailure(RuntimeError):
    """An optimization run could not produce a usable result."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Quasi-Newton settings shared by all solvers."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-8
    memory: int = 10

    def __post_init__(self):
        if self.max_iterations < 1 or self.memory < 1:
            raise ValueError("iteration and memory budgets must be positive")
        if not (self.gradient_tolerance > 0):
            raise ValueError("gradient tolerance must be positive")


@dataclass
class SolveReport:
    """Outcome of one (possibly multi-stage) solve."""

    value: float
    grad_norm: float
    iterations: list
    reason: str  # converged | max_iters | line_search_failure
    reasons: list  # stop reason of each stage, aligned with ``iterations``
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("solve report with non-finite objective value")
        if len(self.reasons) != len(self.iterations):
            raise ValueError("solve report needs one stop reason per stage")


@dataclass(frozen=True)
class MultiscaleSchedule:
    """Ordered (sigma, lambda) stages for relaxed matching problems.

    Kernel scales must be nonincreasing and balancing weights nondecreasing:
    coarse alignment first, then tightening of the data term.
    """

    stages: tuple

    def __post_init__(self):
        stages = tuple((float(s), float(l)) for s, l in self.stages)
        if not stages:
            raise ValueError("schedule needs at least one stage")
        sigmas = [s for s, _ in stages]
        lams = [l for _, l in stages]
        if any(s <= 0 for s in sigmas) or any(l <= 0 for l in lams):
            raise ValueError("sigmas and lambdas must be positive")
        if any(s1 > s0 for s0, s1 in zip(sigmas, sigmas[1:])):
            raise ValueError("sigmas must be nonincreasing")
        if any(l1 < l0 for l0, l1 in zip(lams, lams[1:])):
            raise ValueError("lambdas must be nondecreasing")
        object.__setattr__(self, "stages", stages)

    @classmethod
    def bodies(cls):
        """Five-stage default for unit-diameter body-like surfaces."""
        return cls(
            stages=(
                (0.4, 1e2),
                (0.2, 1e4),
                (0.1, 1e6),
                (0.05, 1e7),
                (0.025, 1e8),
            )
        )

    @classmethod
    def faces(cls):
        """Two-stage default for unit-diameter face-like surfaces."""
        return cls(stages=((0.01, 1e6), (0.005, 1e10)))


# ---------------------------------------------------------------------------
# quasi-Newton engine
# ---------------------------------------------------------------------------


def _two_loop(g, mem):
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(mem):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if mem:
        s, y, _ = mem[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(mem, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q


def _finite(f, g):
    return np.isfinite(f) and g is not None and np.all(np.isfinite(g))


def _zoom(phi, lo, f_lo, der_lo, g_lo, hi, f_hi, f0, derphi0):
    for _ in range(MAX_STEP_HALVINGS):
        span = hi - lo
        if abs(der_lo * span) <= np.finfo(float).eps * abs(f0):
            break  # no step in the bracket changes f by more than its rounding
        a = None
        if np.isfinite(f_hi):
            # quadratic model through (f_lo, der_lo, f_hi)
            denom = f_hi - f_lo - der_lo * span
            if denom != 0:
                cand = lo - 0.5 * der_lo * span**2 / denom
                inner_lo = min(lo, hi) + 0.1 * abs(span)
                inner_hi = max(lo, hi) - 0.1 * abs(span)
                if inner_lo <= cand <= inner_hi:
                    a = cand
        if a is None:
            a = 0.5 * (lo + hi)
        fa, ga, dera = phi(a)
        if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * derphi0 or fa >= f_lo:
            hi, f_hi = a, fa
            continue
        if abs(dera) <= -WOLFE_C2 * derphi0:
            return a, fa, ga
        if dera * (hi - lo) >= 0:
            hi, f_hi = lo, f_lo
        lo, f_lo, der_lo, g_lo = a, fa, dera, ga
    if lo > 0 and f_lo < f0:
        return lo, f_lo, g_lo  # sufficient decrease without the curvature bound
    return None


def _line_search(fun, x, f0, g0, d):
    """Strong-Wolfe ``(step, value, gradient)`` along ``d`` or ``None``."""
    derphi0 = float(g0 @ d)
    if derphi0 >= 0:
        return None

    def phi(a):
        f, g = fun(x + a * d)
        if not _finite(f, g):
            return np.inf, None, np.nan
        return float(f), g, float(np.asarray(g) @ d)

    a_prev, f_prev, der_prev, g_prev = 0.0, f0, derphi0, g0
    a = 1.0
    for _ in range(MAX_STEP_HALVINGS):
        fa, ga, dera = phi(a)
        if np.isfinite(fa):
            break
        a *= 0.5
    else:
        return None
    for it in range(30):
        if fa > f0 + WOLFE_C1 * a * derphi0 or (it > 0 and fa >= f_prev):
            return _zoom(phi, a_prev, f_prev, der_prev, g_prev, a, fa, f0, derphi0)
        if abs(dera) <= -WOLFE_C2 * derphi0:
            return a, fa, ga
        if dera >= 0:
            return _zoom(phi, a, fa, dera, ga, a_prev, f_prev, f0, derphi0)
        a_prev, f_prev, der_prev, g_prev = a, fa, dera, ga
        a *= 2.0
        fa, ga, dera = phi(a)
        if not np.isfinite(fa):
            return _zoom(phi, a_prev, f_prev, der_prev, g_prev, a, fa, f0, derphi0)
    return None


def minimize(fun, x0, config=None, callback=None):
    """Limited-memory BFGS with a strong-Wolfe line search.

    Parameters
    ----------
    fun : callable
        Maps a flat parameter vector to ``(value, gradient)``.  Non-finite
        values signal an inadmissible point; the line search backs off.
    x0 : ndarray
        Starting point; the objective must be finite there.
    callback : callable, optional
        Called with ``(x, value)`` after every accepted iterate.

    Returns
    -------
    (ndarray, SolveReport)
        Accepted iterates have monotone nonincreasing objective values; the
        run stops when the max-norm of the gradient drops below the
        tolerance, the iteration budget is exhausted, or the line search
        cannot make progress, even along ``-g`` with the memory cleared (the
        last good iterate is returned).
    """
    cfg = config if config is not None else OptimizerConfig()
    x = np.array(x0, dtype=np.float64).ravel()
    f, g = fun(x)
    if not _finite(f, g):
        raise SolverFailure("objective is not finite at the initial point")
    f = float(f)
    g = np.asarray(g, dtype=np.float64)
    mem = deque(maxlen=cfg.memory)
    n_iter = 0
    reason = "max_iters"
    for _ in range(cfg.max_iterations):
        gnorm = float(np.max(np.abs(g))) if g.size else 0.0
        if gnorm < cfg.gradient_tolerance:
            reason = "converged"
            break
        d = -_two_loop(g, mem)
        if not np.all(np.isfinite(d)) or float(d @ g) >= 0.0:
            mem.clear()
            d = -g
        hit = _line_search(fun, x, f, g, d)
        if hit is None and mem:
            # a stale memory direction can miss a decrease that -g still finds
            mem.clear()
            d = -g
            hit = _line_search(fun, x, f, g, d)
        if hit is None:
            reason = "line_search_failure"
            break
        a, f_new, g_new = hit
        s = a * d
        g_new = np.asarray(g_new, dtype=np.float64)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * (np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            mem.append((s, y, 1.0 / sy))
        x = x + s
        f, g = float(f_new), g_new
        n_iter += 1
        if callback is not None:
            callback(x, f)
    else:
        if float(np.max(np.abs(g))) < cfg.gradient_tolerance:
            reason = "converged"
    report = SolveReport(
        value=f,
        grad_norm=float(np.max(np.abs(g))) if g.size else 0.0,
        iterations=[n_iter],
        reason=reason,
        reasons=[reason],
    )
    return x, report


def _guard(fun):
    """Map mesh degeneracies to non-finite objective values."""

    def wrapped(x):
        try:
            return fun(x)
        except MeshError:
            return np.inf, None

    return wrapped


# ---------------------------------------------------------------------------
# latent-space solvers
# ---------------------------------------------------------------------------


def _time_steps(time_steps):
    """The number of path steps ``T`` as an int; at least one."""
    T = int(time_steps)
    if T < 1:
        raise ValueError("time_steps must be >= 1")
    return T


def _minimize_stages(objective, x, schedule, config, meshes):
    """Minimize each stage's objective from the last stage's result; report all stages.

    ``objective(targets, lam)`` receives ``meshes`` as varifold targets at the
    stage's kernel scale, built once per stage; the last stage's are returned
    with the solution and the report.
    """
    iterations, reasons = [], []
    for sigma, lam in schedule.stages:
        targets = [VarifoldTarget(m, sigma) for m in meshes]
        x, report = minimize(objective(targets, lam), x, config)
        iterations += report.iterations
        reasons += report.reasons
    return x, replace(report, iterations=iterations, reasons=reasons), targets


def retrieve_latent(basis, target, coefficients, schedule=None, time_steps=10, config=None):
    """Latent code retrieval by relaxed varifold matching from the template.

    Minimizes ``Gamma(decode(alpha(1)), target) + path_energy / lambda`` over
    the path knots ``alpha(1/T) ... alpha(1)`` with ``alpha(0) = 0`` pinned
    to the template.  Stages of the multiscale schedule warm-start from the
    previous solution; the interior knots are then refined into the geodesic
    (:func:`geodesic_bvp`) between the template and the final code.

    Returns
    -------
    (ndarray, SolveReport)
        The full ``(T+1, P)`` path (first row zero) and a report of the
        stages whose details carry the final varifold discrepancy, the path
        energy, and the refinement's iteration count and gradient max-norm.
    """
    schedule = schedule if schedule is not None else MultiscaleSchedule.bodies()
    T = _time_steps(time_steps)
    P = basis.dim
    fields_mat = basis.fields_matrix

    def objective(targets, lam):
        (tgt,) = targets

        def fun(x):
            path = np.vstack([np.zeros(P), x.reshape(T, P)])
            energy, grad_e = latent_path_energy_with_grad(basis, path, coefficients, fixed_start=True)
            gamma, grad_v = varifold_value_and_grad(decode(basis, path[-1]), tgt)
            grad = grad_e / lam
            grad[-1] += fields_mat @ grad_v.ravel()
            return gamma + energy / lam, grad[1:].ravel()

        return _guard(fun)

    x, report, (tgt,) = _minimize_stages(objective, np.zeros(T * P), schedule, config, (target,))
    path = np.vstack([np.zeros(P), x.reshape(T, P)])
    # The interior knots weigh only 1/lambda in the staged objectives, so the
    # gradient test leaves them loose: make them the geodesic to the end code.
    path, refined = geodesic_bvp(basis, path[0], path[-1], T, coefficients, config, path)
    return path, replace(report, details={
        "varifold_sqdist": varifold_value_and_grad(decode(basis, path[-1]), tgt)[0],
        "path_energy": refined.value,
        "sigma": tgt.sigma,
        "geodesic_iterations": refined.iterations[0],
        "geodesic_grad_norm": refined.grad_norm,
    })


def geodesic_bvp(basis, alpha0, alpha1, time_steps, coefficients, config=None, init_path=None):
    """Geodesic boundary value problem between two latent codes.

    Minimizes the latent path energy over the interior knots with both
    endpoints fixed, starting from the interior knots of ``init_path``
    (default: the linear interpolation); with one step there is none to move.
    """
    alpha0 = basis.check_code(alpha0)
    alpha1 = basis.check_code(alpha1)
    T = _time_steps(time_steps)
    ts = np.linspace(0.0, 1.0, T + 1)[:, None]
    init = (1.0 - ts) * alpha0 + ts * alpha1 if init_path is None else np.asarray(init_path, float)

    def fun(x):
        path = np.vstack([alpha0, x.reshape(T - 1, basis.dim), alpha1])
        energy, grad = latent_path_energy_with_grad(basis, path, coefficients, fixed_start=True)
        return energy, grad[1:T].ravel()

    x, report = minimize(_guard(fun), init[1:T].ravel(), config)
    path = np.vstack([alpha0, x.reshape(T - 1, basis.dim), alpha1])
    return path, report


def relaxed_geodesic(basis, q0, q1, time_steps, coefficients, schedule=None, config=None):
    """Geodesic between the closest latent representatives of two meshes.

    Minimizes ``path_energy + lambda * Gamma(decode(alpha(0)), q0)
    + lambda * Gamma(decode(alpha(1)), q1)`` over all knots; the endpoint
    meshes may have arbitrary mesh structures.
    """
    schedule = schedule if schedule is not None else MultiscaleSchedule.bodies()
    T = _time_steps(time_steps)
    P = basis.dim
    fields_mat = basis.fields_matrix

    def objective(targets, lam):
        t0, t1 = targets

        def fun(x):
            path = x.reshape(T + 1, P)
            energy, grad = latent_path_energy_with_grad(basis, path, coefficients)
            g0, grad0 = varifold_value_and_grad(decode(basis, path[0]), t0)
            g1, grad1 = varifold_value_and_grad(decode(basis, path[-1]), t1)
            grad[0] += lam * (fields_mat @ grad0.ravel())
            grad[-1] += lam * (fields_mat @ grad1.ravel())
            return energy + lam * (g0 + g1), grad.ravel()

        return _guard(fun)

    x0 = np.zeros((T + 1) * P)
    x, report, (t0, t1) = _minimize_stages(objective, x0, schedule, config, (q0, q1))
    path = x.reshape(T + 1, P)
    return path, replace(report, details={
        "gamma0": varifold_value_and_grad(decode(basis, path[0]), t0)[0],
        "gamma1": varifold_value_and_grad(decode(basis, path[-1]), t1)[0],
        "path_energy": latent_path_energy(basis, path, coefficients),
        "sigma": t1.sigma,
    })


# ---------------------------------------------------------------------------
# shooting (initial value problem)
# ---------------------------------------------------------------------------


def _shooting_system(basis, geom, g_cur, rhs, coefficients):
    """Residual and Jacobian of one shooting step in ``b = alpha_next - alpha_cur``.

    ``Phi(b) = rhs - 2 G_cur b + D(b, b)``, with the momentum
    ``rhs = 2 G_prev (alpha_cur - alpha_prev)`` carried from the previous step, is the
    middle-knot gradient of the two-step path energy divided by ``T``; ``D(b, b)`` is
    the foot-point gradient at ``u = b . fields`` on the current knot's geometry
    ``geom``, the only :func:`h2_vertex_gradient` call per iterate.  The Jacobian
    is ``2 (K - G_cur)`` with ``K[i, j] = <f_i, grad G(u, f_j)>``, paired from
    per-face 6x6 blocks (:func:`h2_gradient_pairing`) and the basis's cached
    differentials, without a per-field call.
    """
    fields = basis.fields

    def residual(b):
        u = np.tensordot(b, fields, axes=1)
        grad = h2_vertex_gradient(geom, u, u, coefficients)
        return rhs - 2.0 * (g_cur @ b) + basis.fields_matrix @ grad.ravel()

    def jacobian(b):
        k = h2_gradient_pairing(geom, fields, basis.differentials, b, coefficients)
        return 2.0 * (k - g_cur)

    return residual, jacobian


def _midpoint_residual_solve(residual, jacobian, b, g_cur, rhs, tol):
    """Chord-Newton iteration for ``residual(b) = 0`` from ``b``; return ``(b, |residual|)``.

    Each iterate solves the square system ``J dx = -Phi``.  The Jacobian is
    built once and reused: a reused Jacobian's full step is accepted only if
    it at least halves ``|Phi|``; otherwise that candidate is dropped and the
    Jacobian rebuilt at the current ``b``.  A fresh Jacobian's step is halved
    until ``|Phi|`` falls.  Stops below ``tol``, at the residual's rounding
    ``eps (|rhs| + 2 |G_cur b|)`` (below which no step can be told to reduce
    it), on a singular fresh Jacobian, or when ``MAX_NEWTON_HALVINGS``
    halvings of a fresh step find no fall; the caller compares the returned
    norm with ``tol``.
    """
    eps = np.finfo(float).eps
    rhs_norm = float(np.linalg.norm(rhs))
    r = residual(b)
    rn = float(np.linalg.norm(r))
    jac = None
    for _ in range(MAX_NEWTON_ITERATIONS):
        if rn <= max(tol, eps * (rhs_norm + 2.0 * float(np.linalg.norm(g_cur @ b)))):
            break
        if jac is not None:
            cand = b + np.linalg.solve(jac, -r)
            rc = residual(cand)
            rcn = float(np.linalg.norm(rc))
            if rcn <= 0.5 * rn:
                b, r, rn = cand, rc, rcn
                continue
        try:
            jac = jacobian(b)
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        for halvings in range(MAX_NEWTON_HALVINGS + 1):
            cand = b + 0.5**halvings * dx
            rc = residual(cand)
            rcn = float(np.linalg.norm(rc))
            if rcn < rn:
                b, r, rn = cand, rc, rcn
                break
        else:
            break
    return b, rn


def geodesic_ivp(basis, alpha0, beta, steps, coefficients):
    """Shoot a discrete geodesic from a code along an initial velocity.

    The first knot past the start is ``alpha0 + beta/N``; each subsequent
    knot makes its predecessor the geodesic midpoint of its two neighbors:
    the middle-knot gradient of the two-step path energy must vanish (the
    discrete exponential map), solved for the step to the next knot by
    chord-Newton iterates with exact derivatives of the metric
    (:func:`_midpoint_residual_solve`): one Jacobian per step while its full
    steps at least halve the residual, rebuilt where one does not.  Each step
    starts from the previous step's offset and builds its own knot's
    geometry and Gram ``G_k``; it hands the next step only its momentum
    ``2 G_k (alpha_{k+1} - alpha_k)``, so ``N`` steps build ``N`` Grams
    (knot 0's serves the first momentum only).

    Returns the ``(N+1, P)`` path.  Raises :class:`SolverFailure` naming the
    step when its residual stays above ``RESIDUAL_TOLERANCE * P``, and
    ``DegenerateFaceError`` naming the knot when a knot's mesh has a
    degenerate face.
    """
    alpha0 = basis.check_code(alpha0)
    beta = basis.check_code(beta)
    N = int(steps)
    if N < 2:
        raise ValueError("steps must be >= 2")
    P = basis.dim
    tol = RESIDUAL_TOLERANCE * P
    template = basis.template

    def knot(k):
        vertices = template.vertices + np.tensordot(path[k], basis.fields, axes=1)
        geom = _union_geometry(vertices[None], template.faces, first_knot=k)
        return geom, gram(basis, path[k], coefficients, geometry=geom)

    path = np.empty((N + 1, P))
    path[0] = alpha0
    path[1] = alpha0 + beta / N
    rhs = 2.0 * (knot(0)[1] @ (path[1] - path[0]))
    for k in range(1, N):
        geom, g_cur = knot(k)
        residual, jacobian = _shooting_system(basis, geom, g_cur, rhs, coefficients)
        beta0 = path[k] - path[k - 1]
        bt, rn = _midpoint_residual_solve(residual, jacobian, beta0, g_cur, rhs, tol)
        if not rn <= tol:
            raise SolverFailure(
                f"shooting residual {rn:.3e} above tolerance {tol:.3e} at step {k}"
            )
        path[k + 1] = path[k] + bt
        rhs = 2.0 * (g_cur @ (path[k + 1] - path[k]))
    return path


# ---------------------------------------------------------------------------
# same-topology mesh geodesics
# ---------------------------------------------------------------------------


def parametrized_geodesic(q0, q1, time_steps, coefficients, config=None):
    """Geodesic between two meshes with identical face lists.

    Minimizes the discrete mesh path energy over the interior vertex
    configurations, starting from linear interpolation.  Returns the list of
    ``T+1`` meshes including the fixed endpoints.  Raises ``SolverFailure``
    (from :func:`minimize`) when the linear start has a degenerate face.
    """
    if not q0.same_topology(q1):
        raise MeshError("parametrized geodesic endpoints must share topology")
    T = _time_steps(time_steps)
    faces = q0.faces
    v0 = q0.vertices
    v1 = q1.vertices
    if T == 1:
        return [q0, q1]

    n = q0.n_vertices
    ts = np.linspace(0.0, 1.0, T + 1)
    init = np.stack([(1.0 - t) * v0 + t * v1 for t in ts[1:T]])

    def fun(x):
        knots = [v0, *x.reshape(T - 1, n, 3), v1]
        energy, grads = path_energy_with_grads(knots, faces, coefficients)
        return energy, grads[1:T].ravel()

    x, _ = minimize(_guard(fun), init.ravel(), config)
    knots = [v0, *x.reshape(T - 1, n, 3), v1]
    return [TriangleMesh(v, faces) for v in knots]
