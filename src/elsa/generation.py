"""Random shape generation from Gaussian mixtures over latent velocities.

Shape and pose velocity blocks get independent mixture models fitted by EM.
A random shape is produced by concatenating one draw from each block into a
full-length initial velocity and shooting the geodesic initial value problem
from the template.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .latent import decode
from .mesh import MeshError, read_exact
from .solvers import SolverFailure, geodesic_ivp

_GMM_MAGIC = b"ELSAGMM1"

#: relative diagonal loading added to every covariance
_COV_LOADING = 1e-8
#: EM stops once an iteration raises the log-likelihood by less than this, relative
_EM_TOL = 1e-10


@dataclass(frozen=True)
class GmmModel:
    """Gaussian mixture with full, diagonally loaded covariances.

    Attributes
    ----------
    weights : ndarray, (K,)
        Positive, summing to one.
    means : ndarray, (K, D)
    covariances : ndarray, (K, D, D)
        Symmetric positive semidefinite with the loading floor applied.
    log_likelihoods : tuple of float
        Per-iteration EM trajectory (empty for hand-built models).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihoods: tuple = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if abs(w.sum() - 1.0) > 1e-10 or np.any(w <= 0):
            raise ValueError("mixture weights must be positive and sum to 1")
        c = np.asarray(self.covariances, dtype=np.float64)
        if np.max(np.abs(c - c.transpose(0, 2, 1))) > 1e-10:
            raise ValueError("covariances must be symmetric")

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def _component_log_density(x, mean, cov):
    """Log density rows of N(mean, cov) at the points x, via eigen-factorization.

    Eigen-factorization tolerates the (loaded) near-singular covariances that
    arise from small training sets.
    """
    d = x.shape[1]
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, 1e-300)
    diff = (x - mean) @ vecs
    maha = np.sum(diff**2 / vals, axis=1)
    return -0.5 * (maha + np.sum(np.log(vals)) + d * np.log(2.0 * np.pi))


def _log_prob_matrix(x, weights, means, covs):
    k = means.shape[0]
    out = np.empty((x.shape[0], k))
    for j in range(k):
        out[:, j] = np.log(weights[j]) + _component_log_density(x, means[j], covs[j])
    return out


def _load_cov(cov):
    d = cov.shape[0]
    load = _COV_LOADING * max(np.trace(cov) / d, 1e-12)
    return cov + load * np.eye(d)


def _kmeanspp_means(data, k, rng):
    """k-means++ style seeding: spread initial means by squared distance."""
    n = data.shape[0]
    means = [data[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((data - m) ** 2, axis=1) for m in means], axis=0
        )
        total = d2.sum()
        if total <= 0:
            means.append(data[rng.integers(n)])
            continue
        means.append(data[rng.choice(n, p=d2 / total)])
    return np.stack(means)


def fit_gmm(samples, n_components, seed=0, max_em_iterations=200):
    """Fit a mixture by EM from a k-means++ style seeded start.

    Deterministic for a fixed seed.  The log-likelihood trajectory is stored
    on the returned model.  It need not be nondecreasing: the covariance
    loading can lower it, and a re-seed restarts it.  EM stops once it rises
    by less than a relative tolerance or falls, except on the iteration right
    after a re-seed, whose value is compared with nothing before it.  An EM
    iteration that empties a component triggers one re-seed of that
    component; a second emptying is an error.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("samples must be a (count, dim) array")
    n, d = data.shape
    k = int(n_components)
    if k < 1 or n < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {n}")
    rng = np.random.default_rng(seed)

    means = _kmeanspp_means(data, k, rng)
    base_cov = _load_cov(np.cov(data, rowvar=False, bias=True).reshape(d, d))
    covs = np.repeat(base_cov[None], k, axis=0)
    weights = np.full(k, 1.0 / k)

    reseeded = fresh = False
    history = []
    for _ in range(max_em_iterations):
        logp = _log_prob_matrix(data, weights, means, covs)
        per_point = logsumexp(logp, axis=1)
        history.append(float(per_point.sum()))
        if (len(history) > 1 and not fresh
                and history[-1] - history[-2] < _EM_TOL * max(1.0, abs(history[-2]))):
            break
        fresh = False
        resp = np.exp(logp - per_point[:, None])
        mass = resp.sum(axis=0)
        empty = mass < 1e-12
        if empty.any():
            if reseeded:
                raise SolverFailure("EM produced an empty mixture component twice")
            reseeded = fresh = True
            worst = np.argmin(per_point)
            for j in np.flatnonzero(empty):
                means[j] = data[worst]
                covs[j] = base_cov
                weights[j] = 1.0 / k
            weights = weights / weights.sum()
            continue
        weights = mass / n
        means = (resp.T @ data) / mass[:, None]
        for j in range(k):
            diff = data - means[j]
            cov = (resp[:, j][:, None] * diff).T @ diff / mass[j]
            covs[j] = _load_cov(0.5 * (cov + cov.T))
    return GmmModel(
        weights=weights, means=means, covariances=covs, log_likelihoods=tuple(history)
    )


def _psd_factor(cov):
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.maximum(vals, 0.0))


def _draw(model, rng):
    j = int(rng.choice(model.n_components, p=model.weights))
    z = rng.standard_normal(model.dim)
    return model.means[j] + _psd_factor(model.covariances[j]) @ z


def sample_code(shape_gmm, pose_gmm, seed):
    """One full-length latent velocity: independent shape and pose draws.

    Deterministic given the seed; repeated calls with the same seed return
    bit-identical vectors.
    """
    rng = np.random.default_rng(seed)
    return np.concatenate([_draw(shape_gmm, rng), _draw(pose_gmm, rng)])


def generate_shape(basis, shape_gmm, pose_gmm, steps, coefficients, seed=0):
    """Draw a random velocity and shoot a geodesic from the template.

    A failed shot (a residual above tolerance or a degenerate knot) raises
    :class:`SolverFailure` naming the seed.
    """
    if shape_gmm.dim != basis.n_shape or pose_gmm.dim != basis.n_pose:
        raise ValueError(
            f"mixture dimensions ({shape_gmm.dim}, {pose_gmm.dim}) do not match "
            f"basis blocks ({basis.n_shape}, {basis.n_pose})"
        )
    beta = sample_code(shape_gmm, pose_gmm, seed)
    try:
        path = geodesic_ivp(basis, np.zeros(basis.dim), beta, steps, coefficients)
    except (SolverFailure, MeshError) as exc:
        raise SolverFailure(f"shape generation with seed {seed} failed: {exc}") from exc
    return decode(basis, path[-1])


# ---------------------------------------------------------------------------
# model container file
#
# layout (little endian):
#   8 bytes  magic "ELSAGMM1"
#   u32      number of blocks (2: shape then pose)
#   per block: u32 K, u32 D, f64 weights[K], f64 means[K*D], f64 covs[K*D*D]
# ---------------------------------------------------------------------------


def save_gmm(path, shape_gmm, pose_gmm):
    """Write the (shape, pose) mixture pair to a binary container."""
    with open(path, "wb") as fh:
        fh.write(_GMM_MAGIC)
        fh.write(struct.pack("<I", 2))
        for model in (shape_gmm, pose_gmm):
            fh.write(struct.pack("<II", model.n_components, model.dim))
            fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(model.means, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(model.covariances, dtype="<f8").tobytes())


def load_gmm(path):
    """Read a (shape, pose) mixture pair container."""
    with open(path, "rb") as fh:
        if fh.read(8) != _GMM_MAGIC:
            raise ValueError(f"{path}: not a mixture model file")
        (blocks,) = struct.unpack("<I", read_exact(fh, 4, path))
        if blocks != 2:
            raise ValueError(f"{path}: expected 2 blocks, found {blocks}")
        out = []
        for _ in range(blocks):
            k, d = struct.unpack("<II", read_exact(fh, 8, path))
            weights = np.frombuffer(read_exact(fh, 8 * k, path), "<f8").copy()
            means = np.frombuffer(read_exact(fh, 8 * k * d, path), "<f8").reshape(k, d).copy()
            covs = np.frombuffer(read_exact(fh, 8 * k * d * d, path), "<f8").reshape(k, d, d).copy()
            out.append(GmmModel(weights=weights, means=means, covariances=covs))
    return tuple(out)
