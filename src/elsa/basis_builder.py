"""Data-driven construction of shape and pose deformation bases.

Shape axes come from geodesics: for every registered training mesh in a
common pose, compute the same-topology geodesic from the template and keep
its initial velocity.  Pose axes come from motion sequences: consecutive
frame differences are velocities along observed motions.  Each collection is
reduced by PCA and the leading components are stacked into a
:class:`~elsa.latent.LatentBasis` (shape block first).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .latent import LatentBasis
from .mesh import MeshError, load_mesh
from .solvers import SolverFailure, parametrized_geodesic


@dataclass(frozen=True)
class TangentSample:
    """One training velocity on the template.

    Attributes
    ----------
    vector : ndarray, (N, 3)
    label : str
        ``"shape"`` or ``"pose"``.
    provenance : str
        Where the sample came from (file path or sequence tag).
    """

    vector: np.ndarray
    label: str
    provenance: str = ""


@dataclass(frozen=True)
class PCAResult:
    """Principal directions of a sample set of flattened vertex fields.

    Components are unit-norm rows of shape ``(k, 3N)`` with singular values
    sorted nonincreasing; scale lives in the latent codes, not the basis.
    """

    mean: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray


def shape_tangents(meshes, template_index, coefficients, time_steps=5, config=None):
    """Initial geodesic velocities from the template to each other mesh.

    Meshes must share the template topology.  Pairs whose geodesic solve
    fails are skipped with a warning rather than aborting the build.
    """
    meshes = list(meshes)
    template = meshes[template_index]
    samples = []
    for idx, target in enumerate(meshes):
        if idx == template_index:
            continue
        if not template.same_topology(target):
            raise MeshError(f"training mesh {idx} does not share the template topology")
        try:
            path = parametrized_geodesic(template, target, time_steps, coefficients, config)
        except (SolverFailure, MeshError) as exc:
            warnings.warn(f"skipping training mesh {idx}: {exc}", stacklevel=2)
            continue
        velocity = time_steps * (path[1].vertices - path[0].vertices)
        samples.append(TangentSample(vector=velocity, label="shape", provenance=f"mesh[{idx}]"))
    return samples


def pose_tangents(sequences, provenance=None):
    """Per-step frame differences of registered motion sequences.

    A sequence of ``l`` frames yields ``l - 1`` velocities (unit frame rate).
    """
    samples = []
    for s_idx, seq in enumerate(sequences):
        seq = list(seq)
        tag = provenance[s_idx] if provenance else f"sequence[{s_idx}]"
        for t in range(len(seq) - 1):
            if not seq[t].same_topology(seq[t + 1]):
                raise MeshError(f"sequence {tag} frames {t}, {t + 1} differ in topology")
            samples.append(
                TangentSample(
                    vector=seq[t + 1].vertices - seq[t].vertices,
                    label="pose",
                    provenance=f"{tag}[{t}]",
                )
            )
    return samples


def pca(samples, k, center=True):
    """Top-k principal directions of a list of tangent samples.

    With centering on, the sample mean is removed first.  The sign of each
    component is fixed by making positive its first entry whose magnitude is
    within a relative 1e-3 of the largest, which keeps results reproducible
    across SVD implementations and across rounding: on mirror-symmetric
    samples the largest entries tie with opposite signs.
    """
    if len(samples) < 2:
        raise ValueError(f"PCA needs at least 2 samples, got {len(samples)}")
    data = np.stack([np.asarray(s.vector, dtype=np.float64).ravel() for s in samples])
    if k < 1 or k > min(data.shape):
        raise ValueError(f"k={k} out of range for {data.shape[0]} samples of dim {data.shape[1]}")
    mean = data.mean(axis=0) if center else np.zeros(data.shape[1])
    centered = data - mean
    _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k]
    mags = np.abs(components)
    lead = np.argmax(mags >= (1.0 - 1e-3) * mags.max(axis=1, keepdims=True), axis=1)
    flips = np.sign(components[np.arange(k), lead])
    flips[flips == 0] = 1.0
    return PCAResult(mean=mean, components=components * flips[:, None], singular_values=sv[:k])


def assemble_basis(template, shape_pca, pose_pca, n_shape, n_pose):
    """Stack leading shape and pose components into a latent basis."""
    if n_shape > shape_pca.components.shape[0]:
        raise ValueError(
            f"requested {n_shape} shape axes, PCA provides {shape_pca.components.shape[0]}"
        )
    if n_pose > pose_pca.components.shape[0]:
        raise ValueError(
            f"requested {n_pose} pose axes, PCA provides {pose_pca.components.shape[0]}"
        )
    n = template.n_vertices
    fields = np.concatenate(
        [
            shape_pca.components[:n_shape].reshape(n_shape, n, 3),
            pose_pca.components[:n_pose].reshape(n_pose, n, 3),
        ]
    )
    return LatentBasis(template=template, fields=fields, n_shape=n_shape, n_pose=n_pose)


# ---------------------------------------------------------------------------
# training manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    identity: str
    pose: str
    sequence: str


def read_manifest(path):
    """Parse a training manifest: one ``path identity pose sequence`` per line.

    Lines starting with ``#`` are comments; fields are whitespace separated;
    a sequence tag of ``-`` marks a mesh that belongs to no motion sequence.
    Relative mesh paths resolve against the manifest location.
    """
    base = Path(path).parent
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            mesh_path = parts[0]
            if not Path(mesh_path).is_absolute():
                mesh_path = str(base / mesh_path)
            records.append(ManifestRecord(mesh_path, parts[1], parts[2], parts[3]))
    if not records:
        raise ValueError(f"{path}: empty manifest")
    return records


def build_from_manifest(manifest_path, n_shape, n_pose, coefficients, time_steps=5,
                        config=None, scale=None):
    """Build a latent basis from a manifest of registered training meshes.

    The first record is the template.  Records sharing the template's pose
    tag form the shape training set (template-to-each geodesics); records
    grouped by sequence tag (in listed order, tag ``-`` excluded) form the
    pose sequences.  ``scale`` divides all vertex coordinates by one common
    factor (registration across the training set must be preserved, so the
    meshes are never rescaled individually).
    """
    records = read_manifest(manifest_path)
    meshes = {rec.path: load_mesh(rec.path) for rec in records}
    if scale is not None and scale != 1.0:
        meshes = {k: m.with_vertices(m.vertices / scale) for k, m in meshes.items()}
    template_rec = records[0]
    template = meshes[template_rec.path]

    shape_records = [r for r in records if r.pose == template_rec.pose]
    shape_meshes = [meshes[r.path] for r in shape_records]
    template_index = shape_records.index(template_rec)
    s_samples = shape_tangents(shape_meshes, template_index, coefficients, time_steps, config)

    seq_tags = []
    for rec in records:
        if rec.sequence != "-" and rec.sequence not in seq_tags:
            seq_tags.append(rec.sequence)
    sequences = [
        [meshes[r.path] for r in records if r.sequence == tag] for tag in seq_tags
    ]
    p_samples = pose_tangents(sequences, provenance=seq_tags)

    shape_pca = pca(s_samples, n_shape, center=True)
    pose_pca = pca(p_samples, n_pose, center=False)
    return assemble_basis(template, shape_pca, pose_pca, n_shape, n_pose)
