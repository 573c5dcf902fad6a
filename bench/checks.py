"""Output checks, one per operation.

Each check reads the files an operation wrote and compares them with
computations made here, apart from the program, or with properties the
method must have.  A check returns a list of failure messages; an empty list
means the output passed.  The thresholds, and the margin each leaves over the
values measured, are listed in README.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# relative difference allowed between a written mesh and the affine decode
# of the code written with it (OBJ floats are written with repr and decoded
# here with another summation order)
DECODE_RTOL = 1e-12
# Chamfer distances are taken between points sampled on the two surfaces
SAMPLES_PER_EDGE = 4
# register: reconstruction-to-target Chamfer over template-to-target Chamfer
REGISTER_CHAMFER_RATIO = 0.5
# register: |code - alpha*| / |alpha*|
REGISTER_CODE_RTOL = 0.5
# interpolate: endpoint-to-target Chamfer over template-to-target Chamfer
INTERPOLATE_CHAMFER_RATIO = 0.5
# interpolate: path energy over the straight chord's energy between the same
# endpoints
INTERPOLATE_ENERGY_MARGIN = 0.2
# extrapolate: first step against beta / N
FIRST_STEP_RTOL = 1e-12
# extrapolate: (max - min) / mean of the discrete speed along the path
SPEED_SPREAD = 0.01
# build-basis: Gram matrix of a block against the identity, and the share of
# a frame difference left outside the pose block
ORTHONORMAL_ATOL = 1e-10
SPAN_RTOL = 1e-8


def read_obj(path):
    """Vertices and faces of an OBJ file with triangle faces only."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return np.array(verts), np.array(faces, dtype=np.int64).reshape(-1, 3)


def decode(truth, code):
    return truth["template_vertices"] + np.tensordot(code, truth["fields"], axes=1)


def surface_samples(verts, faces, n=SAMPLES_PER_EDGE):
    """Points on a barycentric grid with ``n`` steps per edge in every face.

    Sampling the surfaces rather than their vertices keeps the Chamfer
    distance between two tessellations of one surface near zero.
    """
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    bary = np.stack([n - i[keep] - j[keep], i[keep], j[keep]], axis=1) / n
    return np.einsum("sk,mkd->msd", bary, verts[faces]).reshape(-1, 3)


def chamfer(a, b):
    """Symmetric Chamfer distance between two ``(verts, faces)`` surfaces."""
    pa, pb = surface_samples(*a), surface_samples(*b)
    da, _ = cKDTree(pb).query(pa)
    db, _ = cKDTree(pa).query(pb)
    return 0.5 * (da.mean() + db.mean())


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _decoded_mesh(path, truth, code, what):
    verts, faces = read_obj(path)
    if not np.array_equal(faces, truth["faces"]):
        return [f"{what}: faces differ from the template"]
    err = _rel(verts, decode(truth, code))
    if not err <= DECODE_RTOL:
        return [f"{what}: differs from the affine decode by {err:.3e} (relative)"]
    return []


def _chamfer_ratio(mesh_path, target_path, truth, bound, what):
    mesh = read_obj(mesh_path)
    target = read_obj(target_path)
    template = (truth["template_vertices"], truth["faces"])
    ratio = chamfer(mesh, target) / chamfer(template, target)
    return ratio, ([] if ratio < bound else
                   [f"{what}: Chamfer ratio {ratio:.4f} not below {bound}"])


def metric_energy(truth, path, coefficients):
    """``T * sum_t |d_t|^2`` in the mesh metric at the decoded left knots.

    Uses the mesh-level metric ``elsa.metric.h2_inner``, a different code
    path from the latent Gram matrix that the solvers use.
    """
    from elsa.metric import h2_inner
    from elsa.mesh import TriangleMesh

    T = len(path) - 1
    speeds = []
    for t in range(T):
        u = np.tensordot(path[t + 1] - path[t], truth["fields"], axes=1)
        mesh = TriangleMesh(decode(truth, path[t]), truth["faces"])
        speeds.append(h2_inner(mesh, u, u, coefficients))
    return T * sum(speeds), np.array(speeds)


def check_register(out, target_path, truth, k):
    out = Path(out)
    code = np.loadtxt(out / "code.txt").ravel()
    fails = _decoded_mesh(out / "reconstruction.obj", truth, code, "reconstruction.obj")
    ratio, more = _chamfer_ratio(out / "reconstruction.obj", target_path, truth,
                                 REGISTER_CHAMFER_RATIO, "reconstruction.obj")
    fails += more
    err = _rel(code, truth["codes"][k])
    if not err < REGISTER_CODE_RTOL:
        fails.append(f"code.txt: relative error {err:.4f} against alpha* not below "
                     f"{REGISTER_CODE_RTOL}")
    return fails, {"chamfer_ratio": ratio, "code_rel_error": err}


def check_interpolate(out, target_paths, truth, coefficients):
    out = Path(out)
    path = np.loadtxt(out / "path_codes.txt")
    T = len(path) - 1
    fails = []
    measured = {}
    for end, (t, target) in enumerate(zip((0, T), target_paths)):
        name = f"interp_{t:03d}.obj"
        fails += _decoded_mesh(out / name, truth, path[t], name)
        ratio, more = _chamfer_ratio(out / name, target, truth, INTERPOLATE_CHAMFER_RATIO, name)
        fails += more
        measured[f"chamfer_ratio_{end}"] = ratio
    energy, _ = metric_energy(truth, path, coefficients)
    chord = np.linspace(0.0, 1.0, T + 1)[:, None] * (path[-1] - path[0]) + path[0]
    chord_energy, _ = metric_energy(truth, chord, coefficients)
    excess = energy / chord_energy - 1.0
    if not excess <= INTERPOLATE_ENERGY_MARGIN:
        fails.append(f"path energy {energy:.6g} exceeds the chord's {chord_energy:.6g} by "
                     f"{excess:.3e} (relative)")
    measured["energy_over_chord"] = excess
    return fails, measured


def check_extrapolate(out, truth, k, coefficients):
    out = Path(out)
    path = np.loadtxt(out / "path_codes.txt")
    N = len(path) - 1
    fails = []
    step_err = _rel(path[1] - path[0], truth["velocities"][k] / N)
    if not (np.array_equal(path[0], truth["codes"][k]) and step_err <= FIRST_STEP_RTOL):
        fails.append(f"path does not start at the code along beta/N (error {step_err:.3e})")
    _, speeds = metric_energy(truth, path, coefficients)
    spread = float((speeds.max() - speeds.min()) / speeds.mean())
    if not spread < SPEED_SPREAD:
        fails.append(f"discrete speed spread {spread:.3e} not below {SPEED_SPREAD}")
    for j, code in enumerate(path):
        fails += _decoded_mesh(out / f"extrap_{j:03d}.obj", truth, code, f"extrap_{j:03d}.obj")
    return fails, {"speed_spread": spread}


def check_build_basis(out, truth):
    from elsa.latent import load_basis

    basis = load_basis(Path(out) / "basis.lsb")
    fails = []
    if not (np.array_equal(basis.template.vertices, truth["template_vertices"])
            and np.array_equal(basis.template.faces, truth["faces"])):
        fails.append("basis template differs from the manifest template")
    off = {}
    for name, block in (("shape", basis.shape_slice), ("pose", basis.pose_slice)):
        F = basis.fields_matrix[block]
        off[name] = float(np.abs(F @ F.T - np.eye(F.shape[0])).max())
        if not off[name] <= ORTHONORMAL_ATOL:
            fails.append(f"{name} block is not orthonormal (max deviation {off[name]:.3e})")
    F = basis.fields_matrix[basis.pose_slice]
    diffs = truth["frame_differences"].reshape(len(truth["frame_differences"]), -1)
    residual = diffs - (diffs @ F.T) @ F
    share = float(np.max(np.linalg.norm(residual, axis=1) / np.linalg.norm(diffs, axis=1)))
    if not share <= SPAN_RTOL:
        fails.append(f"a frame difference lies {share:.3e} (relative) outside the pose block")
    return fails, {"orthonormal_shape": off["shape"], "orthonormal_pose": off["pose"],
                   "span_residual": share}
