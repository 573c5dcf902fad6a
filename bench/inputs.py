"""Seeded input generator for the benchmark workloads.

Every workload's inputs are made here from ``--seed`` and written to files
before any timing starts: the basis container, the target meshes, the
training manifest, the INI config and the text vectors the CLI reads.  The
ground truth the checks need (template, fields, true codes, generator
motions) goes to ``truth.npz`` next to them.

Unregistered targets are built the way a scan differs from a template:

1. smooth analytic deformation fields (sines of position) are evaluated on
   the template vertices to make the basis;
2. the same fields, weighted by known codes alpha*, are evaluated on the
   vertices of a latitude-longitude sphere.  That deformed mesh is the
   target: it shares no vertex or face with the template, yet its true code
   is known.

Run on its own (``python3 bench/inputs.py --workload W --seed N --out DIR``)
so that its memory never counts toward the program's peak.
"""

from __future__ import annotations

import argparse
import configparser
from pathlib import Path

import numpy as np

RADIUS = 0.5
#: H2 metric weights of the body preset, written into every config
METRIC = dict(a0=1.0, a1=1000.0, b1=100.0, c1=1.0, d1=1.0, a2=1.0)

# Workload sizes.  Each is picked so that one layer does most of the work;
# README.md gives the reasons and the measured shares.
REGISTER = dict(level=2, n_shape=3, n_pose=3, n_lat=26, n_lon=40, targets=2, time_steps=2,
                stages=((0.2, 1e3), (0.1, 1e5)), max_iterations=15, field_scale=0.05,
                displacement=0.15)
INTERPOLATE = dict(level=2, n_shape=20, n_pose=20, n_lat=10, n_lon=20, targets=2, time_steps=4,
                   stages=((0.1, 1e5),), max_iterations=30, field_scale=0.05,
                   displacement=0.15)
EXTRAPOLATE = dict(level=3, n_shape=6, n_pose=6, shots=2, ivp_steps=6, field_scale=0.05,
                   code_scale=0.25, velocity_scale=0.25)
BUILD_BASIS = dict(level=2, identities=3, frames=5, twist=0.6, n_shape=2, n_pose=4,
                   time_steps=3, max_iterations=60)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def icosphere(level, radius=RADIUS):
    """Icosahedron refined ``level`` times by 4-to-1 midpoint splits."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ]
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    verts = [np.array(v, dtype=float) for v in verts]
    for _ in range(level):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                cache[key] = len(verts)
                verts.append(0.5 * (verts[i] + verts[j]))
            return cache[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            refined += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        faces = refined
    v = np.array(verts)
    return v * (radius / np.linalg.norm(v, axis=1))[:, None], np.array(faces)


def uv_sphere(n_lat, n_lon, radius=RADIUS):
    """Latitude-longitude sphere with ``2 n_lon (n_lat - 1)`` faces."""
    theta = np.pi * np.arange(1, n_lat) / n_lat
    phi = 2.0 * np.pi * np.arange(n_lon) / n_lon
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ring = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    verts = np.vstack([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], ring.reshape(-1, 3)]) * radius
    idx = 2 + np.arange((n_lat - 1) * n_lon).reshape(n_lat - 1, n_lon)
    nxt = np.roll(idx, -1, axis=1)
    faces = [np.stack([np.zeros(n_lon, int), idx[0], nxt[0]], axis=1),
             np.stack([np.ones(n_lon, int), nxt[-1], idx[-1]], axis=1)]
    for i in range(n_lat - 2):
        faces.append(np.stack([idx[i], idx[i + 1], nxt[i]], axis=1))
        faces.append(np.stack([nxt[i], idx[i + 1], nxt[i + 1]], axis=1))
    return verts, np.vstack(faces)


def random_codes(rng, count, dim, scale):
    """Random directions, all of length ``scale * sqrt(dim / 3)``.

    A fixed length (the mean length of a uniform draw from ``[-scale,
    scale]^dim``) keeps the shots alike from seed to seed.
    """
    codes = rng.standard_normal((count, dim))
    return scale * np.sqrt(dim / 3.0) * codes / np.linalg.norm(codes, axis=1, keepdims=True)


def target_codes(rng, count, fields_on_template, displacement):
    """Random codes that move the template vertices by ``displacement`` (RMS).

    A fixed displacement keeps the template-to-target distance, and so the
    solver's work and the reach of the Chamfer check, alike from seed to
    seed.
    """
    codes = rng.standard_normal((count, len(fields_on_template)))
    moved = np.tensordot(codes, fields_on_template, axes=1)
    rms = np.sqrt(np.mean(np.sum(moved**2, axis=-1), axis=-1))
    return codes * (displacement / rms)[:, None]


class SineFields:
    """``P`` smooth fields ``f_i(x) = scale * sin(x * freq_i + phase_i) @ amp_i``.

    They can be evaluated at any point, so one set of fields deforms the
    template and any other tessellation of the same surface alike.
    """

    def __init__(self, rng, count, scale):
        self.freq = rng.uniform(1.0, 3.0, (count, 3))
        self.phase = rng.uniform(0.0, 2.0 * np.pi, (count, 3))
        self.amp = rng.standard_normal((count, 3, 3))
        self.scale = scale

    def __call__(self, points):
        """Fields at ``points``: an array of shape ``(P, len(points), 3)``."""
        s = np.sin(points[None] * self.freq[:, None] + self.phase[:, None])
        return self.scale * np.einsum("pnj,pjk->pnk", s, self.amp)

    def deform(self, points, code):
        return points + np.tensordot(code, self(points), axes=1)


def twist(points, angle):
    """Rotation about the z axis by an angle proportional to height."""
    x, y, z = points.T
    a = angle * z
    return np.stack([x * np.cos(a) - y * np.sin(a), x * np.sin(a) + y * np.cos(a), z], axis=1)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def write_obj(path, verts, faces):
    with open(path, "w") as fh:
        fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())
        fh.writelines(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces.tolist())


def write_vector(path, vec):
    np.savetxt(path, np.asarray(vec).reshape(1, -1), fmt="%.17g")


def write_config(path, *, basis="", time_steps=4, ivp_steps=4, stages=((0.1, 1e3),),
                 max_iterations=100, n_shape=1, n_pose=1):
    """INI config in the layout ``elsa.config.load_config`` reads.

    Inputs are made at basis scale, so normalization is off.
    """
    parser = configparser.ConfigParser()
    parser["mesh"] = {"normalize": "false"}
    parser["metric"] = {k: repr(v) for k, v in METRIC.items()}
    parser["schedule"] = {"sigmas": ", ".join(repr(s) for s, _ in stages),
                          "lambdas": ", ".join(repr(l) for _, l in stages)}
    parser["solver"] = {"time_steps": str(time_steps), "ivp_steps": str(ivp_steps),
                        "max_iterations": str(max_iterations), "gradient_tolerance": "1e-08",
                        "memory": "10"}
    parser["latent"] = {"basis": basis, "n_shape": str(n_shape), "n_pose": str(n_pose)}
    parser["run"] = {"seed": "0"}
    with open(path, "w") as fh:
        parser.write(fh)


def write_basis(path, verts, faces, fields, n_shape, n_pose):
    """Basis container through the program's own writer (its file format)."""
    from elsa.latent import LatentBasis, save_basis
    from elsa.mesh import TriangleMesh

    basis = LatentBasis(TriangleMesh(verts, faces), fields, n_shape, n_pose)
    save_basis(basis, path)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _latent_problem(rng, out, s, **config):
    """Template and fields of a latent workload; writes its basis and config."""
    verts, faces = icosphere(s["level"])
    fields = SineFields(rng, s["n_shape"] + s["n_pose"], s["field_scale"])
    write_basis(out / "basis.lsb", verts, faces, fields(verts), s["n_shape"], s["n_pose"])
    write_config(out / "config.ini", basis="basis.lsb", n_shape=s["n_shape"],
                 n_pose=s["n_pose"], **config)
    return fields, dict(template_vertices=verts, faces=faces, fields=fields(verts))


def _make_targets(rng, out, s):
    fields, truth = _latent_problem(rng, out, s, time_steps=s["time_steps"],
                                    stages=s["stages"], max_iterations=s["max_iterations"])
    uv_verts, uv_faces = uv_sphere(s["n_lat"], s["n_lon"])
    truth["codes"] = target_codes(rng, s["targets"], truth["fields"], s["displacement"])
    for k, code in enumerate(truth["codes"]):
        write_obj(out / f"target_{k}.obj", fields.deform(uv_verts, code), uv_faces)
    return truth


def make_register(rng, out):
    return _make_targets(rng, out, REGISTER)


def make_interpolate(rng, out):
    return _make_targets(rng, out, INTERPOLATE)


def make_extrapolate(rng, out):
    s = EXTRAPOLATE
    fields, truth = _latent_problem(rng, out, s, ivp_steps=s["ivp_steps"])
    P = len(fields.freq)
    truth["codes"] = random_codes(rng, s["shots"], P, s["code_scale"])
    truth["velocities"] = random_codes(rng, s["shots"], P, s["velocity_scale"])
    for k in range(s["shots"]):
        write_vector(out / f"code_{k}.txt", truth["codes"][k])
        write_vector(out / f"velocity_{k}.txt", truth["velocities"][k])
    return truth


def make_build_basis(rng, out):
    s = BUILD_BASIS
    verts, faces = icosphere(s["level"])
    lines = ["# path identity pose sequence", "template.obj id0 rest -"]
    write_obj(out / "template.obj", verts, faces)
    scales = rng.uniform(0.8, 1.25, (s["identities"], 3))
    for k, sc in enumerate(scales):
        write_obj(out / f"identity_{k}.obj", verts * sc, faces)
        lines.append(f"identity_{k}.obj id{k + 1} rest -")
    angles = s["twist"] * np.sort(rng.uniform(-1.0, 1.0, s["frames"]))
    frames = np.stack([twist(verts, a) for a in angles])
    for k, frame in enumerate(frames):
        write_obj(out / f"frame_{k}.obj", frame, faces)
        lines.append(f"frame_{k}.obj id0 move{k} twist")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")
    write_config(out / "config.ini", time_steps=s["time_steps"],
                 max_iterations=s["max_iterations"], n_shape=s["n_shape"],
                 n_pose=s["n_pose"])
    return dict(template_vertices=verts, faces=faces, frame_differences=np.diff(frames, axis=0))


MAKERS = {
    "register": make_register,
    "interpolate": make_interpolate,
    "extrapolate": make_extrapolate,
    "build-basis": make_build_basis,
}


def generate(workload, seed, out):
    """Write the inputs of ``workload`` for ``seed`` into directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(MAKERS).index(workload)])
    truth = MAKERS[workload](rng, out)
    np.savez(out / "truth.npz", **truth)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
