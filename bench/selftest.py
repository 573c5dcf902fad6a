"""Each output check accepts a correct output and rejects a corrupted one.

Run with ``python3 -m pytest bench/selftest.py`` from the repository root.
The file name does not match ``test_*.py``, so the repository's own test
run does not collect it.  Correct outputs for ``register`` and
``interpolate`` are written here from the known codes; ``extrapolate`` and
``build-basis`` outputs come from one run of the program each.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def _inputs(tmp_path, workload):
    d = tmp_path / "inputs"
    inputs.generate(workload, 0, d)
    return d, workloads.load_truth(d)


def _check(workload, d, out, truth, k=0):
    return workloads.check(workload, d, k, out, truth)[0]


def _write_decoded(path, truth, code):
    inputs.write_obj(path, checks.decode(truth, code), truth["faces"])


def _shift_vertex(path):
    verts, faces = checks.read_obj(path)
    verts[0] += 1e-6
    inputs.write_obj(path, verts, faces)


@pytest.fixture()
def register(tmp_path):
    d, truth = _inputs(tmp_path, "register")
    out = tmp_path / "out"
    out.mkdir()

    def write(code):
        inputs.write_vector(out / "code.txt", code)
        _write_decoded(out / "reconstruction.obj", truth, code)

    write(truth["codes"][0])
    return d, out, truth, write


def test_register_accepts_the_true_code(register):
    d, out, truth, _ = register
    assert _check("register", d, out, truth) == []


def test_register_rejects_a_perturbed_code(register):
    d, out, truth, write = register
    code = truth["codes"][0]
    write(code + 0.5 * np.linalg.norm(code) * np.eye(len(code))[0])
    assert any("code.txt" in f for f in _check("register", d, out, truth))


def test_register_rejects_the_template(register):
    d, out, truth, write = register
    write(np.zeros_like(truth["codes"][0]))
    assert any("Chamfer" in f for f in _check("register", d, out, truth))


def test_register_rejects_a_shifted_vertex(register):
    d, out, truth, _ = register
    _shift_vertex(out / "reconstruction.obj")
    assert any("affine decode" in f for f in _check("register", d, out, truth))


@pytest.fixture()
def interpolate(tmp_path):
    d, truth = _inputs(tmp_path, "interpolate")
    out = tmp_path / "out"
    out.mkdir()
    T = inputs.INTERPOLATE["time_steps"]

    def write(path):
        np.savetxt(out / "path_codes.txt", path, fmt="%.17g")
        for t, code in enumerate(path):
            _write_decoded(out / f"interp_{t:03d}.obj", truth, code)

    a, b = truth["codes"]
    write(a + np.linspace(0.0, 1.0, T + 1)[:, None] * (b - a))
    return d, out, truth, write


def test_interpolate_accepts_the_chord_between_the_true_codes(interpolate):
    d, out, truth, _ = interpolate
    assert _check("interpolate", d, out, truth) == []


def test_interpolate_rejects_a_detour(interpolate):
    d, out, truth, write = interpolate
    path = np.loadtxt(out / "path_codes.txt")
    path[1:-1] += 0.3 * np.linalg.norm(path[0])
    write(path)
    assert any("exceeds the chord" in f for f in _check("interpolate", d, out, truth))


def test_interpolate_rejects_a_missed_endpoint(interpolate):
    d, out, truth, write = interpolate
    path = np.loadtxt(out / "path_codes.txt")
    path[-1] = 0.0
    write(path)
    fails = _check("interpolate", d, out, truth)
    assert any(f.startswith(f"interp_{len(path) - 1:03d}.obj: Chamfer") for f in fails)


def test_interpolate_rejects_a_shifted_vertex(interpolate):
    d, out, truth, _ = interpolate
    _shift_vertex(out / "interp_000.obj")
    assert any("affine decode" in f for f in _check("interpolate", d, out, truth))


def _program_output(tmp_path, workload):
    from elsa.cli import main

    d, truth = _inputs(tmp_path, workload)
    out = tmp_path / "out"
    assert main([*workloads.operations(workload, d)[0], "--output-dir", str(out)]) == 0
    return d, out, truth


@pytest.fixture(scope="module")
def extrapolate_run(tmp_path_factory):
    return _program_output(tmp_path_factory.mktemp("extrapolate"), "extrapolate")


@pytest.fixture()
def extrapolate(extrapolate_run, tmp_path):
    d, out, truth = extrapolate_run
    shutil.copytree(out, tmp_path / "out")
    return d, tmp_path / "out", truth


def _rewrite_path(out, truth, path):
    np.savetxt(out / "path_codes.txt", path, fmt="%.17g")
    for j, code in enumerate(path):
        _write_decoded(out / f"extrap_{j:03d}.obj", truth, code)


def test_extrapolate_accepts_the_program_output(extrapolate):
    assert _check("extrapolate", *extrapolate) == []


def test_extrapolate_rejects_a_wrong_first_step(extrapolate):
    d, out, truth = extrapolate
    path = np.loadtxt(out / "path_codes.txt")
    path[1:] += 1e-3 * (path[1] - path[0])
    _rewrite_path(out, truth, path)
    assert any("beta/N" in f for f in _check("extrapolate", d, out, truth))


def test_extrapolate_rejects_a_change_of_speed(extrapolate):
    d, out, truth = extrapolate
    path = np.loadtxt(out / "path_codes.txt")
    path[3:] += 0.1 * (path[3] - path[2])
    _rewrite_path(out, truth, path)
    assert any("speed spread" in f for f in _check("extrapolate", d, out, truth))


def test_extrapolate_rejects_a_shifted_vertex(extrapolate):
    d, out, truth = extrapolate
    _shift_vertex(out / "extrap_004.obj")
    assert any("affine decode" in f for f in _check("extrapolate", d, out, truth))


@pytest.fixture(scope="module")
def build_basis_run(tmp_path_factory):
    return _program_output(tmp_path_factory.mktemp("build_basis"), "build-basis")


@pytest.fixture()
def build_basis(build_basis_run, tmp_path):
    from elsa.latent import load_basis

    d, out, truth = build_basis_run
    shutil.copytree(out, tmp_path / "out")
    basis = load_basis(tmp_path / "out" / "basis.lsb")

    def write(verts, fields):
        inputs.write_basis(tmp_path / "out" / "basis.lsb", verts, basis.template.faces, fields,
                           basis.n_shape, basis.n_pose)

    return d, tmp_path / "out", truth, basis, write


def test_build_basis_accepts_the_program_output(build_basis):
    d, out, truth, _, _ = build_basis
    assert _check("build-basis", d, out, truth) == []


def test_build_basis_rejects_a_moved_template(build_basis):
    d, out, truth, basis, write = build_basis
    verts = basis.template.vertices.copy()
    verts[0] += 1e-9
    write(verts, basis.fields)
    assert any("template" in f for f in _check("build-basis", d, out, truth))


def test_build_basis_rejects_a_scaled_field(build_basis):
    d, out, truth, basis, write = build_basis
    fields = basis.fields.copy()
    fields[0] *= 1.001
    write(basis.template.vertices, fields)
    assert any("shape block is not orthonormal" in f
               for f in _check("build-basis", d, out, truth))


def test_build_basis_rejects_a_pose_block_missing_a_motion(build_basis):
    d, out, truth, basis, write = build_basis
    fields = basis.fields.copy()
    # rotate the last pose field towards a direction no frame difference has
    q, _ = np.linalg.qr(np.vstack([basis.fields_matrix[basis.pose_slice],
                                   np.random.default_rng(0).standard_normal(fields[0].size)]).T)
    fields[-1] = q[:, -1].reshape(fields[-1].shape)
    write(basis.template.vertices, fields)
    assert any("outside the pose block" in f for f in _check("build-basis", d, out, truth))
