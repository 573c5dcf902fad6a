"""The four workloads: their CLI operations, set-up loads and output checks.

One round of a workload is its list of operations, each one ``elsa`` CLI
command.  Every run repeats whole rounds on the same inputs, so each run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks
import inputs

NAMES = ("register", "interpolate", "extrapolate", "build-basis")

#: the output file whose bytes must repeat from round to round
RESULT_FILE = {
    "register": "code.txt",
    "interpolate": "path_codes.txt",
    "extrapolate": "path_codes.txt",
    "build-basis": "basis.lsb",
}


def operations(workload, d):
    """CLI argument lists of one round, without ``--output-dir``."""
    d = Path(d)
    cfg = ["--config", str(d / "config.ini")]
    if workload == "register":
        return [["register", *cfg, str(d / f"target_{k}.obj")]
                for k in range(inputs.REGISTER["targets"])]
    if workload == "interpolate":
        return [["interpolate", *cfg, str(d / "target_0.obj"), str(d / "target_1.obj")]]
    if workload == "extrapolate":
        return [["extrapolate", *cfg, "--code", str(d / f"code_{k}.txt"),
                 "--velocity", str(d / f"velocity_{k}.txt")]
                for k in range(inputs.EXTRAPOLATE["shots"])]
    if workload == "build-basis":
        return [["build-basis", *cfg, str(d / "manifest.txt")]]
    raise ValueError(f"unknown workload {workload!r}")


def load_once(workload, d):
    """Load the workload's basis and meshes through the program's loaders."""
    from elsa.basis_builder import read_manifest
    from elsa.latent import load_basis
    from elsa.mesh import load_mesh

    d = Path(d)
    if workload == "build-basis":
        return [load_mesh(rec.path) for rec in read_manifest(d / "manifest.txt")]
    loaded = [load_basis(d / "basis.lsb")]
    return loaded + [load_mesh(p) for p in sorted(d.glob("target_*.obj"))]


def check(workload, d, k, out, truth):
    """Failures and measured values of operation ``k`` written to ``out``."""
    from elsa.metric import MetricCoefficients

    d = Path(d)
    coefficients = MetricCoefficients(**inputs.METRIC)
    if workload == "register":
        return checks.check_register(out, d / f"target_{k}.obj", truth, k)
    if workload == "interpolate":
        return checks.check_interpolate(out, [d / "target_0.obj", d / "target_1.obj"], truth,
                                        coefficients)
    if workload == "extrapolate":
        return checks.check_extrapolate(out, truth, k, coefficients)
    return checks.check_build_basis(out, truth)


def load_truth(d):
    with np.load(Path(d) / "truth.npz") as data:
        return dict(data)
