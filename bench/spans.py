"""Per-layer spans and counters, attached to ``elsa`` from outside.

:meth:`Tracer.install` replaces selected functions of the package with
timing wrappers.  A module that imported a function by name holds its own
reference, so every module attribute bound to the original function object
is replaced, wherever it is looked up (``solvers``, ``cli`` and ``latent``
import names directly).  The package source is not touched, and
:meth:`Tracer.uninstall` puts the originals back.

A layer's time is its self time: wall time inside its calls minus the time
spent in calls into other layers.  A call into the layer that is already
running folds into the outer span (the Gram evaluations inside the path
energy count as path-energy time), but is still counted as a call.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

#: (module, function, span key).  The layer is the part of the key before
#: the dot; ``_diff`` is spelled ``diff`` because metric names start with a
#: letter.  ``load_basis``/``save_basis`` are file I/O, so they join ``mesh.io``.
SPANS = (
    ("elsa.varifold", "varifold_sqdist", "varifold.sqdist"),
    ("elsa.varifold", "varifold_grad", "varifold.grad"),
    ("elsa.latent", "latent_path_energy_with_grad", "latent.path_energy"),
    ("elsa.latent", "latent_path_energy", "latent.path_energy"),
    ("elsa.latent", "gram", "latent.gram"),
    ("elsa.latent", "_gram_from_geometry", "latent.gram"),
    ("elsa.latent", "gram_directional_derivative", "latent.gram_fd"),
    ("elsa.latent", "decode", "latent.decode"),
    ("elsa._diff", "h2_vertex_gradient", "diff.h2_grad"),
    ("elsa._diff", "step_energy_discrete_with_grads", "diff.step_energy"),
    ("elsa._diff", "step_energy_discrete", "diff.step_energy"),
    ("elsa.metric", "_geometry", "metric.geometry"),
    ("elsa.solvers", "minimize", "solvers.lbfgs"),
    ("elsa.solvers", "geodesic_ivp", "solvers.ivp"),
    ("elsa.basis_builder", "shape_tangents", "basis_builder.shape_tangents"),
    ("elsa.basis_builder", "pca", "basis_builder.pca"),
    ("elsa.mesh", "load_mesh", "mesh.io"),
    ("elsa.mesh", "save_mesh", "mesh.io"),
    ("elsa.latent", "load_basis", "mesh.io"),
    ("elsa.latent", "save_basis", "mesh.io"),
)


def _faces(mesh):
    return mesh.faces.shape[0]


class Tracer:
    """Collects call counts, self times and work counters for one round."""

    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._frames = []  # [key, start, time in other layers' spans]
        self._keys = []  # key of every wrapped call in progress, folded or not
        self._seen_targets = set()

    # -- spans ------------------------------------------------------------

    def call(self, key, fn, args, kwargs):
        nested = bool(self._keys) and self._keys[-1] == key
        if not nested:
            self.calls[key] += 1
            self._count(key, args)
        self._keys.append(key)
        try:
            if self._frames and self._frames[-1][0].split(".")[0] == key.split(".")[0]:
                return fn(*args, **kwargs)
            frame = [key, time.perf_counter(), 0.0]
            self._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._frames.pop()
                total = time.perf_counter() - frame[1]
                self.self_s[key] += total - frame[2]
                if self._frames:
                    self._frames[-1][2] += total
        finally:
            self._keys.pop()

    def _count(self, key, args):
        if key == "varifold.sqdist":
            a, b, cfg = args[:3]
            ma, mb = _faces(a), _faces(b)
            self.counters["varifold.kernel_pairs"] += ma * ma + mb * mb + ma * mb
            target = (hash(b.vertices.tobytes()), hash(b.faces.tobytes()), cfg.sigma)
            if target in self._seen_targets:
                self.counters["varifold.repeat_target_pairs"] += mb * mb
            self._seen_targets.add(target)
        elif key == "varifold.grad":
            ma, mb = _faces(args[0]), _faces(args[1])
            self.counters["varifold.kernel_pairs"] += ma * ma + ma * mb
        elif key == "latent.gram":
            basis = args[0]
            self.counters["latent.gram_work"] += basis.dim**2 * basis.template.n_faces

    def _io(self, fn, args, kwargs):
        path = args[1] if fn.__name__.startswith("save") else args[0]
        result = fn(*args, **kwargs)
        self.counters["mesh.io_bytes"] += os.path.getsize(path)
        return result

    def _minimize(self, fn, args, kwargs):
        fun = args[0]

        def counted(x):
            self.counters["solvers.objective_evals"] += 1
            return fun(x)

        x, report = fn(counted, *args[1:], **kwargs)
        self.counters["solvers.iterations"] += sum(report.iterations)
        return x, report

    def wrap(self, key, fn):
        inner = fn
        if key == "mesh.io":
            def inner(*args, **kwargs):
                return self._io(fn, args, kwargs)
        elif key == "solvers.lbfgs":
            def inner(*args, **kwargs):
                return self._minimize(fn, args, kwargs)

        def wrapper(*args, **kwargs):
            return self.call(key, inner, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def run(self, key, fn, *args):
        """Run ``fn(*args)`` as the outermost span ``key``."""
        return self.call(key, fn, args, {})

    # -- installation -----------------------------------------------------

    def install(self):
        import elsa  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items() if name == "elsa" or
                   name.startswith("elsa.")]
        for mod_name, fn_name, key in SPANS:
            original = getattr(importlib.import_module(mod_name), fn_name, None)
            if original is None:  # gone from the package: its figures read 0
                continue
            wrapper = self.wrap(key, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer figures of the rounds traced since the last reset."""
        c, s, n = self.calls, self.self_s, self.counters
        iterations = n["solvers.iterations"]
        return {
            "varifold.sqdist_calls": c["varifold.sqdist"],
            "varifold.sqdist_s": s["varifold.sqdist"],
            "varifold.grad_calls": c["varifold.grad"],
            "varifold.grad_s": s["varifold.grad"],
            "varifold.kernel_pairs": n["varifold.kernel_pairs"],
            "varifold.repeat_target_pairs": n["varifold.repeat_target_pairs"],
            "latent.path_energy_calls": c["latent.path_energy"],
            "latent.path_energy_s": s["latent.path_energy"],
            "latent.gram_calls": c["latent.gram"],
            "latent.gram_s": s["latent.gram"],
            "latent.gram_fd_calls": c["latent.gram_fd"],
            "latent.gram_fd_s": s["latent.gram_fd"],
            "latent.decode_calls": c["latent.decode"],
            "latent.decode_s": s["latent.decode"],
            "latent.gram_work": n["latent.gram_work"],
            "diff.h2_grad_calls": c["diff.h2_grad"],
            "diff.h2_grad_s": s["diff.h2_grad"],
            "diff.step_energy_calls": c["diff.step_energy"],
            "diff.step_energy_s": s["diff.step_energy"],
            "metric.geometry_calls": c["metric.geometry"],
            "metric.geometry_s": s["metric.geometry"],
            "solvers.iterations": iterations,
            "solvers.objective_evals": n["solvers.objective_evals"],
            "solvers.evals_per_iteration":
                n["solvers.objective_evals"] / iterations if iterations else 0.0,
            "solvers.lbfgs_self_s": s["solvers.lbfgs"],
            "solvers.ivp_self_s": s["solvers.ivp"],
            "basis_builder.shape_tangents_s": s["basis_builder.shape_tangents"],
            "basis_builder.pca_s": s["basis_builder.pca"],
            "mesh.io_s": s["mesh.io"],
            "mesh.io_bytes": n["mesh.io_bytes"],
            "cli.self_s": s["cli"],
        }
