"""Run configuration: one INI file with a section per module.

The shipped presets mirror the body/face defaults (metric weights, kernel
scale schedules, block sizes).  ``save_config`` writes the effective
configuration next to a run's outputs so the run can be reproduced from it.

``_LAYOUT`` is the INI layout: :func:`load_config` and :func:`save_config`
both read it, and a section or key outside it is rejected, so a misspelled
key cannot become a setting that does nothing.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .metric import MetricCoefficients
from .solvers import MultiscaleSchedule, OptimizerConfig


@dataclass
class RunConfig:
    coefficients: MetricCoefficients = field(default_factory=MetricCoefficients.bodies)
    sigma: float = 0.025
    schedule: MultiscaleSchedule = field(default_factory=MultiscaleSchedule.bodies)
    time_steps: int = 10
    ivp_steps: int = 10
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    basis_path: str = ""
    n_shape: int = 40
    n_pose: int = 130
    shape_components: int = 6
    pose_components: int = 10
    em_iterations: int = 200
    normalize: bool = True
    seed: int = 0
    output_dir: str = "out"

    def require_basis(self):
        if not self.basis_path:
            raise FileNotFoundError("no basis file configured (latent.basis)")
        path = Path(self.basis_path)
        if not path.exists():
            raise FileNotFoundError(f"basis not found: {path}")
        return path


#: section -> key -> RunConfig attribute, in file order; a dotted attribute
#: names a field of a nested frozen setting, and a value's type is its
#: default's.  The keys mapped to None (the schedule's two lists and the basis
#: path) are read and written by hand.
_LAYOUT = {
    "mesh": {"normalize": "normalize"},
    "metric": {key: f"coefficients.{key}" for key in ("a0", "a1", "b1", "c1", "d1", "a2")},
    "varifold": {"sigma": "sigma"},
    "schedule": {"sigmas": None, "lambdas": None},
    "solver": {
        "time_steps": "time_steps",
        "ivp_steps": "ivp_steps",
        **{key: f"optimizer.{key}" for key in ("max_iterations", "gradient_tolerance", "memory")},
    },
    "latent": {"basis": None, "n_shape": "n_shape", "n_pose": "n_pose"},
    "generation": {key: key for key in ("shape_components", "pose_components", "em_iterations")},
    "run": {"seed": "seed", "output_dir": "output_dir"},
}


def _lookup(obj, attr):
    for name in attr.split("."):
        obj = getattr(obj, name)
    return obj


def _format(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def load_config(path):
    """Read a RunConfig from an INI file; missing keys keep their defaults.

    A section or key outside ``_LAYOUT`` raises ``ValueError``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    # [DEFAULT] first: configparser copies its keys into every other section
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if key not in _LAYOUT.get(section, ()):
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
        if section not in _LAYOUT and section != parser.default_section:
            raise ValueError(f"{path}: unknown section [{section}]")
    cfg = RunConfig()
    for section, keys in _LAYOUT.items():
        for key, attr in keys.items():
            if attr is None or not parser.has_option(section, key):
                continue
            default = _lookup(cfg, attr)
            try:
                value = (parser.getboolean(section, key) if isinstance(default, bool)
                         else type(default)(parser.get(section, key)))
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            owner, _, name = attr.rpartition(".")
            if owner:
                setattr(cfg, owner, replace(getattr(cfg, owner), **{name: value}))
            else:
                setattr(cfg, attr, value)
    sigmas = _floats(parser.get("schedule", "sigmas", fallback=""))
    lambdas = _floats(parser.get("schedule", "lambdas", fallback=""))
    if len(sigmas) != len(lambdas):
        raise ValueError(f"{path}: schedule sigmas and lambdas differ in length")
    if sigmas:
        cfg.schedule = MultiscaleSchedule(stages=tuple(zip(sigmas, lambdas)))
    raw = parser.get("latent", "basis", fallback="")
    cfg.basis_path = str(Path(path).parent / raw) if raw else ""
    return cfg


def save_config(cfg, path):
    """Write the effective configuration as an INI file.

    The basis path is written absolute, since :func:`load_config` reads a
    relative one against the directory of the INI file it reads.
    """
    by_hand = {
        "sigmas": ", ".join(repr(s) for s, _ in cfg.schedule.stages),
        "lambdas": ", ".join(repr(l) for _, l in cfg.schedule.stages),
        "basis": str(Path(cfg.basis_path).absolute()) if cfg.basis_path else "",
    }
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in _LAYOUT.items():
        parser[section] = {
            key: by_hand[key] if attr is None else _format(_lookup(cfg, attr))
            for key, attr in keys.items()
        }
    with open(path, "w") as fh:
        parser.write(fh)
