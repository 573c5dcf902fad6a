"""Run configuration: one INI file with a section per module.

The shipped presets mirror the body/face defaults (metric weights, kernel
scale schedules, block sizes).  ``save_config`` writes the effective
configuration next to a run's outputs so the run can be reproduced from it.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
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


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


def load_config(path):
    """Read a RunConfig from an INI file; missing keys keep their defaults."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    cfg = RunConfig()
    base = Path(path).parent

    if parser.has_section("metric"):
        m = parser["metric"]
        cfg.coefficients = MetricCoefficients(
            **{f.name: m.getfloat(f.name, getattr(cfg.coefficients, f.name))
               for f in fields(MetricCoefficients)}
        )
    if parser.has_section("varifold"):
        cfg.sigma = parser["varifold"].getfloat("sigma", cfg.sigma)
    if parser.has_section("schedule"):
        s = parser["schedule"]
        sigmas = _floats(s.get("sigmas", ""))
        lambdas = _floats(s.get("lambdas", ""))
        if len(sigmas) != len(lambdas):
            raise ValueError(f"{path}: schedule sigmas and lambdas differ in length")
        if sigmas:
            cfg.schedule = MultiscaleSchedule(stages=tuple(zip(sigmas, lambdas)))
    if parser.has_section("solver"):
        s = parser["solver"]
        cfg.time_steps = s.getint("time_steps", cfg.time_steps)
        cfg.ivp_steps = s.getint("ivp_steps", cfg.ivp_steps)
        opt = cfg.optimizer
        cfg.optimizer = OptimizerConfig(
            max_iterations=s.getint("max_iterations", opt.max_iterations),
            gradient_tolerance=s.getfloat("gradient_tolerance", opt.gradient_tolerance),
            memory=s.getint("memory", opt.memory),
        )
    if parser.has_section("latent"):
        s = parser["latent"]
        raw = s.get("basis", "")
        if raw and not Path(raw).is_absolute():
            raw = str(base / raw)
        cfg.basis_path = raw
        cfg.n_shape = s.getint("n_shape", cfg.n_shape)
        cfg.n_pose = s.getint("n_pose", cfg.n_pose)
    if parser.has_section("generation"):
        s = parser["generation"]
        cfg.shape_components = s.getint("shape_components", cfg.shape_components)
        cfg.pose_components = s.getint("pose_components", cfg.pose_components)
        cfg.em_iterations = s.getint("em_iterations", cfg.em_iterations)
    if parser.has_section("mesh"):
        cfg.normalize = parser["mesh"].getboolean("normalize", cfg.normalize)
    if parser.has_section("run"):
        s = parser["run"]
        cfg.seed = s.getint("seed", cfg.seed)
        cfg.output_dir = s.get("output_dir", cfg.output_dir)
    return cfg


def save_config(cfg, path):
    """Write the effective configuration as an INI file.

    The basis path is written absolute, since :func:`load_config` reads a
    relative one against the directory of the INI file it reads.
    """
    parser = configparser.ConfigParser()
    c = cfg.coefficients
    parser["mesh"] = {"normalize": str(cfg.normalize).lower()}
    parser["metric"] = {
        "a0": repr(c.a0), "a1": repr(c.a1), "b1": repr(c.b1),
        "c1": repr(c.c1), "d1": repr(c.d1), "a2": repr(c.a2),
    }
    parser["varifold"] = {"sigma": repr(cfg.sigma)}
    parser["schedule"] = {
        "sigmas": ", ".join(repr(s) for s, _ in cfg.schedule.stages),
        "lambdas": ", ".join(repr(l) for _, l in cfg.schedule.stages),
    }
    parser["solver"] = {
        "time_steps": str(cfg.time_steps),
        "ivp_steps": str(cfg.ivp_steps),
        "max_iterations": str(cfg.optimizer.max_iterations),
        "gradient_tolerance": repr(cfg.optimizer.gradient_tolerance),
        "memory": str(cfg.optimizer.memory),
    }
    parser["latent"] = {
        "basis": str(Path(cfg.basis_path).absolute()) if cfg.basis_path else "",
        "n_shape": str(cfg.n_shape),
        "n_pose": str(cfg.n_pose),
    }
    parser["generation"] = {
        "shape_components": str(cfg.shape_components),
        "pose_components": str(cfg.pose_components),
        "em_iterations": str(cfg.em_iterations),
    }
    parser["run"] = {
        "seed": str(cfg.seed),
        "output_dir": cfg.output_dir,
    }
    with open(path, "w") as fh:
        parser.write(fh)

