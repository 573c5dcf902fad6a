"""Batch command-line frontend.

Commands: register, interpolate, extrapolate, transfer, generate,
build-basis, distance, evaluate.  Every command reads one INI config
(``--config``), writes its artifacts plus a machine-readable run log and the
effective configuration into the output directory, and is deterministic
given config and seed (no timestamps in any output).

Exit codes: 0 success, 1 numerical failure (a failed solve or shot, a
degenerate mesh), 2 usage, input or file error, including a config error
(an unknown section or key, a malformed INI, an unreadable file).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .basis_builder import build_from_manifest, read_manifest
from .config import RunConfig, load_config, save_config
from .evaluation import evaluate_pair
from .generation import fit_gmm, generate_shape, load_gmm, save_gmm
from .latent import decode, latent_path_energy, load_basis, save_basis, substitute_shape_block
from .mesh import (
    DegenerateFaceError,
    MeshError,
    MeshParseError,
    load_mesh,
    mesh_diameter,
    normalize_unit_diameter,
    save_mesh,
)
from .solvers import SolverFailure, geodesic_ivp, relaxed_geodesic, retrieve_latent
from .varifold import varifold_sqdist


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="elsa", description="Elastic latent shape analysis on triangle meshes"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--output-dir", help="override the configured output directory")
    common.add_argument("--seed", type=int, help="override the configured seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", parents=[common], help="retrieve the latent code of a scan")
    p.add_argument("target", help="target mesh (OBJ/PLY)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("interpolate", parents=[common], help="relaxed geodesic between two scans")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser("extrapolate", parents=[common], help="shoot a geodesic from a code/velocity")
    p.add_argument("meshes", nargs="*", help="two meshes to register first")
    p.add_argument("--code", help="text vector: the starting latent code")
    p.add_argument("--velocity", help="text vector: the initial velocity")
    p.set_defaults(func=cmd_extrapolate)

    p = sub.add_parser("transfer", parents=[common], help="transfer a motion to a new identity")
    p.add_argument("--target", required=True, help="mesh providing the new shape identity")
    p.add_argument("frames", nargs="+", help="motion frames in order")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("build-basis", parents=[common], help="build a basis from a training manifest")
    p.add_argument("manifest", help="text manifest: path identity pose sequence")
    p.set_defaults(func=cmd_build_basis)

    p = sub.add_parser("generate", parents=[common], help="generate random shapes")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--model", help="fitted mixture-model container")
    p.add_argument("--velocities", help="text matrix of latent velocities to fit on")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("distance", parents=[common], help="varifold distance between two meshes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("evaluate", parents=[common], help="similarity metrics for mesh pairs")
    p.add_argument("pairs", nargs="*", help="pred truth (one pair)")
    p.add_argument("--pairs-file", help="CSV file: pred,truth per line")
    p.set_defaults(func=cmd_evaluate)
    return parser


def _setup(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.output_dir:
        cfg.output_dir = args.output_dir
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _finish(cfg, out, command, log):
    save_config(cfg, out / "effective_config.ini")
    log = {"command": command, "seed": cfg.seed, **log}
    with open(out / "run_log.json", "w") as fh:
        json.dump(log, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_input(path, cfg):
    """Load a mesh, optionally rescaled to unit diameter; returns (mesh, scale)."""
    mesh = load_mesh(path)
    if cfg.normalize:
        return normalize_unit_diameter(mesh)
    return mesh, 1.0


def _register(basis, path, cfg):
    """Retrieve the latent path of the scan at ``path``; returns (path codes, report, scale)."""
    mesh, scale = _load_input(path, cfg)
    codes, report = retrieve_latent(
        basis, mesh, cfg.coefficients, cfg.schedule, cfg.time_steps, cfg.optimizer
    )
    return codes, report, scale


def _write_vector(path, vec):
    np.savetxt(path, np.asarray(vec).reshape(1, -1), fmt="%.17g")


def _read_vector(path):
    return np.loadtxt(path).ravel()


def _report_payload(report):
    return {
        "value": report.value,
        "grad_norm": report.grad_norm,
        "iterations": list(report.iterations),
        "reason": report.reason,
        "reasons": list(report.reasons),
        "details": {k: float(v) for k, v in report.details.items()},
    }


def cmd_register(args, cfg, out):
    basis = load_basis(cfg.require_basis())
    path, report, scale = _register(basis, args.target, cfg)
    _write_vector(out / "code.txt", path[-1])
    np.savetxt(out / "path_codes.txt", path, fmt="%.17g")
    save_mesh(decode(basis, path[-1]), out / "reconstruction.obj")
    print(f"final varifold sq-distance: {report.details['varifold_sqdist']:.6e}")
    return 0, {
        "target": str(args.target),
        "input_scale": scale,
        "report": _report_payload(report),
    }


def cmd_interpolate(args, cfg, out):
    basis = load_basis(cfg.require_basis())
    source, s0 = _load_input(args.source, cfg)
    target, s1 = _load_input(args.target, cfg)
    path, report = relaxed_geodesic(
        basis, source, target, cfg.time_steps, cfg.coefficients, cfg.schedule, cfg.optimizer
    )
    for t, code in enumerate(path):
        save_mesh(decode(basis, code), out / f"interp_{t:03d}.obj")
    np.savetxt(out / "path_codes.txt", path, fmt="%.17g")
    T = len(path) - 1
    with open(out / "interpolation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment", "energy"])
        for t in range(T):
            seg = np.vstack([path[t], path[t + 1]])
            writer.writerow([t, repr(T * latent_path_energy(basis, seg, cfg.coefficients))])
        writer.writerow(["total", repr(report.details["path_energy"])])
        writer.writerow(["gamma0", repr(report.details["gamma0"])])
        writer.writerow(["gamma1", repr(report.details["gamma1"])])
    return 0, {
        "source": str(args.source),
        "target": str(args.target),
        "input_scales": [s0, s1],
        "report": _report_payload(report),
    }


def cmd_extrapolate(args, cfg, out):
    basis = load_basis(cfg.require_basis())
    log = {}
    if args.code and args.velocity:
        alpha0 = _read_vector(args.code)
        beta = _read_vector(args.velocity)
        log["code"] = str(args.code)
        log["velocity"] = str(args.velocity)
    elif len(args.meshes) == 2:
        codes = [_register(basis, path, cfg)[0][-1] for path in args.meshes]
        alpha0, beta = codes[0], codes[1] - codes[0]
        log["meshes"] = [str(m) for m in args.meshes]
    else:
        raise ValueError("extrapolate needs either --code and --velocity or two meshes")
    path = geodesic_ivp(basis, alpha0, beta, cfg.ivp_steps, cfg.coefficients)
    for k, code in enumerate(path):
        save_mesh(decode(basis, code), out / f"extrap_{k:03d}.obj")
    np.savetxt(out / "path_codes.txt", path, fmt="%.17g")
    return 0, {**log, "steps": cfg.ivp_steps}


def cmd_transfer(args, cfg, out):
    basis = load_basis(cfg.require_basis())
    target_code = _register(basis, args.target, cfg)[0][-1]
    frame_codes = []
    failures = []
    for idx, frame in enumerate(args.frames):
        try:
            frame_codes.append(_register(basis, frame, cfg)[0][-1])
        except (MeshError, SolverFailure, OSError) as exc:
            print(f"frame {idx} ({frame}) failed: {exc}", file=sys.stderr)
            failures.append(idx)
            frame_codes.append(None)
    good = [c for c in frame_codes if c is not None]
    if good:
        codes = np.stack(good)
        transferred = substitute_shape_block(codes, target_code, basis.n_shape)
        np.savetxt(out / "frame_codes.txt", codes, fmt="%.17g")
        np.savetxt(out / "transferred_codes.txt", transferred, fmt="%.17g")
        _write_vector(out / "target_code.txt", target_code)
        for k, code in enumerate(transferred):
            save_mesh(decode(basis, code), out / f"transfer_{k:03d}.obj")
    return 1 if failures else 0, {
        "target": str(args.target),
        "frames": [str(f) for f in args.frames],
        "failed_frames": failures,
    }


def cmd_build_basis(args, cfg, out):
    scale = None
    if cfg.normalize:
        records = read_manifest(args.manifest)
        scale = mesh_diameter(load_mesh(records[0].path))
    basis = build_from_manifest(
        args.manifest,
        cfg.n_shape,
        cfg.n_pose,
        cfg.coefficients,
        time_steps=cfg.time_steps,
        config=cfg.optimizer,
        scale=scale,
    )
    basis_path = out / "basis.lsb"
    save_basis(basis, basis_path)
    cfg.basis_path = str(basis_path)
    return 0, {
        "manifest": str(args.manifest),
        "template_scale": scale if scale is not None else 1.0,
        "dim": basis.dim,
        "n_shape": basis.n_shape,
        "n_pose": basis.n_pose,
        "basis": str(basis_path),
    }


def cmd_generate(args, cfg, out):
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    basis = load_basis(cfg.require_basis())
    if args.model:
        shape_gmm, pose_gmm = load_gmm(args.model)
        model_path = str(args.model)
    elif args.velocities:
        velocities = np.atleast_2d(np.loadtxt(args.velocities))
        if velocities.shape[1] != basis.dim:
            raise ValueError(
                f"velocity rows have {velocities.shape[1]} entries, basis has {basis.dim}"
            )
        shape_gmm = fit_gmm(
            velocities[:, : basis.n_shape], cfg.shape_components, cfg.seed, cfg.em_iterations
        )
        pose_gmm = fit_gmm(
            velocities[:, basis.n_shape :], cfg.pose_components, cfg.seed + 1, cfg.em_iterations
        )
        model_path = str(out / "model.gmm")
        save_gmm(model_path, shape_gmm, pose_gmm)
    else:
        raise ValueError("generate needs --model or --velocities")
    seeds = [cfg.seed + i for i in range(args.count)]
    for i, seed in enumerate(seeds):
        mesh = generate_shape(basis, shape_gmm, pose_gmm, cfg.ivp_steps, cfg.coefficients, seed)
        save_mesh(mesh, out / f"gen_{i:03d}.obj")
    return 0, {
        "count": args.count,
        "seeds": seeds,
        "model": model_path,
    }


def cmd_distance(args, cfg, out):
    a, _ = _load_input(args.a, cfg)
    b, _ = _load_input(args.b, cfg)
    value = float(np.sqrt(varifold_sqdist(a, b, cfg.sigma)))
    print(repr(value))
    return 0, {"a": str(args.a), "b": str(args.b), "distance": value}


def cmd_evaluate(args, cfg, out):
    pairs = []
    if args.pairs_file:
        with open(args.pairs_file, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#"):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{args.pairs_file}: expected 2 columns, got {len(row)}")
                pairs.append((row[0].strip(), row[1].strip()))
    if args.pairs:
        if len(args.pairs) != 2:
            raise ValueError("evaluate takes exactly two positional meshes")
        pairs.append((args.pairs[0], args.pairs[1]))
    if not pairs:
        raise ValueError("evaluate needs --pairs-file or two meshes")
    columns = ["pred", "truth", "hausdorff", "chamfer", "varifold", "mse", "geodesic_error"]
    rows = []
    for pred_path, truth_path in pairs:
        pair = load_mesh(pred_path), load_mesh(truth_path)
        report = evaluate_pair(*pair, cfg.sigma)
        row = {"pred": pred_path, "truth": truth_path}
        row.update({k: repr(v) for k, v in report.values.items()})
        rows.append(row)
    with open(out / "evaluation.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return 0, {"pairs": [list(p) for p in pairs]}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, out = _setup(args)
        code, log = args.func(args, cfg, out)
        _finish(cfg, out, args.command, log)
        return code
    except (MeshParseError, OSError, configparser.Error) as exc:
        # configparser's messages span lines
        print("error:", " ".join(str(exc).split("\n")), file=sys.stderr)
        return 2
    # before ValueError, which both DegenerateFaceError and LinAlgError subclass
    except (SolverFailure, DegenerateFaceError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
