import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from elsa import (
    LatentBasis,
    MetricCoefficients,
    OptimizerConfig,
    decode,
    load_mesh,
    save_basis,
    save_mesh,
)
from elsa.cli import main
from elsa.config import RunConfig, load_config, save_config
from elsa.generation import fit_gmm, save_gmm
from elsa.solvers import SolverFailure

import synthetic as syn

BODY = MetricCoefficients.bodies()


@pytest.fixture()
def workspace(tmp_path):
    """A tiny basis, config and target meshes for CLI runs."""
    template = syn.icosphere(1)  # radius 0.5, diameter 1: normalization-stable
    basis = syn.random_basis(template, 2, 3, seed=1, scale=0.04)
    basis_path = tmp_path / "basis.lsb"
    save_basis(basis, basis_path)

    cfg = RunConfig()
    cfg.basis_path = str(basis_path)
    cfg.time_steps = 3
    cfg.ivp_steps = 3
    cfg.n_shape = 2
    cfg.n_pose = 2
    cfg.shape_components = 1
    cfg.pose_components = 1
    cfg.normalize = False  # targets are decoded codes, already in basis scale
    from elsa import MultiscaleSchedule, OptimizerConfig

    cfg.schedule = MultiscaleSchedule(stages=((0.3, 1e3), (0.1, 1e6), (0.05, 1e8)))
    cfg.optimizer = OptimizerConfig(max_iterations=300)
    cfg.output_dir = str(tmp_path / "out")
    cfg_path = tmp_path / "config.ini"
    save_config(cfg, cfg_path)

    rng = np.random.default_rng(2)
    alpha = 0.1 * rng.standard_normal(basis.dim)
    target = decode(basis, alpha)
    target_path = tmp_path / "target.obj"
    save_mesh(target, target_path)
    source_path = tmp_path / "source.obj"
    save_mesh(decode(basis, 0.1 * rng.standard_normal(basis.dim)), source_path)
    return {
        "tmp": tmp_path,
        "cfg": cfg,
        "cfg_path": cfg_path,
        "basis": basis,
        "basis_path": basis_path,
        "alpha": alpha,
        "target_path": target_path,
        "source_path": source_path,
        "template": template,
    }


def _run(*argv):
    return main([str(a) for a in argv])


def test_config_round_trip(tmp_path):
    cfg = RunConfig()
    cfg.sigma = 0.123
    cfg.time_steps = 7
    cfg.basis_path = ""
    path = tmp_path / "c.ini"
    save_config(cfg, path)
    back = load_config(path)
    assert back.sigma == 0.123
    assert back.time_steps == 7
    assert back.schedule.stages == cfg.schedule.stages
    assert back.coefficients == cfg.coefficients

    # every field away from its default comes back equal
    from elsa import MultiscaleSchedule

    full = RunConfig(
        coefficients=MetricCoefficients(2.0, 3.5, 0.25, 4.0, 5.0, 0.125),
        sigma=0.0625,
        schedule=MultiscaleSchedule(stages=((0.3, 1e3), (0.15, 1e5))),
        time_steps=4,
        ivp_steps=6,
        optimizer=OptimizerConfig(max_iterations=77, gradient_tolerance=3e-5, memory=4),
        basis_path=str((tmp_path / "basis.lsb").resolve()),
        n_shape=3,
        n_pose=5,
        shape_components=2,
        pose_components=3,
        em_iterations=17,
        normalize=False,
        seed=11,
        output_dir=str(tmp_path / "elsewhere"),
    )
    defaults = RunConfig()
    for f in dataclasses.fields(RunConfig):
        assert getattr(full, f.name) != getattr(defaults, f.name), f.name
    save_config(full, path)
    assert load_config(path) == full


def test_config_round_trip_keeps_percent_signs(tmp_path):
    # the INI is read without interpolation: "%" is an ordinary character
    cfg = RunConfig()
    cfg.basis_path = str((tmp_path / "my%basis.lsb").resolve())
    cfg.output_dir = "o%1"
    path = tmp_path / "c.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg
    path.write_text("[latent]\nbasis = my%basis.lsb\n")
    assert Path(load_config(path).basis_path) == tmp_path / "my%basis.lsb"


@pytest.mark.parametrize(
    "text, named",
    [
        ("[solver]\nmax_iteration = 3\n", "'max_iteration'"),  # misspelled key
        ("[solvers]\nmax_iterations = 3\n", "'max_iterations'"),  # unknown section
        ("[DEFAULT]\nseed = 3\n\n[run]\noutput_dir = out\n", "'seed'"),
        ("[solver]\ntime_steps = 3\n\n[extras]\n", "[extras]"),  # empty unknown section
    ],
    ids=["misspelled_key", "unknown_section", "default_key", "empty_unknown_section"],
)
def test_unknown_config_setting_exit_2(workspace, capsys, text, named):
    ws = workspace
    path = ws["tmp"] / "strict.ini"
    path.write_text(text)
    assert _run("distance", "--config", path, ws["target_path"], ws["target_path"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and named in err[0], err


def test_saved_config_finds_the_basis_it_was_loaded_with(tmp_path, monkeypatch):
    # a relative basis is read against the INI's directory; the effective
    # config written elsewhere must name the same file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "basis.lsb").write_bytes(b"")
    Path("configs/run.ini").write_text("[latent]\nbasis = basis.lsb\n")
    cfg = load_config("configs/run.ini")
    assert Path(cfg.basis_path).resolve() == (tmp_path / "configs" / "basis.lsb").resolve()
    Path("out").mkdir()
    save_config(cfg, "out/effective_config.ini")
    back = load_config("out/effective_config.ini")
    assert back.require_basis().resolve() == cfg.require_basis().resolve()


def test_load_config_partial_sections_keep_defaults(tmp_path):
    path = tmp_path / "partial.ini"
    path.write_text("[metric]\na1 = 7.5\n\n[solver]\ntime_steps = 3\n")
    cfg = load_config(path)
    defaults = RunConfig()
    assert cfg.time_steps == 3
    assert cfg.optimizer == defaults.optimizer
    assert cfg.coefficients.a1 == 7.5
    for name in ("a0", "b1", "c1", "d1", "a2"):
        assert getattr(cfg.coefficients, name) == getattr(defaults.coefficients, name)


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parents[1]
    bodies = load_config(root / "configs" / "bodies.ini")
    assert bodies.schedule.stages[0] == (0.4, 1e2)
    assert bodies.coefficients == MetricCoefficients.bodies()
    faces = load_config(root / "configs" / "faces.ini")
    assert faces.schedule.stages == ((0.01, 1e6), (0.005, 1e10))
    assert faces.coefficients == MetricCoefficients.faces()


def test_register_round_trip(workspace):
    ws = workspace
    code = _run("register", "--config", ws["cfg_path"], ws["target_path"])
    assert code == 0
    out = Path(ws["cfg"].output_dir)
    assert (out / "code.txt").exists()
    assert (out / "reconstruction.obj").exists()
    assert (out / "effective_config.ini").exists()
    log = json.loads((out / "run_log.json").read_text())
    assert log["command"] == "register"
    assert len(log["report"]["reasons"]) == len(log["report"]["iterations"]) == 3
    assert log["report"]["details"]["varifold_sqdist"] < 1e-6


def test_register_missing_basis_exit_2(workspace, tmp_path):
    ws = workspace
    cfg = ws["cfg"]
    cfg.basis_path = str(tmp_path / "nope.lsb")
    bad_cfg = tmp_path / "bad.ini"
    save_config(cfg, bad_cfg)
    assert _run("register", "--config", bad_cfg, ws["target_path"]) == 2


def test_truncated_containers_exit_2(workspace, capsys):
    ws = workspace
    tmp = ws["tmp"]

    def one_error_line(reason=": truncated"):  # tmp_path itself holds "truncated"
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0], err

    basis = ws["basis"]
    rng = np.random.default_rng(8)
    shape = fit_gmm(0.1 * rng.standard_normal((8, basis.n_shape)), 1, seed=9)
    pose = fit_gmm(0.1 * rng.standard_normal((8, basis.n_pose)), 1, seed=10)
    model_path = tmp / "model.gmm"
    save_gmm(model_path, shape, pose)
    capsys.readouterr()
    for cut in (10, 14, 30):
        cut_path = tmp / f"cut_{cut}.gmm"
        cut_path.write_bytes(model_path.read_bytes()[:cut])
        assert _run("generate", "--config", ws["cfg_path"], "--model", cut_path) == 2
        one_error_line()

    cfg = ws["cfg"]
    for cut in (8, 12, 40):
        cfg.basis_path = str(tmp / f"cut_{cut}.lsb")
        Path(cfg.basis_path).write_bytes(ws["basis_path"].read_bytes()[:cut])
        save_config(cfg, tmp / "cut.ini")
        assert _run("register", "--config", tmp / "cut.ini", ws["target_path"]) == 2
        one_error_line()

    ply_path = tmp / "target.ply"
    save_mesh(load_mesh(ws["target_path"]), ply_path)  # ASCII
    data = ply_path.read_bytes()
    after_last_full_line = data.rindex(b"\n", 0, len(data) - 1) + 1
    # cut before, inside and after the last number of the last face row
    for cut in (after_last_full_line, len(data) - 4, len(data) - 2, len(data) - 1):
        cut_path = tmp / f"cut_{cut}.ply"
        cut_path.write_bytes(data[:cut])
        assert _run("distance", "--config", ws["cfg_path"], ws["target_path"], cut_path) == 2
        one_error_line()

    bad_obj = tmp / "bad_vertex.obj"
    bad_obj.write_text(ws["target_path"].read_text().replace("v ", "v 1 abc 0\nv ", 1))
    assert _run("distance", "--config", ws["cfg_path"], ws["target_path"], bad_obj) == 2
    one_error_line(":1: malformed vertex line")


@pytest.mark.parametrize("case", ["config_is_dir", "basis_is_dir", "no_section", "duplicate_key"])
def test_unreadable_config_exit_2(workspace, capsys, case):
    # one "error:" line and exit 2, not a traceback
    ws = workspace
    path = ws["tmp"] / "input.ini"
    if case == "config_is_dir":
        path = ws["tmp"]
    elif case == "basis_is_dir":
        path.write_text(f"[latent]\nbasis = {ws['tmp']}\n")
    elif case == "no_section":
        path.write_text("basis = x\n")
    else:
        path.write_text("[solver]\ntime_steps = 3\ntime_steps = 4\n")
    capsys.readouterr()
    assert _run("register", "--config", path, "--output-dir", ws["tmp"] / "o",
                ws["target_path"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_percent_in_output_dir_writes_run_record(workspace, capsys):
    ws = workspace
    out = ws["tmp"] / "o%1"
    assert _run("distance", "--config", ws["cfg_path"], "--output-dir", out,
                ws["target_path"], ws["target_path"]) == 0
    assert json.loads((out / "run_log.json").read_text())["distance"] == 0.0
    assert load_config(out / "effective_config.ini").output_dir == str(out)


def test_register_missing_target_exit_2(workspace):
    ws = workspace
    assert _run("register", "--config", ws["cfg_path"], ws["tmp"] / "missing.obj") == 2


def test_interpolate_outputs(workspace):
    ws = workspace
    out = ws["tmp"] / "interp_out"
    code = _run(
        "interpolate", "--config", ws["cfg_path"], "--output-dir", out,
        ws["target_path"], ws["target_path"],
    )
    assert code == 0
    files = sorted(out.glob("interp_*.obj"))
    assert len(files) == ws["cfg"].time_steps + 1
    rows = (out / "interpolation.csv").read_text().strip().splitlines()
    assert rows[0] == "segment,energy"
    total = float(dict(r.split(",") for r in rows[1:])["total"])
    assert total < 1e-6

    # distinct endpoints: the segment rows add up to the total path energy
    cfg = ws["cfg"]
    cfg.optimizer = OptimizerConfig(max_iterations=20)
    short_cfg = ws["tmp"] / "short.ini"
    save_config(cfg, short_cfg)
    out = ws["tmp"] / "interp_distinct"
    code = _run(
        "interpolate", "--config", short_cfg, "--output-dir", out,
        ws["source_path"], ws["target_path"],
    )
    assert code == 0
    rows = dict(r.split(",") for r in (out / "interpolation.csv").read_text().split()[1:])
    segments = [float(rows[str(t)]) for t in range(cfg.time_steps)]
    total = float(rows["total"])
    assert total > 1e-6
    assert sum(segments) == pytest.approx(total, rel=1e-12)


def test_extrapolate_zero_velocity(workspace):
    ws = workspace
    basis = ws["basis"]
    code_file = ws["tmp"] / "code.txt"
    vel_file = ws["tmp"] / "vel.txt"
    np.savetxt(code_file, np.zeros((1, basis.dim)), fmt="%.17g")
    np.savetxt(vel_file, np.zeros((1, basis.dim)), fmt="%.17g")
    out = ws["tmp"] / "extrap_out"
    code = _run(
        "extrapolate", "--config", ws["cfg_path"], "--output-dir", out,
        "--code", code_file, "--velocity", vel_file,
    )
    assert code == 0
    files = sorted(out.glob("extrap_*.obj"))
    assert len(files) == ws["cfg"].ivp_steps + 1
    first = load_mesh(files[0])
    for f in files[1:]:
        assert np.array_equal(load_mesh(f).vertices, first.vertices)


def test_extrapolate_translation_velocity(tmp_path):
    template = syn.icosphere(1)
    basis = syn.translation_basis(template)
    basis_path = tmp_path / "trans.lsb"
    save_basis(basis, basis_path)
    cfg = RunConfig()
    cfg.basis_path = str(basis_path)
    cfg.ivp_steps = 4
    cfg.normalize = False
    cfg.output_dir = str(tmp_path / "out")
    cfg_path = tmp_path / "c.ini"
    save_config(cfg, cfg_path)
    code_file = tmp_path / "code.txt"
    vel_file = tmp_path / "vel.txt"
    np.savetxt(code_file, np.zeros((1, 3)), fmt="%.17g")
    beta = np.array([0.4, -0.2, 0.1])
    np.savetxt(vel_file, beta.reshape(1, -1), fmt="%.17g")
    assert _run("extrapolate", "--config", cfg_path, "--code", code_file, "--velocity", vel_file) == 0
    files = sorted(Path(cfg.output_dir).glob("extrap_*.obj"))
    for k, f in enumerate(files):
        mesh = load_mesh(f)
        expected = template.vertices + (k / 4) * beta
        assert np.max(np.abs(mesh.vertices - expected)) < 1e-6


def test_extrapolate_needs_inputs(workspace):
    ws = workspace
    assert _run("extrapolate", "--config", ws["cfg_path"]) == 2


def test_extrapolate_failed_shot_exit_1(workspace, monkeypatch, capsys):
    ws = workspace

    def fail(*args, **kwargs):
        raise SolverFailure("shooting residual above tolerance")

    monkeypatch.setattr("elsa.cli.geodesic_ivp", fail)
    code_file = ws["tmp"] / "code.txt"
    np.savetxt(code_file, np.zeros((1, ws["basis"].dim)), fmt="%.17g")
    capsys.readouterr()
    code = _run("extrapolate", "--config", ws["cfg_path"], "--code", code_file,
                "--velocity", code_file)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")


def test_extrapolate_collapsed_knot_exit_1(tmp_path, capsys):
    # the only field pulls every vertex to the origin: the first knot collapses
    template = syn.icosphere(1)
    basis_path = tmp_path / "collapse.lsb"
    save_basis(LatentBasis(template, -template.vertices[None], 1, 0), basis_path)
    cfg = RunConfig()
    cfg.basis_path = str(basis_path)
    cfg.ivp_steps = 4
    cfg.normalize = False
    cfg.output_dir = str(tmp_path / "out")
    cfg_path = tmp_path / "c.ini"
    save_config(cfg, cfg_path)
    np.savetxt(tmp_path / "code.txt", [0.0])
    np.savetxt(tmp_path / "vel.txt", [4.0])
    code = _run("extrapolate", "--config", cfg_path, "--code", tmp_path / "code.txt",
                "--velocity", tmp_path / "vel.txt")
    assert code == 1
    assert "zero-area face" in capsys.readouterr().err


def test_transfer_preserves_pose_blocks(workspace):
    ws = workspace
    basis = ws["basis"]
    rng = np.random.default_rng(3)
    frames = []
    for i in range(2):
        alpha = 0.08 * rng.standard_normal(basis.dim)
        p = ws["tmp"] / f"frame{i}.obj"
        save_mesh(decode(basis, alpha), p)
        frames.append(p)
    out = ws["tmp"] / "transfer_out"
    code = _run(
        "transfer", "--config", ws["cfg_path"], "--output-dir", out,
        "--target", ws["target_path"], *frames,
    )
    assert code == 0
    frame_codes = np.loadtxt(out / "frame_codes.txt")
    transferred = np.loadtxt(out / "transferred_codes.txt")
    target_code = np.loadtxt(out / "target_code.txt")
    m = basis.n_shape
    assert np.array_equal(frame_codes[:, m:], transferred[:, m:])
    assert np.all(transferred[:, :m] == target_code[:m])
    assert len(sorted(out.glob("transfer_*.obj"))) == 2


def test_transfer_reports_bad_frame(workspace):
    ws = workspace
    out = ws["tmp"] / "transfer_bad"
    code = _run(
        "transfer", "--config", ws["cfg_path"], "--output-dir", out,
        "--target", ws["target_path"], ws["target_path"], ws["tmp"] / "missing.obj",
    )
    assert code == 1
    log = json.loads((out / "run_log.json").read_text())
    assert log["failed_frames"] == [1]
    assert len(sorted(out.glob("transfer_*.obj"))) == 1


def test_transfer_skips_unreadable_frame(workspace, capsys):
    # a frame that cannot be read (here a directory) fails alone, as a missing one does
    ws = workspace
    folder = ws["tmp"] / "folder.obj"
    folder.mkdir()
    out = ws["tmp"] / "transfer_unreadable"
    code = _run(
        "transfer", "--config", ws["cfg_path"], "--output-dir", out,
        "--target", ws["target_path"], ws["target_path"], folder, ws["tmp"] / "missing.obj",
    )
    assert code == 1
    assert "frame 1" in capsys.readouterr().err
    log = json.loads((out / "run_log.json").read_text())
    assert log["failed_frames"] == [1, 2]
    assert len(sorted(out.glob("transfer_*.obj"))) == 1


def test_build_basis_and_generate_deterministic(tmp_path):
    template = syn.icosphere(1)
    lines = []

    def put(name, mesh):
        save_mesh(mesh, tmp_path / name)
        return name

    lines.append(f"{put('template.obj', template)} id0 rest -")
    for i, s in enumerate((1.06, 0.94)):
        lines.append(
            f"{put(f'shape{i}.obj', template.with_vertices(template.vertices * s))} id{i+1} rest -"
        )
    for j, angle in enumerate((0.0, 0.25, 0.5)):
        m = template.with_vertices(syn.twist_vertices(template.vertices, angle))
        lines.append(f"{put(f'frame{j}.obj', m)} id0 p{j} seqA")
    manifest = tmp_path / "train.txt"
    manifest.write_text("\n".join(lines) + "\n")

    cfg = RunConfig()
    cfg.n_shape = 2
    cfg.n_pose = 2
    cfg.time_steps = 2
    cfg.ivp_steps = 3
    cfg.shape_components = 1
    cfg.pose_components = 1
    cfg.output_dir = str(tmp_path / "basis_out")
    cfg_path = tmp_path / "build.ini"
    save_config(cfg, cfg_path)

    assert _run("build-basis", "--config", cfg_path, manifest) == 0
    basis_file = tmp_path / "basis_out" / "basis.lsb"
    assert basis_file.exists()
    from elsa import load_basis

    basis = load_basis(basis_file)
    assert basis.dim == 4

    # fit mixtures on synthetic velocities, then generate twice: bit-identical
    rng = np.random.default_rng(4)
    velocities = 0.15 * rng.standard_normal((10, basis.dim))
    vel_file = tmp_path / "vel.txt"
    np.savetxt(vel_file, velocities, fmt="%.17g")
    cfg.basis_path = str(basis_file)
    gen_cfg = tmp_path / "gen.ini"

    outputs = []
    for run in range(2):
        cfg.output_dir = str(tmp_path / f"gen{run}")
        save_config(cfg, gen_cfg)
        assert _run(
            "generate", "--config", gen_cfg, "--count", "3", "--velocities", vel_file,
            "--seed", "7",
        ) == 0
        files = sorted(Path(cfg.output_dir).glob("gen_*.obj"))
        assert len(files) == 3
        outputs.append([f.read_bytes() for f in files])
    assert outputs[0] == outputs[1]


def test_generate_with_model_file(workspace):
    ws = workspace
    basis = ws["basis"]
    rng = np.random.default_rng(5)
    shape = fit_gmm(0.1 * rng.standard_normal((8, basis.n_shape)), 1, seed=6)
    pose = fit_gmm(0.1 * rng.standard_normal((8, basis.n_pose)), 1, seed=7)
    model_path = ws["tmp"] / "model.gmm"
    save_gmm(model_path, shape, pose)
    out = ws["tmp"] / "gen_out"
    code = _run(
        "generate", "--config", ws["cfg_path"], "--output-dir", out,
        "--model", model_path, "--count", "2",
    )
    assert code == 0
    assert len(sorted(out.glob("gen_*.obj"))) == 2


def test_generate_negative_count_exit_2(workspace):
    # rejected before the mixtures are fitted or saved
    ws = workspace
    rng = np.random.default_rng(8)
    vel_file = ws["tmp"] / "vel.txt"
    np.savetxt(vel_file, 0.1 * rng.standard_normal((8, ws["basis"].dim)), fmt="%.17g")
    out = ws["tmp"] / "gen_out"
    code = _run(
        "generate", "--config", ws["cfg_path"], "--output-dir", out,
        "--velocities", vel_file, "--count", "-2",
    )
    assert code == 2
    assert not (out / "model.gmm").exists()


def test_distance_self_is_zero(workspace, capsys):
    ws = workspace
    assert _run("distance", "--config", ws["cfg_path"], ws["target_path"], ws["target_path"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert printed == "0.0"


def test_distance_normalization_kills_scale(workspace, capsys):
    # with unit-diameter normalization on (the default), a mesh and its
    # uniformly scaled copy are identical
    ws = workspace
    mesh = load_mesh(ws["target_path"])
    doubled = ws["tmp"] / "doubled.obj"
    save_mesh(mesh.with_vertices(2.0 * mesh.vertices), doubled)
    assert _run("distance", "--output-dir", ws["tmp"] / "dist_out",
                ws["target_path"], doubled) == 0
    printed = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(printed) < 1e-7


def test_evaluate_csv(workspace):
    ws = workspace
    other = ws["tmp"] / "other.obj"
    mesh = load_mesh(ws["target_path"])
    save_mesh(mesh.with_vertices(mesh.vertices * 1.01), other)
    pairs = ws["tmp"] / "pairs.csv"
    pairs.write_text(f"{ws['target_path']},{other}\n")
    out = ws["tmp"] / "eval_out"
    assert _run("evaluate", "--config", ws["cfg_path"], "--output-dir", out,
                "--pairs-file", pairs) == 0
    rows = (out / "evaluation.csv").read_text().strip().splitlines()
    assert rows[0].startswith("pred,truth,hausdorff,chamfer,varifold,mse,geodesic_error")
    assert len(rows) == 2
    values = rows[1].split(",")
    assert float(values[2]) > 0  # hausdorff of a scaled copy


def test_cli_rerun_from_effective_config(workspace):
    # config round trip: re-running from the written effective config
    # reproduces the outputs bit for bit
    ws = workspace
    out1 = ws["tmp"] / "r1"
    out2 = ws["tmp"] / "r2"
    assert _run("register", "--config", ws["cfg_path"], "--output-dir", out1,
                ws["target_path"]) == 0
    assert _run("register", "--config", out1 / "effective_config.ini", "--output-dir", out2,
                ws["target_path"]) == 0
    assert (out1 / "code.txt").read_bytes() == (out2 / "code.txt").read_bytes()
    assert (out1 / "reconstruction.obj").read_bytes() == (out2 / "reconstruction.obj").read_bytes()
