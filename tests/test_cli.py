"""End-to-end command-line flows: synth -> train -> render / eval."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pidg.autodiff as ad
import pidg.cli as cli
from pidg.cli import main
from pidg.config import RunConfig
from pidg.deform import DeformConfig
from pidg.flow import gaussian_flow, project_velocity, velocity_flow
from pidg.io import read_depth, read_flow, read_ppm, write_flow, write_ppm
from pidg.losses import psnr, ssim
from pidg.material import MaterialConfig
from pidg.render import RenderSettings, project, render
from pidg.synth import SceneSpec, load_scene
from pidg.train import Trainer, load_model


def small_spec_dict():
    return SceneSpec(variant="rigid", frames=3, width=24, height=24,
                     num_particles=12, translate=(0.3, 0.1, 0.0),
                     base_scale=0.07, seed=5).to_dict()


def small_run_config() -> RunConfig:
    return RunConfig(
        iterations=3, stage_switch=0.5, init_particles=20, max_particles=40,
        densify_interval=100, top_k=4, cmr_samples=8, cmr_block=8,
        deform=DeformConfig(spatial_levels=2, spatial_base=4, spatial_max=8,
                            temporal_levels=2, time_base=2, time_max=4,
                            table_size_log2=8, feature_dim=2,
                            attn_width=8, hidden_width=16),
        material=MaterialConfig(plane_levels=2, plane_base=4, plane_max=8,
                                table_size=256, fourier_n=2, embed_dim=4,
                                hidden_width=16),
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene + finished training run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(small_spec_dict()))
    scene_dir = root / "scene"
    assert main(["synth", "--config", str(spec_path), "--out", str(scene_dir)]) == 0

    cfg_path = root / "run.json"
    small_run_config().save_json(cfg_path)
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path), "--scene", str(scene_dir),
                 "--out", str(run_dir)]) == 0
    return {"root": root, "scene": scene_dir, "run": run_dir,
            "ckpt": run_dir / "final.pidg", "config": cfg_path}


def test_synth_writes_scene_assets(workspace):
    scene = workspace["scene"]
    assert (scene / "scene.json").exists()
    assert (scene / "cameras.json").exists()
    assert read_ppm(scene / "frame_0000.ppm").shape == (24, 24, 3)
    assert read_depth(scene / "depth_0000.dep").shape == (24, 24)
    assert len(list(scene.glob("flow_b_*.flo"))) == 2
    assert len(list(scene.glob("mask_*.pgm"))) == 3


def test_synth_rejects_bad_spec(tmp_path, capsys):
    bad = dict(small_spec_dict(), frames=1, num_particles=0)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "at least 2 frames" in err and "at least 1 particle" in err


def test_synth_reports_an_unknown_spec_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(small_spec_dict(), frame_count=3)))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == "error: unknown scene spec field 'frame_count'\n"


def test_train_outputs(workspace):
    run = workspace["run"]
    assert (run / "final.pidg").exists()
    assert (run / "metrics.csv").exists()
    assert (run / "config.json").exists()
    lines = (run / "metrics.csv").read_text().strip().split("\n")
    assert lines[0].startswith("iter,")
    assert len(lines) == 4  # header + 3 iterations at log_interval=1


def test_train_rejects_invalid_config(tmp_path, capsys):
    cfg = small_run_config()
    cfg.iterations = 0
    cfg.ablate = "bogus"
    p = tmp_path / "bad.json"
    cfg.save_json(p)
    assert main(["train", "--config", str(p), "--scene", "x", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "iterations" in err and "ablate" in err


@pytest.mark.parametrize("config, error", [
    ({"feature_dims": 4}, "unknown config field 'feature_dims'"),
    ({"deform": {"feature_dims": 4}}, "unknown config field 'deform.feature_dims'"),
    ({"iterations": "60"}, "iterations must be int, not '60'"),
])
def test_train_reports_config_file_errors(tmp_path, capsys, config, error):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(config))
    assert main(["train", "--config", str(p), "--scene", "x", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("name, reason", [("nope.json", "No such file or directory"),
                                          ("a_dir", "Is a directory")])
def test_missing_or_unreadable_config_file_is_an_error(tmp_path, capsys, command, name, reason):
    (tmp_path / "a_dir").mkdir()
    path = tmp_path / name
    args = ["--scene", "x"] if command == "train" else []
    assert main([command, "--config", str(path), *args, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: cannot read config file {path}: {reason}\n"


@pytest.mark.parametrize("spec, error", [
    ({"frames": "8"}, "frames must be int, not '8'"),
    ([1], "scene spec must be a JSON object"),
    ({"translate": [0.3, 0.1]}, "translate must be a list of 3 numbers, not [0.3, 0.1]"),
    ({"center": [0.0, True, 0.0]}, "center must be a list of 3 numbers, not [0.0, True, 0.0]"),
])
def test_synth_reports_spec_value_errors(tmp_path, capsys, spec, error):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("field, value, bounds", [
    ("fov_deg", 0.0, "in (0, 180)"),
    ("fov_deg", 180.0, "in (0, 180)"),
    ("base_scale", 0.0, "> 0"),
    ("opacity", 0.0, "in (0, 1]"),
    ("opacity", 1.5, "in (0, 1]"),
    ("coverage_threshold", -0.1, "in [0, 1)"),
    ("coverage_threshold", 1.0, "in [0, 1)"),
])
def test_synth_rejects_out_of_range_camera_and_particle_settings(tmp_path, capsys, field, value, bounds):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({field: value}))
    assert main(["synth", "--config", str(p), "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == f"error: {field} must be {bounds}, not {value!r}\n"
    assert not (tmp_path / "s").exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: BLAS runs one thread either way")
def test_seeded_run_bytes_do_not_depend_on_blas_threads(tmp_path):
    """With 1200 particles a weight-gradient product reduces over 1200 rows,
    which OpenBLAS rounds differently with one thread than with several. A
    CLI run with the BLAS variables unset equals one with them at 1."""
    assert main(["synth", "--seed", "3", "--out", str(tmp_path / "scene")]) == 0
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"init_particles": 1200, "max_particles": 1200}))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    runs = []
    for pinned in (False, True):
        run_env = dict(env, **dict.fromkeys(BLAS_THREAD_VARS, "1")) if pinned else env
        subprocess.run([sys.executable, "-m", "pidg.cli", "train", "--config", str(cfg), "--scene", "scene",
                        "--iters", "3", "--seed", "5", "--out", "run"],
                       cwd=tmp_path, env=run_env, check=True, capture_output=True)
        runs.append([(tmp_path / "run" / name).read_bytes() for name in ("metrics.csv", "final.pidg")])
        shutil.rmtree(tmp_path / "run")
    assert runs[0] == runs[1]


def test_train_requires_scene(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    small_run_config().save_json(p)
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "scene" in capsys.readouterr().err


def _scene_args(command, workspace, scene, tmp_path):
    if command == "train":
        return ["train", "--config", str(workspace["config"]), "--scene", str(scene),
                "--out", str(tmp_path / "o")]
    if command == "eval":
        return ["eval", str(workspace["ckpt"]), "--scene", str(scene)]
    return ["render", str(workspace["ckpt"]), "--scene", str(scene), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("command", ["train", "eval", "render"])
def test_unreadable_scene_is_one_error_line(workspace, tmp_path, capsys, command):
    scene = tmp_path / "scene"
    shutil.copytree(workspace["scene"], scene)
    manifest = scene / "scene.json"
    manifest.write_text(manifest.read_text()[:40])
    assert main(_scene_args(command, workspace, scene, tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest} is not valid JSON")

    missing = tmp_path / "nowhere"
    assert main(_scene_args(command, workspace, missing, tmp_path)) == 2
    assert capsys.readouterr().err == (f"error: cannot read scene file {missing / 'scene.json'}: "
                                       "No such file or directory\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train", "eval", "render"])
def test_bad_scene_bounds_is_one_error_line(workspace, tmp_path, capsys, command):
    scene = tmp_path / "scene"
    shutil.copytree(workspace["scene"], scene)
    manifest = scene / "scene.json"
    doc = json.loads(manifest.read_text())
    del doc["bounds"]["scale"]
    manifest.write_text(json.dumps(doc))
    assert main(_scene_args(command, workspace, scene, tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}: 'bounds.scale' must be a positive finite number, got None"]
    assert not (tmp_path / "o").exists()


def test_render_color_and_depth(workspace, tmp_path):
    out = tmp_path / "r"
    assert main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--camera", "0", "--out", str(out)]) == 0
    img = read_ppm(out / "render_color.ppm")
    assert img.shape == (24, 24, 3)
    assert read_depth(out / "render_depth.dep").shape == (24, 24)
    assert img.max() > 0.0  # something rendered


def test_render_flow_and_quiver(workspace, tmp_path):
    out = tmp_path / "rf"
    assert main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--camera", "0", "--out", str(out), "--emit", "flow,quiver"]) == 0
    fg = read_flow(out / "flow_g.flo")
    fv = read_flow(out / "flow_v.flo")
    assert fg.vectors.shape == (24, 24, 2) and fv.vectors.shape == (24, 24, 2)
    assert fg.valid.any()
    assert read_ppm(out / "quiver.ppm").shape == (24, 24, 3)


@pytest.mark.parametrize("extra, passes", [([], 2), (["--t", "own"], 3)])
def test_render_flow_renders_each_frame_once(workspace, tmp_path, monkeypatch, extra, passes):
    """--emit flow,quiver renders the chosen frame once (twice with --t, whose
    render may be at another time) and projects the next frame once, without
    rendering it: ``passes`` counts these calls. Every file equals one
    computed from a fresh render of each frame, the t+1 render as the oracle."""
    data = load_scene(workspace["scene"])
    f = 1
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append((fn.__name__, args[2]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "render", counting(render))
    monkeypatch.setattr(cli, "project", counting(project))
    out = tmp_path / "rf"
    extra = [repr(data.times[f]) if a == "own" else a for a in extra]
    assert main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--camera", str(f), "--out", str(out), "--emit", "color,depth,flow,quiver", *extra]) == 0
    assert calls == [("render", data.times[f])] * (passes - 1) + [("project", data.times[f + 1])]

    config, iteration, cloud, deform, material, normalizer = load_model(workspace["ckpt"])
    settings = RenderSettings(top_k=config.top_k)
    dt = data.times[f + 1] - data.times[f]
    with ad.Tape():
        out_t, out_t1 = (render(cloud, data.cameras[g], data.times[g], deform_field=deform,
                                normalizer=normalizer, settings=settings,
                                respect_dynamic_mask=iteration >= config.stage2_start())
                         for g in (f, f + 1))
        p4 = normalizer.unit4_np(out_t.positions_world, data.times[f])
        v_norm, _ = material.evaluate(p4, cloud.ids[out_t.visible_rows])
        v_world = ad.mul(v_norm, normalizer.scale)
        flow_g = gaussian_flow(out_t, out_t1)
        flow_v = velocity_flow(out_t, out_t1, v_world, dt=dt)
    vbar = project_velocity(data.cameras[f], out_t.means2d, out_t.depths, v_world)
    ref = tmp_path / "ref"
    ref.mkdir()
    write_flow(ref / "flow_g.flo", flow_g.to_field())
    write_flow(ref / "flow_v.flo", flow_v.to_field())
    write_ppm(ref / "quiver.ppm", cli._draw_quiver(out_t.image_np(), out_t.means2d.data, vbar.data, dt=dt))
    write_ppm(ref / "render_color.ppm", out_t.image_np())
    for name in ("flow_g.flo", "flow_v.flo", "quiver.ppm", "render_color.ppm"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_render_keeps_no_backward_state(workspace, tmp_path, monkeypatch):
    """Every render and projection of --emit color,depth,flow,quiver is
    forward-only, and a non-finite value still raises."""
    outs, projections = [], []

    def recording(fn, into):
        def wrapped(*args, **kwargs):
            into.append(fn(*args, **kwargs))
            return into[-1]
        return wrapped

    monkeypatch.setattr(cli, "render", recording(render, outs))
    monkeypatch.setattr(cli, "project", recording(project, projections))
    argv = ["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]), "--camera", "0",
            "--out", str(tmp_path / "r"), "--emit", "color,depth,flow,quiver"]
    assert main(argv) == 0
    assert len(outs) == 1 and len(projections) == 1
    tensors = [out.raw for out in outs] + [x for p in projections for x in p if isinstance(x, ad.Tensor)]
    assert len(tensors) == 6
    assert all(x._vjp is None and not x.requires_grad for x in tensors)

    def poisoned_model(path):
        config, iteration, cloud, deform, material, normalizer = load_model(path)
        cloud.sh.data[0, 0, 0] = np.nan
        return config, iteration, cloud, deform, material, normalizer

    monkeypatch.setattr(cli, "load_model", poisoned_model)
    with pytest.raises(ad.NonFiniteError):
        main(argv)


def test_render_from_pose_json(workspace, tmp_path):
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({"position": [0.0, 0.5, 3.0], "target": [0.0, 0.0, 0.0],
                                "fov_deg": 45.0, "width": 24, "height": 24}))
    out = tmp_path / "rp"
    assert main(["render", str(workspace["ckpt"]), "--pose", str(pose), "--t", "0.5",
                 "--out", str(out), "--emit", "color"]) == 0
    assert (out / "render_color.ppm").exists()
    assert not (out / "render_depth.dep").exists()


def test_render_rejects_time_outside_unit_interval(workspace, tmp_path, capsys):
    code = main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--t", "1.5", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "outside [0, 1]" in capsys.readouterr().err


def test_render_rejects_unknown_emit(workspace, tmp_path, capsys):
    code = main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--out", str(tmp_path / "x"), "--emit", "color,normals"])
    assert code == 2
    assert "normals" in capsys.readouterr().err


def test_render_rejects_bad_camera_index(workspace, tmp_path, capsys):
    code = main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--camera", "99", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "camera index" in capsys.readouterr().err


def test_render_needs_some_camera(workspace, tmp_path, capsys):
    code = main(["render", str(workspace["ckpt"]), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "--scene or --pose" in capsys.readouterr().err


def test_flow_emit_needs_next_frame(workspace, tmp_path, capsys):
    code = main(["render", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--camera", "2", "--out", str(tmp_path / "x"), "--emit", "flow"])
    assert code == 2
    assert "next frame" in capsys.readouterr().err


def test_eval_writes_metrics_json(workspace, tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(["eval", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    metrics = json.loads(out.read_text())
    assert json.loads(printed) == metrics
    assert set(metrics) == {"psnr", "ssim", "masked_epe", "mean_residual"}
    assert all(np.isfinite(v) for v in metrics.values())


def test_eval_matches_fresh_renders_per_frame_and_pair(workspace, tmp_path):
    """eval renders each frame once; its figures equal ones computed from a
    fresh render of every frame and two fresh renders of every pair."""
    out = tmp_path / "metrics.json"
    assert main(["eval", str(workspace["ckpt"]), "--scene", str(workspace["scene"]),
                 "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())

    data = load_scene(workspace["scene"])
    tr = Trainer.from_checkpoint(workspace["ckpt"], data)
    psnrs, ssims = [], []
    for f in range(data.frames):
        image = tr.render_frame(f).image_np()
        psnrs.append(psnr(image, data.images[f]))
        with ad.Tape():
            ssims.append(float(ssim(ad.constant(image), data.images[f]).data))
    errs, counts = [], []
    for f in range(data.frames - 1):
        with ad.Tape():
            out_t, out_t1 = (render(tr.cloud, data.cameras[g], data.times[g], deform_field=tr.deform,
                                    normalizer=tr.normalizer, settings=tr.settings,
                                    respect_dynamic_mask=tr.stage() == 2) for g in (f, f + 1))
            flow = gaussian_flow(out_t, out_t1)
        gt = tr._gt_flow(f)
        pv, pu = flow.pix_v, flow.pix_u
        sel = flow.valid & gt.valid[pv, pu] & (data.masks[f][pv, pu] > 0)
        err = np.linalg.norm(flow.vec.data[sel] - gt.vectors[pv[sel], pu[sel]], axis=1)
        errs.append(float(err.mean()) * len(err))
        counts.append(len(err))
    assert all(counts)
    assert metrics["psnr"] == float(np.mean(psnrs))
    assert metrics["ssim"] == float(np.mean(ssims))
    assert metrics["masked_epe"] == float(np.sum(errs) / np.sum(counts))
    assert metrics["mean_residual"] == tr.mean_residual(samples=10**6)
    assert tr.mean_masked_epe() == metrics["masked_epe"]
    assert tr.mean_psnr() == metrics["psnr"]


def test_train_resume_flag(workspace, tmp_path):
    out = tmp_path / "resumed"
    assert main(["train", "--config", str(workspace["config"]),
                 "--scene", str(workspace["scene"]), "--out", str(out),
                 "--resume", str(workspace["ckpt"])]) == 0
    assert (out / "final.pidg").exists()


def test_train_resume_writes_checkpoint_config_and_notes_ignored_flags(workspace, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--config", str(workspace["config"]), "--scene", str(workspace["scene"]),
                 "--out", str(out), "--resume", str(workspace["ckpt"]),
                 "--iters", "40", "--seed", "9"]) == 0
    written = json.loads((out / "config.json").read_text())
    expected = small_run_config()  # the run that wrote the checkpoint
    assert written["iterations"] == expected.iterations == 3
    assert written["seed"] == expected.seed
    assert written["out_dir"] == str(out) and written["scene_dir"] == str(workspace["scene"])
    notes = [line for line in capsys.readouterr().err.splitlines() if "ignored on resume" in line]
    assert notes == ["note: --seed 9 ignored on resume; the checkpoint sets seed=42",
                     "note: --iters 40 ignored on resume; the checkpoint sets iterations=3"]


def test_train_resume_notes_each_ignored_config_field(workspace, tmp_path, capsys):
    cfg = small_run_config()
    cfg.checkpoint_interval = 2
    cfg_path = tmp_path / "run.json"
    cfg.save_json(cfg_path)
    scene = str(workspace["scene"])
    assert main(["train", "--config", str(cfg_path), "--scene", scene, "--out", str(tmp_path / "run")]) == 0
    ckpt = str(tmp_path / "run" / "ckpt_000002.pidg")
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(dict(cfg.to_dict(), lambda_cmr=0.5, top_k=2)))
    capsys.readouterr()

    assert main(["train", "--config", str(changed), "--scene", scene, "--out", str(tmp_path / "a"),
                 "--resume", ckpt]) == 0
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert notes == ["note: --config lambda_cmr=0.5 ignored on resume; the checkpoint sets lambda_cmr=0.1",
                     "note: --config top_k=2 ignored on resume; the checkpoint sets top_k=4"]
    assert main(["train", "--scene", scene, "--out", str(tmp_path / "b"), "--resume", ckpt]) == 0
    assert not [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert (tmp_path / "a" / "final.pidg").read_bytes() == (tmp_path / "b" / "final.pidg").read_bytes()
