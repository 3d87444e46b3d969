"""End-to-end command-line flows: synth -> train -> render / eval."""

import json

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.cli import main
from pidg.config import RunConfig
from pidg.deform import DeformConfig
from pidg.flow import gaussian_flow
from pidg.io import read_depth, read_flow, read_ppm
from pidg.losses import psnr, ssim
from pidg.material import MaterialConfig
from pidg.render import render
from pidg.synth import SceneSpec, load_scene
from pidg.train import Trainer


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


def test_train_requires_scene(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    small_run_config().save_json(p)
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "scene" in capsys.readouterr().err


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
