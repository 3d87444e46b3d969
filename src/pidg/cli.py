"""Command-line entry point: synth / train / render / eval.

Commands are single-process and deterministic for a given seed; `PIDG_THREADS`
caps the renderer's worker count. `train` validates its config up front and
reports every problem at once.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import io as pio
from .camera import Camera, camera_from_fov
from .config import ABLATIONS, RunConfig
from .flow import frame_pair_flows, project_velocity
from .losses import psnr
from .render import RenderSettings, project, render
from .synth import SceneSpec, generate, load_scene, write_scene
from .train import Trainer, TrainingAborted, load_model

QUIVER_GAIN = 4.0  # quiver arrows are this many times the motion they show


def _report(errors) -> int:
    """Print each problem as an ``error:`` line; the exit code of a bad input."""
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 2


def _unreadable(path, exc: OSError) -> str:
    return f"cannot read config file {path}: {exc.strerror or exc}"


def _read_scene(scene_dir):
    """(the scene, []), or (None, [the error line]) for a scene that cannot be read."""
    try:
        return load_scene(scene_dir), []
    except OSError as exc:
        return None, [f"cannot read scene file {exc.filename or scene_dir}: {exc.strerror or exc}"]
    except ValueError as exc:
        return None, [str(exc)]


def cmd_synth(args) -> int:
    try:
        if args.config:
            with open(args.config) as f:
                spec = SceneSpec.from_dict(json.load(f))
        else:
            spec = SceneSpec()
    except OSError as exc:
        return _report([_unreadable(args.config, exc)])
    except ValueError as exc:
        return _report(str(exc).splitlines())
    if args.seed is not None:
        spec.seed = args.seed
    errors = spec.validate()
    if errors:
        return _report(errors)
    scene = generate(spec)
    out = write_scene(scene, args.out)
    print(f"wrote {scene.frames} frames to {out}")
    return 0


def cmd_train(args) -> int:
    try:
        config = RunConfig.from_json(args.config) if args.config else RunConfig()
    except OSError as exc:
        return _report([_unreadable(args.config, exc)])
    except ValueError as exc:
        return _report(str(exc).splitlines())
    if args.seed is not None:
        config.seed = args.seed
    if args.iters is not None:
        config.iterations = args.iters
    if args.ablate is not None:
        config.ablate = args.ablate
    if args.out is not None:
        config.out_dir = args.out
    if args.scene is not None:
        config.scene_dir = args.scene
    errors = config.validate()
    if not config.scene_dir:
        errors.append("no scene directory (config scene_dir or --scene)")
    if errors:
        return _report(errors)
    data, errors = _read_scene(config.scene_dir)
    if errors:
        return _report(errors)
    if args.resume:
        # the run continues with the checkpoint's config; only the paths come from here
        trainer = Trainer.from_checkpoint(args.resume, data)
        flagged = {"scene_dir", "out_dir"}
        for flag, name, value in (("--seed", "seed", args.seed), ("--iters", "iterations", args.iters),
                                  ("--ablate", "ablate", args.ablate)):
            if value is not None:
                flagged.add(name)
                print(f"note: {flag} {value} ignored on resume; the checkpoint sets "
                      f"{name}={getattr(trainer.config, name)!r}", file=sys.stderr)
        if args.config:
            kept = dict(_config_items(trainer.config.to_dict()))
            for name, value in _config_items(config.to_dict()):
                if name not in flagged and value != kept[name]:
                    print(f"note: --config {name}={value!r} ignored on resume; the checkpoint sets "
                          f"{name}={kept[name]!r}", file=sys.stderr)
        run_config = dataclasses.replace(trainer.config, scene_dir=config.scene_dir, out_dir=config.out_dir)
    else:
        trainer = Trainer(config, data)
        run_config = config
    out = pio.ensure_dir(config.out_dir)
    run_config.save_json(out / "config.json")
    try:
        trainer.run(out, on_step=_progress(trainer))
    except TrainingAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"final mean train-view PSNR: {trainer.mean_psnr():.2f} dB "
          f"({len(trainer.cloud.ids)} particles)")
    return 0


def _config_items(d: dict, prefix: str = ""):
    """(dotted name, value) of every field of a config dict, nested ones flattened."""
    for name, value in d.items():
        if isinstance(value, dict):
            yield from _config_items(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def _progress(trainer):
    every = max(1, trainer.config.iterations // 20)

    def cb(row):
        if row["iter"] % every == 0 or row["iter"] == trainer.config.iterations - 1:
            print(f"iter {row['iter']:6d}  loss {row['loss_total']:.5f}  "
                  f"psnr {row['psnr']:.2f}  n {row['num_gaussians']}")

    return cb


def _load_pose(path, like: Camera | None) -> Camera:
    with open(path) as f:
        d = json.load(f)
    if "rot" in d:
        return Camera.from_dict(d)
    width = d.get("width", like.width if like else 64)
    height = d.get("height", like.height if like else 64)
    return camera_from_fov(d["position"], d.get("target", (0.0, 0.0, 0.0)),
                           d.get("fov_deg", 45.0), width, height)


def cmd_render(args) -> int:
    config, iteration, cloud, deform, material, normalizer = load_model(args.checkpoint)
    data, errors = _read_scene(args.scene) if args.scene else (None, [])
    if errors:
        return _report(errors)
    frame = args.camera if args.camera is not None else 0
    if data is not None and not 0 <= frame < data.frames:
        return _report([f"camera index {frame} outside scene ({data.frames} frames)"])
    if args.pose:
        camera = _load_pose(args.pose, data.cameras[0] if data else None)
    elif data is not None:
        camera = data.cameras[frame]
    else:
        return _report(["need --scene or --pose for a camera"])
    t = args.t if args.t is not None else (data.times[frame] if data else 0.0)
    if not 0.0 <= t <= 1.0:
        return _report([f"t={t} outside [0, 1]"])

    emits = [e.strip() for e in args.emit.split(",") if e.strip()]
    bad = [e for e in emits if e not in ("color", "depth", "flow", "quiver")]
    if bad:
        return _report([f"unknown --emit value(s) {bad}"])
    model = dict(deform_field=deform, normalizer=normalizer,
                 respect_dynamic_mask=iteration >= config.stage2_start())
    settings = RenderSettings(top_k=config.top_k)
    out_dir = pio.ensure_dir(args.out)
    with ad.Tape(keep_graph=False):
        out = render(cloud, camera, t, settings=settings, **model)
    if "color" in emits:
        pio.write_ppm(out_dir / "render_color.ppm", out.image_np())
    if "depth" in emits:
        pio.write_depth(out_dir / "render_depth.dep", out.depth_np())
    own_frame = data is not None and args.pose is None and args.t is None
    if own_frame:
        print(f"psnr vs frame {frame}: {psnr(out.image_np(), data.images[frame]):.2f} dB",
              file=sys.stderr)

    if "flow" in emits or "quiver" in emits:
        if data is None or frame >= data.frames - 1:
            return _report(["--emit flow/quiver needs --scene and a camera index with a next frame"])

        with ad.Tape(keep_graph=False):
            out_t = out if own_frame else render(cloud, data.cameras[frame], data.times[frame],
                                                 settings=settings, **model)
            proj_t1 = project(cloud, data.cameras[frame + 1], data.times[frame + 1], **model)
            flow_g, flow_v, v_world = frame_pair_flows(out_t, proj_t1, cloud.ids, material, normalizer)
        if "flow" in emits:
            pio.write_flow(out_dir / "flow_g.flo", flow_g.to_field())
            pio.write_flow(out_dir / "flow_v.flo", flow_v.to_field())
        if "quiver" in emits:
            vbar = project_velocity(data.cameras[frame], out_t.means2d, out_t.depths, v_world)
            img = _draw_quiver(out_t.image_np(), out_t.means2d.data, vbar.data,
                               dt=data.times[frame + 1] - data.times[frame])
            pio.write_ppm(out_dir / "quiver.ppm", img)
    print(f"wrote render outputs to {out_dir}")
    return 0


def _draw_quiver(image: np.ndarray, means2d: np.ndarray, vel2d: np.ndarray, dt: float) -> np.ndarray:
    """Burn velocity arrows (red segments, white tips) into a copy of the image."""
    img = image.copy()
    h, w = img.shape[:2]
    for (u, v), (du, dv) in zip(means2d, vel2d * dt * QUIVER_GAIN):
        steps = int(max(abs(du), abs(dv), 1.0)) * 2
        for s in range(steps + 1):
            x = int(round(u + du * s / steps))
            y = int(round(v + dv * s / steps))
            if 0 <= x < w and 0 <= y < h:
                img[y, x] = (1.0, 0.2, 0.2) if s < steps else (1.0, 1.0, 1.0)
    return img


def cmd_eval(args) -> int:
    data, errors = _read_scene(args.scene)
    if errors:
        return _report(errors)
    trainer = Trainer.from_checkpoint(args.checkpoint, data)
    metrics = trainer.evaluate()
    metrics["mean_residual"] = trainer.mean_residual(samples=10**6)
    text = json.dumps(metrics, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="pidg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene with exact ground truth")
    p.add_argument("--config", help="scene spec JSON (defaults are a small rigid scene)")
    p.add_argument("--out", required=True, help="output scene directory")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="run the two-stage reconstruction")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--scene", help="scene directory (overrides config scene_dir)")
    p.add_argument("--out", help="output directory (overrides config out_dir)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--ablate", choices=list(ABLATIONS), default=None)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("render", help="render a checkpoint at a time/pose")
    p.add_argument("checkpoint")
    p.add_argument("--scene", help="scene directory (cameras/targets)")
    p.add_argument("--camera", type=int, default=None, help="frame/camera index")
    p.add_argument("--pose", help="camera pose JSON")
    p.add_argument("--t", type=float, default=None, help="normalized time in [0, 1]")
    p.add_argument("--out", required=True)
    p.add_argument("--emit", default="color,depth",
                   help="comma list from color,depth,flow,quiver")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("eval", help="metrics JSON for a checkpoint against a scene")
    p.add_argument("checkpoint")
    p.add_argument("--scene", required=True)
    p.add_argument("--out", help="write the JSON here as well")
    p.set_defaults(fn=cmd_eval)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
