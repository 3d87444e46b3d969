"""pidg benchmark: train, evaluate and render one seeded workload.

    python3 perfbench/run.py --workload shear128 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ``src``. The
seed makes SCENES scenes (seeds n, n+1, ...); round k runs scene k mod
SCENES. A run makes one round of every scene, then repeats whole rounds while
at least half a round still fits in ``--seconds``. A round sets its scene up
(synthesise, write, read, construct the trainer; five times), trains the
shortened two-stage schedule into a run directory, evaluates ``final.pidg``
the way ``pidg eval`` does (three times), and renders every frame
forward-only from the checkpoint (four passes). The quality metrics are the
mean over the scenes. The correctness checks run once, on the first round's
trained model, and every later round must reproduce the first round of its
scene byte for byte. With ``--trace 1`` one more round of the first scene
runs with the per-layer tracer installed and the per-layer metrics are
reported instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is a training step,
an evaluation, a forward render or a check.
"""

from __future__ import annotations

import os

# single-threaded BLAS must be fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Trained quality differs from scene to scene far more than timings do
# (masked EPE on shear128 spread 0.21, IQR over median, across ten seeds), so
# a run reports the mean over more than one scene.
SCENES = 2
SETUP_REPEATS = 5
EVAL_REPEATS = 3
RENDER_PASSES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """One benchmark run: the samples it timed and the operations it attempted."""

    def __init__(self, workload, seed: int, work: Path):
        self.scenes = [(workload.scene_spec(seed + j), workload.run_config(seed + j))
                       for j in range(SCENES)]
        # the checks and the traced round use the first scene
        self.spec, self.config = self.scenes[0]
        self.seed = seed
        self.work = work
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.report: list[str] = []

    def setup(self, tag: str, scene: int = 0):
        from pidg.synth import generate, load_scene, write_scene
        from pidg.train import Trainer

        spec, config = self.scenes[scene]
        t0 = time.perf_counter()
        scene_dir = write_scene(generate(spec), self.work / tag / "scene")
        data = load_scene(scene_dir)
        trainer = Trainer(config, data)
        self.samples["setup_s"].append(time.perf_counter() - t0)
        return scene_dir, data, trainer

    def train(self, trainer, run_dir: Path) -> None:
        step = trainer.step

        def timed_step():
            stage = trainer.stage()
            t0 = time.perf_counter()
            row = step()
            self.samples[f"stage{stage}_step_ms"].append(1e3 * (time.perf_counter() - t0))
            self.attempted += 1
            return row

        trainer.step = timed_step
        t0 = time.perf_counter()
        trainer.run(run_dir)
        self.samples["train_s"].append(time.perf_counter() - t0)
        del trainer.step

    def evaluate(self, ckpt: Path, scene_dir: Path) -> dict:
        """What ``pidg eval`` computes and prints for the checkpoint."""
        from pidg.cli import cmd_eval

        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            args = argparse.Namespace(checkpoint=str(ckpt), scene=str(scene_dir), out=None)
            code = cmd_eval(args)
        self.samples["eval_s"].append(time.perf_counter() - t0)
        self.attempted += 1
        if code != 0:
            raise RuntimeError(f"pidg eval exited with code {code}")
        return json.loads(out.getvalue())

    def render_frames(self, ckpt: Path, data) -> None:
        """Forward-only renders of every frame from ``load_model``, as ``pidg render``."""
        import pidg.autodiff as ad
        from checks import past_stage_switch
        from pidg.render import RenderSettings, render
        from pidg.train import load_model

        config, iteration, cloud, deform, material, normalizer = load_model(ckpt)
        respect = past_stage_switch(config, iteration)
        settings = RenderSettings(top_k=config.top_k, threads=1)
        for _ in range(RENDER_PASSES):
            for f in range(data.frames):
                t0 = time.perf_counter()
                with ad.Tape():
                    render(cloud, data.cameras[f], data.times[f], deform_field=deform,
                           normalizer=normalizer, settings=settings, respect_dynamic_mask=respect)
                self.samples["render_ms"].append(1e3 * (time.perf_counter() - t0))
                self.attempted += 1

    def round(self, k: int) -> dict:
        for _ in range(SETUP_REPEATS):
            scene_dir, data, trainer = self.setup(f"round{k}", k % SCENES)
        run_dir = self.work / f"round{k}" / "run"
        self.train(trainer, run_dir)
        for _ in range(EVAL_REPEATS):
            quality = self.evaluate(run_dir / "final.pidg", scene_dir)
        self.render_frames(run_dir / "final.pidg", data)
        return {"scene_dir": scene_dir, "data": data, "trainer": trainer, "run_dir": run_dir,
                "quality": quality}

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crashing check is a failed check, not a crashed run
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
        self.report.append(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")

    def run_checks(self, first: dict) -> None:
        import numpy as np

        import checks
        from pidg.train import Trainer

        trainer, data, run_dir = first["trainer"], first["data"], first["run_dir"]
        ckpt = run_dir / "final.pidg"
        rng = np.random.default_rng(self.seed)
        self.check("brute_force", checks.brute_force, trainer)
        self.check("thread_identity", checks.thread_identity, trainer)
        material = dict(trainer.material.params)
        for name, build, param, step in (
            ("fd_cloud_mu", checks.photometric_loss(trainer), trainer.cloud.mu, 1e-7),
            ("fd_deform_table", checks.photometric_loss(trainer),
             trainer.deform.params["g_xyz.table2"], 1e-4),
            ("fd_material_weight", checks.flow_matching_loss(trainer),
             material["head.weight"], 1e-7),
        ):
            self.check(name, checks.finite_difference, build, param, step, rng)
        self.check("closed_form_residual", checks.closed_form_residual, self.spec, rng)
        initial = Trainer(self.config, data).mean_psnr()
        self.check("psnr_improved", checks.psnr_improved, initial, first["quality"]["psnr"])
        self.check("load_save_identity", checks.load_save_identity, ckpt, data,
                   self.work / "resaved.pidg")
        self.check("reload_render_identity", checks.reload_render_identity, trainer, ckpt)

    def check_repeat(self, first: dict, again: dict) -> None:
        """A later round reproduces the first of its scene: metrics.csv,
        final.pidg, eval output."""
        def same():
            files = all((first["run_dir"] / n).read_bytes() == (again["run_dir"] / n).read_bytes()
                        for n in ("metrics.csv", "final.pidg"))
            ok = files and first["quality"] == again["quality"]
            return ok, "identical to its scene's first round" if ok else "differs from its first round"

        self.check("repeat", same)


def end_to_end(run: Run, firsts: list[dict], peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    def med(name):
        return statistics.median(run.samples[name])

    def quality(key):
        return statistics.fmean(first["quality"][key] for first in firsts)

    return {
        "setup_s": (med("setup_s"), "s"),
        "stage1_step_ms": (med("stage1_step_ms"), "ms"),
        "stage2_step_ms": (med("stage2_step_ms"), "ms"),
        "train_s": (med("train_s"), "s"),
        "eval_s": (med("eval_s"), "s"),
        "render_ms": (med("render_ms"), "ms"),
        "psnr_db": (quality("psnr"), "dB"),
        "masked_epe_px": (quality("masked_epe"), "px"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_round(run: Run) -> dict[str, tuple[float, str]]:
    """One more round with the tracer installed; per-layer metrics by name.

    The set-up is traced on its own, because ``synth.generate`` renders. The
    per-step figures are read before the evaluation renders; only the
    evaluation reads a checkpoint.
    """
    from tracer import Tracer

    untraced_step = statistics.median(run.samples["stage1_step_ms"] + run.samples["stage2_step_ms"])
    steps = run.config.iterations
    with Tracer() as setup_tracer:
        scene_dir, _, trainer = run.setup("traced")
    tracer = Tracer()
    self_s, total_s, calls, counts = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts

    def per_step(span):
        return (1e3 * self_s[span] / steps, "ms")

    def per_call(span):
        return (1e3 * total_s[span] / calls[span], "ms")

    with tracer:
        run_dir = run.work / "traced" / "run"
        run.train(trainer, run_dir)
        params = sum(slot["param"].data.size for slot in trainer.opt.slots.values())
        metrics = {
            "render.project_ms": per_step("render.project"),
            "render.rasterize_fwd_ms": per_step("render.rasterize_fwd"),
            "render.rasterize_bwd_ms": per_step("render.rasterize_bwd"),
            "render.other_ms": per_step("render.other"),
            "render.visible_rows": (counts["render.visible_rows"] / calls["render.other"], "count"),
            "deform.forward_ms": per_step("deform.forward"),
            "deform.calls": (calls["deform.forward"] / steps, "count"),
            "encoding.hashgrid_bwd_ms": per_step("encoding.hashgrid_bwd"),
            "encoding.plane_bwd_ms": per_step("encoding.plane_bwd"),
            "autodiff.backward_ms": (1e3 * total_s["autodiff.backward"] / steps, "ms"),
            "autodiff.other_bwd_ms": per_step("autodiff.backward"),
            "autodiff.main_tape_nodes": (counts["autodiff.main_tape_nodes"]
                                         / calls["autodiff.backward"], "count"),
            "losses.renders_loss_ms": per_step("losses.renders_loss"),
            "losses.ssim_bwd_ms": per_step("losses.ssim_bwd"),
            "flow.gaussian_flow_ms": per_step("flow.gaussian_flow"),
            "flow.velocity_flow_ms": per_step("flow.velocity_flow"),
            "flow.lpfm_ms": per_step("flow.lpfm"),
            "material.evaluate_ms": per_step("material.evaluate"),
            "physics.cmr_ms": per_step("physics.cmr"),
            "physics.cmr_points_ms": per_step("physics.cmr_points"),
            "physics.cmr_samples": (counts["physics.cmr_samples"] / steps, "count"),
            "optim.adam_ms": per_step("optim.adam"),
            "optim.params": (float(params), "count"),
            "scene.densify_ms": per_call("scene.densify"),
            "scene.particles": (float(len(trainer.cloud.ids)), "count"),
            "scene.dynamic_particles": (float(trainer.cloud.dynamic.sum()), "count"),
            "io.checkpoint_write_ms": per_call("io.checkpoint_write"),
            "io.checkpoint_bytes": (float((run_dir / "final.pidg").stat().st_size), "B"),
            "synth.generate_ms": (1e3 * setup_tracer.total_s["synth.generate"]
                                  / setup_tracer.calls["synth.generate"], "ms"),
            "train.step_other_ms": per_step("train.step"),
            "trace.overhead_ratio": (1e3 * statistics.median(tracer.durations["train.step"])
                                     / untraced_step, "x"),
        }
        quality = run.evaluate(run_dir / "final.pidg", scene_dir)
    metrics["io.checkpoint_read_ms"] = per_call("io.checkpoint_read")
    metrics["physics.mean_residual"] = (quality["mean_residual"], "1")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pidg" / "__init__.py").is_file():
        print(f"error: the pidg sources are missing ({SRC / 'pidg'}); run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        start = time.perf_counter()
        firsts = [run.round(0)]
        # the first round's footprint; later rounds run while it is still held
        # for the checks, and the checks' smooth-support renders are not the
        # program's own footprint
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        firsts += [run.round(k) for k in range(1, SCENES)]
        rounds = SCENES
        # start another whole round while at least half of one still fits in the window
        while (time.perf_counter() - start) * (rounds + 0.5) / rounds <= args.seconds:
            again = run.round(rounds)
            run.check_repeat(firsts[rounds % SCENES], again)
            shutil.rmtree(again["run_dir"].parent)
            rounds += 1
        run.run_checks(firsts[0])
        if args.trace:
            metrics = traced_round(run)
        else:
            metrics = end_to_end(run, firsts, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {rounds} round(s), "
          f"{run.attempted} operations, {run.failed} failed")
    for line in run.report:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
