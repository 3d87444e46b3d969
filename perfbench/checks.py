"""Correctness checks run on every workload after training.

Each check compares the program against an independent computation or a
property the method must have, never against stored output. A check returns
``(ok, detail)``; the runner counts a failed check as a failed operation.
"""

from __future__ import annotations

import numpy as np

import pidg.autodiff as ad
from pidg.camera import Camera
from pidg.flow import gaussian_flow, lpfm_loss, velocity_flow
from pidg.losses import renders_loss
from pidg.physics import momentum_residual
from pidg.render import RenderSettings, render, render_brute_force
from pidg.train import Trainer, load_model

from workloads import closed_form_field

BRUTE_FORCE_TOL = 1e-10
FD_REL_TOL = 1e-5
FD_DIRECTIONS = 8
RESIDUAL_TOL = 1e-8
# the brute-force oracle loops over pixels in Python, so it renders a
# centred window of the frame rather than the whole frame
BRUTE_FORCE_WINDOW = 32


def _window(camera: Camera, size: int) -> Camera:
    """A size x size crop of the camera's image around its principal point."""
    x0 = (camera.width - size) // 2
    y0 = (camera.height - size) // 2
    return Camera(camera.fx, camera.fy, camera.cx - x0, camera.cy - y0, camera.rot,
                  camera.trans, size, size)


def brute_force(trainer: Trainer):
    """Tiled renderer vs the per-pixel reference on the trained (canonical) cloud."""
    cam = _window(trainer.data.cameras[0], BRUTE_FORCE_WINDOW)
    settings = RenderSettings(top_k=trainer.config.top_k, threads=1)
    with ad.Tape():
        tiled = render(trainer.cloud, cam, 0.0, settings=settings).raw.data
    ref = render_brute_force(trainer.cloud, cam, settings)
    err = float(np.abs(tiled - ref).max())
    return err < BRUTE_FORCE_TOL, f"max |tiled - brute force| {err:.2e}"


def thread_identity(trainer: Trainer):
    """Deformed renders with 1 and 2 worker threads are bit-identical."""
    outs = []
    for threads in (1, 2):
        settings = RenderSettings(top_k=trainer.config.top_k, threads=threads)
        with ad.Tape():
            outs.append(render(trainer.cloud, trainer.data.cameras[1], trainer.data.times[1],
                               deform_field=trainer.deform, normalizer=trainer.normalizer,
                               settings=settings, respect_dynamic_mask=True))
    a, b = outs
    same = (a.raw.data.tobytes() == b.raw.data.tobytes()
            and np.array_equal(a.topk_rows, b.topk_rows)
            and a.topk_weights.tobytes() == b.topk_weights.tobytes())
    return same, "threads 1/2 bit-identical" if same else "threads 1/2 differ"


def _smooth_settings(trainer: Trainer) -> RenderSettings:
    # infinite support and no alpha floor keep the rendered image a smooth
    # function of the parameters, as in the gradient acceptance suite
    return RenderSettings(top_k=trainer.config.top_k, threads=1,
                          support_chi2=np.inf, alpha_min=0.0)


def _render_frame(trainer: Trainer, f: int, settings: RenderSettings):
    return render(trainer.cloud, trainer.data.cameras[f], trainer.data.times[f],
                  deform_field=trainer.deform, normalizer=trainer.normalizer,
                  settings=settings, respect_dynamic_mask=True)


def _depth_order(out) -> np.ndarray:
    """The compositing order, which must not change across the finite-difference
    segment; the rasterizer sorts outside the tape, so ``_tape_branches`` cannot
    see it."""
    return np.lexsort((out.visible_rows, out.depths.data))


def photometric_loss(trainer: Trainer, f: int = 1):
    settings = _smooth_settings(trainer)

    def build():
        out = _render_frame(trainer, f, settings)
        target = trainer.data.images[f]
        loss = renders_loss(out.image, target, trainer.config.lambda_c)
        return loss, [_depth_order(out)]

    return build


def flow_matching_loss(trainer: Trainer, f: int = 1):
    """The flow-matching loss of the pair (f, f+1); the material field reaches
    the main objective only through it."""
    settings = _smooth_settings(trainer)
    cfg, data, norm = trainer.config, trainer.data, trainer.normalizer
    gt = trainer._gt_flow(f)

    def build():
        out = _render_frame(trainer, f, settings)
        out1 = _render_frame(trainer, f + 1, settings)
        p4 = norm.unit4_np(out.positions_world, data.times[f])
        v_norm, _ = trainer.material.evaluate(p4, trainer.cloud.ids[out.visible_rows])
        v_world = ad.mul(v_norm, norm.scale)
        flow_g = gaussian_flow(out, out1)
        flow_v = velocity_flow(out, out1, v_world, dt=data.times[f + 1] - data.times[f])
        loss = lpfm_loss(flow_g, flow_v, gt, data.masks[f], cfg.lambda_g, cfg.lambda_v)
        return loss, [_depth_order(out), _depth_order(out1)]

    return build


def _tape_branches(tape) -> list[np.ndarray]:
    """Which branch every non-smooth op on the tape took, element by element.

    ``relu`` and ``abs`` switch at the sign of their input and ``clip`` where
    its input leaves the range. The ``abs`` nodes are the L1 residuals of the
    loss, exactly the pixels and flow rows it reads; the deformation and
    material MLPs put a ``relu`` between the hash-grid features and the head,
    so a table step can cross one.
    """
    branches = []
    for node in tape.nodes:
        if node.op in ("relu", "abs"):
            branches.append(np.sign(node._parents[0].data).astype(np.int8))
        elif node.op == "clip":
            branches.append(node.data == node._parents[0].data)
    return branches


def finite_difference(build, param, step, rng):
    """Central-difference directional derivative vs the tape gradient.

    Along a random unit direction d, (L(x + h d) - L(x - h d)) / 2h with
    h = ``step`` must match the tape's g . d to a relative error below
    FD_REL_TOL. Each component of d has a random magnitude and the sign of
    g there (a random sign where g is 0), so g . d is a sum of positive
    terms: it cannot cancel to near 0, where a relative error would measure
    only rounding. A wrong magnitude, a wrong sign or a missing entry of g
    still changes g . d and not the difference quotient.

    Central differences only hold where L is smooth on
    [x - h d, x + h d]: a direction whose segment crosses a kink (a change
    of ``build``'s signature or of the tape's branches, see
    ``_tape_branches``) is replaced by a fresh one.
    """
    base = param.data
    with ad.Tape() as tape:
        loss, _ = build()
        (grad,) = tape.grad(loss, [param])
    for attempt in range(1, FD_DIRECTIONS + 1):
        sign = np.sign(grad)
        unset = sign == 0
        sign[unset] = rng.choice((-1.0, 1.0), size=int(unset.sum()))
        d = np.abs(rng.normal(size=base.shape)) * sign
        d /= np.linalg.norm(d)
        values, sigs = [], []
        try:
            for s in (step, -step):
                param.data = base + s * d
                with ad.Tape() as tape:
                    loss, sig = build()
                values.append(float(loss.data))
                sigs.append(sig + _tape_branches(tape))
        finally:
            param.data = base
        plus, minus = sigs
        if len(plus) != len(minus) or not all(np.array_equal(a, b) for a, b in zip(plus, minus)):
            continue
        fd = (values[0] - values[1]) / (2.0 * step)
        tape_dd = float(np.sum(grad * d))
        rel = abs(fd - tape_dd) / max(abs(fd), abs(tape_dd), 1e-300)
        return rel < FD_REL_TOL, (f"rel err {rel:.2e} (fd {fd:.6e}, tape {tape_dd:.6e}, "
                                  f"direction {attempt})")
    return False, f"no smooth segment in {FD_DIRECTIONS} directions"


def closed_form_residual(spec, rng, count: int = 256):
    """The momentum residual vanishes on the scene motion's exact field."""
    field = closed_form_field(spec)
    pts = rng.uniform(0.0, 1.0, (count, 4))
    with ad.Tape():
        vel, sig = field.evaluate_with_jets(pts)
        r = momentum_residual(vel, sig, rho=field.rho, include_advection=True).data
    worst = float(np.abs(r).max())
    return worst < RESIDUAL_TOL, f"max |r| {worst:.2e}"


def psnr_improved(initial: float, final: float):
    return final > initial, f"PSNR {initial:.2f} -> {final:.2f} dB"


def load_save_identity(ckpt, data, resaved):
    Trainer.from_checkpoint(ckpt, data).save_checkpoint(resaved)
    same = resaved.read_bytes() == ckpt.read_bytes()
    return same, "load->save byte-identical" if same else "load->save bytes differ"


def past_stage_switch(config, iteration: int) -> bool:
    """Whether a checkpoint renders with the static/dynamic split, as ``pidg render`` decides."""
    return iteration >= max(1, int(round(config.stage_switch * config.iterations)))


def reload_render_identity(trainer: Trainer, ckpt, f: int = 0):
    """A frame rendered from the reloaded checkpoint equals the in-memory one."""
    config, iteration, cloud, deform, material, normalizer = load_model(ckpt)
    with ad.Tape():
        again = render(cloud, trainer.data.cameras[f], trainer.data.times[f],
                       deform_field=deform, normalizer=normalizer,
                       settings=RenderSettings(top_k=config.top_k, threads=1),
                       respect_dynamic_mask=past_stage_switch(config, iteration))
    same = again.raw.data.tobytes() == trainer.render_frame(f).raw.data.tobytes()
    return same, "reloaded render bit-identical" if same else "reloaded render differs"
