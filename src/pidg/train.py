"""Two-stage reconstruction loop.

Stage 1 (iterations [0, switch)): photometric loss + momentum-residual
regularization, with periodic densify/prune of the particle cloud. Stage 2
(the remainder): densification stops, particles are partitioned into
static/dynamic by projecting them against the motion masks, static particles
keep their canonical pose (their position/rotation/scale rows are frozen and
the renderer bypasses the deformation for them), and the flow-matching loss
switches on over frame pairs: frame t is rendered, frame t+1 only projected.

The momentum residual is driven through its own small tapes
(`block_sampled_cmr` in backward mode) so the main photometric tape never
carries the jet graph; its gradients accumulate into the same parameters
before the optimizer step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import io as pio
from .config import RunConfig
from .deform import DeformationField
from .flow import decompose_backward, frame_pair_flows, gaussian_flow, lpfm_loss, surface_points, warp_flow_forward
from .losses import psnr, renders_loss, ssim
from .material import MaterialField
from .optim import Adam, exp_decay
from .physics import block_sampled_cmr, momentum_residual
from .render import RenderSettings, project, render
from .scene import (INIT_OPACITY, SH_C0, GaussianCloud, SceneNormalizer, _logit, densify_and_prune,
                    partition_dynamic)
from .synth import SceneData

METRICS_HEADER = "iter,loss_total,loss_renders,loss_cmr,loss_lpfm,psnr,num_gaussians"


class TrainingAborted(RuntimeError):
    """Raised when a loss term stops being finite; names the term."""


def _finite_or_abort(value: float, term: str, iteration: int) -> float:
    if not np.isfinite(value):
        raise TrainingAborted(f"{term} loss is non-finite ({value!r}) at iteration {iteration}")
    return float(value)


INIT_BLOCK = 256  # rows of the (rows, n) seed-distance block that setup holds at once


def initial_scales(mu: np.ndarray, scene_scale: float) -> np.ndarray:
    """Each seed's initial scale: its mean distance to its min(3, n - 1)
    nearest other seeds (0.02 scene scales for a lone seed), clipped to
    [1e-4, 0.05] scene scales. The distances are computed in blocks of
    ``INIT_BLOCK`` rows, so memory grows linearly with n, and only each
    row's k smallest are sorted; the bytes are those of the full (n, n)
    distance matrix sorted row by row."""
    n = mu.shape[0]
    if n == 1:
        nn = np.full(1, 0.02 * scene_scale)
    else:
        k = min(3, n - 1)
        nn = np.empty(n)
        for lo in range(0, n, INIT_BLOCK):
            rows = np.arange(lo, min(lo + INIT_BLOCK, n))
            # numpy sums the length-3 coordinate axis left to right, so the
            # per-column squares summed in that order give the same bytes
            # without a (rows, n, 3) difference array
            dx, dy, dz = (mu[rows, None, c] - mu[None, :, c] for c in range(3))
            d2 = (dx * dx + dy * dy) + dz * dz
            d2[rows - lo, rows] = np.inf
            nn[rows] = np.sqrt(np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1)).mean(axis=1)
    return np.clip(nn, 1e-4 * scene_scale, 0.05 * scene_scale)


class Trainer:
    def __init__(self, config: RunConfig, data: SceneData, state: tuple | None = None):
        self.config = config.require_valid()
        self.data = data
        self.rng = np.random.default_rng(config.seed)
        center, scale = data.bounds
        self.normalizer = SceneNormalizer(center, scale)
        self.extent = 0.5 * self.normalizer.scale
        self.settings = RenderSettings(top_k=config.top_k, threads=1)
        self.stage2_start = config.stage2_start()
        self.metrics: list[str] = []
        self._gt_flows: dict[int, object] = {}
        if state is None:
            self.deform = DeformationField(config.deform, self.rng)
            self.material = MaterialField(config.init_particles, self.rng, config.material)
            self.cloud = self._init_cloud()
            self.iteration = 0
            self._grad_accum = np.zeros(len(self.cloud.ids))
            self._grad_count = np.zeros(len(self.cloud.ids))
        else:
            _, iteration, arrays, scalars = state
            self.cloud, self.deform, self.material = model_from_arrays(config, arrays)
            self.iteration = int(iteration)
            self._grad_accum = arrays["densify.grad_accum"]
            self._grad_count = arrays["densify.grad_count"]
            self.rng.bit_generator.state = _rng_state_from_json(scalars["rng_state"])

        self.opt = Adam()
        for name, p in model_params(self.cloud, self.deform, self.material).items():
            self.opt.register(name, p)
        if state is not None:
            self.opt.load_state_arrays({k[len("opt."):]: v for k, v in arrays.items() if k.startswith("opt.")})

    # -- setup ---------------------------------------------------------------

    def _init_cloud(self) -> GaussianCloud:
        """Seed particles on the observed depth surface, colored from the images."""
        cfg = self.config
        pts, cols = [], []
        for f in range(self.data.frames):
            d = self.data.depths[f]
            ok = d > 0.0
            if not ok.any():
                continue
            pts.append(surface_points(d, self.data.cameras[f])[ok])
            cols.append(self.data.images[f][ok])
        n = cfg.init_particles
        if not pts:
            return GaussianCloud.random_init(self.rng, n, self.normalizer.center,
                                             0.25 * self.normalizer.scale,
                                             0.02 * self.normalizer.scale)
        pool = np.concatenate(pts)
        colors = np.concatenate(cols)
        sel = self.rng.choice(len(pool), n, replace=len(pool) < n)
        mu = pool[sel] + self.rng.normal(0.0, 0.005 * self.normalizer.scale, (n, 3))
        s = initial_scales(mu, self.normalizer.scale)
        sh = np.zeros((n, 4, 3))
        sh[:, 0, :] = (colors[sel] - 0.5) / SH_C0
        quat = np.zeros((n, 4))
        quat[:, 0] = 1.0
        logit = np.full(n, _logit(INIT_OPACITY))
        return GaussianCloud(mu, quat, np.log(s)[:, None] * np.ones((1, 3)), sh, logit, np.arange(n))

    def stage(self, iteration: int | None = None) -> int:
        i = self.iteration if iteration is None else iteration
        return 1 if i < self.stage2_start else 2

    def _gt_flow(self, f: int):
        """Supervision flow at I_f: motion flow at I_{f+1} warped back to I_f."""
        if f not in self._gt_flows:
            _, motion = decompose_backward(self.data.flows_b[f], self.data.depths[f + 1],
                                           self.data.cameras[f], self.data.cameras[f + 1])
            self._gt_flows[f] = warp_flow_forward(motion, self.data.flows_fwd[f])
        return self._gt_flows[f]

    def _rates(self) -> dict[str, float]:
        cfg = self.config
        decay = exp_decay(self.iteration, cfg.iterations)
        rates = {
            "cloud.mu": cfg.lr_position * self.normalizer.scale * decay,
            "cloud.quat": cfg.lr_rotation,
            "cloud.log_scale": cfg.lr_scale,
            "cloud.sh": cfg.lr_sh,
            "cloud.opacity_logit": cfg.lr_opacity,
        }
        for name in self.deform.params:
            base = cfg.lr_decoder * (cfg.grid_lr_multiplier if ".table" in name else 1.0)
            rates[f"deform.{name}"] = base * decay
        for name, _ in self.material.params:
            grid_like = ".table" in name or name == "embedding"
            base = cfg.lr_material * (cfg.grid_lr_multiplier if grid_like else 1.0)
            rates[f"material.{name}"] = base * decay
        return rates

    # -- per-iteration pieces --------------------------------------------------

    def _deformed_positions(self, rows, t: float, dynamic=None) -> np.ndarray:
        """World positions of the cloud ``rows`` deformed to time t, computed
        forward-only (no gradient reaches the cloud or the field)."""
        mu = self.cloud.mu.data[rows]
        with ad.Tape(keep_graph=False):
            mu_d, _, _ = self.deform.deform_gaussians(
                ad.constant(mu), ad.constant(self.cloud.quat.data[rows]),
                ad.constant(self.cloud.log_scale.data[rows]),
                ad.constant(self.normalizer.unit4_np(mu, t)), dynamic=dynamic)
        return mu_d.data

    def _cmr_points(self, frame: int):
        """Detached normalized sample coordinates at the deformed particle positions."""
        n = len(self.cloud.ids)
        take = min(self.config.cmr_samples, n)
        sel = np.sort(self.rng.choice(n, take, replace=False))
        times = self.data.times
        jitter = self.rng.uniform(-0.5, 0.5) / max(1, len(times) - 1)
        t_s = float(np.clip(times[frame] + jitter, 0.0, 1.0))
        dyn = self.cloud.dynamic[sel] if self.stage() == 2 else None
        world = self._deformed_positions(sel, t_s, dynamic=dyn)
        return self.normalizer.unit4_np(world, t_s), self.cloud.ids[sel]

    def _accumulate_densify_stats(self, out) -> None:
        # position gradients survive the backward sweep (parameters keep .grad);
        # only the rows that actually reached the rasterizer count as observed
        g = self.cloud.mu.grad
        if g is None:
            return
        rows = out.visible_rows
        self._grad_accum[rows] += np.linalg.norm(g[rows], axis=1)
        self._grad_count[rows] += 1.0

    def _densify(self) -> None:
        cfg = self.config
        avg = self._grad_accum / np.maximum(self._grad_count, 1.0)
        kept, n_app = densify_and_prune(self.cloud, avg, self.rng, cfg.densify_grad_threshold, self.extent,
                                        scale_threshold=cfg.prune_scale_threshold,
                                        min_opacity=cfg.min_opacity, max_particles=cfg.max_particles)
        for name in self.cloud.params:
            self.opt.remap_rows(f"cloud.{name}", kept, n_app)
        self._grad_accum = np.zeros(len(self.cloud.ids))
        self._grad_count = np.zeros(len(self.cloud.ids))

    def _enter_stage2(self) -> None:
        positions = [self._deformed_positions(slice(None), t) for t in self.data.times]
        self.cloud.dynamic = partition_dynamic(np.stack(positions), self.data.masks,
                                               self.data.cameras, self.config.dynamic_fraction)

    # -- the step ------------------------------------------------------------

    def step(self) -> dict:
        cfg = self.config
        i = self.iteration
        stage = self.stage()
        lambda_cmr, lambda_lpfm = cfg.effective_weights()
        times = self.data.times
        use_lpfm = stage == 2 and lambda_lpfm > 0.0 and self.data.frames >= 2
        if use_lpfm:
            f = int(self.rng.integers(0, self.data.frames - 1))
        else:
            f = int(self.rng.integers(0, self.data.frames))

        self.opt.zero_grad()
        term = "renders"
        try:
            with ad.Tape() as tape:
                out = render(self.cloud, self.data.cameras[f], times[f], deform_field=self.deform,
                             normalizer=self.normalizer, settings=self.settings,
                             respect_dynamic_mask=stage == 2)
                l_rend = renders_loss(out.image, self.data.images[f], cfg.lambda_c)
                loss = l_rend
                l_lpfm_val = 0.0
                if use_lpfm:
                    term = "flow-matching"
                    out1 = project(self.cloud, self.data.cameras[f + 1], times[f + 1],
                                   deform_field=self.deform, normalizer=self.normalizer,
                                   respect_dynamic_mask=True)
                    flow_g, flow_v, _ = frame_pair_flows(out, out1, self.cloud.ids, self.material,
                                                         self.normalizer)
                    l_lpfm = lpfm_loss(flow_g, flow_v, self._gt_flow(f), self.data.masks[f],
                                       cfg.lambda_g, cfg.lambda_v)
                    l_lpfm_val = _finite_or_abort(float(l_lpfm.data), "flow-matching", i)
                    loss = ad.add(loss, ad.mul(l_lpfm, lambda_lpfm))
                    term = "total"
                tape.backward(loss)
        except ad.NonFiniteError as exc:
            raise TrainingAborted(f"{term} loss produced a non-finite value at iteration {i}: {exc}") from exc
        l_rend_val = _finite_or_abort(float(l_rend.data), "renders", i)

        l_cmr_val = 0.0
        if lambda_cmr > 0.0:
            pts4, ids = self._cmr_points(f)
            try:
                l_cmr_val = block_sampled_cmr(self.material, pts4, ids, block_size=cfg.cmr_block,
                                              include_advection=cfg.cmr_include_advection,
                                              backward_scale=lambda_cmr)
            except ad.NonFiniteError as exc:
                raise TrainingAborted(
                    f"momentum-residual loss produced a non-finite value at iteration {i}: {exc}") from exc
            l_cmr_val = _finite_or_abort(l_cmr_val, "momentum-residual", i)
        total = _finite_or_abort(l_rend_val + lambda_cmr * l_cmr_val + lambda_lpfm * l_lpfm_val, "total", i)

        if stage == 1:
            self._accumulate_densify_stats(out)

        freeze = None
        if stage == 2 and not self.cloud.dynamic.all():
            static = ~self.cloud.dynamic
            freeze = {"cloud.mu": static, "cloud.quat": static, "cloud.log_scale": static}
        self.opt.step(self._rates(), freeze_rows=freeze)

        quality = psnr(out.image.data, self.data.images[f])
        row = {"iter": i, "loss_total": total, "loss_renders": l_rend_val, "loss_cmr": l_cmr_val,
               "loss_lpfm": l_lpfm_val, "psnr": quality, "num_gaussians": len(self.cloud.ids)}
        if i % cfg.log_interval == 0 or i == cfg.iterations - 1:
            self.metrics.append(
                f"{i},{total!r},{l_rend_val!r},{l_cmr_val!r},{l_lpfm_val!r},{quality!r},{len(self.cloud.ids)}")

        self.iteration = i + 1
        if stage == 1:
            if self.iteration % cfg.densify_interval == 0 and self.iteration < self.stage2_start:
                self._densify()
            if self.iteration == self.stage2_start:
                self._enter_stage2()
        return row

    def run(self, out_dir=None, on_step=None) -> None:
        """Train to ``config.iterations``, writing checkpoints, ``final.pidg``
        and ``metrics.csv`` into ``out_dir`` when given. A run that aborts
        (``TrainingAborted``) still writes ``metrics.csv`` with the rows
        logged so far before the error propagates."""
        out = pio.ensure_dir(out_dir) if out_dir is not None else None
        try:
            while self.iteration < self.config.iterations:
                row = self.step()
                if on_step is not None:
                    on_step(row)
                if out is not None and (self.iteration % self.config.checkpoint_interval == 0
                                        or self.iteration == self.config.iterations):
                    self.save_checkpoint(out / f"ckpt_{self.iteration:06d}.pidg")
        except TrainingAborted:
            if out is not None:
                self.write_metrics(out / "metrics.csv")
            raise
        if out is not None:
            self.save_checkpoint(out / "final.pidg")
            self.write_metrics(out / "metrics.csv")

    def write_metrics(self, path) -> None:
        with open(path, "w") as f:
            f.write(METRICS_HEADER + "\n")
            for row in self.metrics:
                f.write(row + "\n")

    # -- evaluation ------------------------------------------------------------

    def render_frame(self, f: int):
        """Forward-only render of training view f; it holds no backward state."""
        with ad.Tape(keep_graph=False):
            return render(self.cloud, self.data.cameras[f], self.data.times[f],
                          deform_field=self.deform, normalizer=self.normalizer,
                          settings=self.settings, respect_dynamic_mask=self.stage() == 2)

    def evaluate(self) -> dict:
        """Mean PSNR, SSIM and masked flow EPE over the training views, from
        one render of each frame."""
        psnrs, ssims = [], []

        def score(f, image):
            psnrs.append(psnr(image, self.data.images[f]))
            with ad.Tape():
                ssims.append(float(ssim(ad.constant(image), self.data.images[f]).data))

        epe = self._epe_sweep(score)
        return {"psnr": float(np.mean(psnrs)), "ssim": float(np.mean(ssims)), "masked_epe": epe}

    def _epe_sweep(self, score=None) -> float:
        """Render each frame once and return the masked EPE over all frame pairs.

        With the held render of frame f-1, frame f gives the pair's Gaussian
        flow, compared with the supervision flow at I_{f-1} inside its motion
        mask; at most two renders are held at a time. ``score(f, image)``,
        when given, sees each frame's image as it is rendered.
        """
        errs, counts, prev = [], [], None
        for f in range(self.data.frames):
            out = self.render_frame(f)
            if score is not None:
                score(f, out.image_np())
            if prev is not None:
                with ad.Tape():
                    flow_g = gaussian_flow(prev, out)
                gt, mask, v, u = self._gt_flow(f - 1), self.data.masks[f - 1], flow_g.pix_v, flow_g.pix_u
                sel = flow_g.valid & gt.valid[v, u] & (mask[v, u] > 0)
                if sel.any():
                    n = int(sel.sum())
                    err = np.linalg.norm(flow_g.vec.data[sel] - gt.vectors[v[sel], u[sel]], axis=1)
                    errs.append(float(err.mean()) * n)
                    counts.append(n)
            prev = out
        return float(np.sum(errs) / np.sum(counts)) if counts else 0.0

    def mean_psnr(self) -> float:
        """``evaluate()["psnr"]`` alone: one forward render per training view."""
        return float(np.mean([psnr(self.render_frame(f).image_np(), self.data.images[f])
                              for f in range(self.data.frames)]))

    def mean_masked_epe(self) -> float:
        """``evaluate()["masked_epe"]`` alone: renders and pair EPEs, no image scores."""
        return self._epe_sweep()

    def mean_residual(self, samples: int = 512, t: float = 0.5) -> float:
        """Mean momentum-residual magnitude at particle samples (diagnostic).

        Uses every particle when ``samples`` covers them all, otherwise a
        subset drawn from its own generator seeded by ``config.seed``, so a
        call leaves the training RNG untouched.
        """
        n = len(self.cloud.ids)
        if samples >= n:
            sel = np.arange(n)
        else:
            rng = np.random.default_rng(self.config.seed)
            sel = np.sort(rng.choice(n, samples, replace=False))
        world = self._deformed_positions(sel, t)
        with ad.Tape(keep_graph=False):
            vel, sig = self.material.evaluate_with_jets(
                self.normalizer.unit4_np(world, t), self.cloud.ids[sel])
            r = momentum_residual(vel, sig, rho=self.material.rho,
                                  include_advection=self.config.cmr_include_advection)
            mags = np.linalg.norm(r.data, axis=1)
        return float(mags.mean())

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path) -> None:
        arrays = model_arrays(self.cloud, self.deform, self.material)
        for name, value in self.opt.state_arrays().items():
            arrays[f"opt.{name}"] = np.asarray(value)
        arrays["densify.grad_accum"] = self._grad_accum
        arrays["densify.grad_count"] = self._grad_count
        config = {"run": self.config.to_dict(), "normalizer": self.normalizer.to_dict()}
        scalars = {"rng_state": _rng_state_to_json(self.rng)}
        pio.write_checkpoint(path, config, self.iteration, arrays, scalars)

    @classmethod
    def from_checkpoint(cls, path, data: SceneData) -> "Trainer":
        config_dict, iteration, arrays, scalars = pio.read_checkpoint(path)
        config = RunConfig.from_dict(config_dict["run"])
        return cls(config, data, state=(config_dict, iteration, arrays, scalars))


def load_model(path):
    """Checkpoint -> (config, iteration, cloud, deform, material, normalizer).

    Rebuilds the model without needing the scene assets (rendering from an
    arbitrary pose only needs the learned state)."""
    config_dict, iteration, arrays, _ = pio.read_checkpoint(path)
    config = RunConfig.from_dict(config_dict["run"])
    cloud, deform, material = model_from_arrays(config, arrays)
    return config, iteration, cloud, deform, material, SceneNormalizer.from_dict(config_dict["normalizer"])


# -- the checkpoint's model layout ------------------------------------------------


def model_params(cloud: GaussianCloud, deform: DeformationField, material: MaterialField) -> dict:
    """The model's learnable tensors under their checkpoint (and optimizer) names."""
    named = {f"cloud.{name}": p for name, p in cloud.params.items()}
    named.update({f"deform.{name}": p for name, p in deform.params.items()})
    named.update({f"material.{name}": p for name, p in material.params})
    return named


def model_arrays(cloud: GaussianCloud, deform: DeformationField, material: MaterialField) -> dict:
    """(cloud, deform, material) -> the named checkpoint arrays that hold them."""
    arrays = {name: p.data for name, p in model_params(cloud, deform, material).items()}
    arrays["cloud.ids"] = cloud.ids
    arrays["cloud.dynamic"] = cloud.dynamic
    return arrays


def model_from_arrays(config: RunConfig, arrays: dict):
    """Named checkpoint arrays -> (cloud, deform, material); the inverse of
    ``model_arrays``. The fields adopt their arrays, not copies. Raises
    ``ValueError`` when the cloud arrays disagree on the particle count."""
    n = arrays["cloud.ids"].shape[0]
    for name in [f"cloud.{p}" for p in GaussianCloud.PARAMS] + ["cloud.dynamic"]:
        rows = arrays[name].shape[0]
        if rows != n:
            raise ValueError(f"checkpoint has {n} particle ids but {rows} rows in {name}")
    cloud = GaussianCloud(*(arrays[f"cloud.{p}"] for p in GaussianCloud.PARAMS),
                          arrays["cloud.ids"], arrays["cloud.dynamic"])
    # the fields' initial values are random; every one is replaced below
    rng = np.random.default_rng(config.seed)
    deform = DeformationField(config.deform, rng)
    material = MaterialField(config.init_particles, rng, config.material)
    for name, p in model_params(cloud, deform, material).items():
        if not name.startswith("cloud."):
            p.data = arrays[name]
    return cloud, deform, material


def _rng_state_to_json(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {"bit_generator": state["bit_generator"],
            "state": str(state["state"]["state"]), "inc": str(state["state"]["inc"]),
            "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}


def _rng_state_from_json(d: dict) -> dict:
    return {"bit_generator": d["bit_generator"],
            "state": {"state": int(d["state"]), "inc": int(d["inc"])},
            "has_uint32": d["has_uint32"], "uinteger": d["uinteger"]}
