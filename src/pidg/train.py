"""Two-stage reconstruction loop.

Stage 1 (iterations [0, switch)): photometric loss + momentum-residual
regularization, with periodic densify/prune of the particle cloud. Stage 2
(the remainder): densification stops, particles are partitioned into
static/dynamic by projecting them against the motion masks, static particles
keep their canonical pose (their position/rotation/scale rows are frozen and
the renderer bypasses the deformation for them), and the flow-matching loss
switches on over frame pairs.

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
from .flow import decompose_backward, gaussian_flow, lpfm_loss, velocity_flow, warp_flow_forward
from .losses import psnr, renders_loss, ssim
from .material import MaterialField
from .optim import Adam, exp_decay
from .physics import block_sampled_cmr, momentum_residual
from .render import RenderSettings, render
from .scene import SH_C0, GaussianCloud, SceneNormalizer, densify_and_prune, partition_dynamic
from .synth import SceneData

METRICS_HEADER = "iter,loss_total,loss_renders,loss_cmr,loss_lpfm,psnr,num_gaussians"


class TrainingAborted(RuntimeError):
    """Raised when a loss term stops being finite; names the term."""


def _finite_or_abort(value: float, term: str, iteration: int) -> float:
    if not np.isfinite(value):
        raise TrainingAborted(f"{term} loss is non-finite ({value!r}) at iteration {iteration}")
    return float(value)


class Trainer:
    def __init__(self, config: RunConfig, data: SceneData, state: tuple | None = None):
        self.config = config.require_valid()
        self.data = data
        self.rng = np.random.default_rng(config.seed)
        center, scale = data.bounds
        self.normalizer = SceneNormalizer(center, scale)
        self.extent = 0.5 * self.normalizer.scale
        self.settings = RenderSettings(top_k=config.top_k, threads=1)
        self.deform = DeformationField(config.deform, self.rng)
        self.material = MaterialField(config.init_particles, self.rng, config.material)
        self.cloud = self._init_cloud()
        self.iteration = 0
        self.stage2_start = max(1, int(round(config.stage_switch * config.iterations)))
        self.metrics: list[str] = []
        self._grad_accum = np.zeros(len(self.cloud.ids))
        self._grad_count = np.zeros(len(self.cloud.ids))
        self._gt_flows: dict[int, object] = {}

        self.opt = Adam()
        for name, p in self.cloud.params.items():
            self.opt.register(f"cloud.{name}", p)
        for name, p in self.deform.params.items():
            self.opt.register(f"deform.{name}", p)
        for name, p in self.material.params:
            self.opt.register(f"material.{name}", p)

        if state is not None:
            self._load_state(*state)

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
            v, u = np.nonzero(ok)
            pix = np.stack([u.astype(np.float64), v.astype(np.float64)], axis=1)
            pts.append(self.data.cameras[f].backproject(pix, d[ok]))
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
        # per-particle scale from the mean distance to the 3 nearest seeds
        d2 = np.sum((mu[:, None, :] - mu[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        k = min(3, n - 1) if n > 1 else 1
        nn = np.sqrt(np.sort(d2, axis=1)[:, :k]).mean(axis=1) if n > 1 else np.full(1, 0.02 * self.normalizer.scale)
        s = np.clip(nn, 1e-4 * self.normalizer.scale, 0.05 * self.normalizer.scale)
        sh = np.zeros((n, 4, 3))
        sh[:, 0, :] = (colors[sel] - 0.5) / SH_C0
        quat = np.zeros((n, 4))
        quat[:, 0] = 1.0
        logit = np.full(n, float(np.log(0.1 / 0.9)))
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
        decay = exp_decay(1.0, self.iteration, cfg.iterations)
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

    def _cmr_points(self, frame: int):
        """Detached normalized sample coordinates at the deformed particle positions."""
        n = len(self.cloud.ids)
        take = min(self.config.cmr_samples, n)
        sel = np.sort(self.rng.choice(n, take, replace=False))
        times = self.data.times
        jitter = self.rng.uniform(-0.5, 0.5) / max(1, len(times) - 1)
        t_s = float(np.clip(times[frame] + jitter, 0.0, 1.0))
        with ad.Tape():
            mu = ad.constant(self.cloud.mu.data[sel])
            quat = ad.constant(self.cloud.quat.data[sel])
            log_scale = ad.constant(self.cloud.log_scale.data[sel])
            p4 = ad.constant(self.normalizer.unit4_np(mu.data, t_s))
            dyn = self.cloud.dynamic[sel] if self.stage() == 2 else None
            mu_d, _, _ = self.deform.deform_gaussians(mu, quat, log_scale, p4, dynamic=dyn)
            world = mu_d.data
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
        threshold = cfg.densify_grad_threshold
        if len(self.cloud.ids) >= cfg.max_particles:
            threshold = np.inf  # over budget: prune only
        kept, n_app = densify_and_prune(self.cloud, avg, self.rng, threshold, self.extent,
                                        scale_threshold=cfg.prune_scale_threshold,
                                        min_opacity=cfg.min_opacity)
        for name in self.cloud.params:
            self.opt.remap_rows(f"cloud.{name}", kept, n_app)
        if len(self.cloud.ids) > cfg.max_particles:
            # trim the faintest extras to stay inside the particle budget
            order = np.argsort(self.cloud.opacities())[::-1]
            keep = np.sort(order[: cfg.max_particles])
            arrays = {k: v.data[keep] for k, v in self.cloud.params.items()}
            self.cloud.replace_rows(arrays, self.cloud.ids[keep], self.cloud.dynamic[keep])
            for name in self.cloud.params:
                self.opt.remap_rows(f"cloud.{name}", keep, 0)
        self._grad_accum = np.zeros(len(self.cloud.ids))
        self._grad_count = np.zeros(len(self.cloud.ids))

    def _enter_stage2(self) -> None:
        positions = []
        times = self.data.times
        for f in range(self.data.frames):
            with ad.Tape():
                p4 = ad.constant(self.normalizer.unit4_np(self.cloud.mu.data, times[f]))
                mu_d, _, _ = self.deform.deform_gaussians(
                    self.cloud.mu, self.cloud.quat, self.cloud.log_scale, p4)
                positions.append(mu_d.data.copy())
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
                    out1 = render(self.cloud, self.data.cameras[f + 1], times[f + 1],
                                  deform_field=self.deform, normalizer=self.normalizer,
                                  settings=self.settings, respect_dynamic_mask=True)
                    p4 = self.normalizer.unit4_np(out.positions_world, times[f])
                    v_norm, _ = self.material.evaluate(p4, self.cloud.ids[out.visible_rows])
                    v_world = ad.mul(v_norm, self.normalizer.scale)
                    flow_g = gaussian_flow(out, out1)
                    flow_v = velocity_flow(out, out1, v_world, dt=times[f + 1] - times[f])
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
        out = pio.ensure_dir(out_dir) if out_dir is not None else None
        while self.iteration < self.config.iterations:
            row = self.step()
            if on_step is not None:
                on_step(row)
            if out is not None and (self.iteration % self.config.checkpoint_interval == 0
                                    or self.iteration == self.config.iterations):
                self.save_checkpoint(out / f"ckpt_{self.iteration:06d}.pidg")
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
        with ad.Tape():
            return render(self.cloud, self.data.cameras[f], self.data.times[f],
                          deform_field=self.deform, normalizer=self.normalizer,
                          settings=self.settings, respect_dynamic_mask=self.stage() == 2)

    def evaluate(self) -> dict:
        """Mean PSNR, SSIM and masked flow EPE over the training views.

        One sweep renders each frame once: frame f gives its PSNR and SSIM
        and, with the held render of frame f-1, the masked EPE of the pair
        (f-1, f), whose Gaussian flow is compared with the supervision flow
        inside the motion mask. At most two renders are held at a time.
        """
        psnrs, ssims, errs, counts = [], [], [], []
        prev = None
        for f in range(self.data.frames):
            out = self.render_frame(f)
            image = out.image_np()
            psnrs.append(psnr(image, self.data.images[f]))
            with ad.Tape():
                ssims.append(float(ssim(ad.constant(image), self.data.images[f]).data))
            if prev is not None:
                err, n = self._masked_epe(prev, out, f - 1)
                if n:
                    errs.append(err * n)
                    counts.append(n)
            prev = out
        return {"psnr": float(np.mean(psnrs)), "ssim": float(np.mean(ssims)),
                "masked_epe": float(np.sum(errs) / np.sum(counts)) if counts else 0.0}

    def _masked_epe(self, out, out1, f: int) -> tuple[float, int]:
        """Mean endpoint error of the pair's Gaussian flow vs the supervision
        flow at I_f, and the number of pixels it averages."""
        with ad.Tape():
            flow_g = gaussian_flow(out, out1)
        gt = self._gt_flow(f)
        sel = (flow_g.valid & gt.valid[flow_g.pix_v, flow_g.pix_u]
               & (self.data.masks[f][flow_g.pix_v, flow_g.pix_u] > 0))
        if not sel.any():
            return 0.0, 0
        err = np.linalg.norm(flow_g.vec.data[sel] - gt.vectors[flow_g.pix_v[sel], flow_g.pix_u[sel]], axis=1)
        return float(err.mean()), int(sel.sum())

    def mean_psnr(self) -> float:
        return self.evaluate()["psnr"]

    def mean_masked_epe(self) -> float:
        return self.evaluate()["masked_epe"]

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
        with ad.Tape():
            p4 = ad.constant(self.normalizer.unit4_np(self.cloud.mu.data[sel], t))
            mu_d, _, _ = self.deform.deform_gaussians(
                ad.constant(self.cloud.mu.data[sel]), ad.constant(self.cloud.quat.data[sel]),
                ad.constant(self.cloud.log_scale.data[sel]), p4)
            world = mu_d.data
        with ad.Tape():
            vel, sig = self.material.evaluate_with_jets(
                self.normalizer.unit4_np(world, t), self.cloud.ids[sel])
            r = momentum_residual(vel, sig, rho=self.config.material.rho,
                                  include_advection=self.config.cmr_include_advection)
            mags = np.linalg.norm(r.data, axis=1)
        return float(mags.mean())

    # -- persistence -----------------------------------------------------------

    def save_checkpoint(self, path) -> None:
        arrays: dict[str, np.ndarray] = {}
        for name, p in self.cloud.params.items():
            arrays[f"cloud.{name}"] = p.data
        arrays["cloud.ids"] = self.cloud.ids
        arrays["cloud.dynamic"] = self.cloud.dynamic
        for name, p in self.deform.params.items():
            arrays[f"deform.{name}"] = p.data
        for name, p in self.material.params:
            arrays[f"material.{name}"] = p.data
        for name, value in self.opt.state_arrays().items():
            arrays[f"opt.{name}"] = np.asarray(value)
        arrays["densify.grad_accum"] = self._grad_accum
        arrays["densify.grad_count"] = self._grad_count
        config = {"run": self.config.to_dict(), "normalizer": self.normalizer.to_dict()}
        scalars = {"rng_state": _rng_state_to_json(self.rng)}
        pio.write_checkpoint(path, config, self.iteration, arrays, scalars)

    def _load_state(self, config_dict: dict, iteration: int, arrays: dict, scalars: dict) -> None:
        n = arrays["cloud.ids"].shape[0]
        for name in [f"cloud.{p}" for p in self.cloud.params] + ["cloud.dynamic"]:
            rows = arrays[name].shape[0]
            if rows != n:
                raise ValueError(f"checkpoint has {n} particle ids but {rows} rows in {name}")
        cloud_arrays = {name: arrays[f"cloud.{name}"] for name in self.cloud.params}
        # rebuild the cloud at the checkpoint size, then re-point optimizer slots
        self.cloud = GaussianCloud(cloud_arrays["mu"], cloud_arrays["quat"],
                                   cloud_arrays["log_scale"], cloud_arrays["sh"],
                                   cloud_arrays["opacity_logit"], arrays["cloud.ids"],
                                   arrays["cloud.dynamic"])
        for name, p in self.cloud.params.items():
            self.opt.slots[f"cloud.{name}"]["param"] = p
        for name, p in self.deform.params.items():
            p.data = np.array(arrays[f"deform.{name}"])
        for name, p in self.material.params:
            p.data = np.array(arrays[f"material.{name}"])
        self.opt.load_state_arrays({k[len("opt."):]: v for k, v in arrays.items() if k.startswith("opt.")})
        self._grad_accum = np.array(arrays["densify.grad_accum"])
        self._grad_count = np.array(arrays["densify.grad_count"])
        self.rng.bit_generator.state = _rng_state_from_json(scalars["rng_state"])
        self.iteration = int(iteration)

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
    rng = np.random.default_rng(config.seed)
    deform = DeformationField(config.deform, rng)
    material = MaterialField(config.init_particles, rng, config.material)
    for name, p in deform.params.items():
        p.data = np.array(arrays[f"deform.{name}"])
    for name, p in material.params:
        p.data = np.array(arrays[f"material.{name}"])
    cloud = GaussianCloud(arrays["cloud.mu"], arrays["cloud.quat"], arrays["cloud.log_scale"],
                          arrays["cloud.sh"], arrays["cloud.opacity_logit"],
                          arrays["cloud.ids"], arrays["cloud.dynamic"])
    normalizer = SceneNormalizer.from_dict(config_dict["normalizer"])
    return config, iteration, cloud, deform, material, normalizer


def _rng_state_to_json(rng: np.random.Generator) -> dict:
    state = rng.bit_generator.state
    return {"bit_generator": state["bit_generator"],
            "state": str(state["state"]["state"]), "inc": str(state["state"]["inc"]),
            "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}


def _rng_state_from_json(d: dict) -> dict:
    return {"bit_generator": d["bit_generator"],
            "state": {"state": int(d["state"]), "inc": int(d["inc"])},
            "has_uint32": d["has_uint32"], "uinteger": d["uinteger"]}
