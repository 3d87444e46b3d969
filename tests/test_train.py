"""Training loop: config validation, stages, checkpoints, resume, aborts."""

import numpy as np
import pytest

import pidg.render as render_module
from pidg import autodiff as ad
from pidg import io as pio
from pidg.config import RunConfig
from pidg.deform import DeformConfig
from pidg.material import MaterialConfig
from pidg.optim import Adam
from pidg.flow import frame_pair_flows, lpfm_loss
from pidg.render import RenderSettings, project, render
from pidg.scene import GaussianCloud
from pidg.synth import SceneSpec, generate, scene_data
from pidg.train import METRICS_HEADER, Trainer, TrainingAborted, initial_scales, load_model, model_params


def tiny_config(**overrides) -> RunConfig:
    cfg = RunConfig(
        iterations=4,
        stage_switch=0.5,
        init_particles=20,
        max_particles=40,
        densify_interval=100,
        top_k=4,
        cmr_samples=8,
        cmr_block=8,
        checkpoint_interval=1000,
        deform=DeformConfig(spatial_levels=2, spatial_base=4, spatial_max=8,
                            temporal_levels=2, time_base=2, time_max=4,
                            table_size_log2=8, feature_dim=2,
                            attn_width=8, hidden_width=16),
        material=MaterialConfig(plane_levels=2, plane_base=4, plane_max=8,
                                table_size=256, fourier_n=2, embed_dim=4,
                                hidden_width=16),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def tiny_data():
    spec = SceneSpec(variant="rigid", frames=3, width=24, height=24,
                     num_particles=12, translate=(0.3, 0.1, 0.0),
                     base_scale=0.07, seed=5)
    return scene_data(generate(spec))


# -- config ------------------------------------------------------------------

def test_config_validation_collects_all_errors():
    cfg = tiny_config(iterations=0, stage_switch=2.0, lambda_c=1.5,
                      ablate="bogus", top_k=0, max_particles=1)
    errors = cfg.validate()
    assert len(errors) >= 6
    joined = "\n".join(errors)
    for frag in ("iterations", "stage_switch", "lambda_c", "ablate", "top_k", "max_particles"):
        assert frag in joined
    with pytest.raises(ValueError, match="stage_switch"):
        cfg.require_valid()


def test_config_defaults_valid():
    assert RunConfig().validate() == []
    assert tiny_config().validate() == []


def test_effective_weights_ablations():
    cfg = tiny_config(lambda_cmr=0.1, lambda_lpfm=0.01)
    assert cfg.effective_weights() == (0.1, 0.01)
    cfg.ablate = "no-lpfm"
    assert cfg.effective_weights() == (0.1, 0.0)
    cfg.ablate = "no-physics"
    assert cfg.effective_weights() == (0.0, 0.01)


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config(seed=9, lambda_cmr=0.25)
    p = tmp_path / "cfg.json"
    cfg.save_json(p)
    back = RunConfig.from_json(p)
    assert back.to_dict() == cfg.to_dict()


def test_config_from_dict_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown config field"):
        RunConfig.from_dict({"not_a_field": 1})


def test_config_from_dict_checks_each_value_type():
    cfg = RunConfig.from_dict({"stage_switch": 1, "cmr_include_advection": False, "material": {"rho": 2}})
    assert (cfg.stage_switch, cfg.cmr_include_advection, cfg.material.rho) == (1, False, 2)
    with pytest.raises(ValueError) as err:
        RunConfig.from_dict({"top_k": True, "lambda_c": "0.2", "cmr_include_advection": 1,
                             "deform": {"feature_dim": 2.0, "width": 3}, "material": 3})
    assert str(err.value).splitlines() == [
        "top_k must be int, not True",
        "lambda_c must be float, not '0.2'",
        "cmr_include_advection must be bool, not 1",
        "deform.feature_dim must be int, not 2.0",
        "unknown config field 'deform.width'",
        "material must be a JSON object",
    ]
    with pytest.raises(ValueError, match="config must be a JSON object"):
        RunConfig.from_dict([])


def test_default_config_is_the_desk_config():
    assert RunConfig().to_dict() == {
        "scene_dir": "", "out_dir": "run", "seed": 42, "iterations": 2000, "stage_switch": 0.6,
        "log_interval": 1, "checkpoint_interval": 1000, "lambda_c": 0.2, "lambda_cmr": 0.1,
        "lambda_lpfm": 0.01, "lambda_g": 0.5, "lambda_v": 0.5, "ablate": "none", "top_k": 8,
        "cmr_samples": 256, "cmr_block": 256, "cmr_include_advection": True, "init_particles": 150,
        "max_particles": 300, "densify_interval": 200, "densify_grad_threshold": 0.002,
        "prune_scale_threshold": 0.15, "min_opacity": 0.005, "dynamic_fraction": 0.3,
        "lr_position": 0.0005, "lr_sh": 0.005, "lr_opacity": 0.05, "lr_scale": 0.005,
        "lr_rotation": 0.002, "lr_decoder": 0.002, "grid_lr_multiplier": 20.0, "lr_material": 0.002,
        "deform": {"spatial_levels": 6, "spatial_base": 8, "spatial_max": 96, "temporal_levels": 6,
                   "time_base": 2, "time_max": 4, "table_size_log2": 15, "feature_dim": 2,
                   "attn_width": 32, "hidden_width": 64},
        "material": {"plane_levels": 3, "plane_base": 8, "plane_max": 48, "table_size": 4096,
                     "fourier_n": 4, "embed_dim": 16, "hidden_width": 64, "rho": 1.0},
    }


def test_partial_nested_config_keeps_the_other_defaults():
    cfg = RunConfig.from_dict({"deform": {"feature_dim": 4}})
    want = RunConfig()
    want.deform.feature_dim = 4
    assert cfg.to_dict() == want.to_dict()


def test_config_rejects_zero_densify_interval():
    assert RunConfig(densify_interval=0).validate() == ["densify_interval must be >= 1"]


@pytest.mark.parametrize("name", ["deform.spatial_levels", "deform.temporal_levels", "material.plane_levels"])
def test_config_rejects_zero_grid_levels(name):
    section, key = name.split(".")
    cfg = RunConfig.from_dict({section: {key: 0}})
    assert cfg.validate() == [f"{name} must be >= 1"]


@pytest.mark.parametrize("name, value, rule", [
    ("deform.spatial_base", 0, ">= 1"),
    ("deform.spatial_max", 0, ">= 1"),
    ("deform.attn_width", 0, ">= 1"),
    ("material.plane_base", 0, ">= 1"),
    ("material.plane_max", 0, ">= 1"),
    ("material.table_size", 0, ">= 1"),
    ("deform.table_size_log2", 0, ">= 1"),
    ("deform.time_base", 0, ">= 1"),
    ("deform.time_max", 0, ">= 1"),
    ("deform.hidden_width", 0, ">= 1"),
    ("material.embed_dim", 0, ">= 1"),
    ("material.hidden_width", 0, ">= 1"),
    ("material.rho", 0.0, "> 0"),
    ("material.rho", -1.0, "> 0"),
])
def test_config_rejects_field_sizes_that_break_the_model(name, value, rule):
    section, key = name.split(".")
    cfg = RunConfig.from_dict({section: {key: value}})
    assert cfg.validate() == [f"{name} must be {rule}"]


@pytest.mark.parametrize("field, value, error", [
    ("iterations", "60", "iterations must be int, not '60'"),
    ("lambda_c", None, "lambda_c must be float, not None"),
    ("deform.feature_dim", 2.0, "deform.feature_dim must be int, not 2.0"),
    ("material.rho", "1", "material.rho must be float, not '1'"),
])
def test_validate_reports_wrong_typed_fields(field, value, error):
    """A value of the wrong type, set in Python rather than through
    ``from_dict``, is an error line, and the other fields still check."""
    cfg = RunConfig(iterations=0)
    section, _, key = field.rpartition(".")
    setattr(getattr(cfg, section) if section else cfg, key, value)
    want = [error] if field == "iterations" else [error, "iterations must be >= 1"]
    assert sorted(cfg.validate()) == sorted(want)


# -- stages and metrics --------------------------------------------------------

def test_stage_boundaries():
    cfg = tiny_config(iterations=10, stage_switch=0.6)
    tr = Trainer(cfg, tiny_data())
    assert tr.stage2_start == cfg.stage2_start() == 6
    assert tr.stage(0) == 1
    assert tr.stage(5) == 1
    assert tr.stage(6) == 2
    assert tr.stage(9) == 2


def test_metrics_header_and_rows(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=2, log_interval=1), data)
    row = tr.step()
    assert set(row) == set(METRICS_HEADER.split(","))
    assert row["iter"] == 0
    assert row["num_gaussians"] == 20
    assert np.isfinite(row["loss_total"])
    tr.step()
    p = tmp_path / "metrics.csv"
    tr.write_metrics(p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "iter,loss_total,loss_renders,loss_cmr,loss_lpfm,psnr,num_gaussians"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    # row values round-trip through repr
    total = float(lines[1].split(",")[1])
    assert np.isfinite(total)


def test_run_writes_final_checkpoint_and_metrics(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=3), data)
    tr.run(out_dir=tmp_path / "out")
    assert (tmp_path / "out" / "final.pidg").exists()
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert tr.iteration == 3


def test_step_decreases_render_loss_over_a_few_iterations():
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=30, stage_switch=1.0, lambda_cmr=0.0,
                             lambda_lpfm=0.0), data)
    first = tr.step()["loss_renders"]
    last = None
    for _ in range(29):
        last = tr.step()["loss_renders"]
    assert last < first


# -- stage 2: partition + freeze ----------------------------------------------

def test_stage2_freezes_static_pose_rows():
    data = tiny_data()
    cfg = tiny_config(iterations=6, stage_switch=0.5)  # stage 2 from iteration 3
    tr = Trainer(cfg, data)
    for _ in range(3):
        tr.step()
    assert tr.stage() == 2
    # force a known split so the freeze path definitely runs
    dyn = np.zeros(len(tr.cloud.ids), dtype=bool)
    dyn[::2] = True
    tr.cloud.dynamic = dyn
    static = ~dyn
    mu0 = tr.cloud.mu.data[static].copy()
    quat0 = tr.cloud.quat.data[static].copy()
    ls0 = tr.cloud.log_scale.data[static].copy()
    mu_dyn0 = tr.cloud.mu.data[dyn].copy()
    sh0 = tr.cloud.sh.data.copy()
    tr.step()
    assert np.array_equal(tr.cloud.mu.data[static], mu0)
    assert np.array_equal(tr.cloud.quat.data[static], quat0)
    assert np.array_equal(tr.cloud.log_scale.data[static], ls0)
    # appearance keeps training everywhere, and dynamic poses keep moving
    assert not np.array_equal(tr.cloud.sh.data, sh0)
    assert not np.array_equal(tr.cloud.mu.data[dyn], mu_dyn0)


def test_stage2_step_rasterizes_once(monkeypatch):
    """The frame pair composites frame t only; frame t+1 is projected."""
    tr = Trainer(tiny_config(iterations=4, stage_switch=0.25), tiny_data())
    tr.step()
    calls = []

    def counting_rasterize(*args, **kwargs):
        calls.append(len(args[0].data))
        return rasterize(*args, **kwargs)

    rasterize = render_module.rasterize
    monkeypatch.setattr(render_module, "rasterize", counting_rasterize)
    assert tr.stage() == 2
    assert tr.step()["loss_lpfm"] > 0.0
    assert len(calls) == 1


def test_frame_pair_flows_from_a_projection_match_a_render():
    """With frame t+1 projected rather than rendered, both flows and every
    parameter gradient of the flow-matching loss are bit-equal; the t+1
    render is the oracle."""
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=4, stage_switch=0.25), data)
    tr.step()
    tr.step()
    f = 1
    model = dict(deform_field=tr.deform, normalizer=tr.normalizer, respect_dynamic_mask=True)
    results = []
    for second in (render, project):
        tr.opt.zero_grad()
        with ad.Tape() as tape:
            out = render(tr.cloud, data.cameras[f], data.times[f], settings=tr.settings, **model)
            out1 = second(tr.cloud, data.cameras[f + 1], data.times[f + 1], **model)
            flow_g, flow_v, _ = frame_pair_flows(out, out1, tr.cloud.ids, tr.material, tr.normalizer)
            loss = lpfm_loss(flow_g, flow_v, tr._gt_flow(f), data.masks[f], 0.5, 0.5)
            tape.backward(loss)
        grads = {name: None if p.grad is None else p.grad.copy()
                 for name, p in model_params(tr.cloud, tr.deform, tr.material).items()}
        results.append((flow_g.to_field(), flow_v.to_field(), float(loss.data), grads))
    (g_r, v_r, loss_r, grads_r), (g_p, v_p, loss_p, grads_p) = results
    assert loss_r > 0.0 and loss_p == loss_r
    for a, b in ((g_r, g_p), (v_r, v_p)):
        assert np.array_equal(a.vectors, b.vectors) and np.array_equal(a.valid, b.valid)
    assert grads_p.keys() == grads_r.keys()
    for name in ("cloud.mu", "cloud.log_scale", "deform.head.weight", "material.head.weight"):
        assert np.any(grads_r[name] != 0.0), name
    for name, g in grads_r.items():
        assert (g is None) == (grads_p[name] is None), name
        assert g is None or np.array_equal(g, grads_p[name]), name


def test_entering_stage2_partitions_particles():
    data = tiny_data()
    cfg = tiny_config(iterations=4, stage_switch=0.25)  # stage2_start == 1
    tr = Trainer(cfg, data)
    assert tr.cloud.dynamic.all()  # everything starts dynamic
    tr.step()
    assert tr.iteration == tr.stage2_start
    assert tr.cloud.dynamic.dtype == np.bool_
    assert len(tr.cloud.dynamic) == len(tr.cloud.ids)


# -- abort on non-finite -------------------------------------------------------

def test_aborts_with_term_name_on_poisoned_parameters():
    data = tiny_data()
    tr = Trainer(tiny_config(), data)
    tr.cloud.mu.data[0, 0] = np.nan
    with pytest.raises(TrainingAborted, match="renders"):
        tr.step()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort comes before any arithmetic
def test_abort_reports_iteration():
    data = tiny_data()
    tr = Trainer(tiny_config(), data)
    tr.step()
    tr.cloud.sh.data[:] = np.inf
    with pytest.raises(TrainingAborted, match="iteration 1"):
        tr.step()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort comes before any arithmetic
def test_aborted_run_writes_the_metrics_logged_so_far(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=4, log_interval=1), data)

    def poison(row):
        if row["iter"] == 1:
            tr.cloud.sh.data[:] = np.inf

    with pytest.raises(TrainingAborted, match="iteration 2"):
        tr.run(out_dir=tmp_path / "out", on_step=poison)
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert not (tmp_path / "out" / "final.pidg").exists()


# -- persistence ----------------------------------------------------------------

def test_checkpoint_load_save_identity(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(), data)
    for _ in range(2):
        tr.step()
    p1 = tmp_path / "a.pidg"
    tr.save_checkpoint(p1)
    tr2 = Trainer.from_checkpoint(p1, data)
    p2 = tmp_path / "b.pidg"
    tr2.save_checkpoint(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_resume_matches_straight_run(tmp_path):
    data = tiny_data()
    cfg = tiny_config(iterations=4, stage_switch=0.5)

    straight = Trainer(cfg, data)
    for _ in range(4):
        straight.step()
    p_straight = tmp_path / "straight.pidg"
    straight.save_checkpoint(p_straight)

    half = Trainer(cfg, data)
    for _ in range(2):
        half.step()
    p_mid = tmp_path / "mid.pidg"
    half.save_checkpoint(p_mid)
    resumed = Trainer.from_checkpoint(p_mid, data)
    assert resumed.iteration == 2
    for _ in range(2):
        resumed.step()
    p_resumed = tmp_path / "resumed.pidg"
    resumed.save_checkpoint(p_resumed)
    assert p_straight.read_bytes() == p_resumed.read_bytes()


def test_load_rejects_mismatched_particle_counts(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(), data)
    good = tmp_path / "good.pidg"
    tr.save_checkpoint(good)
    config, iteration, arrays, scalars = pio.read_checkpoint(good)
    arrays["cloud.ids"] = arrays["cloud.ids"][:-1]
    bad = tmp_path / "bad.pidg"
    pio.write_checkpoint(bad, config, iteration, arrays, scalars)
    with pytest.raises(ValueError, match=r"19 particle ids but 20 rows in cloud\.mu"):
        Trainer.from_checkpoint(bad, data)
    with pytest.raises(ValueError, match=r"19 particle ids but 20 rows in cloud\.mu"):
        load_model(bad)


def test_seeded_reruns_are_identical(tmp_path):
    data = tiny_data()
    cfg = tiny_config(iterations=3)
    tr_a = Trainer(cfg, data)
    tr_b = Trainer(cfg, data)
    for _ in range(3):
        assert tr_a.step() == tr_b.step()
    pa, pb = tmp_path / "a.pidg", tmp_path / "b.pidg"
    tr_a.save_checkpoint(pa)
    tr_b.save_checkpoint(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_load_model_renders_identically(tmp_path):
    data = tiny_data()
    tr = Trainer(tiny_config(iterations=2), data)
    for _ in range(2):
        tr.step()
    p = tmp_path / "m.pidg"
    tr.save_checkpoint(p)

    config, iteration, cloud, deform, material, normalizer = load_model(p)
    assert iteration == 2
    assert np.array_equal(cloud.mu.data, tr.cloud.mu.data)
    settings = RenderSettings(top_k=config.top_k, threads=1)
    want = tr.render_frame(0).image.data
    with ad.Tape():
        got = render(cloud, data.cameras[0], data.times[0], deform_field=deform,
                     normalizer=normalizer, settings=settings,
                     respect_dynamic_mask=tr.stage() == 2).image.data
    assert np.array_equal(got, want)


def test_eval_render_holds_no_backward_state():
    trainer = Trainer(tiny_config(), tiny_data())
    out = trainer.render_frame(1)
    assert out.raw._vjp is None and out.raw._parents == ()
    assert all(t._vjp is None for t in (out.means2d, out.cov2d, out.depths))
    trainer.cloud.mu.data[0] = np.nan  # the render still runs under a finite-checking tape
    with pytest.raises(ad.NonFiniteError):
        trainer.render_frame(1)

def test_mean_psnr_is_the_evaluate_psnr():
    tr = Trainer(tiny_config(), tiny_data())
    metrics = tr.evaluate()
    assert tr.mean_psnr() == metrics["psnr"]
    assert tr.mean_masked_epe() == metrics["masked_epe"]
    tr.run()  # into stage 2, where static particles skip the deformation
    assert tr.stage() == 2
    metrics = tr.evaluate()
    assert tr.mean_psnr() == metrics["psnr"]
    assert tr.mean_masked_epe() == metrics["masked_epe"]


def test_mean_residual_leaves_training_rng_alone(tmp_path):
    data = tiny_data()
    cfg = tiny_config(iterations=6, log_interval=1)
    probed = Trainer(cfg, data)
    subsets = []

    def probe(row):
        if row["iter"] == 2:  # after the third step
            probed.mean_residual()
            subsets.append(probed.mean_residual(samples=5))
            subsets.append(probed.mean_residual(samples=5))

    Trainer(cfg, data).run(tmp_path / "plain")
    probed.run(tmp_path / "probed", on_step=probe)
    assert subsets[0] == subsets[1]
    assert ((tmp_path / "plain" / "metrics.csv").read_bytes()
            == (tmp_path / "probed" / "metrics.csv").read_bytes())


# -- ablation wiring -------------------------------------------------------------

def test_no_physics_ablation_skips_cmr():
    data = tiny_data()
    tr = Trainer(tiny_config(ablate="no-physics"), data)
    row = tr.step()
    assert row["loss_cmr"] == 0.0


def test_no_lpfm_ablation_zeroes_flow_loss():
    data = tiny_data()
    cfg = tiny_config(iterations=4, stage_switch=0.25, ablate="no-lpfm")
    tr = Trainer(cfg, data)
    rows = [tr.step() for _ in range(3)]
    assert all(r["loss_lpfm"] == 0.0 for r in rows)


def test_stage2_lpfm_loss_is_live():
    data = tiny_data()
    cfg = tiny_config(iterations=6, stage_switch=0.5)
    tr = Trainer(cfg, data)
    rows = [tr.step() for _ in range(6)]
    stage2 = [r for r in rows if r["iter"] >= tr.stage2_start]
    assert any(r["loss_lpfm"] != 0.0 for r in stage2)


# -- densification inside the loop ------------------------------------------------

def test_densify_interval_grows_or_prunes_cloud():
    data = tiny_data()
    cfg = tiny_config(iterations=6, stage_switch=1.0, densify_interval=2,
                      densify_grad_threshold=0.0)  # every particle qualifies
    tr = Trainer(cfg, data)
    n0 = len(tr.cloud.ids)
    tr.step()
    tr.step()  # densify fires after this one
    assert len(tr.cloud.ids) != n0
    assert len(tr.cloud.ids) <= cfg.max_particles
    assert len(tr.opt.slots["cloud.mu"]["m"]) == len(tr.cloud.ids)


def test_densify_past_the_budget_is_one_edit(monkeypatch):
    # the clones and splits overshoot the budget; the trim to it rides in
    # the same edit, so each cloud parameter's Adam state is remapped once
    cfg = tiny_config(iterations=6, stage_switch=1.0, densify_interval=2, densify_grad_threshold=0.0,
                      max_particles=25)
    tr = Trainer(cfg, tiny_data())
    remapped = []
    remap = Adam.remap_rows
    monkeypatch.setattr(Adam, "remap_rows", lambda opt, name, *a: (remapped.append(name), remap(opt, name, *a)))
    tr.step()
    tr.step()
    assert len(tr.cloud.ids) == cfg.max_particles
    assert sorted(remapped) == sorted(f"cloud.{name}" for name in GaussianCloud.PARAMS)
    for name in GaussianCloud.PARAMS:
        assert len(tr.opt.slots[f"cloud.{name}"]["m"]) == cfg.max_particles


def _initial_scales_oracle(mu, scene_scale):
    """The full (n, n, 3) difference formula ``initial_scales`` computes in blocks."""
    n = mu.shape[0]
    d2 = np.sum((mu[:, None, :] - mu[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(3, n - 1) if n > 1 else 1
    nn = np.sqrt(np.sort(d2, axis=1)[:, :k]).mean(axis=1) if n > 1 else np.full(1, 0.02 * scene_scale)
    return np.clip(nn, 1e-4 * scene_scale, 0.05 * scene_scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 255, 256, 257, 600])
def test_initial_scales_in_blocks_match_the_full_matrix(n):
    rng = np.random.default_rng(n)
    mu = rng.normal(0.0, 0.2, (n, 3))
    mu[n // 2:n // 2 + 2] = mu[0]  # coincident seeds, so some distances are 0
    assert initial_scales(mu, 1.7).tobytes() == _initial_scales_oracle(mu, 1.7).tobytes()
