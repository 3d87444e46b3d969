"""Training loop: config validation, stages, checkpoints, resume, aborts."""

import numpy as np
import pytest

from pidg import autodiff as ad
from pidg import io as pio
from pidg.config import RunConfig
from pidg.deform import DeformConfig
from pidg.material import MaterialConfig
from pidg.render import RenderSettings, render
from pidg.synth import SceneSpec, generate, scene_data
from pidg.train import METRICS_HEADER, Trainer, TrainingAborted, load_model


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


# -- stages and metrics --------------------------------------------------------

def test_stage_boundaries():
    tr = Trainer(tiny_config(iterations=10, stage_switch=0.6), tiny_data())
    assert tr.stage2_start == 6
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


def test_abort_reports_iteration():
    data = tiny_data()
    tr = Trainer(tiny_config(), data)
    tr.step()
    tr.cloud.sh.data[:] = np.inf
    with pytest.raises(TrainingAborted, match="iteration 1"):
        tr.step()


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
