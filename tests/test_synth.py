"""Synthetic scenes: motion models, generated assets, self-consistency."""

import json

import numpy as np
import pytest

from pidg.flow import decompose_backward
from pidg.synth import (
    MotionModel,
    SceneSpec,
    generate,
    load_scene,
    scene_data,
    write_scene,
)

VARIANT_SPECS = {
    "rigid": dict(variant="rigid", translate=(0.3, 0.1, 0.0), rotate_z_deg=25.0),
    "shear": dict(variant="shear", gamma=0.5),
    "elastic": dict(variant="elastic", amplitude=0.05, wavenumber=2 * np.pi),
    "advect": dict(variant="advect", velocity=(0.25, -0.1, 0.05)),
}


def small_spec(**kw):
    base = dict(frames=3, width=32, height=32, num_particles=20, seed=7)
    base.update(kw)
    return SceneSpec(**base)


# ---------------------------------------------------------------- motion model

@pytest.mark.parametrize("variant", list(VARIANT_SPECS))
def test_forward_inverse_round_trip(variant):
    spec = small_spec(**VARIANT_SPECS[variant])
    motion = MotionModel(spec)
    rng = np.random.default_rng(0)
    x0 = rng.normal(scale=0.4, size=(30, 3))
    for t in (0.0, 0.37, 1.0):
        x = motion.forward(x0, t)
        back = motion.inverse(x, t)
        assert np.max(np.abs(back - x0)) < 1e-12, (variant, t)


@pytest.mark.parametrize("variant", list(VARIANT_SPECS))
def test_velocity_is_time_derivative_of_forward(variant):
    spec = small_spec(**VARIANT_SPECS[variant])
    motion = MotionModel(spec)
    rng = np.random.default_rng(1)
    x0 = rng.normal(scale=0.4, size=(20, 3))
    h = 1e-6
    for t in (0.1, 0.6):
        fd = (motion.forward(x0, t + h) - motion.forward(x0, t - h)) / (2 * h)
        assert np.max(np.abs(motion.velocity(x0, t) - fd)) < 1e-7, (variant, t)


def test_rigid_rotation_speed_is_omega_r():
    spec = small_spec(variant="rigid", translate=(0.0, 0.0, 0.0), rotate_z_deg=30.0)
    motion = MotionModel(spec)
    rng = np.random.default_rng(2)
    x0 = rng.normal(scale=0.5, size=(25, 3))
    v = motion.velocity(x0, 0.4)
    r_xy = np.hypot(x0[:, 0], x0[:, 1])
    omega = np.deg2rad(30.0)
    assert np.allclose(np.linalg.norm(v, axis=1), omega * r_xy, atol=1e-12)
    assert np.allclose(v[:, 2], 0.0)


def test_shear_velocity_is_divergence_free():
    spec = small_spec(variant="shear", gamma=0.8)
    motion = MotionModel(spec)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    h = 1e-6
    div = np.zeros(15)
    for axis in range(3):
        dp = x.copy()
        dp[:, axis] += h
        dm = x.copy()
        dm[:, axis] -= h
        div += (motion.velocity(dp, 0.5)[:, axis] - motion.velocity(dm, 0.5)[:, axis]) / (2 * h)
    assert np.max(np.abs(div)) < 1e-8


def test_stress_values_per_variant():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(8, 3))
    # rigid: zero stress
    s = MotionModel(small_spec(variant="rigid", rotate_z_deg=40.0)).stress(x0, 0.5)
    assert np.array_equal(s, np.zeros((8, 3, 3)))
    # shear: sigma_xy = eta * gamma, all else zero
    s = MotionModel(small_spec(variant="shear", gamma=0.5, eta=2.0)).stress(x0, 0.5)
    assert np.allclose(s[:, 0, 1], 1.0)
    assert np.allclose(s[:, 1, 0], 1.0)
    s[:, 0, 1] = s[:, 1, 0] = 0.0
    assert np.array_equal(s, np.zeros((8, 3, 3)))
    # advect: isotropic -pressure
    s = MotionModel(small_spec(variant="advect", pressure=1.5)).stress(x0, 0.0)
    assert np.allclose(s, -1.5 * np.eye(3))


def test_elastic_wave_satisfies_linear_momentum_balance():
    # rho dv/dt = d sigma_xx / dx along the propagation axis
    spec = small_spec(variant="elastic", amplitude=0.04, wavenumber=2 * np.pi,
                      lam=1.2, mu=0.4, rho=1.0)
    motion = MotionModel(spec)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(10, 3))
    t, h = 0.3, 1e-6
    dv_dt = (motion.velocity(x0, t + h) - motion.velocity(x0, t - h)) / (2 * h)
    dxp = x0.copy()
    dxp[:, 0] += h
    dxm = x0.copy()
    dxm[:, 0] -= h
    dsxx_dx = (motion.stress(dxp, t)[:, 0, 0] - motion.stress(dxm, t)[:, 0, 0]) / (2 * h)
    assert np.max(np.abs(spec.rho * dv_dt[:, 0] - dsxx_dx)) < 1e-5


# ---------------------------------------------------------------- validation

def test_validate_enumerates_all_errors():
    spec = SceneSpec(variant="nope", frames=1, num_particles=0, orbit_radius=0.0, width=4)
    errors = spec.validate()
    assert len(errors) == 5
    assert any("variant" in e for e in errors)
    assert any("frames" in e for e in errors)
    assert any("particle" in e for e in errors)
    assert any("orbit_radius" in e for e in errors)
    assert any("small" in e for e in errors)
    with pytest.raises(ValueError):
        generate(spec)


def test_elastic_amplitude_guard():
    spec = SceneSpec(variant="elastic", amplitude=10.0, lam=1.0, mu=0.5)
    assert any("amplitude" in e for e in spec.validate())


def test_spec_dict_round_trip():
    spec = small_spec(variant="shear", gamma=0.9, translate=(1.0, 2.0, 3.0))
    clone = SceneSpec.from_dict(spec.to_dict())
    assert clone == spec
    with pytest.raises(ValueError):
        SceneSpec.from_dict({"not_a_field": 1})


# ---------------------------------------------------------------- generation

def test_generate_is_deterministic():
    spec = small_spec(**VARIANT_SPECS["rigid"])
    a = generate(spec)
    b = generate(spec)
    assert a.images.tobytes() == b.images.tobytes()
    assert a.depths.tobytes() == b.depths.tobytes()
    for fa, fb in zip(a.flows_b, b.flows_b):
        assert fa.vectors.tobytes() == fb.vectors.tobytes()


def test_generate_asset_shapes_and_times():
    spec = small_spec(frames=4)
    scene = generate(spec)
    assert scene.images.shape == (4, 32, 32, 3)
    assert scene.depths.shape == (4, 32, 32)
    assert scene.masks.shape == (4, 32, 32)
    assert len(scene.flows_b) == 3 and len(scene.flows_fwd) == 3
    assert len(scene.cameras) == 4
    assert scene.times[0] == 0.0 and scene.times[-1] == 1.0
    assert scene.images.min() >= 0.0 and scene.images.max() <= 1.0


def test_bounds_contain_all_particle_positions():
    spec = small_spec(**VARIANT_SPECS["advect"])
    scene = generate(spec)
    center, scale = scene.bounds
    for t in scene.times:
        pos = scene.motion.forward(scene.cloud0.mu.data, t)
        unit = (pos - center) / scale + 0.5
        assert unit.min() > 0.0 and unit.max() < 1.0


def test_single_particle_depth_is_camera_depth():
    spec = small_spec(num_particles=1, radius=0.0, base_scale=0.15, opacity=0.99,
                      variant="advect", velocity=(0.0, 0.0, 0.0))
    scene = generate(spec)
    cam = scene.cameras[0]
    mu = scene.cloud0.mu.data
    z = cam.world_to_cam(mu)[0, 2]
    px, _ = cam.project(mu)
    u, v = int(round(px[0, 0])), int(round(px[0, 1]))
    # coverage-normalized depth of a single-particle mixture is exactly its z
    assert abs(scene.depths[0, v, u] - z) < 1e-12


def test_static_scene_has_empty_masks():
    spec = small_spec(variant="advect", velocity=(0.0, 0.0, 0.0))
    scene = generate(spec)
    assert not scene.masks.any()


def test_moving_scene_masks_track_motion():
    spec = small_spec(**VARIANT_SPECS["advect"])
    scene = generate(spec)
    assert scene.masks.any()
    # masked pixels lie where the object actually covers the image
    for f in range(scene.frames):
        assert not (scene.masks[f] & (scene.depths[f] <= 0.0)).any()


@pytest.mark.parametrize("variant", list(VARIANT_SPECS))
def test_decomposition_recovers_analytic_motion_flow(variant):
    scene = generate(small_spec(**VARIANT_SPECS[variant]))
    for pair in range(scene.frames - 1):
        cam_flow, motion = decompose_backward(
            scene.flows_b[pair], scene.depths[pair + 1],
            scene.cameras[pair], scene.cameras[pair + 1])
        ref = scene.analytic_motion_flow(pair)
        sel = motion.valid & ref.valid
        assert sel.any()
        err = np.abs(motion.vectors[sel] - ref.vectors[sel]).max()
        assert err < 1e-9, (variant, pair, err)


# ---------------------------------------------------------------- disk round trip

def test_write_and_load_scene(tmp_path):
    spec = small_spec(**VARIANT_SPECS["rigid"])
    scene = generate(spec)
    out = write_scene(scene, tmp_path / "scene")

    names = sorted(p.name for p in out.iterdir())
    assert names.count("scene.json") == 1 and names.count("cameras.json") == 1
    assert sum(n.startswith("frame_") for n in names) == 3
    assert sum(n.startswith("depth_") for n in names) == 3
    assert sum(n.startswith("mask_") for n in names) == 3
    assert sum(n.startswith("flow_b_") for n in names) == 2
    assert sum(n.startswith("flow_fwd_") for n in names) == 2

    data = load_scene(out)
    mem = scene_data(scene)
    assert data.frames == 3 and data.images.shape[1:3] == (32, 32)
    # images are 8-bit quantized on disk
    assert np.max(np.abs(data.images - mem.images)) <= 0.5 / 255.0 + 1e-12
    # depth is stored at full precision
    assert np.array_equal(data.depths, mem.depths)
    assert np.array_equal(data.masks, mem.masks)
    # flow vectors are f32 on disk
    for df, sf in zip(data.flows_b, mem.flows_b):
        assert np.array_equal(df.valid, sf.valid)
        assert np.max(np.abs(df.vectors - sf.vectors)) < 1e-5
    assert np.allclose(data.bounds[0], mem.bounds[0])
    assert data.bounds[1] == pytest.approx(mem.bounds[1])
    assert data.spec == spec
    for ca, cb in zip(data.cameras, mem.cameras):
        assert np.array_equal(ca.rot, cb.rot)
        assert np.array_equal(ca.trans, cb.trans)


def test_minimal_two_frame_scene(tmp_path):
    spec = small_spec(frames=2, **{k: v for k, v in VARIANT_SPECS["advect"].items()})
    scene = generate(spec)
    out = write_scene(scene, tmp_path / "mini")
    names = [p.name for p in out.iterdir()]
    assert sum(n.startswith("frame_") for n in names) == 2
    assert sum(n.startswith("flow_b_") for n in names) == 1
    data = load_scene(out)
    assert data.frames == 2


def _drop(key):
    def edit(m):
        del m[key]
    return edit


@pytest.mark.parametrize("edit, entry", [
    (_drop("frames"), "'frames'"),
    (_drop("times"), "'times'"),
    (_drop("bounds"), "'bounds'"),
    (lambda m: m["times"].pop(), "'times'"),
    (lambda m: m.update(frames="2"), "'frames'"),
    (lambda m: m.update(bounds=[0.0, 1.0]), "'bounds'"),
    (lambda m: m["bounds"].pop("center"), "'bounds.center'"),
    (lambda m: m["bounds"].update(center=[0.0, 1.0]), "'bounds.center'"),
    (lambda m: m["bounds"].update(center=[0.0, "1", 2.0]), "'bounds.center'"),
    (lambda m: m["bounds"].pop("scale"), "'bounds.scale'"),
    (lambda m: m["bounds"].update(scale=0.0), "'bounds.scale'"),
    (lambda m: m["bounds"].update(scale=-2.0), "'bounds.scale'"),
    (lambda m: m["bounds"].update(scale=True), "'bounds.scale'"),
])
def test_load_scene_names_a_bad_manifest_entry(tmp_path, edit, entry):
    out = write_scene(generate(small_spec(frames=2)), tmp_path / "scene")
    path = out / "scene.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=entry) as info:
        load_scene(out)
    assert str(path) in str(info.value)


def test_load_scene_names_a_truncated_manifest(tmp_path):
    out = write_scene(generate(small_spec(frames=2)), tmp_path / "scene")
    path = out / "scene.json"
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError, match="not valid JSON") as info:
        load_scene(out)
    assert str(path) in str(info.value)
