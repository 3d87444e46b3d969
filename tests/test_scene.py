"""Particle cloud management: rotations, densify/prune, normalizer, dynamic split."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.camera import camera_from_fov
from pidg.scene import (
    DegenerateRotationError,
    GaussianCloud,
    SceneNormalizer,
    covariance,
    densify_and_prune,
    normalize_quaternions,
    partition_dynamic,
    rotation_matrices,
)


def make_cloud(n=10, seed=0, base_scale=0.05, opacity=0.5):
    rng = np.random.default_rng(seed)
    return GaussianCloud.random_init(rng, n, (0.0, 0.0, 0.0), 1.0, base_scale, opacity=opacity)


# ---------------------------------------------------------------- rotations

def test_rotation_matrices_match_scipy_free_reference():
    # reference: R built from the standard quaternion formula, double-checked
    # by rotating basis vectors with the explicit sandwich product q v q*
    rng = np.random.default_rng(1)
    q = rng.normal(size=(12, 4))
    with ad.Tape():
        R = rotation_matrices(ad.constant(q)).data
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    for i in range(len(q)):
        w, x, y, z = qn[i]
        for v in np.eye(3):
            # quaternion sandwich: (w, u) * (0, v) * (w, -u)
            u = np.array([x, y, z])
            t = 2.0 * np.cross(u, v)
            rv = v + w * t + np.cross(u, t)
            assert np.allclose(R[i] @ v, rv, atol=1e-12)


def test_rotation_matrices_are_orthonormal():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(6, 4))
    with ad.Tape():
        R = rotation_matrices(ad.constant(q)).data
    eye = np.einsum("nij,nkj->nik", R, R)
    assert np.allclose(eye, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-12)


def test_degenerate_quaternion_raises():
    q = np.zeros((2, 4))
    q[0, 0] = 1.0
    with ad.Tape():
        with pytest.raises(DegenerateRotationError):
            normalize_quaternions(ad.constant(q))


def test_covariance_identity_quaternion_is_diagonal():
    n = 4
    log_s = np.log(np.array([[0.1, 0.2, 0.3]] * n))
    q = np.zeros((n, 4))
    q[:, 0] = 1.0
    with ad.Tape():
        cov = covariance(ad.constant(q), ad.constant(log_s)).data
    assert np.allclose(cov, np.diag([0.01, 0.04, 0.09]), atol=1e-14)


def test_covariance_is_similarity_transform():
    rng = np.random.default_rng(3)
    q = rng.normal(size=(5, 4))
    log_s = rng.normal(scale=0.3, size=(5, 3))
    with ad.Tape():
        cov = covariance(ad.constant(q), ad.constant(log_s)).data
        R = rotation_matrices(ad.constant(q)).data
    expected = np.einsum("nij,nj,nkj->nik", R, np.exp(2 * log_s), R)
    assert np.allclose(cov, expected, atol=1e-12)


# ---------------------------------------------------------------- cloud init

def test_random_init_shapes_and_values():
    cloud = make_cloud(n=25, base_scale=0.07, opacity=0.25)
    assert len(cloud) == 25
    assert cloud.mu.data.shape == (25, 3)
    assert cloud.quat.data.shape == (25, 4)
    assert np.allclose(cloud.quat.data[:, 0], 1.0)
    assert np.allclose(cloud.world_scales(), 0.07)
    assert np.allclose(cloud.opacities(), 0.25, atol=1e-12)
    assert np.all(np.linalg.norm(cloud.mu.data, axis=1) <= 1.0 + 1e-12)
    assert np.array_equal(cloud.ids, np.arange(25))
    assert cloud.dynamic.all()


def test_replace_rows_keeps_tensor_objects():
    cloud = make_cloud(n=6)
    mu_tensor = cloud.mu
    arrays = {k: v.data[:3] for k, v in cloud.params.items()}
    cloud.replace_rows(arrays, cloud.ids[:3], cloud.dynamic[:3])
    assert cloud.mu is mu_tensor  # optimizer slots keep pointing at the live tensor
    assert len(cloud) == 3
    assert cloud.mu.grad is None


# ---------------------------------------------------------------- densify

def test_densify_clones_small_hot_particles():
    cloud = make_cloud(n=5, base_scale=0.001)  # tiny -> clone branch
    rng = np.random.default_rng(0)
    grads = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    kept, appended = densify_and_prune(cloud, grads, rng, grad_threshold=0.5,
                                       scene_extent=1.0, scale_threshold=0.15, min_opacity=0.005)
    assert np.array_equal(kept, np.arange(5))  # clones keep the parent row
    assert appended == 2
    assert len(cloud) == 7
    # children inherit parent ids and positions exactly
    assert np.array_equal(cloud.ids[5:], [1, 3])
    assert np.allclose(cloud.mu.data[5], cloud.mu.data[1])
    assert np.allclose(cloud.mu.data[6], cloud.mu.data[3])


def test_densify_splits_large_hot_particles():
    cloud = make_cloud(n=4, base_scale=0.1)  # 0.1 > PERCENT_DENSE * extent
    rng = np.random.default_rng(1)
    grads = np.array([1.0, 0.0, 0.0, 0.0])
    kept, appended = densify_and_prune(cloud, grads, rng, grad_threshold=0.5,
                                       scene_extent=1.0, scale_threshold=10.0, min_opacity=0.005)
    # parent 0 retired, two children appended
    assert np.array_equal(kept, [1, 2, 3])
    assert appended == 2
    assert len(cloud) == 5
    assert np.array_equal(cloud.ids, [1, 2, 3, 0, 0])
    # children shrink by the split factor
    assert np.allclose(np.exp(cloud.log_scale.data[3:]), 0.1 / 1.6)


def test_densify_prunes_faint_and_overgrown():
    cloud = make_cloud(n=6, base_scale=0.05)
    cloud.log_scale.data[2] = np.log(0.5)          # overgrown at threshold 0.15 * 1.0
    cloud.opacity_logit.data[4] = -20.0            # effectively transparent
    rng = np.random.default_rng(2)
    kept, appended = densify_and_prune(cloud, np.zeros(6), rng, grad_threshold=1.0,
                                       scene_extent=1.0, scale_threshold=0.15, min_opacity=0.005)
    assert np.array_equal(kept, [0, 1, 3, 5])
    assert appended == 0
    assert len(cloud) == 4


# ---------------------------------------------------------------- normalizer

def test_normalizer_round_trip_and_clipping():
    nm = SceneNormalizer((1.0, -2.0, 0.5), 4.0)
    p = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.5], [100.0, 0.0, 0.0]])
    u = nm.unit_np(p)
    assert np.allclose(u[0], 0.5)
    assert np.allclose(u[1], [1.0, 1.0, 0.0])
    assert np.allclose(u[2], [1.0, 1.0, 0.375])  # clipped on x
    # tensor path agrees with the numpy path
    with ad.Tape():
        ut = nm.unit(ad.constant(p)).data
    assert np.allclose(ut, u, atol=1e-15)


def test_normalizer_unit4_appends_clamped_time():
    nm = SceneNormalizer((0.0, 0.0, 0.0), 2.0)
    p = np.zeros((3, 3))
    with ad.Tape():
        u = nm.unit4(ad.constant(p), 1.7).data
    assert u.shape == (3, 4)
    assert np.allclose(u[:, 3], 1.0)
    u4 = nm.unit4_np(p, -0.2)
    assert np.allclose(u4[:, 3], 0.0)


def test_normalizer_dict_round_trip():
    nm = SceneNormalizer((0.1, 0.2, 0.3), 5.5)
    clone = SceneNormalizer.from_dict(nm.to_dict())
    assert np.allclose(clone.center, nm.center)
    assert clone.scale == nm.scale


def test_normalizer_rejects_bad_scale():
    with pytest.raises(ValueError):
        SceneNormalizer((0, 0, 0), 0.0)


# ---------------------------------------------------------------- dynamic split

def test_partition_dynamic_hand_case():
    cam = camera_from_fov((0.0, 0.0, -3.0), (0.0, 0.0, 0.0), 45.0, 32, 32)
    # particle 0 center screen (in mask), particle 1 off to the side (out),
    # particle 2 behind the camera (never visible -> static)
    pos = np.array([[[0.0, 0.0, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, -5.0]]] * 2)
    mask = np.zeros((32, 32))
    mask[12:20, 12:20] = 1.0
    dyn = partition_dynamic(pos, [mask, mask], [cam, cam], fraction=0.3)
    assert dyn.tolist() == [True, False, False]


def test_partition_dynamic_fraction_threshold():
    cam = camera_from_fov((0.0, 0.0, -3.0), (0.0, 0.0, 0.0), 45.0, 32, 32)
    pos = np.zeros((4, 1, 3))  # one particle, image center, 4 frames
    hot = np.zeros((32, 32))
    hot[16, 16] = 1.0  # center pixel (15.5, 15.5) rounds to 16
    cold = np.zeros((32, 32))
    # in-mask for exactly 1 of 4 frames = 0.25
    masks = [hot, cold, cold, cold]
    cams = [cam] * 4
    assert not partition_dynamic(pos, masks, cams, fraction=0.3)[0]
    assert partition_dynamic(pos, masks, cams, fraction=0.25)[0]
