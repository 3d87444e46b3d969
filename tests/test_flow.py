"""Flow geometry and the two flow predictions, checked on hand-built scenes."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.camera import Camera, camera_from_fov
from pidg.flow import (
    FlowField,
    SparseFlow,
    bilinear_sample,
    decompose_backward,
    eig2x2,
    gaussian_flow,
    lpfm_loss,
    project_velocity,
    velocity_flow,
    warp_flow_forward,
)
from pidg.render import RenderOutput


# ---------------------------------------------------------------- basic types

def test_flow_field_zeroes_invalid_vectors():
    v = np.ones((3, 4, 2))
    ok = np.ones((3, 4), dtype=bool)
    ok[1, 2] = False
    f = FlowField(v, ok)
    assert np.array_equal(f.vectors[1, 2], [0.0, 0.0])
    assert f.vectors[0, 0, 0] == 1.0
    assert (f.height, f.width) == (3, 4)
    assert np.isclose(f.magnitude()[0, 0], np.sqrt(2.0))


def test_flow_field_shape_validation():
    with pytest.raises(ValueError):
        FlowField(np.zeros((3, 4, 3)), np.ones((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        FlowField(np.zeros((3, 4, 2)), np.ones((4, 3), dtype=bool))


# ---------------------------------------------------------------- sampling

def test_bilinear_sample_exact_values_and_strict_validity():
    grid = np.arange(12, dtype=np.float64).reshape(3, 4, 1)
    ok = np.ones((3, 4), dtype=bool)
    # interior point: value is the bilinear blend of the 4 corners
    vals, good = bilinear_sample(grid, ok, np.array([[1.5, 0.5]]))
    want = 0.25 * (grid[0, 1, 0] + grid[0, 2, 0] + grid[1, 1, 0] + grid[1, 2, 0])
    assert good[0] and np.isclose(vals[0, 0], want)
    # integer position returns the pixel itself
    vals, good = bilinear_sample(grid, ok, np.array([[2.0, 1.0]]))
    assert good[0] and vals[0, 0] == grid[1, 2, 0]
    # one invalid corner poisons the sample
    ok2 = ok.copy()
    ok2[1, 2] = False
    vals, good = bilinear_sample(grid, ok2, np.array([[1.5, 0.5]]))
    assert not good[0] and vals[0, 0] == 0.0
    # out of bounds
    for p in ([[-0.5, 1.0]], [[3.5, 1.0]], [[1.0, 2.5]]):
        _, good = bilinear_sample(grid, ok, np.array(p, dtype=np.float64))
        assert not good[0]


def test_warp_identity_under_zero_flow():
    rng = np.random.default_rng(0)
    field = FlowField(rng.normal(size=(5, 6, 2)), np.ones((5, 6), dtype=bool))
    warped = warp_flow_forward(field, FlowField.zeros(5, 6))
    # strict 4-corner validity: the bottom row / right column have no complete
    # interpolation cell, everything else reproduces the input exactly
    assert warped.valid[:4, :5].all()
    assert not warped.valid[4, :].any() and not warped.valid[:, 5].any()
    assert np.allclose(warped.vectors[:4, :5], field.vectors[:4, :5], atol=1e-14)


def test_warp_invalidates_exiting_correspondences():
    field = FlowField(np.ones((4, 4, 2)), np.ones((4, 4), dtype=bool))
    push = FlowField.constant(4, 4, 2.0, 0.0)  # shifts everything right
    warped = warp_flow_forward(field, push)
    assert not warped.valid[:, 2:].any()  # targets leave the image
    assert warped.valid[:3, 0].all()  # bottom row has no interpolation cell


# ---------------------------------------------------------------- eigen math

def test_eig2x2_matches_numpy_eigh():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = rng.normal(size=3)
        lam, u = eig2x2(a, b, c)
        lam, u = lam[0], u[0]
        ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        assert np.allclose(sorted(lam), ref, atol=1e-12)
        # columns are unit eigenvectors with positive orientation
        m = np.array([[a, b], [b, c]])
        for k in range(2):
            assert np.allclose(m @ u[:, k], lam[k] * u[:, k], atol=1e-10)
        assert np.isclose(np.linalg.det(u), 1.0, atol=1e-12)


def test_eig2x2_isotropic_gets_identity_basis():
    lam, u = eig2x2(2.0, 0.0, 2.0)
    assert np.allclose(lam[0], [2.0, 2.0])
    assert np.allclose(u[0], np.eye(2))


# ---------------------------------------------------------------- decomposition

def make_plane_scene(cam_t, cam_t1, h, w, z_world=0.0):
    """Depth map of the world plane z = z_world as seen by cam_t1."""
    grid_u, grid_v = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    pix = np.stack([grid_u.reshape(-1), grid_v.reshape(-1)], axis=1)
    # ray-plane intersection in world space
    origin = cam_t1.center
    dirs = cam_t1.backproject(pix, np.ones(len(pix))) - origin
    s = (z_world - origin[2]) / dirs[:, 2]
    world = origin + s[:, None] * dirs
    depth = cam_t1.world_to_cam(world)[:, 2].reshape(h, w)
    return world.reshape(h, w, 3), depth


def test_decompose_static_world_gives_zero_motion():
    h = w = 24
    cam_t = camera_from_fov((0.0, 0.3, -2.5), (0.0, 0.0, 0.0), 45.0, w, h)
    cam_t1 = camera_from_fov((0.4, 0.1, -2.4), (0.0, 0.0, 0.0), 45.0, w, h)
    world, depth = make_plane_scene(cam_t, cam_t1, h, w)
    # true backward flow of the static plane: p1 = cam_t projection of the point
    p1, z1 = cam_t.project(world.reshape(-1, 3))
    grid_u, grid_v = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    p4 = np.stack([grid_u.reshape(-1), grid_v.reshape(-1)], axis=1)
    flow_b = FlowField((p1 - p4).reshape(h, w, 2), np.ones((h, w), dtype=bool))
    cam_flow, motion = decompose_backward(flow_b, depth, cam_t, cam_t1)
    assert motion.valid.any()
    assert np.max(np.abs(motion.vectors[motion.valid])) < 1e-9
    # the camera component carries the whole flow
    assert np.allclose(cam_flow.vectors[motion.valid], -flow_b.vectors.reshape(h, w, 2)[motion.valid], atol=1e-9)


def test_decompose_static_camera_motion_is_forward_flow():
    h = w = 16
    cam = camera_from_fov((0.0, 0.0, -2.0), (0.0, 0.0, 0.0), 45.0, w, h)
    _, depth = make_plane_scene(cam, cam, h, w)
    rng = np.random.default_rng(3)
    flow_b = FlowField(rng.normal(scale=0.5, size=(h, w, 2)), np.ones((h, w), dtype=bool))
    cam_flow, motion = decompose_backward(flow_b, depth, cam, cam)
    sel = motion.valid
    assert sel.any()
    # same camera at both times: camera flow vanishes, motion = -backward flow
    assert np.max(np.abs(cam_flow.vectors[sel])) < 1e-9
    assert np.allclose(motion.vectors[sel], -flow_b.vectors[sel], atol=1e-9)


def test_decompose_clears_validity():
    h = w = 8
    cam = camera_from_fov((0.0, 0.0, -2.0), (0.0, 0.0, 0.0), 45.0, w, h)
    _, depth = make_plane_scene(cam, cam, h, w)
    depth[2, 3] = 0.0  # hole in depth
    ok = np.ones((h, w), dtype=bool)
    ok[5, 5] = False  # hole in flow
    flow_b = FlowField(np.zeros((h, w, 2)), ok)
    _, motion = decompose_backward(flow_b, depth, cam, cam)
    assert not motion.valid[2, 3]
    assert not motion.valid[5, 5]


# ---------------------------------------------------------------- predictions

def fake_pair(means_t, means_t1, cov_t, cov_t1, topk_rows, topk_w, shape,
              depths=None, camera=None):
    """Minimal RenderOutput pair for the transport math."""
    h, w = shape
    k = topk_rows.shape[2]
    n = means_t.shape[0]
    cam = camera or camera_from_fov((0, 0, -3), (0, 0, 0), 45.0, w, h)
    z = np.full(n, 3.0) if depths is None else depths

    def make(means, cov):
        return RenderOutput(
            ad.constant(np.zeros((h, w, 4))),
            np.ones((h, w)),
            topk_rows,
            topk_w,
            np.arange(n),
            ad.parameter(np.asarray(means, dtype=np.float64)),
            ad.parameter(np.asarray(cov, dtype=np.float64)),
            ad.constant(z.astype(np.float64)),
            cam,
            0.0,
        )

    return make(means_t, cov_t), make(means_t1, cov_t1)


def test_gaussian_flow_anisotropic_hand_case():
    # lambda (1,1) -> (4,1), identity basis; p1 - mu = (1,0); mu moves (0,0)->(1,0)
    # transported point: diag(2,1) @ (1,0) + (1,0) = (3,0); flow = (2,0) exactly
    h, w, k = 1, 2, 2
    topk = np.full((h, w, k), -1, dtype=np.int64)
    wts = np.zeros((h, w, k))
    topk[0, 1, 0] = 0
    wts[0, 1, 0] = 1.0
    out_t, out_t1 = fake_pair(
        np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
        np.array([[1.0, 0.0, 1.0]]), np.array([[4.0, 0.0, 1.0]]),
        topk, wts, (h, w))
    with ad.Tape():
        f = gaussian_flow(out_t, out_t1)
    assert f.valid[0]
    assert np.array_equal(f.vec.data[0], [2.0, 0.0])


def test_gaussian_flow_pure_translation_is_exact():
    # equal covariances: the scale transform is the identity (to rounding of
    # sqrt(lam)/sqrt(lam)), so every pixel's flow is the mean displacement
    rng = np.random.default_rng(4)
    h, w, k, n = 4, 5, 3, 2
    delta = np.array([0.75, -0.4])
    means_t = rng.uniform(0.0, 4.0, (n, 2))
    means_t1 = means_t + delta
    r = rng.normal(size=(n, 2, 2))
    covs = np.stack([m @ m.T + 2 * np.eye(2) for m in r])
    cov_flat = np.stack([covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]], axis=1)
    topk = np.full((h, w, k), -1, dtype=np.int64)
    wts = np.zeros((h, w, k))
    topk[..., 0] = rng.integers(0, n, (h, w))
    wts[..., 0] = 1.0
    out_t, out_t1 = fake_pair(means_t, means_t1, cov_flat, cov_flat, topk, wts, (h, w))
    with ad.Tape():
        f = gaussian_flow(out_t, out_t1)
    assert f.valid.all()
    assert np.max(np.abs(f.vec.data - delta)) < 1e-12


def test_gaussian_flow_renormalizes_dropped_contributors():
    # second contributor is invisible at t+1 -> weight renormalizes onto the first
    h, w, k = 1, 1, 2
    topk = np.array([[[0, 1]]], dtype=np.int64)
    wts = np.array([[[0.6, 0.4]]])
    means_t = np.array([[0.0, 0.0], [5.0, 5.0]])
    means_t1 = np.array([[1.0, 0.0]])  # only particle 0 visible at t+1
    cov = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
    cam = camera_from_fov((0, 0, -3), (0, 0, 0), 45.0, w, h)

    out_t = RenderOutput(ad.constant(np.zeros((h, w, 4))), np.ones((h, w)), topk, wts,
                         np.array([0, 1]), ad.parameter(means_t), ad.parameter(cov),
                         ad.constant(np.full(2, 3.0)), cam, 0.0)
    out_t1 = RenderOutput(ad.constant(np.zeros((h, w, 4))), np.ones((h, w)), topk, wts,
                          np.array([0]), ad.parameter(means_t1), ad.parameter(cov[:1]),
                          ad.constant(np.full(1, 3.0)), cam, 0.0)
    with ad.Tape():
        f = gaussian_flow(out_t, out_t1)
    # only particle 0 contributes: flow = its translation (1, 0)
    assert f.valid[0]
    assert np.allclose(f.vec.data[0], [1.0, 0.0], atol=1e-14)


def test_gaussian_flow_gradients_flow_to_means():
    h, w, k = 1, 2, 1
    topk = np.full((h, w, k), -1, dtype=np.int64)
    wts = np.zeros((h, w, k))
    topk[0, 1, 0] = 0
    wts[0, 1, 0] = 1.0
    out_t, out_t1 = fake_pair(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]),
                              np.array([[1.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 1.0]]),
                              topk, wts, (h, w))
    with ad.Tape() as tape:
        f = gaussian_flow(out_t, out_t1)
        loss = ad.sum_(f.vec)
        tape.backward(loss)
    # flow = mu_t1 - mu_t + (identity - I)(p1 - mu_t); d flow / d mu_t1 = I
    assert np.allclose(out_t1.means2d.grad, [[1.0, 1.0]])
    assert np.allclose(out_t.means2d.grad, [[-1.0, -1.0]])


def test_project_velocity_matches_fd_reprojection():
    cam = camera_from_fov((0.5, -0.2, -2.8), (0.0, 0.1, 0.0), 50.0, 32, 32)
    rng = np.random.default_rng(5)
    x_world = rng.normal(scale=0.3, size=(6, 3))
    v_world = rng.normal(scale=0.5, size=(6, 3))
    px, z = cam.project(x_world)
    with ad.Tape():
        vbar = project_velocity(cam, ad.constant(px), ad.constant(z), ad.constant(v_world)).data
    h = 1e-7
    px_p, _ = cam.project(x_world + h * v_world)
    px_m, _ = cam.project(x_world - h * v_world)
    fd = (px_p - px_m) / (2 * h)
    assert np.max(np.abs(vbar - fd)) < 1e-6


def test_velocity_flow_translation_hand_case():
    # equal covariances -> flow = vbar * dt at every covered pixel
    h, w, k = 2, 2, 1
    topk = np.zeros((h, w, k), dtype=np.int64)
    wts = np.ones((h, w, k))
    cam = Camera(100.0, 100.0, 0.5, 0.5, np.eye(3), np.zeros(3), w, h)
    means = np.array([[0.5, 0.5]])
    cov = np.array([[2.0, 0.3, 1.0]])
    depths = np.array([4.0])
    out_t, out_t1 = fake_pair(means, means, cov, cov, topk, wts, (h, w),
                              depths=depths, camera=cam)
    v_world = np.array([[0.8, -0.4, 0.0]])  # no z motion keeps it linear
    with ad.Tape():
        f = velocity_flow(out_t, out_t1, ad.constant(v_world), dt=0.25)
    # pixel velocity = (fx * vx / z, fy * vy / z)
    want = np.array([100.0 * 0.8 / 4.0, 100.0 * (-0.4) / 4.0]) * 0.25
    assert np.allclose(f.vec.data, want, atol=1e-12)


# ---------------------------------------------------------------- loss

def test_lpfm_loss_weight_arithmetic():
    shape = (2, 3)
    pv = np.array([0, 0, 1])
    pu = np.array([0, 1, 2])
    with ad.Tape():
        g = SparseFlow(shape, pv, pu, ad.constant(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])),
                       np.array([True, True, True]))
        v = SparseFlow(shape, pv, pu, ad.constant(np.array([[0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])),
                       np.array([True, True, True]))
        gt_vec = np.zeros(shape + (2,))
        gt = FlowField(gt_vec, np.ones(shape, dtype=bool))
        mask = np.ones(shape)
        mask[1, 2] = 0.0  # drops the third sample
        loss = lpfm_loss(g, v, gt, mask, lambda_g=0.7, lambda_v=0.3)
    # remaining pixels: |g| L1 = (1, 2) -> mean 1.5 ; |v| L1 = (0.5, 1) -> 0.75
    assert np.isclose(loss.data, 0.7 * 1.5 + 0.3 * 0.75, atol=1e-14)


def test_lpfm_loss_zero_pixels_warns():
    shape = (2, 2)
    pv, pu = np.array([0]), np.array([0])
    with ad.Tape():
        g = SparseFlow(shape, pv, pu, ad.constant(np.zeros((1, 2))), np.array([True]))
        v = SparseFlow(shape, pv, pu, ad.constant(np.zeros((1, 2))), np.array([True]))
        gt = FlowField.zeros(2, 2)
        with pytest.warns(UserWarning):
            loss = lpfm_loss(g, v, gt, np.zeros(shape), 0.5, 0.5)
    assert loss.data == 0.0


def test_lpfm_loss_rejects_mismatched_pixel_sets():
    with ad.Tape():
        g = SparseFlow((2, 2), np.array([0]), np.array([0]),
                       ad.constant(np.zeros((1, 2))), np.array([True]))
        v = SparseFlow((2, 2), np.array([0, 1]), np.array([0, 1]),
                       ad.constant(np.zeros((2, 2))), np.array([True, True]))
        with pytest.raises(ValueError):
            lpfm_loss(g, v, FlowField.zeros(2, 2), np.ones((2, 2)), 0.5, 0.5)
