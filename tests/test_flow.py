"""Flow geometry and the two flow predictions, checked on hand-built scenes."""

import warnings

import numpy as np
import pytest

import pidg.autodiff as ad
import pidg.flow as flow_module
from pidg.camera import Camera, camera_from_fov
from pidg.config import RunConfig
from pidg.deform import DeformConfig
from pidg.flow import (
    SINGULAR_EIG,
    FlowField,
    SparseFlow,
    bilinear_sample,
    decompose_backward,
    eig2x2,
    frame_pair_flows,
    gaussian_flow,
    lpfm_loss,
    project_velocity,
    velocity_flow,
    warp_flow_forward,
)
from pidg.material import MaterialConfig
from pidg.render import Projection, RenderOutput, project, render
from pidg.synth import SceneSpec, generate, scene_data
from pidg.train import Trainer, model_params


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


# ---------------------------------------------------------------- fused transport

def _flows_oracle(out_t, out_t1, v_world, dt):
    """Both flow predictions as the unfused tape composition: every
    per-contributor step of the transport is its own tape node."""

    class Transport:
        def __init__(self):
            topk = out_t.topk_rows
            self.shape = topk.shape[:2]
            self.pv, self.pu = np.nonzero(topk[..., 0] >= 0)
            rows = topk[self.pv, self.pu]
            self.weights = out_t.topk_weights[self.pv, self.pu]
            n_rows = int(max(rows.max(initial=0), out_t.visible_rows.max(initial=0),
                             out_t1.visible_rows.max(initial=0))) + 1
            pos_t, pos_t1 = np.full(n_rows, -1), np.full(n_rows, -1)
            pos_t[out_t.visible_rows] = np.arange(len(out_t.visible_rows))
            pos_t1[out_t1.visible_rows] = np.arange(len(out_t1.visible_rows))
            safe = np.where(rows >= 0, rows, 0)
            it, it1 = pos_t[safe], pos_t1[safe]
            self.keep = (rows >= 0) & (it >= 0) & (it1 >= 0)
            self.it = np.where(self.keep, it, 0)
            self.it1 = np.where(self.keep, it1, 0)
            cov_t, cov_t1 = out_t.cov2d, out_t1.cov2d
            _, u_np = eig2x2(cov_t.data[:, 0], cov_t.data[:, 1], cov_t.data[:, 2])

            def quad(cov, idx, col_u):
                ca = ad.take_rows(cov, idx)
                ux, uy = col_u
                return (ad.mul(ca[:, 0], ux * ux) + 2.0 * ad.mul(ca[:, 1], ux * uy)
                        + ad.mul(ca[:, 2], uy * uy))

            it_f, it1_f = self.it.reshape(-1), self.it1.reshape(-1)
            u1 = (u_np[it_f, 0, 0], u_np[it_f, 1, 0])
            u2 = (u_np[it_f, 0, 1], u_np[it_f, 1, 1])
            lam1_t, lam2_t = quad(cov_t, it_f, u1), quad(cov_t, it_f, u2)
            lam1_t1, lam2_t1 = quad(cov_t1, it1_f, u1), quad(cov_t1, it1_f, u2)
            sing = ((lam1_t.data < SINGULAR_EIG) | (lam2_t.data < SINGULAR_EIG)
                    | (lam1_t1.data < SINGULAR_EIG) | (lam2_t1.data < SINGULAR_EIG))
            self.keep &= ~sing.reshape(self.keep.shape)
            guard = lambda t: ad.clip(t, SINGULAR_EIG, np.inf)
            s1 = ad.mul(ad.pow_const(guard(lam1_t1), 0.5), ad.pow_const(guard(lam1_t), -0.5))
            s2 = ad.mul(ad.pow_const(guard(lam2_t1), 0.5), ad.pow_const(guard(lam2_t), -0.5))
            (v1x, v1y), (v2x, v2y) = u1, u2
            self.a00 = ad.mul(s1, v1x * v1x) + ad.mul(s2, v2x * v2x)
            self.a01 = ad.mul(s1, v1x * v1y) + ad.mul(s2, v2x * v2y)
            self.a11 = ad.mul(s1, v1y * v1y) + ad.mul(s2, v2y * v2y)
            m2d_t = ad.take_rows(out_t.means2d, it_f)
            self.mu_t_x, self.mu_t_y = m2d_t[:, 0], m2d_t[:, 1]
            self.p1x = np.repeat(self.pu.astype(np.float64), self.keep.shape[1])
            self.p1y = np.repeat(self.pv.astype(np.float64), self.keep.shape[1])
            self.dx = ad.sub(ad.constant(self.p1x), self.mu_t_x)
            self.dy = ad.sub(ad.constant(self.p1y), self.mu_t_y)

        def combine(self, end_x, end_y):
            fx = ad.add(ad.mul(self.a00, self.dx), ad.mul(self.a01, self.dy))
            fy = ad.add(ad.mul(self.a01, self.dx), ad.mul(self.a11, self.dy))
            fx = ad.sub(ad.add(fx, end_x), ad.constant(self.p1x))
            fy = ad.sub(ad.add(fy, end_y), ad.constant(self.p1y))
            wn = self.weights * self.keep
            tot = wn.sum(axis=1)
            ok = tot > 0.0
            wn = wn / np.where(ok, tot, 1.0)[:, None]
            n_pix, k = self.keep.shape
            fxw = ad.sum_(ad.mul(ad.reshape(fx, (n_pix, k)), wn), axis=1)
            fyw = ad.sum_(ad.mul(ad.reshape(fy, (n_pix, k)), wn), axis=1)
            return SparseFlow(self.shape, self.pv, self.pu, ad.stack([fxw, fyw], axis=1), ok)

    tr = Transport()
    m2d_t1 = ad.take_rows(out_t1.means2d, tr.it1.reshape(-1))
    flow_g = tr.combine(m2d_t1[:, 0], m2d_t1[:, 1])
    tr = Transport()
    vbar = project_velocity(out_t.camera, out_t.means2d, out_t.depths, v_world)
    vbar_g = ad.take_rows(vbar, tr.it.reshape(-1))
    end_x = ad.add(tr.mu_t_x, ad.mul(vbar_g[:, 0], float(dt)))
    end_y = ad.add(tr.mu_t_y, ad.mul(vbar_g[:, 1], float(dt)))
    return flow_g, tr.combine(end_x, end_y)


def _transport_case(seed, h=6, w=7, k=4, n=14, t1_as="render", singular=(), hidden_t1=(),
                    covered=True):
    """Random frame pair over hand-built visible rows; ``build()`` returns fresh
    leaf tensors (out_t, out_t1, v_world) each call. Rows in ``singular`` get a
    degenerate covariance at t+1; rows in ``hidden_t1`` are not visible at t+1."""
    rng = np.random.default_rng(seed)
    cam = camera_from_fov((0.2, -0.1, -3.0), (0.0, 0.0, 0.0), 45.0, w, h)
    rows_t = rng.permutation(n + 3)[:n]  # cloud rows visible at t, not 0..n-1
    rows_t1 = np.array([r for r in rng.permutation(rows_t) if r not in set(rows_t[list(hidden_t1)])])

    def covs(m):
        lam = rng.uniform(0.3, 4.0, (m, 2))
        th = rng.uniform(0.0, np.pi, m)
        c, s = np.cos(th), np.sin(th)
        return np.stack([lam[:, 0] * c * c + lam[:, 1] * s * s, (lam[:, 0] - lam[:, 1]) * c * s,
                         lam[:, 0] * s * s + lam[:, 1] * c * c], axis=1)

    means_t = rng.uniform(0.0, w, (n, 2))
    cov_t = covs(n)
    pos_t1 = {r: i for i, r in enumerate(rows_t1)}
    m = len(rows_t1)
    means_t1 = rng.uniform(0.0, w, (m, 2))
    cov_t1 = covs(m)
    for i in singular:
        if rows_t[i] in pos_t1:
            cov_t1[pos_t1[rows_t[i]]] = [1e-14, 0.0, 1e-14]
    depths = rng.uniform(2.0, 4.0, n)
    v_world = rng.normal(scale=0.5, size=(n, 3))
    topk = rows_t[rng.integers(0, n, (h, w, k))]  # repeats rows within and across pixels
    topk[rng.uniform(size=(h, w, k)) < 0.3] = -1  # -1 pads, some pixels uncovered
    topk[0, 1] = [rows_t[0], rows_t[0]] + [-1] * (k - 2)  # one row, repeated, and pads
    if not covered:
        topk[:] = -1
    weights = np.where(topk >= 0, rng.uniform(0.05, 1.0, (h, w, k)), 0.0)
    gt = FlowField(rng.normal(scale=1.5, size=(h, w, 2)), np.ones((h, w), dtype=bool))
    mask = np.ones((h, w))

    def build():
        out_t = RenderOutput(ad.constant(np.zeros((h, w, 4))), np.ones((h, w)), topk, weights, rows_t,
                             ad.parameter(means_t), ad.parameter(cov_t), ad.parameter(depths), cam, 0.0)
        if t1_as == "render":
            out_t1 = RenderOutput(ad.constant(np.zeros((h, w, 4))), np.ones((h, w)), topk, weights,
                                  rows_t1, ad.parameter(means_t1), ad.parameter(cov_t1),
                                  ad.constant(np.full(m, 3.0)), cam, 0.25)
        else:
            out_t1 = Projection(rows_t1, ad.constant(np.zeros((m, 3))), ad.parameter(means_t1),
                                ad.parameter(cov_t1), ad.constant(np.ones((m, 3))),
                                ad.constant(np.full(m, 3.0)), cam, 0.25)
        return out_t, out_t1, ad.parameter(v_world)

    return build, gt, mask


def _run_flows(flows, out_t, out_t1, v_world, gt, mask):
    """Both flows, then their flow-matching loss's gradients at the inputs."""
    with ad.Tape() as tape:
        flow_g, flow_v = flows(out_t, out_t1, v_world, 0.25)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a case may supervise no pixel
            loss = lpfm_loss(flow_g, flow_v, gt, mask, 0.5, 0.5)
        inputs = [out_t.means2d, out_t1.means2d, out_t.cov2d, out_t1.cov2d, out_t.depths, v_world]
        grads = tape.grad(loss, inputs) if loss.requires_grad else [None] * len(inputs)
    return flow_g, flow_v, grads


def _fused_flows(out_t, out_t1, v_world, dt):
    return gaussian_flow(out_t, out_t1), velocity_flow(out_t, out_t1, v_world, dt)


def _assert_fused_matches_oracle(build, gt, mask):
    got = _run_flows(_fused_flows, *build(), gt, mask)
    want = _run_flows(_flows_oracle, *build(), gt, mask)
    for f_got, f_want in zip(got[:2], want[:2]):
        assert f_got.vec.data.tobytes() == f_want.vec.data.tobytes()
        assert f_got.valid.tobytes() == f_want.valid.tobytes()
    for name, g_got, g_want in zip(("means2d_t", "means2d_t1", "cov_t", "cov_t1", "depths", "v_world"),
                                   got[2], want[2]):
        assert (g_got is None) == (g_want is None), name
        assert g_got is None or g_got.tobytes() == g_want.tobytes(), name
    return got


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("t1_as", ["render", "projection"])
def test_fused_flows_match_tape_oracle(seed, t1_as):
    build, gt, mask = _transport_case(seed, t1_as=t1_as, hidden_t1=(5,))
    flow_g, flow_v, grads = _assert_fused_matches_oracle(build, gt, mask)
    assert flow_g.valid.any() and flow_v.valid.any()
    assert all(np.any(g != 0.0) for g in grads)


def test_fused_flows_match_oracle_with_dropped_contributors():
    # rows 0-3 are singular at t+1 and rows 4-6 hidden at t+1; pixel (0, 1)
    # holds only row 0, so all of its contributors are dropped
    build, gt, mask = _transport_case(7, singular=(0, 1, 2, 3), hidden_t1=(4, 5, 6))
    flow_g, _, grads = _assert_fused_matches_oracle(build, gt, mask)
    hit = (flow_g.pix_v == 0) & (flow_g.pix_u == 1)
    assert hit.any() and not flow_g.valid[hit].any()
    assert all(np.any(g != 0.0) for g in grads)


def test_fused_flows_match_oracle_with_no_covered_pixel():
    build, gt, mask = _transport_case(8, covered=False)
    flow_g, flow_v, grads = _assert_fused_matches_oracle(build, gt, mask)
    assert flow_g.vec.shape == flow_v.vec.shape == (0, 2)


def test_fused_flows_match_oracle_on_a_trained_frame_pair():
    """A real stage-2 frame pair through ``frame_pair_flows``: both flows and
    the gradient at every projected flow input and model parameter are
    bit-equal (the gradient at ``v_world`` reaches the material's)."""
    cfg = RunConfig(iterations=4, stage_switch=0.25, init_particles=20, max_particles=40, top_k=4,
                    cmr_samples=8, cmr_block=8,
                    deform=DeformConfig(spatial_levels=2, spatial_base=4, spatial_max=8,
                                        temporal_levels=2, time_base=2, time_max=4, table_size_log2=8,
                                        feature_dim=2, attn_width=8, hidden_width=16),
                    material=MaterialConfig(plane_levels=2, plane_base=4, plane_max=8, table_size=256,
                                            fourier_n=2, embed_dim=4, hidden_width=16))
    data = scene_data(generate(SceneSpec(variant="rigid", frames=3, width=24, height=24,
                                         num_particles=12, translate=(0.3, 0.1, 0.0),
                                         base_scale=0.07, seed=5)))
    tr = Trainer(cfg, data)
    tr.step()
    tr.step()
    f = 1
    model = dict(deform_field=tr.deform, normalizer=tr.normalizer, respect_dynamic_mask=True)
    params = list(model_params(tr.cloud, tr.deform, tr.material).values())
    results = []
    for fused in (True, False):
        with ad.Tape() as tape:
            out = render(tr.cloud, data.cameras[f], data.times[f], settings=tr.settings, **model)
            out1 = project(tr.cloud, data.cameras[f + 1], data.times[f + 1], **model)
            # a zero leaf added to each projected flow input gets that input's gradient
            probes = [ad.parameter(np.zeros(x.shape)) for x in
                      (out.means2d, out1.means2d, out.cov2d, out1.cov2d, out.depths)]
            out.means2d = ad.add(out.means2d, probes[0])
            out.cov2d = ad.add(out.cov2d, probes[2])
            out.depths = ad.add(out.depths, probes[4])
            out1 = out1._replace(means2d=ad.add(out1.means2d, probes[1]), cov2d=ad.add(out1.cov2d, probes[3]))
            if fused:
                flow_g, flow_v, v_world = frame_pair_flows(out, out1, tr.cloud.ids, tr.material,
                                                           tr.normalizer)
            else:
                p4 = tr.normalizer.unit4_np(out.positions_world, out.t)
                v_norm, _ = tr.material.evaluate(p4, tr.cloud.ids[out.visible_rows])
                v_world = ad.mul(v_norm, tr.normalizer.scale)
                flow_g, flow_v = _flows_oracle(out, out1, v_world, out1.t - out.t)
            loss = lpfm_loss(flow_g, flow_v, tr._gt_flow(f), data.masks[f], 0.5, 0.5)
            grads = tape.grad(loss, probes + params)
        results.append((flow_g, flow_v, grads))
    (g_f, v_f, grads_f), (g_o, v_o, grads_o) = results
    for a, b in ((g_f, g_o), (v_f, v_o)):
        assert a.vec.data.tobytes() == b.vec.data.tobytes() and a.valid.tobytes() == b.valid.tobytes()
    assert g_f.valid.any()
    for i, (a, b) in enumerate(zip(grads_f, grads_o)):
        assert a.tobytes() == b.tobytes(), i
    assert all(np.any(g != 0.0) for g in grads_f[:5])


def test_fused_flow_nan_covariance_aborts():
    build, _, _ = _transport_case(9)
    out_t, out_t1, v_world = build()
    out_t1.cov2d.data[:] = np.nan
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError, match="gaussian_flow"):
            gaussian_flow(out_t, out_t1)
        with pytest.raises(ad.NonFiniteError, match="velocity_flow"):
            velocity_flow(out_t, out_t1, v_world, 0.25)


def _trainer_before_stage2() -> Trainer:
    cfg = RunConfig(iterations=4, stage_switch=0.25, init_particles=20, max_particles=40, top_k=4,
                    cmr_samples=8, cmr_block=8)
    data = scene_data(generate(SceneSpec(variant="rigid", frames=3, width=24, height=24,
                                         num_particles=12, seed=5)))
    tr = Trainer(cfg, data)
    tr.step()
    return tr


def test_stage2_step_records_one_node_per_flow_prediction(monkeypatch):
    tr = _trainer_before_stage2()
    ops = []
    backward = ad.Tape.backward

    def counting_backward(tape, out, seed=1.0):
        ops.extend(node.op for node in tape.nodes)
        return backward(tape, out, seed)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)
    assert tr.stage() == 2 and tr.step()["loss_lpfm"] > 0.0
    assert ops.count("gaussian_flow") == 1 and ops.count("velocity_flow") == 1


def test_stage2_step_builds_the_frame_pair_transport_once(monkeypatch):
    # the four same-axes eigenvalues of each contributor are evaluated once
    # per frame pair, not again by each flow's forward and VJP
    tr = _trainer_before_stage2()
    calls = []
    quad = flow_module._quad

    def counting_quad(*args):
        calls.append(1)
        return quad(*args)

    monkeypatch.setattr(flow_module, "_quad", counting_quad)
    assert tr.stage() == 2 and tr.step()["loss_lpfm"] > 0.0
    assert len(calls) == 4
