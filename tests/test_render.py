"""Rasterizer: brute-force agreement, thread determinism, gradients, compositing."""

import importlib

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.camera import camera_from_fov
from pidg.render import (
    RenderSettings,
    composite_alphas,
    render,
    render_brute_force,
)
from pidg.scene import GaussianCloud


def random_cloud(rng, n, radius=0.5):
    cloud = GaussianCloud.random_init(rng, n, (0.0, 0.0, 0.0), radius,
                                      base_scale=0.05, opacity=0.6)
    cloud.quat.data = rng.normal(size=(n, 4))
    cloud.log_scale.data = np.log(rng.uniform(0.02, 0.12, (n, 3)))
    cloud.sh.data = rng.normal(scale=0.3, size=(n, 4, 3))
    cloud.opacity_logit.data = rng.normal(scale=1.0, size=n)
    return cloud


def make_camera(w=32, h=24):
    return camera_from_fov((0.4, 0.3, -2.5), (0.0, 0.0, 0.0), 50.0, w, h)


@pytest.mark.parametrize("seed", range(4))
def test_tiled_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, int(rng.integers(5, 50)))
    cam = make_camera()
    settings = RenderSettings(threads=1)
    with ad.Tape():
        out = render(cloud, cam, 0.0, settings=settings)
    ref = render_brute_force(cloud, cam, settings)
    assert np.max(np.abs(out.raw.data - ref)) < 1e-10


def test_threads_bit_identical():
    rng = np.random.default_rng(10)
    cloud = random_cloud(rng, 40)
    cam = make_camera(48, 48)
    outs = []
    for threads in (1, 2, 4):
        with ad.Tape():
            outs.append(render(cloud, cam, 0.0, settings=RenderSettings(threads=threads)))
    # the top-k lists are built after the tapes have closed, on first read
    a = outs[0]
    for b in outs[1:]:
        assert a.raw.data.tobytes() == b.raw.data.tobytes()
        assert a.topk_rows.tobytes() == b.topk_rows.tobytes()
        assert a.topk_weights.tobytes() == b.topk_weights.tobytes()
        assert a.t_final.tobytes() == b.t_final.tobytes()


def test_tile_size_does_not_change_image():
    rng = np.random.default_rng(11)
    cloud = random_cloud(rng, 25)
    cam = make_camera(40, 28)
    imgs = []
    for tile in (8, 16, 64):
        with ad.Tape():
            imgs.append(render(cloud, cam, 0.0, settings=RenderSettings(tile_size=tile)).raw.data.copy())
    # tile partitioning changes summation order, so agreement is to rounding,
    # not bitwise (bitwise invariance is across THREADS, tested above)
    assert np.max(np.abs(imgs[0] - imgs[1])) < 1e-12
    assert np.max(np.abs(imgs[1] - imgs[2])) < 1e-12


def test_empty_cloud_renders_background():
    cloud = GaussianCloud(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)),
                          np.zeros((0, 4, 3)), np.zeros(0), np.zeros(0, dtype=np.int64))
    cam = make_camera(8, 8)
    with ad.Tape():
        out = render(cloud, cam, 0.0, settings=RenderSettings(bg_color=(0.2, 0.3, 0.4), bg_depth=7.0))
    assert np.allclose(out.image_np(), [0.2, 0.3, 0.4])
    assert np.allclose(out.depth_np(), 7.0)
    assert np.all(out.t_final == 1.0)
    assert np.all(out.topk_rows == -1)


def test_behind_camera_renders_background():
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, 5)
    cloud.mu.data[:, 2] = -50.0  # far behind the camera
    cam = make_camera(8, 8)
    with ad.Tape():
        out = render(cloud, cam, 0.0)
    assert np.allclose(out.image_np(), 0.0)
    assert len(out.visible_rows) == 0


def test_topk_weights_normalized_single_particle():
    cloud = GaussianCloud(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 0, 0, 0]]),
                          np.log(np.full((1, 3), 0.2)), np.zeros((1, 4, 3)),
                          np.array([3.0]), np.array([0]))
    cam = make_camera(16, 16)
    with ad.Tape():
        out = render(cloud, cam, 0.0)
    covered = out.topk_rows[:, :, 0] >= 0
    assert covered.any()
    assert np.allclose(out.topk_weights[covered][:, 0], 1.0, atol=1e-12)
    assert np.all(out.topk_weights[covered][:, 1:] == 0.0)
    # alpha-expected depth normalized by coverage recovers the camera depth
    w = out.topk_weights[covered][:, 0]
    dep = out.depth_np()[covered]
    tf = out.t_final[covered]
    z = cam.world_to_cam(cloud.mu.data)[0, 2]
    assert np.allclose(dep / (1.0 - tf), z, atol=1e-9)


def test_topk_weights_sum_to_one_with_many_contributors():
    rng = np.random.default_rng(13)
    cloud = random_cloud(rng, 6)
    cloud.mu.data *= 0.05  # pile everyone near the origin so they overlap
    cam = make_camera(16, 16)
    with ad.Tape():
        out = render(cloud, cam, 0.0, settings=RenderSettings(top_k=8))
    covered = out.topk_rows[:, :, 0] >= 0
    sums = out.topk_weights[covered].sum(axis=1)
    assert np.all(sums <= 1.0 + 1e-12)
    # with at most 6 contributors and k=8 the normalized weights sum to 1
    assert np.allclose(sums, 1.0, atol=1e-12)


def brute_force_topk(out, cloud, settings):
    """Per-pixel top-k from every visible contributor in depth order: the
    compositing weights a_i T_i, normalised by their sum, stable-sorted by
    weight, with rows -1 where the weight is 0."""
    rows = out.visible_rows
    m2d = out.means2d.data
    a, b, c = out.cov2d.data.T
    det = a * c - b * b
    ia, ib, ic = c / det, -b / det, a / det
    opac = 1.0 / (1.0 + np.exp(-cloud.opacity_logit.data[rows]))
    order = np.lexsort((cloud.ids[rows], out.depths.data))
    shape = out.t_final.shape + (settings.top_k,)
    h, w, k = shape
    want_rows = np.full(shape, -1, dtype=np.int64)
    want_w = np.zeros(shape)
    for py in range(h):
        for px in range(w):
            trans, weights = 1.0, []
            for i in order:
                dx, dy = px - m2d[i, 0], py - m2d[i, 1]
                q = ia[i] * dx * dx + 2.0 * ib[i] * dx * dy + ic[i] * dy * dy
                alpha = min(opac[i] * np.exp(-0.5 * q), settings.alpha_max)
                if q > settings.support_chi2 or alpha < settings.alpha_min:
                    alpha = 0.0
                weights.append(alpha * trans)
                trans *= 1.0 - alpha
            weights = np.array(weights)
            if weights.sum() <= 0.0:
                continue
            nw = weights / weights.sum()
            pick = np.argsort(-nw, kind="stable")[:k]
            n = len(pick)
            want_rows[py, px, :n] = np.where(nw[pick] > 0.0, rows[order[pick]], -1)
            want_w[py, px, :n] = nw[pick]
    return want_rows, want_w


def test_topk_matches_per_pixel_reference():
    rng = np.random.default_rng(16)
    cloud = random_cloud(rng, 12, radius=0.3)
    cloud.log_scale.data = np.log(rng.uniform(0.15, 0.4, (12, 3)))  # overlap: k slots fill
    cam = make_camera(16, 16)
    settings = RenderSettings(top_k=4, tile_size=8)
    with ad.Tape():
        out = render(cloud, cam, 0.0, settings=settings)
    want_rows, want_w = brute_force_topk(out, cloud, settings)
    assert (want_rows[..., -1] >= 0).sum() > 128
    assert np.array_equal(out.topk_rows, want_rows)
    assert np.allclose(out.topk_weights, want_w, rtol=0.0, atol=1e-12)


def test_topk_built_once_on_first_read(monkeypatch):
    render_module = importlib.import_module("pidg.render")
    builds = []
    build = render_module._topk_lists
    monkeypatch.setattr(render_module, "_topk_lists", lambda *a: builds.append(1) or build(*a))
    rng = np.random.default_rng(17)
    cloud = random_cloud(rng, 10)
    with ad.Tape():
        out = render(cloud, make_camera(16, 16), 0.0)
    assert builds == []  # a forward-only render builds no top-k lists
    rows, weights = out.topk_rows, out.topk_weights
    assert out.topk_rows is rows and out.topk_weights is weights
    assert builds == [1]


def test_composite_alphas_hand_case():
    with ad.Tape():
        color, depth, weights = composite_alphas(
            ad.constant(np.array([0.5, 0.5])),
            ad.constant(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
            ad.constant(np.array([2.0, 4.0])),
            bg_color=(0.0, 0.0, 1.0),
            bg_depth=8.0,
        )
    assert np.allclose(weights.data, [0.5, 0.25])
    assert np.allclose(color.data, [0.5, 0.25, 0.25])       # bg gets T=0.25
    assert np.isclose(depth.data, 0.5 * 2 + 0.25 * 4 + 0.25 * 8)


def test_render_gradients_match_fd():
    # smooth settings: no support cutoff, no alpha floor, opacities far from
    # the alpha_max clamp -> the whole forward map is differentiable
    rng = np.random.default_rng(14)
    n = 4
    cloud = random_cloud(rng, n, radius=0.3)
    cloud.opacity_logit.data[:] = rng.uniform(-1.0, 0.5, n)
    cam = make_camera(12, 12)
    settings = RenderSettings(support_chi2=np.inf, alpha_min=0.0, threads=1)
    w = rng.normal(size=(12, 12, 4))

    def loss_value():
        with ad.Tape():
            out = render(cloud, cam, 0.0, settings=settings)
            return float(ad.sum_(ad.mul(out.raw, ad.constant(w))).data)

    with ad.Tape() as tape:
        out = render(cloud, cam, 0.0, settings=settings)
        loss = ad.sum_(ad.mul(out.raw, ad.constant(w)))
        params = [cloud.mu, cloud.quat, cloud.log_scale, cloud.sh, cloud.opacity_logit]
        grads = tape.grad(loss, params)

    h = 1e-6
    for tensor, g in zip(params, grads):
        flat = tensor.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            fp = loss_value()
            flat[i] = old - h
            fm = loss_value()
            flat[i] = old
            fd = (fp - fm) / (2 * h)
            assert np.isclose(gflat[i], fd, rtol=1e-4, atol=1e-7), (tensor.data.shape, i, gflat[i], fd)


def test_visible_rows_and_positions_world():
    rng = np.random.default_rng(15)
    cloud = random_cloud(rng, 8)
    cloud.mu.data[3, 2] = -50.0  # push one particle behind the camera
    cam = make_camera()
    with ad.Tape():
        out = render(cloud, cam, 0.0)
    assert 3 not in out.visible_rows
    assert len(out.visible_rows) == 7
    assert np.allclose(out.positions_world, cloud.mu.data[out.visible_rows])
