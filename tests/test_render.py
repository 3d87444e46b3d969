"""Rasterizer: brute-force agreement, thread determinism, gradients, compositing."""

import types

import numpy as np
import pytest

import pidg
import pidg.autodiff as ad
import pidg.render as render_module
from pidg.camera import camera_from_fov
from pidg.deform import DeformConfig, DeformationField
from pidg.flow import frame_pair_flows
from pidg.losses import renders_loss
from pidg.material import MaterialConfig, MaterialField
from pidg.render import (
    ALPHA_MAX,
    RenderSettings,
    project,
    render,
    render_brute_force,
)
from pidg.scene import GaussianCloud, SceneNormalizer


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


def test_package_attribute_is_the_render_module():
    # the package does not re-export the renderer, so it cannot shadow its submodule
    assert pidg.render is render_module
    assert isinstance(render_module, types.ModuleType)
    assert render_module.render is render
    assert "render" not in pidg.__all__


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


def test_tile_size_does_not_change_image(monkeypatch):
    rng = np.random.default_rng(11)
    cloud = random_cloud(rng, 25)
    cam = make_camera(40, 28)
    imgs = []
    for tile in (8, 16, 64):
        monkeypatch.setattr(render_module, "TILE", tile)
        with ad.Tape():
            imgs.append(render(cloud, cam, 0.0).raw.data.copy())
    # tile partitioning changes summation order, so agreement is to rounding,
    # not bitwise (bitwise invariance is across THREADS, tested above)
    assert np.max(np.abs(imgs[0] - imgs[1])) < 1e-12
    assert np.max(np.abs(imgs[1] - imgs[2])) < 1e-12


def empty_cloud():
    return GaussianCloud(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros((0, 3)),
                         np.zeros((0, 4, 3)), np.zeros(0), np.zeros(0, dtype=np.int64))


def test_empty_cloud_renders_background():
    cam = make_camera(8, 8)
    with ad.Tape():
        out = render(empty_cloud(), cam, 0.0)
    assert np.all(out.raw.data == 0.0)  # black at depth 0
    assert np.all(out.t_final == 1.0)
    assert np.all(out.topk_rows == -1) and np.all(out.topk_weights == 0.0)
    assert len(out.visible_rows) == 0


def small_deform(rng):
    return DeformationField(DeformConfig(spatial_levels=2, spatial_base=4, spatial_max=8,
                                         temporal_levels=2, time_base=2, time_max=4,
                                         table_size_log2=8, feature_dim=2,
                                         attn_width=8, hidden_width=16), rng)


def test_empty_cloud_through_deformation_and_flows():
    cloud = empty_cloud()
    rng = np.random.default_rng(18)
    deform = small_deform(rng)
    material = MaterialField(4, rng, MaterialConfig(plane_levels=2, plane_base=4, plane_max=8,
                                                    table_size=256, fourier_n=2, embed_dim=4,
                                                    hidden_width=16))
    normalizer = SceneNormalizer((0.0, 0.0, 0.0), 2.0)
    cam = make_camera(8, 8)
    with ad.Tape():
        outs = [render(cloud, cam, t, deform_field=deform, normalizer=normalizer,
                       respect_dynamic_mask=True) for t in (0.0, 0.5)]
        flow_g, flow_v, v_world = frame_pair_flows(*outs, cloud.ids, material, normalizer)
    for out in outs:
        assert np.all(out.raw.data == 0.0) and np.all(out.t_final == 1.0)
    assert v_world.shape == (0, 3)
    for flow in (flow_g, flow_v):
        field = flow.to_field()
        assert not field.valid.any() and np.all(field.vectors == 0.0)


def test_behind_camera_renders_background():
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, 5)
    cloud.mu.data[:, 2] = -50.0  # far behind the camera
    cam = make_camera(8, 8)
    with ad.Tape():
        out = render(cloud, cam, 0.0)
    assert np.all(out.raw.data == 0.0)
    assert len(out.visible_rows) == 0


def test_behind_camera_backward_leaves_grads_unset():
    # a render with no visible row records no parents, so the backward sweep
    # never reaches the cloud and Adam skips its moment update
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, 5)
    cloud.mu.data[:, 2] = -50.0
    cam = make_camera(16, 16)  # SSIM needs the 11-pixel window
    with ad.Tape() as tape:
        out = render(cloud, cam, 0.0)
        tape.backward(renders_loss(out.image, np.full((16, 16, 3), 0.5), 0.2))
    for name, p in cloud.params.items():
        assert p.grad is None, name


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
                alpha = min(opac[i] * np.exp(-0.5 * q), ALPHA_MAX)
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
    cam = make_camera(32, 32)  # spans several tiles
    settings = RenderSettings(top_k=4)
    with ad.Tape():
        out = render(cloud, cam, 0.0, settings=settings)
    want_rows, want_w = brute_force_topk(out, cloud, settings)
    assert (want_rows[..., -1] >= 0).sum() > 128
    assert np.array_equal(out.topk_rows, want_rows)
    assert np.allclose(out.topk_weights, want_w, rtol=0.0, atol=1e-12)


def test_topk_built_once_on_first_read(monkeypatch):
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


def test_render_gradients_match_fd():
    # smooth settings: no support cutoff, no alpha floor, opacities far from
    # the ALPHA_MAX clamp -> the whole forward map is differentiable
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


@pytest.mark.parametrize("deformed, respect", [(False, False), (True, False), (True, True)])
def test_project_matches_the_render_fields(deformed, respect):
    """``project`` gives the geometry ``render`` composites, bit for bit."""
    rng = np.random.default_rng(16)
    cloud = random_cloud(rng, 12)
    cloud.mu.data[3, 2] = -50.0  # behind the camera
    cloud.dynamic[::3] = False  # static rows skip the deformation when the mask is respected
    cam = make_camera()
    model = dict(deform_field=small_deform(rng), normalizer=SceneNormalizer((0.0, 0.0, 0.0), 2.0),
                 respect_dynamic_mask=respect) if deformed else {}
    with ad.Tape():
        out = render(cloud, cam, 0.4, **model)
        proj = project(cloud, cam, 0.4, **model)
    assert np.array_equal(proj.visible_rows, out.visible_rows) and 3 not in proj.visible_rows
    assert np.array_equal(proj.positions.data, out.positions_world)
    for name in ("means2d", "cov2d", "depths"):
        assert np.array_equal(getattr(proj, name).data, getattr(out, name).data), name
    assert proj.camera is cam and proj.t == 0.4
    a, b, c = proj.cov2d.data.T
    assert np.allclose(proj.conic.data * (a * c - b * b)[:, None], np.stack([c, -b, a], axis=1))


# -- the dense per-tile rasterizer, kept as the oracle of the live-pair one ---


def _dense_oracle(m2d, conic, cols, op, z, ids, row_map, height, width, settings, g):
    """The dense per-tile formulation: every (pixel, splat) pair of a tile is
    composited and differentiated, dead pairs with alpha 0. Returns raw,
    t_final, top-k rows and weights, and the five input gradients for the
    upstream gradient ``g``."""
    m_total, k_top, tile = len(op), settings.top_k, render_module.TILE
    raw, t_final = np.zeros((height, width, 4)), np.ones((height, width))
    topk_rows = np.full((height, width, k_top), -1, dtype=np.int64)
    topk_w = np.zeros((height, width, k_top))
    d_m2d, d_conic, d_cols = np.zeros((m_total, 2)), np.zeros((m_total, 3)), np.zeros((m_total, 3))
    d_op, d_z = np.zeros(m_total), np.zeros(m_total)
    order = np.lexsort((ids, z))
    mx, my = m2d[order, 0], m2d[order, 1]
    ca, cb, cc = conic[order, 0], conic[order, 1], conic[order, 2]
    cols, op, zz, rows_sorted = cols[order], op[order], z[order], np.asarray(row_map)[order]
    chi2 = settings.support_chi2
    if np.isfinite(chi2):
        det_c = ca * cc - cb * cb
        va, vb, vc2 = cc / det_c, -cb / det_c, ca / det_c
        mid = 0.5 * (va + vc2)
        disc = np.sqrt(np.maximum(mid * mid - (va * vc2 - vb * vb), 0.0))
        radius = np.sqrt(chi2 * np.maximum(mid + disc, 1e-12))
    else:
        radius = np.full(m_total, np.inf)
    for y0 in range(0, height, tile):
        for x0 in range(0, width, tile):
            y1, x1 = min(y0 + tile, height), min(x0 + tile, width)
            sel = np.nonzero((mx + radius >= x0) & (mx - radius <= x1 - 1)
                             & (my + radius >= y0) & (my - radius <= y1 - 1))[0]
            ph, pw = y1 - y0, x1 - x0
            n_px = ph * pw
            if len(sel) == 0:
                continue
            gx, gy = np.meshgrid(np.arange(x0, x1, dtype=np.float64), np.arange(y0, y1, dtype=np.float64))
            dx = gx.reshape(-1)[:, None] - mx[sel][None, :]
            dy = gy.reshape(-1)[:, None] - my[sel][None, :]
            q = ca[sel] * dx * dx + 2.0 * cb[sel] * dx * dy + cc[sel] * dy * dy
            gauss = np.exp(-0.5 * q)
            alpha = np.minimum(op[sel] * gauss, ALPHA_MAX)
            live = (q <= chi2) & (alpha >= settings.alpha_min)
            alpha = np.where(live, alpha, 0.0)
            cum = np.cumprod(1.0 - alpha, axis=1)
            trans = np.concatenate([np.ones((n_px, 1)), cum[:, :-1]], axis=1)
            w = alpha * trans
            raw[y0:y1, x0:x1, 0:3] = (w @ cols[sel]).reshape(ph, pw, 3)
            raw[y0:y1, x0:x1, 3] = (w @ zz[sel]).reshape(ph, pw)
            t_final[y0:y1, x0:x1] = cum[:, -1].reshape(ph, pw)
            # top-k lists
            total = w.sum(axis=1)
            covered = total > 0.0
            if np.any(covered):
                nw = np.zeros_like(w)
                nw[covered] = w[covered] / total[covered, None]
                kk = min(k_top, len(sel))
                sel_sorted = np.argsort(-nw, axis=1, kind="stable")[:, :kk]
                picked = np.take_along_axis(nw, sel_sorted, axis=1)
                rows = rows_sorted[sel][sel_sorted]
                rows[picked <= 0.0] = -1
                topk_rows[y0:y1, x0:x1, :kk] = rows.reshape(ph, pw, kk)
                topk_w[y0:y1, x0:x1, :kk] = np.where(picked > 0.0, picked, 0.0).reshape(ph, pw, kk)
            # backward
            gi = g[y0:y1, x0:x1, 0:3].reshape(-1, 3)
            gd = g[y0:y1, x0:x1, 3].reshape(-1)
            dw = gi @ cols[sel].T + gd[:, None] * zz[sel][None, :]
            d_cols[sel] += w.T @ gi
            d_z[sel] += w.T @ gd
            contrib = dw * w
            suffix = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
            dalpha = dw * trans - suffix / (1.0 - alpha)
            dalpha = np.where(live & (alpha < ALPHA_MAX), dalpha, 0.0)
            d_op[sel] += (gauss * dalpha).sum(axis=0)
            dq = -0.5 * gauss * op[sel] * dalpha
            d_conic[sel, 0] += (dx * dx * dq).sum(axis=0)
            d_conic[sel, 1] += (2.0 * dx * dy * dq).sum(axis=0)
            d_conic[sel, 2] += (dy * dy * dq).sum(axis=0)
            ax = ca[sel] * dx + cb[sel] * dy
            ay = cb[sel] * dx + cc[sel] * dy
            d_m2d[sel, 0] += (-2.0 * ax * dq).sum(axis=0)
            d_m2d[sel, 1] += (-2.0 * ay * dq).sum(axis=0)
    inv = np.empty_like(order)
    inv[order] = np.arange(m_total)
    grads = (d_m2d[inv], d_conic[inv], d_cols[inv], d_op[inv], d_z[inv])
    return raw, t_final, topk_rows, topk_w, grads


def _splats(rng, n, height, width, scale=(1.0, 4.0), opacity=(0.05, 0.95)):
    """Random rasterizer inputs: means, conics of random 2D covariances
    (pixels), colours, opacities and distinct depths, with ids and rows."""
    m2d = np.column_stack([rng.uniform(-4.0, width + 4.0, n), rng.uniform(-4.0, height + 4.0, n)])
    sd = rng.uniform(*scale, (n, 2))
    ang = rng.uniform(0.0, np.pi, n)
    c, s = np.cos(ang), np.sin(ang)
    a = (c * sd[:, 0]) ** 2 + (s * sd[:, 1]) ** 2
    b = c * s * (sd[:, 0] ** 2 - sd[:, 1] ** 2)
    d = (s * sd[:, 0]) ** 2 + (c * sd[:, 1]) ** 2
    det = a * d - b * b
    conic = np.column_stack([d / det, -b / det, a / det])
    return {"m2d": m2d, "conic": conic, "cols": rng.uniform(0.0, 1.0, (n, 3)),
            "op": rng.uniform(*opacity, n), "z": rng.uniform(1.0, 3.0, n),
            "ids": rng.permutation(n), "row_map": rng.permutation(n) + 7}


def _check_against_oracle(case, height, width, settings, rng):
    g = rng.normal(size=(height, width, 4))
    inputs = [ad.parameter(case[k]) for k in ("m2d", "conic", "cols", "op", "z")]
    with ad.Tape():
        raw, aux = render_module.rasterize(*inputs, case["ids"], case["row_map"], height, width, settings)
    if raw._vjp is not None:
        raw._vjp(g)
    want_raw, want_tf, want_rows, want_w, want_grads = _dense_oracle(
        *(case[k] for k in ("m2d", "conic", "cols", "op", "z", "ids", "row_map")),
        height, width, settings, g)
    rows, weights = aux["topk"]()
    assert np.array_equal(raw.data, want_raw)
    assert np.array_equal(aux["t_final"], want_tf)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(weights, want_w)
    for name, x, want in zip(("means2d", "conic", "colors", "opacity", "depth"), inputs, want_grads):
        got = x.grad if x.grad is not None else np.zeros_like(x.data)
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("seed", range(3))
def test_live_pairs_match_dense_oracle_over_several_tiles(seed):
    rng = np.random.default_rng(100 + seed)
    case = _splats(rng, 60, 40, 56)
    _check_against_oracle(case, 40, 56, RenderSettings(top_k=4), rng)


def test_live_pairs_match_dense_oracle_with_one_contributor_tile():
    # numpy sums a one-column tile pairwise, not pixel by pixel: the splat
    # alone in the first tile must reproduce that order
    rng = np.random.default_rng(110)
    case = _splats(rng, 8, 32, 32, scale=(1.0, 2.0))
    case["m2d"][0] = (7.5, 7.5)
    case["conic"][0] = (0.09, 0.01, 0.07)
    case["m2d"][1:] = rng.uniform(24.0, 32.0, (7, 2))
    _check_against_oracle(case, 32, 32, RenderSettings(), rng)


def test_live_pairs_match_dense_oracle_at_the_alpha_clamp():
    rng = np.random.default_rng(111)
    case = _splats(rng, 30, 32, 32, scale=(2.0, 5.0), opacity=(0.9995, 0.99999))
    case["m2d"] = np.round(case["m2d"])  # q = 0 at the pixel under each mean: alpha clamps there
    _check_against_oracle(case, 32, 32, RenderSettings(), rng)


def test_live_pairs_match_dense_oracle_with_unbounded_support():
    rng = np.random.default_rng(112)
    case = _splats(rng, 25, 24, 40)
    _check_against_oracle(case, 24, 40, RenderSettings(support_chi2=np.inf, alpha_min=0.0), rng)


def test_live_pairs_match_dense_oracle_with_zero_rows():
    rng = np.random.default_rng(113)
    case = {k: v[:0] for k, v in _splats(rng, 3, 16, 16).items()}
    _check_against_oracle(case, 16, 16, RenderSettings(), rng)
