"""Differentiable splatting of 3D Gaussians through a pinhole camera.

The pipeline is: (optional) deformation -> world covariance -> camera-space
transform -> perspective Jacobian -> 2D covariance (plus a fixed 0.3-pixel
isotropic dilation) -> tile-based alpha compositing front to back.

Compositing per pixel is C = sum_i c_i a_i T_i with T_i = prod_{j<i} (1-a_j),
contributors sorted by ascending camera depth (ties broken by particle id),
each contributor truncated to the chi^2 <= support ellipse (3 sigma by
default) and skipped below the 1/255 alpha floor. Depth output is the alpha
expected depth plus T_final * background depth. The rasterizer is one fused
node on the tape with a hand-written backward pass; everything upstream is
ordinary tape ops, so gradients reach positions, shapes, colors, opacities
and the deformation field.

Tiles are independent: they write disjoint pixels, so the image is identical
no matter how many worker threads process them (PIDG_THREADS).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate_grad, record
from .camera import Camera
from .scene import SH_C0, SH_C1, GaussianCloud, covariance


@dataclass
class RenderSettings:
    bg_color: tuple = (0.0, 0.0, 0.0)
    bg_depth: float = 0.0
    tile_size: int = 16
    alpha_min: float = 1.0 / 255.0
    alpha_max: float = 0.999
    support_chi2: float = 9.0
    top_k: int = 8
    near: float = 0.01
    threads: int | None = None  # None -> PIDG_THREADS env var, default 1

    def worker_count(self) -> int:
        if self.threads is not None:
            return max(1, int(self.threads))
        return max(1, int(os.environ.get("PIDG_THREADS", "1")))


class RenderOutput:
    """One render: the image tape node plus what the flow predictions read.

    ``topk_rows``/``topk_weights`` are each pixel's K strongest contributors
    (cloud rows, -1 where empty) and their weights normalised over all of the
    pixel's contributors. They are given either as arrays or, by the
    rasterizer, as ``topk_build``: a callable that builds both on the first
    read of either, after which they are cached. Forward-only renders never
    pay for them.
    """

    def __init__(self, raw, t_final, topk_rows, topk_weights, visible_rows, means2d, cov2d, depths, camera, t,
                 positions_world=None, topk_build=None):
        self.raw = raw  # Tensor (H, W, 4): rgb + expected depth
        self.t_final = t_final  # np (H, W)
        self._topk = (topk_rows, topk_weights) if topk_build is None else None
        self._topk_build = topk_build
        self.visible_rows = visible_rows  # np rows of the cloud that reached the rasterizer
        self.means2d = means2d  # Tensor (M, 2) for the visible rows
        self.cov2d = cov2d  # Tensor (M, 3) as (a, b, c), dilation included
        self.depths = depths  # Tensor (M,) camera-space z of visible rows
        self.camera = camera
        self.t = t
        # detached world positions of the visible rows (after deformation)
        self.positions_world = positions_world if positions_world is not None else np.zeros((len(visible_rows), 3))

    def _topk_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._topk is None:
            self._topk = self._topk_build()
            self._topk_build = None  # drop the per-tile weights it read
        return self._topk

    @property
    def topk_rows(self) -> np.ndarray:
        return self._topk_arrays()[0]  # (H, W, K) cloud row indices, -1 empty

    @property
    def topk_weights(self) -> np.ndarray:
        return self._topk_arrays()[1]  # (H, W, K) weights over all contributors

    @property
    def image(self) -> Tensor:
        return self.raw[:, :, 0:3]

    @property
    def depth(self) -> Tensor:
        return self.raw[:, :, 3]

    def image_np(self) -> np.ndarray:
        return self.raw.data[:, :, 0:3]

    def depth_np(self) -> np.ndarray:
        return self.raw.data[:, :, 3]


def sh_colors(sh: Tensor, dirs: Tensor) -> Tensor:
    """Degree-1 spherical harmonics -> RGB in [0,1] for per-particle view dirs."""
    c = (
        0.5
        + SH_C0 * sh[:, 0, :]
        - SH_C1 * ad.mul(dirs[:, 1:2], sh[:, 1, :])
        + SH_C1 * ad.mul(dirs[:, 2:3], sh[:, 2, :])
        - SH_C1 * ad.mul(dirs[:, 0:1], sh[:, 3, :])
    )
    return ad.clip(c, 0.0, 1.0)


def project_gaussians(pc: Tensor, cov3d: Tensor, camera: Camera):
    """Camera-space means (N,3) and world covariances -> 2D means, 2D covariance
    components (a, b, c) with the 0.3 px dilation, conic components, and depth."""
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    inv_z = ad.pow_const(z, -1.0)
    u = camera.fx * ad.mul(x, inv_z) + camera.cx
    v = camera.fy * ad.mul(y, inv_z) + camera.cy
    means2d = ad.stack([u, v], axis=1)

    rot = ad.constant(camera.rot)
    rot_t = ad.constant(camera.rot.T)
    vc = ad.matmul(ad.matmul(rot, cov3d), rot_t)  # (N,3,3) in camera axes
    j00 = camera.fx * inv_z
    j02 = -camera.fx * ad.mul(x, ad.mul(inv_z, inv_z))
    j11 = camera.fy * inv_z
    j12 = -camera.fy * ad.mul(y, ad.mul(inv_z, inv_z))
    v00, v01, v02 = vc[:, 0, 0], vc[:, 0, 1], vc[:, 0, 2]
    v11, v12, v22 = vc[:, 1, 1], vc[:, 1, 2], vc[:, 2, 2]
    a = ad.mul(j00, ad.mul(j00, v00)) + 2.0 * ad.mul(j00, ad.mul(j02, v02)) + ad.mul(j02, ad.mul(j02, v22)) + 0.3
    b = (
        ad.mul(j00, ad.mul(j11, v01))
        + ad.mul(j00, ad.mul(j12, v02))
        + ad.mul(j11, ad.mul(j02, v12))
        + ad.mul(j02, ad.mul(j12, v22))
    )
    c = ad.mul(j11, ad.mul(j11, v11)) + 2.0 * ad.mul(j11, ad.mul(j12, v12)) + ad.mul(j12, ad.mul(j12, v22)) + 0.3
    det = ad.sub(ad.mul(a, c), ad.mul(b, b))
    inv_det = ad.pow_const(det, -1.0)
    conic = ad.stack([ad.mul(c, inv_det), ad.neg(ad.mul(b, inv_det)), ad.mul(a, inv_det)], axis=1)
    cov2d = ad.stack([a, b, c], axis=1)
    return means2d, cov2d, conic, z


def _tile_ranges(h: int, w: int, tile: int):
    for y0 in range(0, h, tile):
        for x0 in range(0, w, tile):
            yield y0, min(y0 + tile, h), x0, min(x0 + tile, w)


def _topk_lists(tiles, tile_weights, rows_sorted, height, width, k_top):
    """Per-pixel top-k contributor rows and weights, normalised over all of
    the pixel's contributors; ties keep depth order. ``tile_weights[i]`` is
    tile i's ``(sel, w)`` from the rasterizer, or None for an empty tile."""
    topk_rows = np.full((height, width, k_top), -1, dtype=np.int64)
    topk_w = np.zeros((height, width, k_top))
    for (y0, y1, x0, x1), state in zip(tiles, tile_weights):
        if state is None:
            continue
        sel, w = state
        ph, pw = y1 - y0, x1 - x0
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
    return topk_rows, topk_w


def rasterize(means2d, conic, colors, opacity, depth, ids, row_map, height, width, settings: RenderSettings):
    """Fused tiled compositing. Returns (raw Tensor (H,W,4), aux dict).

    ``ids`` are the persistent particle ids used for depth tie-breaks;
    ``row_map`` maps rasterizer input rows to cloud rows for the top-k lists.
    ``aux["topk"]`` builds the top-k lists (see ``_topk_lists``) when called.
    """
    k_top = settings.top_k
    bg = np.asarray(settings.bg_color, dtype=np.float64)
    bg_depth = float(settings.bg_depth)
    m_total = means2d.data.shape[0]

    raw = np.empty((height, width, 4))
    t_final = np.ones((height, width))

    if m_total == 0:
        raw[:, :, 0:3] = bg
        raw[:, :, 3] = bg_depth
        out = record(raw, (), None, "rasterize")
        return out, {"t_final": t_final, "topk": lambda: _topk_lists((), (), None, height, width, k_top)}

    order = np.lexsort((ids, depth.data))
    mx = means2d.data[order, 0]
    my = means2d.data[order, 1]
    ca, cb, cc = conic.data[order, 0], conic.data[order, 1], conic.data[order, 2]
    cols = colors.data[order]
    op = opacity.data[order]
    zz = depth.data[order]
    rows_sorted = np.asarray(row_map)[order]

    chi2 = settings.support_chi2
    if np.isfinite(chi2):
        # conservative pixel radius from the largest 2D covariance eigenvalue,
        # recovered from the conic inverse
        det_c = ca * cc - cb * cb
        va, vb, vc2 = cc / det_c, -cb / det_c, ca / det_c
        mid = 0.5 * (va + vc2)
        disc = np.sqrt(np.maximum(mid * mid - (va * vc2 - vb * vb), 0.0))
        radius = np.sqrt(chi2 * np.maximum(mid + disc, 1e-12))
    else:
        radius = np.full(m_total, np.inf)

    tiles = list(_tile_ranges(height, width, settings.tile_size))
    saved = [None] * len(tiles)
    tile_weights = [None] * len(tiles)

    def run_tile(idx):
        y0, y1, x0, x1 = tiles[idx]
        sel = np.nonzero((mx + radius >= x0) & (mx - radius <= x1 - 1) & (my + radius >= y0) & (my - radius <= y1 - 1))[0]
        ph, pw = y1 - y0, x1 - x0
        n_px = ph * pw
        if len(sel) == 0:
            raw[y0:y1, x0:x1, 0:3] = bg
            raw[y0:y1, x0:x1, 3] = bg_depth
            t_final[y0:y1, x0:x1] = 1.0
            return
        gx, gy = np.meshgrid(np.arange(x0, x1, dtype=np.float64), np.arange(y0, y1, dtype=np.float64))
        px = gx.reshape(-1)
        py = gy.reshape(-1)
        dx = px[:, None] - mx[sel][None, :]
        dy = py[:, None] - my[sel][None, :]
        q = ca[sel] * dx * dx + 2.0 * cb[sel] * dx * dy + cc[sel] * dy * dy
        gauss = np.exp(-0.5 * q)
        alpha = np.minimum(op[sel] * gauss, settings.alpha_max)
        live = (q <= chi2) & (alpha >= settings.alpha_min)
        alpha = np.where(live, alpha, 0.0)
        cum = np.cumprod(1.0 - alpha, axis=1)
        trans = np.concatenate([np.ones((n_px, 1)), cum[:, :-1]], axis=1)
        tf = cum[:, -1]
        w = alpha * trans
        img = w @ cols[sel] + tf[:, None] * bg
        dep = w @ zz[sel] + tf * bg_depth
        raw[y0:y1, x0:x1, 0:3] = img.reshape(ph, pw, 3)
        raw[y0:y1, x0:x1, 3] = dep.reshape(ph, pw)
        t_final[y0:y1, x0:x1] = tf.reshape(ph, pw)
        saved[idx] = (sel, alpha, trans, gauss, live, dx, dy, tf, w)
        tile_weights[idx] = (sel, w)

    workers = settings.worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_tile, range(len(tiles))))
    else:
        for i in range(len(tiles)):
            run_tile(i)

    def vjp(g):
        gimg = g[:, :, 0:3]
        gdep = g[:, :, 3]
        d_m2d = np.zeros((m_total, 2))
        d_conic = np.zeros((m_total, 3))
        d_cols = np.zeros((m_total, 3))
        d_op = np.zeros(m_total)
        d_z = np.zeros(m_total)
        for idx, (y0, y1, x0, x1) in enumerate(tiles):
            state = saved[idx]
            if state is None:
                continue
            sel, alpha, trans, gauss, live, dx, dy, tf, w = state
            gi = gimg[y0:y1, x0:x1].reshape(-1, 3)
            gd = gdep[y0:y1, x0:x1].reshape(-1)
            dw = gi @ cols[sel].T + gd[:, None] * zz[sel][None, :]
            d_cols[sel] += w.T @ gi
            d_z[sel] += w.T @ gd
            contrib = dw * w
            suffix = np.cumsum(contrib[:, ::-1], axis=1)[:, ::-1] - contrib
            c_bg = gi @ bg + gd * bg_depth
            dalpha = dw * trans - (suffix + (c_bg * tf)[:, None]) / (1.0 - alpha)
            eff = live & (alpha < settings.alpha_max)
            dalpha = np.where(eff, dalpha, 0.0)
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
        accumulate_grad(means2d, d_m2d[inv])
        accumulate_grad(conic, d_conic[inv])
        accumulate_grad(colors, d_cols[inv])
        accumulate_grad(opacity, d_op[inv])
        accumulate_grad(depth, d_z[inv])

    out = record(raw, (means2d, conic, colors, opacity, depth), vjp, "rasterize")
    return out, {"t_final": t_final,
                 "topk": lambda: _topk_lists(tiles, tile_weights, rows_sorted, height, width, k_top)}


def composite_alphas(alphas, colors, depths, bg_color=(0.0, 0.0, 0.0), bg_depth=0.0):
    """Front-to-back compositing rule for one pixel from given alphas.

    ``alphas``/``colors``/``depths`` are depth-sorted Tensors of shapes (M,),
    (M,3), (M,). Returns (color (3,), depth scalar, weights (M,))."""
    m = alphas.data.shape[0]
    trans_parts = []
    t_run = ad.constant(1.0)
    for i in range(m):
        trans_parts.append(t_run)
        t_run = ad.mul(t_run, 1.0 - alphas[i])
    trans = ad.stack(trans_parts, axis=0) if m else ad.constant(np.ones(0))
    weights = ad.mul(alphas, trans)
    color = ad.sum_(ad.mul(ad.reshape(weights, (m, 1)), colors), axis=0) + ad.mul(t_run, ad.constant(np.asarray(bg_color, dtype=np.float64)))
    depth = ad.sum_(ad.mul(weights, depths)) + t_run * bg_depth
    return color, depth, weights


def composite(pixel, means2d, conic, colors, opacity, depths, settings: RenderSettings | None = None):
    """Reference single-pixel compositing from raw contributor attributes.

    Contributors must already be depth-sorted (ties by id). Differentiable;
    used as the small-scale mirror of the rasterizer's math.
    """
    settings = settings or RenderSettings()
    u, v = float(pixel[0]), float(pixel[1])
    dx = ad.sub(u, means2d[:, 0])
    dy = ad.sub(v, means2d[:, 1])
    q = ad.mul(conic[:, 0], ad.mul(dx, dx)) + 2.0 * ad.mul(conic[:, 1], ad.mul(dx, dy)) + ad.mul(conic[:, 2], ad.mul(dy, dy))
    alpha = ad.clip(ad.mul(opacity, ad.exp(-0.5 * q)), 0.0, settings.alpha_max)
    keep = (q.data <= settings.support_chi2) & (alpha.data >= settings.alpha_min)
    alpha = ad.where(keep, alpha, ad.constant(np.zeros_like(alpha.data)))
    return composite_alphas(alpha, colors, depths, settings.bg_color, settings.bg_depth)


def render(
    cloud: GaussianCloud,
    camera: Camera,
    t: float,
    deform_field=None,
    normalizer=None,
    settings: RenderSettings | None = None,
    respect_dynamic_mask: bool = False,
) -> RenderOutput:
    """Render the cloud at normalized time t (deformed when a field is given)."""
    settings = settings or RenderSettings()
    h, w = camera.height, camera.width

    def background() -> RenderOutput:
        raw = np.empty((h, w, 4))
        raw[:, :, 0:3] = np.asarray(settings.bg_color)
        raw[:, :, 3] = settings.bg_depth
        k = settings.top_k
        return RenderOutput(
            record(raw, (), None, "rasterize"),
            np.ones((h, w)),
            np.full((h, w, k), -1, dtype=np.int64),
            np.zeros((h, w, k)),
            np.zeros(0, dtype=np.int64),
            ad.constant(np.zeros((0, 2))),
            ad.constant(np.zeros((0, 3))),
            ad.constant(np.zeros(0)),
            camera,
            t,
        )

    if len(cloud) == 0:
        return background()

    if deform_field is not None:
        if normalizer is None:
            raise ValueError("deformation requires a scene normalizer")
        p4 = normalizer.unit4(cloud.mu, t)
        dyn = cloud.dynamic if respect_dynamic_mask else None
        mu_d, quat_d, scale_d = deform_field.deform_gaussians(cloud.mu, cloud.quat, cloud.log_scale, p4, dyn)
    else:
        mu_d, quat_d, scale_d = cloud.mu, cloud.quat, cloud.log_scale

    cov3d = covariance(quat_d, scale_d)
    pc = ad.add(ad.matmul(mu_d, ad.constant(camera.rot.T)), ad.constant(camera.trans))
    keep = np.nonzero(pc.data[:, 2] > settings.near)[0]
    if len(keep) == 0:
        return background()

    pc_k = ad.take_rows(pc, keep)
    cov_k = ad.take_rows(cov3d, keep)
    mu_k = ad.take_rows(mu_d, keep)
    sh_k = ad.take_rows(cloud.sh, keep)
    logit_k = ad.take_rows(cloud.opacity_logit, keep)

    rel = ad.sub(mu_k, ad.constant(camera.center))
    inv_norm = ad.pow_const(ad.sum_(ad.mul(rel, rel), axis=1, keepdims=True), -0.5)
    dirs = ad.mul(rel, inv_norm)
    colors = sh_colors(sh_k, dirs)
    opac = ad.sigmoid(logit_k)

    means2d, cov2d, conic, z = project_gaussians(pc_k, cov_k, camera)
    raw, aux = rasterize(means2d, conic, colors, opac, z, cloud.ids[keep], keep, h, w, settings)
    return RenderOutput(
        raw, aux["t_final"], None, None, keep, means2d, cov2d, z, camera, t,
        positions_world=mu_k.data.copy(), topk_build=aux["topk"],
    )


# -- independent per-pixel oracle (no tape, no tiling) ------------------------


def _np_rotmats(q: np.ndarray) -> np.ndarray:
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], 1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], 1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], 1),
        ],
        1,
    )


def render_brute_force(cloud: GaussianCloud, camera: Camera, settings: RenderSettings | None = None) -> np.ndarray:
    """Naive reference renderer: full reprojection and a per-pixel loop over
    every particle in depth order. Returns (H, W, 4) rgb+depth."""
    settings = settings or RenderSettings()
    bg = np.asarray(settings.bg_color, dtype=np.float64)
    h, w = camera.height, camera.width
    out = np.empty((h, w, 4))

    mu = cloud.mu.data
    rot = _np_rotmats(cloud.quat.data)
    s = np.exp(cloud.log_scale.data)
    m = rot * s[:, None, :]
    cov = m @ np.swapaxes(m, 1, 2)

    pc = mu @ camera.rot.T + camera.trans
    vis = pc[:, 2] > settings.near
    pc = pc[vis]
    cov = cov[vis]
    ids = cloud.ids[vis]
    opac = 1.0 / (1.0 + np.exp(-cloud.opacity_logit.data[vis]))
    sh = cloud.sh.data[vis]
    rel = mu[vis] - camera.center
    rel /= np.linalg.norm(rel, axis=1, keepdims=True)
    cols = (
        0.5
        + SH_C0 * sh[:, 0, :]
        - SH_C1 * rel[:, 1:2] * sh[:, 1, :]
        + SH_C1 * rel[:, 2:3] * sh[:, 2, :]
        - SH_C1 * rel[:, 0:1] * sh[:, 3, :]
    )
    cols = np.clip(cols, 0.0, 1.0)

    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    u = camera.fx * x / z + camera.cx
    v = camera.fy * y / z + camera.cy
    vc = np.einsum("ij,njk,lk->nil", camera.rot, cov, camera.rot)
    j = np.zeros((len(z), 2, 3))
    j[:, 0, 0] = camera.fx / z
    j[:, 0, 2] = -camera.fx * x / z**2
    j[:, 1, 1] = camera.fy / z
    j[:, 1, 2] = -camera.fy * y / z**2
    c2 = np.einsum("nab,nbc,ndc->nad", j, vc, j)
    c2[:, 0, 0] += 0.3
    c2[:, 1, 1] += 0.3
    det = c2[:, 0, 0] * c2[:, 1, 1] - c2[:, 0, 1] ** 2
    ia = c2[:, 1, 1] / det
    ib = -c2[:, 0, 1] / det
    ic = c2[:, 0, 0] / det

    order = np.lexsort((ids, z))
    for row in range(h):
        for col in range(w):
            trans = 1.0
            color = np.zeros(3)
            dep = 0.0
            for i in order:
                dx = col - u[i]
                dy = row - v[i]
                q = ia[i] * dx * dx + 2.0 * ib[i] * dx * dy + ic[i] * dy * dy
                if q > settings.support_chi2:
                    continue
                a = min(opac[i] * np.exp(-0.5 * q), settings.alpha_max)
                if a < settings.alpha_min:
                    continue
                color = color + cols[i] * (a * trans)
                dep += z[i] * a * trans
                trans *= 1.0 - a
            out[row, col, 0:3] = color + trans * bg
            out[row, col, 3] = dep + trans * settings.bg_depth
    return out
