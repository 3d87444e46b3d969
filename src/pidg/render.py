"""Differentiable splatting of 3D Gaussians through a pinhole camera.

The pipeline is: (optional) deformation -> world covariance -> camera-space
transform -> perspective Jacobian -> 2D covariance (plus a fixed 0.3-pixel
isotropic dilation) -> tile-based alpha compositing front to back.
``project`` runs the steps up to the 2D covariance; ``render`` calls it, then
adds view-dependent colours and opacities and composites. Frame t+1 of a flow
pair needs no image, so it is only projected.

Compositing per pixel is C = sum_i c_i a_i T_i with T_i = prod_{j<i} (1-a_j),
contributors sorted by ascending camera depth (ties broken by particle id),
each contributor truncated to the chi^2 <= support ellipse (3 sigma by
default) and skipped below the 1/255 alpha floor. The image composites over
black, and the depth output is the alpha expected depth. The rasterizer, the
EWA projection (``project_gaussians``) and the colours and opacities
(``appearance``) are one fused tape node each with a hand-written backward
pass, so gradients reach positions, shapes, colors, opacities and the
deformation field.

Per tile, the rasterizer keeps and differentiates only the live (pixel,
splat) pairs, those inside the support ellipse and at or above the alpha
floor, as 3DGS and gsplat do; nothing is recomputed in the backward pass.
The result is bit-equal to compositing every pair, the dead ones with alpha
0, which ``tests/test_render.py`` keeps as the oracle (see ``rasterize``).

Tiles are independent: they write disjoint pixels, so the image is identical
no matter how many worker threads process them (PIDG_THREADS).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate_grad, check_finite, record
from .camera import Camera
from .scene import SH_C0, SH_C1, GaussianCloud, _rotmats_np, covariance


TILE = 16  # tile edge in pixels
ALPHA_MAX = 0.999  # per-contributor opacity clamp
NEAR = 0.01  # particles at camera depth <= NEAR are culled


@dataclass
class RenderSettings:
    alpha_min: float = 1.0 / 255.0
    support_chi2: float = 9.0
    top_k: int = 8
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
            self._topk_build = None  # drop the per-tile state it read
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

    def image_np(self) -> np.ndarray:
        return self.raw.data[:, :, 0:3]

    def depth_np(self) -> np.ndarray:
        return self.raw.data[:, :, 3]


def project_gaussians(pc: Tensor, cov3d: Tensor, camera: Camera):
    """Camera-space means (N,3) and world covariances -> 2D means, 2D covariance
    components (a, b, c) with the 0.3 px dilation, conic components, and depth.

    One tape node with four outputs (the EWA projection of 3DGS). With the
    perspective Jacobian J = [[j00, 0, j02], [0, j11, j12]] and the camera-axes
    covariance V = R cov3d R^T, (a, b, c) are the entries of J V J^T. The
    forward groups every product as the 68-node tape composition it replaced
    did, and the VJP sums each gradient in that composition's sweep order
    (kept as the oracle in ``tests/test_fused_geometry.py``), so both are
    bit-equal to it. The determinant is checked as well as the outputs,
    because an overflowing one still gives a finite conic."""
    fx, fy = camera.fx, camera.fy
    rot, rot_t = camera.rot, camera.rot.T
    p = pc.data
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    inv_z = z**-1.0
    means2d = np.stack([(x * inv_z) * fx + camera.cx, (y * inv_z) * fy + camera.cy], axis=1)
    vc = (rot @ cov3d.data) @ rot_t  # (N,3,3) in camera axes
    ii = inv_z * inv_z
    j00, j02 = inv_z * fx, (x * ii) * -fx
    j11, j12 = inv_z * fy, (y * ii) * -fy
    v00, v01, v02 = vc[:, 0, 0], vc[:, 0, 1], vc[:, 0, 2]
    v11, v12, v22 = vc[:, 1, 1], vc[:, 1, 2], vc[:, 2, 2]
    # the inner products of a, b and c, which the VJP reads
    a1i, a2i, a3i = j00 * v00, j02 * v02, j02 * v22
    b1i, b2i, b3i, b4i = j11 * v01, j12 * v02, j02 * v12, j12 * v22
    c1i, c2i = j11 * v11, j12 * v12
    a = ((j00 * a1i + (j00 * a2i) * 2.0) + j02 * a3i) + 0.3
    b = ((j00 * b1i + j00 * b2i) + j11 * b3i) + j02 * b4i
    c = ((j11 * c1i + (j11 * c2i) * 2.0) + j12 * b4i) + 0.3
    det = a * c - b * b
    inv_det = det**-1.0
    conic = np.stack([c * inv_det, -(b * inv_det), a * inv_det], axis=1)
    check_finite("project_gaussians", [det], (pc, cov3d))

    def vjp(grads):
        g_m, g_cov, g_con, g_z = grads
        gx = gy = g_inv = None
        if g_cov is not None or g_con is not None:
            ga, gb, gc = (None, None, None) if g_cov is None else (g_cov[:, 0], g_cov[:, 1], g_cov[:, 2])
            if g_con is not None:
                # conic = (c, -b, a) / det, det = a c - b b
                ga = _plus(ga, g_con[:, 2] * inv_det)
                g_bi = -g_con[:, 1]
                gb = _plus(gb, g_bi * inv_det)
                gc = _plus(gc, g_con[:, 0] * inv_det)
                g_det = (g_con[:, 2] * a + g_bi * b + g_con[:, 0] * c) * -1.0 * det**-2.0
                gb = gb - g_det * b - g_det * b
                ga = ga + g_det * c
                gc = gc + g_det * a
            # c, b, then a: each product's gradient into its two factors
            t_c3i = gc * j12
            gj12 = gc * b4i + t_c3i * v22
            gv22 = t_c3i * j12
            t_c2o = gc * 2.0
            gj11 = t_c2o * c2i
            t_c2i = t_c2o * j11
            gj12 = gj12 + t_c2i * v12
            gv12 = t_c2i * j12
            t_c1i = gc * j11
            gj11 = gj11 + gc * c1i + t_c1i * v11
            gv11 = t_c1i * j11
            t_b4i = gb * j02
            gj02 = gb * b4i
            gj12 = gj12 + t_b4i * v22
            gv22 = gv22 + t_b4i * j12
            t_b3i = gb * j11
            gj11 = gj11 + gb * b3i
            gj02 = gj02 + t_b3i * v12
            gv12 = gv12 + t_b3i * j02
            t_b2i = gb * j00
            gj00 = gb * b2i
            gj12 = gj12 + t_b2i * v02
            gv02 = t_b2i * j12
            t_b1i = gb * j00
            gj00 = gj00 + gb * b1i
            gj11 = gj11 + t_b1i * v01
            gv01 = t_b1i * j11
            t_a3i = ga * j02
            gj02 = gj02 + ga * a3i + t_a3i * v22
            gv22 = gv22 + t_a3i * j02
            t_a2o = ga * 2.0
            t_a2i = t_a2o * j00
            gj00 = gj00 + t_a2o * a2i
            gj02 = gj02 + t_a2i * v02
            gv02 = gv02 + t_a2i * j02
            t_a1i = ga * j00
            gj00 = gj00 + ga * a1i + t_a1i * v00
            gv00 = t_a1i * j00
            # the composition's V entries were zero-padded getitems: += on zeros
            g_vc = np.zeros_like(vc)
            for (i, j), gv in zip(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
                                  (gv00, gv01, gv02, gv11, gv12, gv22)):
                g_vc[:, i, j] += gv
            # the Jacobian entries into x, y and 1/z
            g_yii = gj12 * -fy
            gy = g_yii * ii
            g_ii = g_yii * y
            g_inv = g_ii * inv_z + g_ii * inv_z + gj11 * fy
            g_xii = gj02 * -fx
            gx = g_xii * ii
            g_ii = g_xii * x
            g_inv = g_inv + g_ii * inv_z + g_ii * inv_z + gj00 * fx
            accumulate_grad(cov3d, np.swapaxes(rot, -1, -2) @ (g_vc @ np.swapaxes(rot_t, -1, -2)))
        if g_m is not None:
            g_yi = g_m[:, 1] * fy
            gy = _plus(gy, g_yi * inv_z)
            g_inv = _plus(g_inv, g_yi * y)
            g_xi = g_m[:, 0] * fx
            gx = _plus(gx, g_xi * inv_z)
            g_inv = _plus(g_inv, g_xi * x)
        if g_inv is not None:
            g_z = _plus(g_z, g_inv * -1.0 * z**-2.0)
        g_pc = np.zeros_like(p)
        for k, gk in enumerate((gx, gy, g_z)):
            if gk is not None:
                g_pc[:, k] += gk
        accumulate_grad(pc, g_pc)

    cov2d = np.stack([a, b, c], axis=1)
    return record((means2d, cov2d, conic, z), (pc, cov3d), vjp, "project_gaussians")


def _plus(acc, g):
    """``acc + g``, or ``g`` when nothing has been summed yet."""
    return g if acc is None else acc + g


def appearance(sh: Tensor, opacity_logit: Tensor, rows: np.ndarray, positions: Tensor, center: np.ndarray):
    """Colours (M,3) in [0,1] and opacities (M,) of the cloud rows ``rows``,
    whose world positions are ``positions``, seen from the camera at
    ``center``: one tape node with two outputs.

    The colour is degree-1 spherical harmonics of the unit view direction,
    clipped to [0,1]; the opacity is the logit's sigmoid. The forward and the
    VJP follow the 27-node tape composition this replaced (the row gathers,
    the view directions, the SH terms, the clip and the sigmoid), which
    ``tests/test_fused_geometry.py`` keeps as the oracle. The unclipped colour
    and the squared distances are checked as well as the outputs, because the
    clip and the inverse root can hide a non-finite value."""
    sh_k = sh.data[rows]
    logit_k = opacity_logit.data[rows]
    rel = positions.data - center
    ssum = (rel * rel).sum(axis=1, keepdims=True)
    inv_norm = ssum**-0.5
    dirs = rel * inv_norm
    raw = ((sh_k[:, 0, :] * SH_C0 + 0.5 - (dirs[:, 1:2] * sh_k[:, 1, :]) * SH_C1)
           + (dirs[:, 2:3] * sh_k[:, 2, :]) * SH_C1) - (dirs[:, 0:1] * sh_k[:, 3, :]) * SH_C1
    inside = (raw >= 0.0) & (raw <= 1.0)
    opac = ad._sigmoid_stable(logit_k)
    check_finite("appearance", [ssum, raw], (sh, opacity_logit, positions))

    def vjp(grads):
        g_col, g_op = grads
        if g_col is not None:
            g_raw = g_col * inside
            # each linear SH term's gradient into its direction column and SH
            # row; the composition padded both into zeros, as += on zeros does
            g_dirs = np.zeros_like(dirs)
            g_sh = np.zeros_like(sh_k)
            for col, row, t in ((0, 3, -g_raw * SH_C1), (2, 2, g_raw * SH_C1), (1, 1, -g_raw * SH_C1)):
                g_dirs[:, col:col + 1] += (t * sh_k[:, row, :]).sum(axis=(1,), keepdims=True)
                g_sh[:, row, :] += t * dirs[:, col:col + 1]
            g_sh[:, 0, :] += g_raw * SH_C0
            # dirs = rel * |rel|^-1
            g_ssum = (g_dirs * rel).sum(axis=(1,), keepdims=True) * -0.5 * ssum**-1.5
            accumulate_grad(positions, g_dirs * inv_norm + g_ssum * rel + g_ssum * rel)
        if g_op is not None:
            accumulate_grad(opacity_logit, ad.scatter_add(rows, g_op * opac * (1.0 - opac), opacity_logit.data.shape))
        if g_col is not None:
            accumulate_grad(sh, ad.scatter_add(rows, g_sh, sh.data.shape))

    return record((np.clip(raw, 0.0, 1.0), opac), (sh, opacity_logit, positions), vjp, "appearance")


def _tile_ranges(h: int, w: int, tile: int):
    for y0 in range(0, h, tile):
        for x0 in range(0, w, tile):
            yield y0, min(y0 + tile, h), x0, min(x0 + tile, w)


class _TileState(NamedTuple):
    """A tile's live (pixel, splat) pairs: those inside the splat's support
    with alpha at or above the floor. ``sel`` holds the tile's splats (the
    sorted rows whose bounding box meets the tile), in depth order; pair i is
    tile pixel ``pix[i]`` and splat ``sel[col[i]]``, ``rank[i]``-th among the
    pixel's live pairs. Pairs are pixel-major, in depth order within a pixel.
    ``dx``/``dy`` are the pixel minus the splat mean."""

    sel: np.ndarray
    pix: np.ndarray
    col: np.ndarray
    rank: np.ndarray
    alpha: np.ndarray
    trans: np.ndarray
    gauss: np.ndarray
    dx: np.ndarray
    dy: np.ndarray

    def weights(self, n_px: int) -> np.ndarray:
        """Dense (pixels, splats) compositing weights alpha * T, zero at dead pairs."""
        w = np.zeros((n_px, len(self.sel)))
        w[self.pix, self.col] = self.alpha * self.trans
        return w


def _splat_sums(vals, state: _TileState, n_px: int) -> np.ndarray:
    """Per-splat sums of each row of ``vals`` (k, pairs) as (k, splats).

    Bit-equal to numpy's axis-0 sum of the dense (pixels, splats) array that
    is zero at the dead pairs: numpy adds the rows of an array with two or
    more columns one after another, which ``scatter_add`` does over the
    pixel-major pairs. A one-column array is summed pairwise, as a contiguous
    vector, so that case sums the densified column.
    """
    n_sel = len(state.sel)
    if n_sel == 1:
        dense = np.zeros((len(vals), n_px))
        dense[:, state.pix] = vals
        return dense.sum(axis=1)[:, None]
    return ad.scatter_add(state.col, vals.T, (n_sel, len(vals))).T


def _topk_lists(tiles, saved, rows_sorted, height, width, k_top):
    """Per-pixel top-k contributor rows and weights, normalised over all of
    the pixel's contributors; ties keep depth order. ``saved[i]`` is tile
    i's ``_TileState``, or None for a tile no splat reaches. One tile's
    weights are densified at a time."""
    topk_rows = np.full((height, width, k_top), -1, dtype=np.int64)
    topk_w = np.zeros((height, width, k_top))
    for (y0, y1, x0, x1), state in zip(tiles, saved):
        if state is None:
            continue
        ph, pw = y1 - y0, x1 - x0
        w = state.weights(ph * pw)
        total = w.sum(axis=1)
        covered = total > 0.0
        if np.any(covered):
            nw = np.zeros_like(w)
            nw[covered] = w[covered] / total[covered, None]
            kk = min(k_top, len(state.sel))
            sel_sorted = np.argsort(-nw, axis=1, kind="stable")[:, :kk]
            picked = np.take_along_axis(nw, sel_sorted, axis=1)
            rows = rows_sorted[state.sel][sel_sorted]
            rows[picked <= 0.0] = -1
            topk_rows[y0:y1, x0:x1, :kk] = rows.reshape(ph, pw, kk)
            topk_w[y0:y1, x0:x1, :kk] = np.where(picked > 0.0, picked, 0.0).reshape(ph, pw, kk)
    return topk_rows, topk_w


def rasterize(means2d, conic, colors, opacity, depth, ids, row_map, height, width, settings: RenderSettings):
    """Fused tiled compositing. Returns (raw Tensor (H,W,4), aux dict).

    ``ids`` are the persistent particle ids used for depth tie-breaks;
    ``row_map`` maps rasterizer input rows to cloud rows for the top-k lists.
    ``aux["topk"]`` builds the top-k lists (see ``_topk_lists``) when called.
    With zero rows the image is black at depth 0 and the node has no parents,
    so no gradient flows from it.

    Each tile computes ``q`` densely over (pixel, splat), then keeps only the
    live pairs (``_TileState``): ``exp``, alpha, transmittance and the whole
    backward pass run on those. The products with colours, depths and the
    incoming gradient stay dense BLAS products over a zero-filled weight
    matrix, and per-splat sums follow numpy's own summation order, so the
    image and every gradient are bit-equal to the dense per-pixel
    formulation. That order is pixel by pixel, except in a tile with a single
    splat, whose one-column sum numpy takes pairwise (see ``_splat_sums``).
    """
    k_top = settings.top_k
    m_total = means2d.data.shape[0]

    raw = np.zeros((height, width, 4))
    t_final = np.ones((height, width))

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

    tiles = list(_tile_ranges(height, width, TILE))
    saved: list[_TileState | None] = [None] * len(tiles)

    def run_tile(idx):
        y0, y1, x0, x1 = tiles[idx]
        sel = np.nonzero((mx + radius >= x0) & (mx - radius <= x1 - 1) & (my + radius >= y0) & (my - radius <= y1 - 1))[0]
        ph, pw = y1 - y0, x1 - x0
        n_px = ph * pw
        if len(sel) == 0:
            return
        # q = ca dx dx + 2 cb dx dy + cc dy dy per (pixel, splat), from per-column
        # and per-row terms in the per-pixel expression's own grouping
        dxc = np.arange(x0, x1, dtype=np.float64)[:, None] - mx[sel]  # (pw, S)
        dyr = np.arange(y0, y1, dtype=np.float64)[:, None] - my[sel]  # (ph, S)
        qx = ca[sel] * dxc * dxc
        bx = 2.0 * cb[sel] * dxc
        qy = cc[sel] * dyr * dyr
        q = ((qx + bx * dyr[:, None]) + qy[:, None]).reshape(n_px, len(sel))
        pix, col = np.nonzero(q <= chi2)
        gauss = np.exp(-0.5 * q[pix, col])
        alpha = np.minimum(op[sel][col] * gauss, ALPHA_MAX)
        live = alpha >= settings.alpha_min
        pix, col, gauss, alpha = pix[live], col[live], gauss[live], alpha[live]
        counts = np.bincount(pix, minlength=n_px)
        rank = np.arange(len(pix)) - (np.cumsum(counts) - counts)[pix]
        # T is the product of (1 - alpha) over the pixel's earlier live pairs;
        # leaving the dead pairs out is exact, as their factor is exactly 1
        factors = np.ones((n_px, counts.max(initial=0) + 1))
        factors[pix, rank + 1] = 1.0 - alpha
        cum = np.cumprod(factors, axis=1)
        prow, pcol = np.divmod(pix, pw)
        state = _TileState(sel, pix, col, rank, alpha, cum[pix, rank], gauss, dxc[pcol, col], dyr[prow, col])
        w = state.weights(n_px)
        raw[y0:y1, x0:x1, 0:3] = (w @ cols[sel]).reshape(ph, pw, 3)
        raw[y0:y1, x0:x1, 3] = (w @ zz[sel]).reshape(ph, pw)
        t_final[y0:y1, x0:x1] = cum[:, -1].reshape(ph, pw)
        saved[idx] = state

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
            sel, pix, col, rank, alpha, trans, gauss, dx, dy = state
            n_px = (y1 - y0) * (x1 - x0)
            gi = gimg[y0:y1, x0:x1].reshape(-1, 3)
            gd = gdep[y0:y1, x0:x1].reshape(-1)
            w = state.weights(n_px)
            d_cols[sel] += w.T @ gi
            d_z[sel] += w.T @ gd
            dw = (gi @ cols[sel].T)[pix, col] + gd[pix] * zz[sel][col]
            contrib = dw * (alpha * trans)
            # sum of contrib over each pair's later pairs, as a reverse cumsum
            # over (pixel, rank) padded with zeros
            later = np.zeros((n_px, rank.max(initial=-1) + 1))
            later[pix, rank] = contrib
            suffix = np.cumsum(later[:, ::-1], axis=1)[:, ::-1][pix, rank] - contrib
            dalpha = dw * trans - suffix / (1.0 - alpha)
            dalpha = np.where(alpha < ALPHA_MAX, dalpha, 0.0)
            dq = -0.5 * gauss * op[sel][col] * dalpha
            ax = ca[sel][col] * dx + cb[sel][col] * dy
            ay = cb[sel][col] * dx + cc[sel][col] * dy
            sums = _splat_sums(np.stack([gauss * dalpha, dx * dx * dq, 2.0 * dx * dy * dq, dy * dy * dq,
                                         -2.0 * ax * dq, -2.0 * ay * dq]), state, n_px)
            d_op[sel] += sums[0]
            d_conic[sel] += sums[1:4].T
            d_m2d[sel] += sums[4:6].T
        inv = np.empty_like(order)
        inv[order] = np.arange(m_total)
        accumulate_grad(means2d, d_m2d[inv])
        accumulate_grad(conic, d_conic[inv])
        accumulate_grad(colors, d_cols[inv])
        accumulate_grad(opacity, d_op[inv])
        accumulate_grad(depth, d_z[inv])

    parents = (means2d, conic, colors, opacity, depth) if m_total else ()
    out = record(raw, parents, vjp, "rasterize")
    return out, {"t_final": t_final,
                 "topk": lambda: _topk_lists(tiles, saved, rows_sorted, height, width, k_top)}


class Projection(NamedTuple):
    """A frame's visible rows (the cloud rows in front of the near plane),
    their deformed world positions and their screen-space Gaussians."""

    visible_rows: np.ndarray
    positions: Tensor  # (M, 3) deformed world positions
    means2d: Tensor  # (M, 2)
    cov2d: Tensor  # (M, 3) as (a, b, c), dilation included
    conic: Tensor  # (M, 3), the inverse of cov2d
    depths: Tensor  # (M,) camera-space z
    camera: Camera
    t: float


def project(cloud: GaussianCloud, camera: Camera, t: float, deform_field=None, normalizer=None,
            respect_dynamic_mask: bool = False) -> Projection:
    """Deform the cloud to normalized time t (given a field), cull it at the near plane, project it."""
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
    keep = np.nonzero(pc.data[:, 2] > NEAR)[0]
    pc_k = ad.take_rows(pc, keep)
    cov_k = ad.take_rows(cov3d, keep)
    mu_k = ad.take_rows(mu_d, keep)
    means2d, cov2d, conic, z = project_gaussians(pc_k, cov_k, camera)
    return Projection(keep, mu_k, means2d, cov2d, conic, z, camera, t)


def render(cloud: GaussianCloud, camera: Camera, t: float, deform_field=None, normalizer=None,
           settings: RenderSettings | None = None, respect_dynamic_mask: bool = False) -> RenderOutput:
    """Render the cloud at normalized time t: ``project`` it, then colour and composite."""
    settings = settings or RenderSettings()
    proj = project(cloud, camera, t, deform_field, normalizer, respect_dynamic_mask)
    keep = proj.visible_rows
    colors, opac = appearance(cloud.sh, cloud.opacity_logit, keep, proj.positions, camera.center)
    raw, aux = rasterize(proj.means2d, proj.conic, colors, opac, proj.depths, cloud.ids[keep], keep,
                         camera.height, camera.width, settings)
    return RenderOutput(raw, aux["t_final"], None, None, keep, proj.means2d, proj.cov2d, proj.depths, camera, t,
                        positions_world=proj.positions.data.copy(), topk_build=aux["topk"])


# -- independent per-pixel oracle (no tape, no tiling) ------------------------


def render_brute_force(cloud: GaussianCloud, camera: Camera, settings: RenderSettings | None = None) -> np.ndarray:
    """Naive reference renderer: full reprojection and a per-pixel loop over
    every particle in depth order. Returns (H, W, 4) rgb+depth."""
    settings = settings or RenderSettings()
    h, w = camera.height, camera.width
    out = np.empty((h, w, 4))

    mu = cloud.mu.data
    q = cloud.quat.data
    rot = _rotmats_np(q / np.linalg.norm(q, axis=1, keepdims=True))
    s = np.exp(cloud.log_scale.data)
    m = rot * s[:, None, :]
    cov = m @ np.swapaxes(m, 1, 2)

    pc = mu @ camera.rot.T + camera.trans
    vis = pc[:, 2] > NEAR
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
                a = min(opac[i] * np.exp(-0.5 * q), ALPHA_MAX)
                if a < settings.alpha_min:
                    continue
                color = color + cols[i] * (a * trans)
                dep += z[i] * a * trans
                trans *= 1.0 - a
            out[row, col, 0:3] = color
            out[row, col, 3] = dep
    return out
