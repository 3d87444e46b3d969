"""Optical-flow geometry: backward-flow decomposition, warping, and the two
differentiable flow predictions (Gaussian flow and velocity flow).

Conventions: a flow field stores per-pixel displacements (du, dv) in pixels;
invalid pixels carry (0, 0) and are excluded from every loss. Backward flow
lives on frame t+1 and points to frame t (p1 = p4 + flow_b(p4)). The
decomposition splits it against a depth map into a camera-induced part
(p4 - p2) and an object-motion part (p2 - p1), where p2 is pixel p4's 3D
point reprojected into the frame-t camera; the motion part is therefore the
object's forward displacement as seen by a *fixed* camera and can be compared
directly with flow predicted from the particle system.

Gaussian flow transports a pixel with the tracked particles: with the frame-t
eigenbasis U of the 2D covariance (Sigma_t = U Lambda_t U^T, and Lambda_{t+1}
the same-axes quadratic form of Sigma_{t+1}),

    p_hat_i = U Lambda_{t+1}^(1/2) Lambda_t^(-1/2) U^T (p1 - mu_t) + mu_{t+1}

per contributing particle, averaged with the pixel's top-K splat weights
(renormalized over the contributors actually kept). Velocity flow replaces the
endpoint with mu_t + vbar*dt, vbar being the particle's 3D velocity pushed
through the projection Jacobian. The eigenbasis is held constant (detached);
eigenvalues, means and velocities stay differentiable.

Each prediction is one tape node over the 2D means and covariances of both
frames (and, for velocity flow, vbar), with a hand-written VJP. A frame
pair's per-contributor transform is built once and shared by both nodes
and their VJPs; their forward and gradients equal, bit for bit, the same
chain written as elementwise tape ops (the oracle in ``tests/test_flow.py``).
"""

from __future__ import annotations

import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

SINGULAR_EIG = 1e-12  # px^2; contributors below this are dropped


class FlowField:
    """Dense H x W displacement field with a validity bit per pixel."""

    def __init__(self, vectors: np.ndarray, valid: np.ndarray):
        vectors = np.asarray(vectors, dtype=np.float64)
        valid = np.asarray(valid, dtype=bool)
        if vectors.ndim != 3 or vectors.shape[2] != 2 or vectors.shape[:2] != valid.shape:
            raise ValueError("flow field needs (H, W, 2) vectors and matching (H, W) validity")
        vectors = vectors.copy()
        vectors[~valid] = 0.0
        self.vectors = vectors
        self.valid = valid

    @property
    def height(self) -> int:
        return self.vectors.shape[0]

    @property
    def width(self) -> int:
        return self.vectors.shape[1]

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.vectors[..., 0], self.vectors[..., 1])


def _pixel_grid(height: int, width: int) -> np.ndarray:
    u, v = np.meshgrid(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64))
    return np.stack([u, v], axis=-1)  # (H, W, 2) pixel centers


def surface_points(depth: np.ndarray, camera) -> np.ndarray:
    """World points (H, W, 3) of a depth map's pixel centres; a pixel with
    depth <= 0 is lifted at depth 1."""
    h, w = depth.shape
    d = depth.reshape(-1)
    return camera.backproject(_pixel_grid(h, w).reshape(-1, 2), np.where(d > 0.0, d, 1.0)).reshape(h, w, 3)


def decompose_backward(flow_b: FlowField, depth, cam_t, cam_t1):
    """Split backward flow at I_{t+1} into (camera flow, motion flow).

    camera flow = p4 - p2, motion flow = p2 - p1 with p1 = p4 + flow_b(p4) and
    p2 the depth-backprojected point of p4 reprojected into cam_t. Validity is
    cleared where the input was invalid, depth is non-positive, or p2 leaves
    the frame-t image.
    """
    depth = np.asarray(depth, dtype=np.float64)
    h, w = flow_b.valid.shape
    if depth.shape != (h, w):
        raise ValueError("depth map size does not match the flow field")
    p4 = _pixel_grid(h, w).reshape(-1, 2)
    ok = flow_b.valid.reshape(-1) & (depth.reshape(-1) > 0.0)

    p2, z2 = cam_t.project(surface_points(depth, cam_t1).reshape(-1, 3))
    ok &= z2 > 0.0
    ok &= (p2[:, 0] >= 0.0) & (p2[:, 0] <= w - 1.0) & (p2[:, 1] >= 0.0) & (p2[:, 1] <= h - 1.0)

    p1 = p4 + flow_b.vectors.reshape(-1, 2)
    cam_flow = (p4 - p2).reshape(h, w, 2)
    motion = (p2 - p1).reshape(h, w, 2)
    okg = ok.reshape(h, w)
    return FlowField(cam_flow, okg), FlowField(motion, okg)


def bilinear_sample(vectors: np.ndarray, valid: np.ndarray, points: np.ndarray):
    """Sample an (H, W, C) array at float pixel positions with strict validity.

    A sample is valid only when all four surrounding pixels are in bounds and
    valid; returns (values (P, C), ok (P,)).
    """
    h, w = valid.shape
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    u, v = pts[:, 0], pts[:, 1]
    u0 = np.floor(u).astype(np.int64)
    v0 = np.floor(v).astype(np.int64)
    inb = (u0 >= 0) & (u0 + 1 <= w - 1) & (v0 >= 0) & (v0 + 1 <= h - 1)
    u0c = np.clip(u0, 0, w - 2)
    v0c = np.clip(v0, 0, h - 2)
    fu = u - u0c
    fv = v - v0c
    ok = inb.copy()
    vals = np.zeros((pts.shape[0], vectors.shape[2]))
    for dv_ in (0, 1):
        for du_ in (0, 1):
            wgt = (fu if du_ else 1.0 - fu) * (fv if dv_ else 1.0 - fv)
            ok &= valid[v0c + dv_, u0c + du_]
            vals += wgt[:, None] * vectors[v0c + dv_, u0c + du_]
    vals[~ok] = 0.0
    return vals, ok


def warp_flow_forward(field_t1: FlowField, forward_flow: FlowField) -> FlowField:
    """Express a frame-(t+1) field on the frame-t grid via forward correspondences.

    output(p1) = bilinear sample of the input at p1 + forward_flow(p1);
    invalid where the correspondence exits the frame or hits invalid pixels.
    """
    if field_t1.valid.shape != forward_flow.valid.shape:
        raise ValueError("fields must share dimensions")
    h, w = field_t1.valid.shape
    p1 = _pixel_grid(h, w).reshape(-1, 2)
    target = p1 + forward_flow.vectors.reshape(-1, 2)
    vals, ok = bilinear_sample(field_t1.vectors, field_t1.valid, target)
    ok &= forward_flow.valid.reshape(-1)
    return FlowField(vals.reshape(h, w, 2), ok.reshape(h, w))


def eig2x2(a, b, c):
    """Eigendecomposition of symmetric [[a, b], [b, c]] batches.

    Returns (lam (N, 2) descending, U (N, 2, 2)) with U[:, :, k] the unit
    eigenvector of lam_k and det(U) = +1. Isotropic inputs get the identity
    basis.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    mid = 0.5 * (a + c)
    half = 0.5 * (a - c)
    disc = np.sqrt(half * half + b * b)
    lam = np.stack([mid + disc, mid - disc], axis=1)
    # the larger of (lam1 - c, b) / (b, lam1 - a) is the numerically safe choice
    vx = np.where(half >= 0.0, disc + half, b)
    vy = np.where(half >= 0.0, b, disc - half)
    n = np.hypot(vx, vy)
    tiny = n < 1e-30
    vx = np.where(tiny, 1.0, vx / np.where(tiny, 1.0, n))
    vy = np.where(tiny, 0.0, vy / np.where(tiny, 1.0, n))
    u = np.empty(a.shape + (2, 2))
    u[:, 0, 0], u[:, 1, 0] = vx, vy
    u[:, 0, 1], u[:, 1, 1] = -vy, vx
    return lam, u


class SparseFlow:
    """Flow predictions on the covered-pixel list of a render (tape tensors)."""

    def __init__(self, shape, pix_v: np.ndarray, pix_u: np.ndarray, vec: Tensor, valid: np.ndarray):
        self.shape = tuple(shape)
        self.pix_v = pix_v
        self.pix_u = pix_u
        self.vec = vec  # Tensor (P, 2)
        self.valid = valid  # np bool (P,)

    def to_field(self) -> FlowField:
        vecs = np.zeros(self.shape + (2,))
        ok = np.zeros(self.shape, dtype=bool)
        vecs[self.pix_v, self.pix_u] = self.vec.data
        ok[self.pix_v, self.pix_u] = self.valid
        return FlowField(vecs, ok)


def _position_lookup(visible_rows: np.ndarray, n_rows: int) -> np.ndarray:
    pos = np.full(n_rows, -1, dtype=np.int64)
    pos[visible_rows] = np.arange(len(visible_rows))
    return pos


class _Transport:
    """Per-contributor transport from a frame-t render to frame t+1's
    projection (or render), in plain numpy, built once per frame pair: the
    covered pixels, each contributor's visible row at t (``it``) and at t+1
    (``it1``), the kept contributors' renormalised weights, the detached
    frame-t axes, the same-axes eigenvalues with their clip guards and
    roots, the scale transform A = U Lambda_{t+1}^(1/2) Lambda_t^(-1/2) U^T
    as (a00, a01, a11), the offsets (dx, dy) = p1 - mu_t and the pixel
    centres p1. Both flow nodes and their VJPs only read these arrays, so
    ``frame_pair_flows`` builds one for both flow predictions.
    """

    def __init__(self, out_t, out_t1):
        topk = out_t.topk_rows
        h, w, k = topk.shape
        self.shape = (h, w)
        covered = topk[..., 0] >= 0
        self.pv, self.pu = np.nonzero(covered)
        rows = topk[self.pv, self.pu]  # (P, K) cloud rows, -1 pad

        n_rows = int(max(rows.max(initial=0), out_t.visible_rows.max(initial=0),
                         out_t1.visible_rows.max(initial=0))) + 1
        pos_t = _position_lookup(out_t.visible_rows, n_rows)
        pos_t1 = _position_lookup(out_t1.visible_rows, n_rows)
        safe = np.where(rows >= 0, rows, 0)
        it = pos_t[safe]
        it1 = pos_t1[safe]
        keep = (rows >= 0) & (it >= 0) & (it1 >= 0)
        self.it = np.where(keep, it, 0).reshape(-1)
        self.it1 = np.where(keep, it1, 0).reshape(-1)

        # each contributor's frame-t eigenvectors (detached) and its same-axes
        # eigenvalues (lam1_t, lam2_t, lam1_t1, lam2_t1); contributors with a
        # near-singular one at either time are dropped
        cov_t, cov_t1 = out_t.cov2d.data, out_t1.cov2d.data
        u = eig2x2(cov_t[:, 0], cov_t[:, 1], cov_t[:, 2])[1][self.it]
        self.u1 = (v1x, v1y) = (u[:, 0, 0], u[:, 1, 0])
        self.u2 = (v2x, v2y) = (u[:, 0, 1], u[:, 1, 1])
        self.lam = (_quad(cov_t, self.it, v1x, v1y), _quad(cov_t, self.it, v2x, v2y),
                    _quad(cov_t1, self.it1, v1x, v1y), _quad(cov_t1, self.it1, v2x, v2y))
        sing = np.zeros(len(self.it), dtype=bool)
        for lam in self.lam:
            sing |= lam < SINGULAR_EIG
        keep &= ~sing.reshape(keep.shape)

        wn = out_t.topk_weights[self.pv, self.pu] * keep
        tot = wn.sum(axis=1)
        self.ok = tot > 0.0
        self.wn = wn / np.where(self.ok, tot, 1.0)[:, None]

        self.guard = guard = [np.clip(x, SINGULAR_EIG, np.inf) for x in self.lam]  # dropped rows: keep math finite
        self.root1 = (guard[2] ** 0.5, guard[0] ** -0.5)
        self.root2 = (guard[3] ** 0.5, guard[1] ** -0.5)
        s1 = self.root1[0] * self.root1[1]
        s2 = self.root2[0] * self.root2[1]
        self.a = (s1 * (v1x * v1x) + s2 * (v2x * v2x),
                  s1 * (v1x * v1y) + s2 * (v2x * v2y),
                  s1 * (v1y * v1y) + s2 * (v2y * v2y))
        mu = out_t.means2d.data[self.it]
        self.p1x = np.repeat(self.pu.astype(np.float64), k)
        self.p1y = np.repeat(self.pv.astype(np.float64), k)
        self.dx, self.dy = self.p1x - mu[:, 0], self.p1y - mu[:, 1]

    def flow(self, end_x, end_y) -> np.ndarray:
        """(P, 2) weighted flow (p_hat - p1), with endpoint offsets end_* per contributor."""
        a00, a01, a11 = self.a
        n_pix, k = self.wn.shape
        fx = (a00 * self.dx + a01 * self.dy + end_x - self.p1x).reshape(n_pix, k)
        fy = (a01 * self.dx + a11 * self.dy + end_y - self.p1y).reshape(n_pix, k)
        return np.stack([(fx * self.wn).sum(axis=1), (fy * self.wn).sum(axis=1)], axis=1)

    def endpoint_grads(self, g):
        """Each contributor's gradients (gx, gy) at its transported point,
        from the (P, 2) gradient ``g`` of the weighted flow."""
        return (g[:, 0][:, None] * self.wn).reshape(-1), (g[:, 1][:, None] * self.wn).reshape(-1)

    def backward(self, gx, gy, cov_t, cov_t1, means_t, end_on_mean: bool) -> None:
        """Accumulate the transform's gradients into ``means_t``, ``cov_t1`` and
        ``cov_t``, each in the order and the rounding of the unfused tape.
        ``end_on_mean``: the endpoint is offset from mu_t, so (gx, gy) reach
        the frame-t means as well."""
        lam, guard, root1, root2 = self.lam, self.guard, self.root1, self.root2
        a00, a01, a11 = self.a
        g_dx = gy * a01 + gx * a00
        g_dy = gy * a11 + gx * a01
        mu_x, mu_y = (gx + -g_dx, gy + -g_dy) if end_on_mean else (-g_dx, -g_dy)
        ad.accumulate_grad(means_t, ad.scatter_add(self.it, np.stack([mu_x, mu_y], axis=1),
                                                   means_t.data.shape))

        g_a00 = gx * self.dx
        g_a01 = gy * self.dx + gx * self.dy
        g_a11 = gy * self.dy
        (v1x, v1y), (v2x, v2y) = self.u1, self.u2
        g_s1 = g_a11 * (v1y * v1y) + g_a01 * (v1x * v1y) + g_a00 * (v1x * v1x)
        g_s2 = g_a11 * (v2y * v2y) + g_a01 * (v2x * v2y) + g_a00 * (v2x * v2x)
        # s = lam_t1^(1/2) * lam_t^(-1/2), each factor through the guard's clip
        g_lam1_t = g_s1 * root1[0] * -0.5 * guard[0] ** -1.5 * _inside(lam[0])
        g_lam2_t = g_s2 * root2[0] * -0.5 * guard[1] ** -1.5 * _inside(lam[1])
        g_lam1_t1 = g_s1 * root1[1] * 0.5 * guard[2] ** -0.5 * _inside(lam[2])
        g_lam2_t1 = g_s2 * root2[1] * 0.5 * guard[3] ** -0.5 * _inside(lam[3])
        _quad_vjp(cov_t1, self.it1, *self.u2, g_lam2_t1)
        _quad_vjp(cov_t1, self.it1, *self.u1, g_lam1_t1)
        _quad_vjp(cov_t, self.it, *self.u2, g_lam2_t)
        _quad_vjp(cov_t, self.it, *self.u1, g_lam1_t)

    def sparse(self, vec: Tensor) -> SparseFlow:
        return SparseFlow(self.shape, self.pv, self.pu, vec, self.ok)


def _quad(cov: np.ndarray, idx, ux, uy) -> np.ndarray:
    """u^T Sigma u of the flat covariance rows ``idx`` along unit axes (ux, uy)."""
    ca = cov[idx]
    return ca[:, 0] * (ux * ux) + ca[:, 1] * (ux * uy) * 2.0 + ca[:, 2] * (uy * uy)


def _quad_vjp(cov: Tensor, idx, ux, uy, g) -> None:
    """Accumulate the gradient ``g`` of ``_quad(cov.data, idx, ux, uy)`` into ``cov``."""
    cols = np.stack([g * (ux * ux), g * 2.0 * (ux * uy), g * (uy * uy)], axis=1)
    ad.accumulate_grad(cov, ad.scatter_add(idx, cols, cov.data.shape))


def _inside(lam) -> np.ndarray:
    """Where the eigenvalue guard passes its gradient (as ``ad.clip`` does)."""
    return (lam >= SINGULAR_EIG) & (lam <= np.inf)


def gaussian_flow(out_t, out_t1, *, _transport=None) -> SparseFlow:
    """Particle-transport flow from render t to projection t+1 over the
    covered pixels; one tape node with a hand-written VJP."""
    tr = _transport or _Transport(out_t, out_t1)
    cov_t, cov_t1, means_t, means_t1 = out_t.cov2d, out_t1.cov2d, out_t.means2d, out_t1.means2d
    end = means_t1.data[tr.it1]

    def vjp(g):
        gx, gy = tr.endpoint_grads(g)
        ad.accumulate_grad(means_t1, ad.scatter_add(tr.it1, np.stack([gx, gy], axis=1),
                                                    means_t1.data.shape))
        tr.backward(gx, gy, cov_t, cov_t1, means_t, end_on_mean=False)

    vec = tr.flow(end[:, 0], end[:, 1])
    return tr.sparse(ad.record(vec, (cov_t, cov_t1, means_t, means_t1), vjp, "gaussian_flow"))


def project_velocity(camera, means2d: Tensor, depths: Tensor, v_world: Tensor) -> Tensor:
    """World-space velocities -> pixel velocities via the projection Jacobian.

    The Jacobian is evaluated at each particle's current camera-space position
    (recovered from its pixel coordinates and depth); equals the limit of
    finite-difference reprojection.
    """
    vc = ad.matmul(v_world, ad.constant(camera.rot.T))  # camera-frame direction
    inv_z = ad.pow_const(depths, -1.0)
    vx = ad.mul(
        ad.sub(ad.mul(vc[:, 0], camera.fx), ad.mul(ad.sub(means2d[:, 0], camera.cx), vc[:, 2])),
        inv_z,
    )
    vy = ad.mul(
        ad.sub(ad.mul(vc[:, 1], camera.fy), ad.mul(ad.sub(means2d[:, 1], camera.cy), vc[:, 2])),
        inv_z,
    )
    return ad.stack([vx, vy], axis=1)


def velocity_flow(out_t, out_t1, v_world: Tensor, dt: float, *, _transport=None) -> SparseFlow:
    """Advection flow: particles carried by their predicted velocity for dt.

    ``v_world`` holds world-space velocities (per unit normalized time) for
    the *visible rows* of the frame-t render; dt is the frame interval in
    normalized time. The covariance transport is the same scale transform
    as ``gaussian_flow``'s (see ``_Transport``). The pixel velocities stay
    on the tape; the transport is one node with a hand-written VJP.
    """
    tr = _transport or _Transport(out_t, out_t1)
    vbar = project_velocity(out_t.camera, out_t.means2d, out_t.depths, v_world)
    dt = float(dt)
    cov_t, cov_t1, means_t = out_t.cov2d, out_t1.cov2d, out_t.means2d
    mu, vb = means_t.data[tr.it], vbar.data[tr.it]

    def vjp(g):
        gx, gy = tr.endpoint_grads(g)
        ad.accumulate_grad(vbar, ad.scatter_add(tr.it, np.stack([gx * dt, gy * dt], axis=1),
                                                vbar.data.shape))
        tr.backward(gx, gy, cov_t, cov_t1, means_t, end_on_mean=True)

    vec = tr.flow(mu[:, 0] + vb[:, 0] * dt, mu[:, 1] + vb[:, 1] * dt)
    return tr.sparse(ad.record(vec, (cov_t, cov_t1, means_t, vbar), vjp, "velocity_flow"))


def frame_pair_flows(out_t, out_t1, ids: np.ndarray, material, normalizer):
    """Both flow predictions of a frame pair: (flow_g, flow_v, v_world).

    ``out_t1`` is frame t+1's projection (or render). The material field
    gives the velocity of each particle visible at frame t (``ids`` are the
    cloud's particle ids; the frame-t render's visible rows pick theirs) at
    its deformed position and the frame-t time; ``v_world`` is that velocity
    in world units. dt is the interval between the two frames' times.
    """
    p4 = normalizer.unit4_np(out_t.positions_world, out_t.t)
    v_norm, _ = material.evaluate(p4, ids[out_t.visible_rows])
    v_world = ad.mul(v_norm, normalizer.scale)
    tr = _Transport(out_t, out_t1)
    flow_g = gaussian_flow(out_t, out_t1, _transport=tr)
    flow_v = velocity_flow(out_t, out_t1, v_world, dt=out_t1.t - out_t.t, _transport=tr)
    return flow_g, flow_v, v_world


def lpfm_loss(flow_g: SparseFlow, flow_v: SparseFlow, flow_gt: FlowField, mask: np.ndarray,
              lambda_g: float, lambda_v: float) -> Tensor:
    """Mean L1 flow-matching loss over valid, motion-masked pixels.

    Both predictions must come from the same render (same covered pixels).
    With no supervised pixel the loss is 0 and a warning is emitted.
    """
    if flow_g.shape != flow_v.shape or len(flow_g.pix_v) != len(flow_v.pix_v):
        raise ValueError("flow predictions cover different pixel sets")
    mask = np.asarray(mask)
    sel = (flow_g.valid & flow_v.valid
           & flow_gt.valid[flow_g.pix_v, flow_g.pix_u]
           & (mask[flow_g.pix_v, flow_g.pix_u] > 0))
    idx = np.nonzero(sel)[0]
    if idx.size == 0:
        warnings.warn("flow-matching loss saw zero supervised pixels", stacklevel=2)
        return ad.constant(0.0)
    gt = ad.constant(flow_gt.vectors[flow_g.pix_v[idx], flow_g.pix_u[idx]])
    err_g = ad.sum_(ad.abs_(ad.sub(ad.take_rows(flow_g.vec, idx), gt)), axis=1)
    err_v = ad.sum_(ad.abs_(ad.sub(ad.take_rows(flow_v.vec, idx), gt)), axis=1)
    return ad.add(ad.mul(ad.mean(err_g), lambda_g), ad.mul(ad.mean(err_v), lambda_v))
