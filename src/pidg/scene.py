"""Gaussian particle cloud: learnable attributes, covariance assembly,
densification and pruning.

Every particle carries a persistent integer id assigned at initialization.
Cloning and splitting hand the parent id to each child, so ids surviving any
sequence of cloud edits always trace back to the initial set (the per-id
embedding of the material field relies on this).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate_grad, check_finite, record


PERCENT_DENSE = 0.01  # a hot particle wider than this fraction of the scene extent splits
SPLIT_FACTOR = 1.6  # a split child's scales are its parent's divided by this
INIT_COLOR = 0.35  # the gray of ``GaussianCloud.random_init``


class DegenerateRotationError(ValueError):
    """Quaternion norm fell below 1e-8; no rotation can be recovered."""


def _check_quaternion_norms(n2: np.ndarray) -> None:
    """Raise ``DegenerateRotationError`` if a squared norm ``n2`` is below (1e-8)^2."""
    norms = np.sqrt(n2)
    if np.any(norms < 1e-8):
        raise DegenerateRotationError(f"quaternion norm {norms.min():.3e} below 1e-8")


def normalize_quaternions(quat: Tensor) -> Tensor:
    _check_quaternion_norms(np.sum(quat.data**2, axis=-1))
    n2 = ad.sum_(ad.mul(quat, quat), axis=-1, keepdims=True)
    return ad.mul(quat, ad.pow_const(n2, -0.5))


def _rotation(quat: np.ndarray):
    """(squared norms, their inverse roots, unit quaternions, rotations) of
    (N,4) quaternions: the values ``normalize_quaternions`` and ``_rotmats_np``
    give, which the rotation VJP reads."""
    n2 = (quat * quat).sum(axis=-1, keepdims=True)
    _check_quaternion_norms(n2)
    inv = n2**-0.5
    q = quat * inv
    return n2, inv, q, _rotmats_np(q)


def _rotation_vjp(g: np.ndarray, quat: Tensor, n2, inv, q) -> None:
    """Accumulate the gradient ``g`` (N,3,3) of the rotations of ``quat`` into
    it, summing in the order of the 51-node tape composition this replaced
    (kept as the oracle in ``tests/test_fused_geometry.py``).

    Entry (i, j) passes ``2 g_ij`` (``-2 g_ii`` on the diagonal) into its two
    products. Each unit-quaternion component sums its terms in the sweep's
    order, from r22 back to r00; ``a - b`` is ``a + (-b)`` bit for bit. The
    composition padded each component's gradient into a zero (N,4) buffer,
    which turned -0.0 into +0.0; the ``+ 0.0`` does the same."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    s00, s11, s22 = (-g[:, 0, 0]) * 2.0, (-g[:, 1, 1]) * 2.0, (-g[:, 2, 2]) * 2.0
    d01, d02, d10 = g[:, 0, 1] * 2.0, g[:, 0, 2] * 2.0, g[:, 1, 0] * 2.0
    d12, d20, d21 = g[:, 1, 2] * 2.0, g[:, 2, 0] * 2.0, g[:, 2, 1] * 2.0
    gw = d21 * x - d20 * y - d12 * x + d10 * z + d02 * y - d01 * z
    gx = s22 * x + s22 * x + d21 * w + d20 * z - d12 * w + s11 * x + s11 * x + d10 * y + d02 * z + d01 * y
    gy = s22 * y + s22 * y + d21 * z - d20 * w + d12 * z + d10 * x + d02 * w + d01 * x + s00 * y + s00 * y
    gz = d21 * y + d20 * x + d12 * y + s11 * z + s11 * z + d10 * w + d02 * x - d01 * w + s00 * z + s00 * z
    gq = np.stack([gw, gx, gy, gz], axis=1) + 0.0
    # q = quat * n2^-1/2 and n2 = sum(quat * quat)
    accumulate_grad(quat, gq * inv)
    g_n2 = (gq * quat.data).sum(axis=(1,), keepdims=True) * -0.5 * n2**-1.5
    accumulate_grad(quat, g_n2 * quat.data)
    accumulate_grad(quat, g_n2 * quat.data)


def rotation_matrices(quat: Tensor) -> Tensor:
    """Normalized quaternions (N,4) in (w,x,y,z) order -> rotation matrices
    (N,3,3): one tape node. A norm below 1e-8 raises
    ``DegenerateRotationError``; the squared norms are checked as well as the
    rotations, because an overflowing norm still gives a finite rotation."""
    n2, inv, q, rot = _rotation(quat.data)
    check_finite("rotation_matrices", [n2], (quat,))

    def vjp(g):
        _rotation_vjp(g, quat, n2, inv, q)

    return record(rot, (quat,), vjp, "rotation_matrices")


def covariance(quat: Tensor, log_scale: Tensor) -> Tensor:
    """World-space covariance R diag(exp(s))^2 R^T for each particle, (N,3,3):
    one tape node, with the rotation of ``rotation_matrices``. The VJP sums in
    the order of the tape composition this replaced."""
    n2, inv, q, rot = _rotation(quat.data)
    scale = np.exp(log_scale.data)
    r = scale.reshape(scale.shape[0], 1, 3)
    m = rot * r
    mt = np.swapaxes(m, 1, 2)
    check_finite("covariance", [n2], (quat, log_scale))

    def vjp(g):
        # cov = m m^T: the matmul's gradient into m, then its gradient into
        # m^T carried back through the transpose
        gm = g @ np.swapaxes(mt, -1, -2)
        gm = gm + np.swapaxes(np.swapaxes(m, -1, -2) @ g, 1, 2)
        accumulate_grad(log_scale, (gm * rot).sum(axis=(1,), keepdims=True).reshape(scale.shape) * scale)
        _rotation_vjp(gm * r, quat, n2, inv, q)

    return record(m @ mt, (quat, log_scale), vjp, "covariance")


class GaussianCloud:
    """Learnable particle set. Attribute tensors share row order with ``ids``."""

    PARAMS = ("mu", "quat", "log_scale", "sh", "opacity_logit")  # constructor order

    def __init__(self, mu, quat, log_scale, sh, opacity_logit, ids, dynamic=None):
        self.mu = mu if isinstance(mu, Tensor) else ad.parameter(mu)
        self.quat = quat if isinstance(quat, Tensor) else ad.parameter(quat)
        self.log_scale = log_scale if isinstance(log_scale, Tensor) else ad.parameter(log_scale)
        self.sh = sh if isinstance(sh, Tensor) else ad.parameter(sh)  # (N, 4, 3): DC + 3 linear
        self.opacity_logit = opacity_logit if isinstance(opacity_logit, Tensor) else ad.parameter(opacity_logit)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.dynamic = np.ones(len(self.ids), dtype=bool) if dynamic is None else np.asarray(dynamic, dtype=bool)

    def __len__(self):
        return len(self.ids)

    @property
    def params(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in self.PARAMS}

    @classmethod
    def random_init(cls, rng, count, center, radius, base_scale, opacity=0.1):
        """Particles uniform in a ball, axis-aligned, mid-gray, shared opacity."""
        d = rng.normal(size=(count, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / 3.0)
        mu = np.asarray(center) + d * r[:, None]
        quat = np.zeros((count, 4))
        quat[:, 0] = 1.0
        log_scale = np.full((count, 3), np.log(base_scale))
        sh = np.zeros((count, 4, 3))
        sh[:, 0, :] = (INIT_COLOR - 0.5) / SH_C0
        logit = np.full(count, _logit(opacity))
        return cls(mu, quat, log_scale, sh, logit, np.arange(count))

    def world_scales(self) -> np.ndarray:
        return np.exp(self.log_scale.data)

    def opacities(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.opacity_logit.data))

    def replace_rows(self, arrays: dict[str, np.ndarray], ids, dynamic) -> None:
        for name, arr in arrays.items():
            self.params[name].data = np.ascontiguousarray(arr, dtype=np.float64)
            self.params[name].grad = None
        self.ids = np.asarray(ids, dtype=np.int64)
        self.dynamic = np.asarray(dynamic, dtype=bool)


SH_C0 = 0.28209479177387814
SH_C1 = 0.4886025119029199


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def prune_mask(cloud: GaussianCloud, scale_threshold: float, scene_extent: float, min_opacity: float) -> np.ndarray:
    """Boolean mask of particles to remove: overgrown or effectively invisible.

    A particle is overgrown when its largest world-space scale exceeds
    ``scale_threshold * scene_extent``.
    """
    too_big = self_max_scale(cloud) > scale_threshold * scene_extent
    too_faint = cloud.opacities() < min_opacity
    return too_big | too_faint


def self_max_scale(cloud: GaussianCloud) -> np.ndarray:
    return cloud.world_scales().max(axis=1)


def densify_and_prune(
    cloud: GaussianCloud,
    grad_norms: np.ndarray,
    rng,
    grad_threshold: float,
    scene_extent: float,
    scale_threshold: float,
    min_opacity: float,
):
    """Clone small / split large high-gradient particles, then prune.

    Children take the parent's id. Split children sample their position from
    the parent's own ellipsoid and shrink each scale by ``SPLIT_FACTOR``; the
    parent row is retired. Returns (kept_old_rows, n_appended): the surviving
    original rows in order, followed by that many appended child rows, which
    is what an optimizer needs to carry its per-row state across the edit.
    """
    n = len(cloud)
    grad_norms = np.asarray(grad_norms, dtype=np.float64)
    max_scale = self_max_scale(cloud)
    hot = grad_norms >= grad_threshold
    split = hot & (max_scale > PERCENT_DENSE * scene_extent)
    clone = hot & ~split

    arrays = {k: v.data for k, v in cloud.params.items()}
    remove = prune_mask(cloud, scale_threshold, scene_extent, min_opacity)

    kept = np.nonzero(~(remove | split))[0]
    clone_src = np.nonzero(clone & ~remove)[0]
    split_src = np.nonzero(split & ~remove)[0]

    new_chunks = {k: [arrays[k][kept]] for k in arrays}
    new_ids = [cloud.ids[kept]]
    new_dyn = [cloud.dynamic[kept]]

    if len(clone_src):
        for k in arrays:
            new_chunks[k].append(arrays[k][clone_src].copy())
        new_ids.append(cloud.ids[clone_src])
        new_dyn.append(cloud.dynamic[clone_src])

    if len(split_src):
        reps = np.repeat(split_src, 2)
        mu = arrays["mu"][reps]
        quat = arrays["quat"][reps]
        log_scale = arrays["log_scale"][reps]
        # sample offsets inside the parent ellipsoid: R @ (exp(s) * eps)
        eps = rng.normal(size=(len(reps), 3)) * np.exp(log_scale)
        qn = quat / np.linalg.norm(quat, axis=1, keepdims=True)
        rot = _rotmats_np(qn)
        mu = mu + np.einsum("nij,nj->ni", rot, eps)
        for k in arrays:
            if k == "mu":
                new_chunks[k].append(mu)
            elif k == "log_scale":
                new_chunks[k].append(log_scale - np.log(SPLIT_FACTOR))
            else:
                new_chunks[k].append(arrays[k][reps].copy())
        new_ids.append(cloud.ids[reps])
        new_dyn.append(cloud.dynamic[reps])

    merged = {k: np.concatenate(v, axis=0) for k, v in new_chunks.items()}
    ids = np.concatenate(new_ids)
    dyn = np.concatenate(new_dyn)
    n_appended = len(ids) - len(kept)
    cloud.replace_rows(merged, ids, dyn)
    return kept, n_appended


def _rotmats_np(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=1),
        ],
        axis=1,
    )


class SceneNormalizer:
    """Maps world coordinates into the unit cube queried by the feature grids.

    Uniform scale: unit = (p - center) / scale + 0.5, clamped into [0, 1].
    ``scale`` should cover the scene with margin so deformed particles stay
    inside. Velocities in unit coordinates convert to world units by
    multiplying with ``scale``.
    """

    def __init__(self, center, scale: float):
        self.center = np.asarray(center, dtype=np.float64).reshape(3)
        self.scale = float(scale)
        if self.scale <= 0:
            raise ValueError("normalizer scale must be positive")

    def unit(self, p: Tensor) -> Tensor:
        q = ad.add(ad.mul(ad.sub(p, ad.constant(self.center)), 1.0 / self.scale), 0.5)
        return ad.clip(q, 0.0, 1.0)

    def unit4(self, p: Tensor, t: float) -> Tensor:
        """(N,3) world positions + one time -> clamped (N,4) unit coordinates."""
        xyz = self.unit(p)
        tcol = ad.constant(np.full((p.shape[0], 1), min(max(float(t), 0.0), 1.0)))
        return ad.concatenate([xyz, tcol], axis=1)

    def unit_np(self, p: np.ndarray) -> np.ndarray:
        return np.clip((np.asarray(p) - self.center) / self.scale + 0.5, 0.0, 1.0)

    def unit4_np(self, p: np.ndarray, t: float) -> np.ndarray:
        p = np.atleast_2d(p)
        return np.concatenate([self.unit_np(p), np.full((p.shape[0], 1), np.clip(t, 0.0, 1.0))], axis=1)

    def to_dict(self) -> dict:
        return {"center": self.center.tolist(), "scale": self.scale}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneNormalizer":
        return cls(d["center"], d["scale"])


def partition_dynamic(positions_per_frame, masks, cameras, fraction: float) -> np.ndarray:
    """Label particles dynamic when their projected center lands in the motion
    mask in at least ``fraction`` of the frames where it is visible.

    ``positions_per_frame`` is (F, N, 3) world positions (deformed per frame).
    Particles never visible default to static.
    """
    positions_per_frame = np.asarray(positions_per_frame, dtype=np.float64)
    n_frames, n_pts = positions_per_frame.shape[:2]
    inside = np.zeros(n_pts)
    visible = np.zeros(n_pts)
    for f in range(n_frames):
        cam = cameras[f]
        mask = np.asarray(masks[f])
        pix, z = cam.project(positions_per_frame[f])
        u = np.round(pix[:, 0]).astype(np.int64)
        v = np.round(pix[:, 1]).astype(np.int64)
        vis = (z > 1e-6) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
        visible += vis
        uu = np.clip(u, 0, cam.width - 1)
        vv = np.clip(v, 0, cam.height - 1)
        inside += vis & (mask[vv, uu] > 0)
    out = np.zeros(n_pts, dtype=bool)
    seen = visible > 0
    out[seen] = inside[seen] / visible[seen] >= fraction
    return out
