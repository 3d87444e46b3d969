"""Time-conditioned deformation of Gaussian particles.

A 4D query (x, y, z, t) is encoded by four 3D hash grids covering the axis
triples (x,y,z), (x,y,t), (y,z,t), (x,z,t) — a decomposition that stores
4*n^3*d entries where a monolithic 4D grid would need n^4*d. The purely
spatial feature gates the three time-bearing features through a signed
attention weight in (-1, 1), and a small decoder turns the gated feature into
a rigid-plus-residual update of the particle: a rotation applied to the
position, a translation, a quaternion residual, and a log-scale residual.

The decoder's output layer starts at zero, so an untrained field is exactly
the identity deformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import MultiResHashGrid3D, geometric_levels, hashgrid3d
from .nn import Linear
from .scene import normalize_quaternions, rotation_matrices

# the query columns (x, y, z, t) = (0, 1, 2, 3) each grid reads, in grid order
GRID_AXES = {"g_xyz": (0, 1, 2), "g_xyt": (0, 1, 3), "g_yzt": (1, 2, 3), "g_xzt": (0, 2, 3)}


@dataclass
class DeformConfig:
    """Encoder/decoder sizes.

    Defaults are the desk scale every run uses; the README gives the
    full-scale sizes of the underlying method as a run-config edit.
    """

    spatial_levels: int = 6
    spatial_base: int = 8
    spatial_max: int = 96
    temporal_levels: int = 6
    time_base: int = 2
    time_max: int = 4  # typically half the frame count
    table_size_log2: int = 15
    feature_dim: int = 2
    attn_width: int = 32
    hidden_width: int = 64


class DeformationField:
    def __init__(self, cfg: DeformConfig, rng):
        self.cfg = cfg
        table = 2**cfg.table_size_log2
        sp = geometric_levels(cfg.spatial_base, cfg.spatial_max, cfg.spatial_levels)
        sp_t = geometric_levels(cfg.spatial_base, cfg.spatial_max, cfg.temporal_levels)
        tm = geometric_levels(max(2, min(cfg.time_base, cfg.time_max)), max(2, cfg.time_max), cfg.temporal_levels)
        self.grid_xyz = MultiResHashGrid3D([(r, r, r) for r in sp], table, cfg.feature_dim, rng)
        self.grid_xyt = MultiResHashGrid3D([(r, r, t) for r, t in zip(sp_t, tm)], table, cfg.feature_dim, rng)
        self.grid_yzt = MultiResHashGrid3D([(r, r, t) for r, t in zip(sp_t, tm)], table, cfg.feature_dim, rng)
        self.grid_xzt = MultiResHashGrid3D([(r, r, t) for r, t in zip(sp_t, tm)], table, cfg.feature_dim, rng)
        self.f_s = Linear(self.grid_xyz.out_dim, cfg.attn_width, rng)
        self.f_t = Linear(3 * self.grid_xyt.out_dim, cfg.attn_width, rng)
        self.hidden = Linear(cfg.attn_width, cfg.hidden_width, rng)
        self.head = Linear(cfg.hidden_width, 14, rng, zero_init=True)

    @property
    def params(self) -> dict[str, Tensor]:
        out = {}
        for gname, grid in self.grids.items():
            for i, t in enumerate(grid.tables):
                out[f"{gname}.table{i}"] = t
        for lname, layer in [("f_s", self.f_s), ("f_t", self.f_t), ("hidden", self.hidden), ("head", self.head)]:
            out[f"{lname}.weight"] = layer.weight
            out[f"{lname}.bias"] = layer.bias
        return out

    @property
    def grids(self) -> dict[str, MultiResHashGrid3D]:
        return {"g_xyz": self.grid_xyz, "g_xyt": self.grid_xyt, "g_yzt": self.grid_yzt, "g_xzt": self.grid_xzt}

    # -- encoding ------------------------------------------------------------

    def encode4d(self, p: Tensor):
        """Features of normalized (N,4) points: one spatial and three temporal
        blocks, from one ``hashgrid3d`` node. Points outside [0,1]^4 are
        rejected."""
        f_xyz, f_xyt, f_yzt, f_xzt = hashgrid3d(p, list(self.grids.values()), list(GRID_AXES.values()))
        return f_xyz, (f_xyt, f_yzt, f_xzt)

    def attention(self, f_xyz: Tensor, temporal_feats) -> Tensor:
        """Signed spatial gating of the fused temporal feature.

        a = 2*sigmoid(f_s(spatial)) - 1 lies in (-1, 1); the sign lets the
        spatial context flip the direction a temporal feature pushes in.
        """
        a = 2.0 * ad.sigmoid(self.f_s(f_xyz)) - 1.0
        ft = ad.relu(self.f_t(ad.concatenate(list(temporal_feats), axis=1)))
        return ad.mul(a, ft)

    def decode(self, h: Tensor) -> dict[str, Tensor]:
        out = self.head(ad.relu(self.hidden(h)))
        quat_raw = out[:, 0:4]
        offset = np.zeros(4)
        offset[0] = 1.0
        return {
            "pos_quat": ad.add(quat_raw, ad.constant(offset)),
            "translation": out[:, 4:7],
            "quat_delta": out[:, 7:11],
            "scale_delta": out[:, 11:14],
        }

    # -- full particle update -------------------------------------------------

    def deform_gaussians(self, mu: Tensor, quat: Tensor, log_scale: Tensor, p_norm: Tensor, dynamic=None):
        """Deformed (mu', quat', log_scale') at one time.

        ``mu`` is world-space; ``p_norm`` are the matching normalized (N,4)
        query coordinates. The decoded rotation acts on the position only:
        mu' = R_x mu + T_x, quat' = normalize(quat + dq), s' = s + ds (on the
        stored log-scales). Rows where ``dynamic`` is False keep their
        canonical attributes and contribute no gradient to the field.
        """
        f_xyz, temporal = self.encode4d(p_norm)
        h = self.attention(f_xyz, temporal)
        heads = self.decode(h)
        rot = rotation_matrices(heads["pos_quat"])  # (N,3,3)
        mu_d = ad.add(
            ad.reshape(ad.matmul(rot, ad.reshape(mu, (mu.shape[0], 3, 1))), mu.shape),
            heads["translation"],
        )
        quat_d = normalize_quaternions(ad.add(quat, heads["quat_delta"]))
        scale_d = ad.add(log_scale, heads["scale_delta"])
        if dynamic is not None and not bool(np.all(dynamic)):
            m1 = np.asarray(dynamic, dtype=bool)[:, None]
            mu_d = ad.where(m1, mu_d, mu)
            quat_d = ad.where(m1, quat_d, normalize_quaternions(quat))
            scale_d = ad.where(m1, scale_d, log_scale)
        return mu_d, quat_d, scale_d
