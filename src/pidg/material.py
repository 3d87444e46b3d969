"""Continuous velocity / stress field over normalized space-time.

The field maps a query (x, y, z, t) in [0,1]^4 plus a persistent particle id
to a velocity vector and a symmetric Cauchy stress. Its features are

    [ six plane-grid scalars | Fourier time encoding | per-id embedding ]

where the planes cover the axis pairs (x,z), (x,y), (y,z), (x,t), (y,t),
(z,t). A two-layer head decodes the features; its output layer starts at zero
so the field is initially quiescent (zero velocity, zero stress).

Stress components are packed as (xx, yy, zz, xy, xz, yz).

Units are the normalized scene units: velocities are unit-cube lengths per
unit of normalized time, stresses follow from ``rho`` in the same units.

``evaluate_with_jets`` additionally propagates exact coordinate tangents
through the plane interpolation, the Fourier encoding and the head, so the
returned jets carry d/dx, d/dy, d/dz, d/dt of every output as differentiable
tape tensors. That is what lets a loss on spatial derivatives (a PDE residual)
backpropagate into the tables and head weights with a single reverse sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoding import PlaneGrid2D, geometric_levels
from .jets import JetVec
from .nn import Linear

# (name, first axis, second axis) of the six feature planes
PLANE_AXES = (
    ("xz", 0, 2),
    ("xy", 0, 1),
    ("yz", 1, 2),
    ("xt", 0, 3),
    ("yt", 1, 3),
    ("zt", 2, 3),
)


@dataclass
class MaterialConfig:
    """Field sizes and density; defaults are the desk scale every run uses."""

    plane_levels: int = 3
    plane_base: int = 8
    plane_max: int = 48
    table_size: int = 4096  # >= 48^2, so every default level stays dense
    fourier_n: int = 4
    embed_dim: int = 16
    hidden_width: int = 64
    rho: float = 1.0


def fourier_time_features(t: np.ndarray, n: int) -> np.ndarray:
    """Interleaved (sin, cos) pairs at frequencies 2^(k-1)*pi, k = 1..n."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape + (2 * n,))
    for k in range(n):
        w = (2.0**k) * np.pi
        out[..., 2 * k] = np.sin(w * t)
        out[..., 2 * k + 1] = np.cos(w * t)
    return out


def fourier_time_tangent(t: np.ndarray, n: int) -> np.ndarray:
    """d/dt of :func:`fourier_time_features`."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty(t.shape + (2 * n,))
    for k in range(n):
        w = (2.0**k) * np.pi
        out[..., 2 * k] = w * np.cos(w * t)
        out[..., 2 * k + 1] = -w * np.sin(w * t)
    return out


class MaterialField:
    """Plane-hash + Fourier + id-embedding field decoding to (velocity, stress)."""

    def __init__(self, num_particles: int, rng, config: MaterialConfig):
        cfg = self.config = config
        self.rho = float(cfg.rho)
        res = geometric_levels(cfg.plane_base, cfg.plane_max, cfg.plane_levels)
        self.planes = {name: PlaneGrid2D([(r, r) for r in res], cfg.table_size, rng) for name, _, _ in PLANE_AXES}
        self.embedding = ad.parameter(rng.normal(0.0, 0.01, (num_particles, cfg.embed_dim)))
        self.feature_dim = 6 + 2 * cfg.fourier_n + cfg.embed_dim
        self.hidden = Linear(self.feature_dim, cfg.hidden_width, rng)
        self.head = Linear(cfg.hidden_width, 9, rng, zero_init=True)

    @property
    def params(self):
        named = []
        for name, _, _ in PLANE_AXES:
            for l, t in enumerate(self.planes[name].tables):
                named.append((f"plane_{name}.table{l}", t))
        named.append(("embedding", self.embedding))
        named += [("hidden.weight", self.hidden.weight), ("hidden.bias", self.hidden.bias)]
        named += [("head.weight", self.head.weight), ("head.bias", self.head.bias)]
        return named

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 4:
            raise ValueError("expected (N, 4) space-time query points")
        if p.size and (p.min() < 0.0 or p.max() > 1.0):
            raise ValueError("query point outside the normalized [0,1]^4 domain")
        return p

    def _features(self, p: np.ndarray, ids: np.ndarray, plane_vals) -> Tensor:
        """Feature rows (N, feature_dim) from the six planes' values at the
        detached points ``p``, the Fourier time encoding and the id embedding."""
        return ad.concatenate([ad.stack(plane_vals, axis=1),
                               ad.constant(fourier_time_features(p[:, 3], self.config.fourier_n)),
                               ad.take_rows(self.embedding, np.asarray(ids, dtype=np.int64))], axis=1)

    @staticmethod
    def _split(out: Tensor):
        """Head output (N, 9) -> (velocity (N, 3), stress (N, 6))."""
        return ad.getitem(out, (slice(None), slice(0, 3))), ad.getitem(out, (slice(None), slice(3, 9)))

    def evaluate(self, points: np.ndarray, ids: np.ndarray):
        """(velocity (N,3), stress (N,6)) at detached query points."""
        p = self._check_points(points)
        vals = [self.planes[name].interpolate(ad.constant(p[:, (i, j)])) for name, i, j in PLANE_AXES]
        h = ad.relu(self.hidden(self._features(p, ids, vals)))
        return self._split(self.head(h))

    def evaluate_with_jets(self, points: np.ndarray, ids: np.ndarray):
        """Velocity and stress jets at detached query points.

        Coordinate tangents are propagated exactly: plane partials come from
        the bilinear interpolant, the Fourier tangent is analytic, the id
        embedding is constant in the coordinates. Returns (JetVec (N,3),
        JetVec (N,6)); every slot is a tape tensor, so a loss on the partials
        reaches all field parameters.
        """
        p = self._check_points(points)
        n_pts = p.shape[0]
        cfg = self.config

        vals, tangents = [], {0: [], 1: [], 2: [], 3: []}
        for name, i, j in PLANE_AXES:
            val, d_i, d_j = self.planes[name].interpolate(ad.constant(p[:, (i, j)]), with_partials=True)
            vals.append(val)
            zero = ad.constant(np.zeros(n_pts))
            for axis in range(4):
                tangents[axis].append(d_i if axis == i else d_j if axis == j else zero)
        feats = self._features(p, ids, vals)
        hash_tan = {a: ad.stack(tangents[a], axis=1) for a in range(4)}
        four_dt = ad.constant(fourier_time_tangent(p[:, 3], cfg.fourier_n))
        w_hash = ad.getitem(self.hidden.weight, slice(0, 6))  # hash rows of W1
        w_four = ad.getitem(self.hidden.weight, slice(6, 6 + 2 * cfg.fourier_n))

        h = self.hidden(feats)
        h_tan = {a: ad.matmul(hash_tan[a], w_hash) for a in range(4)}
        h_tan[3] = ad.add(h_tan[3], ad.matmul(four_dt, w_four))

        act_mask = (h.data > 0.0).astype(np.float64)
        h_act = ad.relu(h)
        out = self.head(h_act)
        out_tan = {a: ad.matmul(ad.mul(h_tan[a], act_mask), self.head.weight) for a in range(4)}

        v_val, s_val = self._split(out)
        v_tan, s_tan = zip(*(self._split(out_tan[a]) for a in range(4)))
        return JetVec(v_val, *v_tan), JetVec(s_val, *s_tan)
