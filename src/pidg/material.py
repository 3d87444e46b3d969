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
from .autodiff import accumulate_grad, check_finite, record, scatter_add
from .encoding import PlaneGrid2D, geometric_levels, plane2d
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

    def _plane_jets(self, p: np.ndarray, with_partials: bool):
        """Each plane's jet at the detached points ``p``: one ``plane2d`` node."""
        return plane2d(ad.constant(p), [self.planes[name] for name, _, _ in PLANE_AXES],
                       [(i, j) for _, i, j in PLANE_AXES], with_partials)

    def evaluate(self, points: np.ndarray, ids: np.ndarray):
        """(velocity (N,3), stress (N,6)) at detached query points."""
        p = self._check_points(points)
        return self._decode(p, ids, self._plane_jets(p, with_partials=False))

    def evaluate_with_jets(self, points: np.ndarray, ids: np.ndarray):
        """Velocity and stress jets at detached query points.

        Coordinate tangents are propagated exactly: plane partials come from
        the bilinear interpolant, the Fourier tangent is analytic, the id
        embedding is constant in the coordinates. Returns (JetVec (N,3),
        JetVec (N,6)); every slot is a tape tensor, so a loss on the partials
        reaches all field parameters.
        """
        p = self._check_points(points)
        outs = self._decode(p, ids, self._plane_jets(p, with_partials=True))
        return JetVec(*outs[0::2]), JetVec(*outs[1::2])

    def _decode(self, p: np.ndarray, ids: np.ndarray, jets) -> tuple:
        """The features, the hidden layer, its ReLU and the head, from the
        planes' jets to (velocity, stress) and, when the jets carry partials,
        their d/dx, d/dy, d/dz, d/dt after them: one ``material_head`` node.

        The features are [plane values | Fourier time | id embedding]. Each
        coordinate tangent of the hidden layer is the planes' partials along
        that axis (and, along t, the Fourier tangent) times the matching rows
        of the hidden weight; the ReLU's mask then gates it into the head. The
        backward replays the gradient order of the tape composition this node
        replaced (kept in the tests as its oracle), so its bytes match.
        """
        cfg = self.config
        n_pts = p.shape[0]
        ids = np.asarray(ids, dtype=np.int64)
        w1, b1, w2, b2 = self.hidden.weight, self.hidden.bias, self.head.weight, self.head.bias
        four = slice(6, 6 + 2 * cfg.fourier_n)  # the Fourier rows of the features and of w1
        feats = np.concatenate([np.stack([jet[0].data for jet in jets], axis=1),
                                fourier_time_features(p[:, 3], cfg.fourier_n),
                                self.embedding.data[ids]], axis=1)
        h = feats @ w1.data + b1.data
        mask = h > 0.0
        h_act = np.where(mask, h, 0.0)
        heads = [h_act @ w2.data + b2.data]
        intermediates = [feats, h]
        with_partials = len(jets[0]) == 3
        if with_partials:
            # tangent a of plane k: d/du if a is its u axis, d/dv if its v axis, else 0
            zero = np.zeros(n_pts)
            hash_tan = [np.stack([jet[1].data if a == i else jet[2].data if a == j else zero
                                  for jet, (_, i, j) in zip(jets, PLANE_AXES)], axis=1) for a in range(4)]
            four_dt = fourier_time_tangent(p[:, 3], cfg.fourier_n)
            w_hash, w_four = w1.data[:6], w1.data[four]
            h_tan = [t @ w_hash for t in hash_tan]
            h_tan[3] = h_tan[3] + four_dt @ w_four
            m_tan = [ht * mask for ht in h_tan]
            heads += [m @ w2.data for m in m_tan]
            intermediates += [w1.data[:four.stop], *h_tan]
        check_finite("material_head", intermediates)

        def vjp(grads):
            # the replaced nodes' sweep order: the tangent heads (last axis
            # first), the value head, the tangent matmuls, the hidden layer,
            # the picks of w1's Fourier and hash rows, the partials, the features
            def head_grad(k):  # the (N, 9) gradient of head k from its velocity and stress columns
                gv, gs = grads[2 * k], grads[2 * k + 1]
                if gv is None and gs is None:
                    return None
                g = np.zeros((n_pts, 9))
                if gs is not None:
                    g[:, 3:] += gs
                if gv is not None:
                    g[:, :3] += gv
                return g

            g_tan = [None] * 4
            if with_partials:
                for a in reversed(range(4)):
                    g = head_grad(1 + a)
                    if g is not None:
                        g_m = g @ w2.data.T
                        accumulate_grad(w2, m_tan[a].T @ g)
                        g_tan[a] = g_m * mask
            g_out = head_grad(0)
            g_h = None
            if g_out is not None:
                accumulate_grad(b2, g_out)
                g_act = g_out @ w2.data.T
                accumulate_grad(w2, h_act.T @ g_out)
                g_h = g_act * mask
            g_four = g_hash = None
            g_tan_rows = [None] * 4
            if g_tan[3] is not None:
                g_four = four_dt.T @ g_tan[3]
            for a in reversed(range(4)):
                if g_tan[a] is not None:
                    g_tan_rows[a] = g_tan[a] @ w_hash.T
                    part = hash_tan[a].T @ g_tan[a]
                    g_hash = part if g_hash is None else g_hash + part
            g_feats = None
            if g_h is not None:
                accumulate_grad(b1, g_h)
                g_feats = g_h @ w1.data.T
                accumulate_grad(w1, feats.T @ g_h)
            for rows, g in ((four, g_four), (slice(0, 6), g_hash)):
                if g is not None:
                    buf = np.zeros_like(w1.data)
                    buf[rows] += g
                    accumulate_grad(w1, buf)
            for a in reversed(range(4)):
                if g_tan_rows[a] is not None:
                    for k, (jet, (_, i, j)) in enumerate(zip(jets, PLANE_AXES)):
                        if a in (i, j):
                            accumulate_grad(jet[1 if a == i else 2], g_tan_rows[a][:, k])
            if g_feats is not None:
                accumulate_grad(self.embedding, scatter_add(ids, g_feats[:, four.stop:], self.embedding.data.shape))
                for k, jet in enumerate(jets):
                    accumulate_grad(jet[0], g_feats[:, k])

        outs = tuple(part for out in heads for part in (out[:, :3], out[:, 3:]))
        parents = (*(t for jet in jets for t in jet), self.embedding, w1, b1, w2, b2)
        return record(outs, parents, vjp, "material_head")
