"""Cauchy momentum residual and the physics regularizer built on it.

For a velocity field v and Cauchy stress sigma (components xx, yy, zz, xy,
xz, yz), the momentum residual per sample point is

    r_j = rho * (dv_j/dt + sum_i v_i dv_j/dx_i) - sum_i dsigma_ij/dx_i

and the regularizer is the mean squared residual norm over the sample set.
All derivatives arrive as jets (see :mod:`pidg.jets`); nothing here
differentiates anything itself, which keeps the residual exact for analytic
fields and first-order for learned ones.

Two constitutive closures (ideal fluid, rigid) are provided as plain-numpy
oracles: they map kinematic state to the stress a material of that family
would produce, independent of any learned field.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, accumulate_grad, record
from .jets import JetVec

# column order of the packed symmetric stress
STRESS_COMPONENTS = ("xx", "yy", "zz", "xy", "xz", "yz")
# _SIGMA_COLS[i][j] -> packed column holding sigma_ij
_SIGMA_COLS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
RIGID_STRAIN_TOL = 1e-9  # largest strain component ``rigid_stress`` accepts


def momentum_residual(vel: JetVec, sigma: JetVec, rho: float, include_advection: bool) -> Tensor:
    """Residual (N, 3) of the Cauchy momentum balance, zero when it holds: one tape node.

    Its backward hands each jet slot the gradient, bytes included, that the
    per-column tape composition it replaced (kept in the tests as its oracle)
    summed for it. The residual is built from its inputs by products, sums
    and differences only, so a non-finite intermediate always reaches it.
    """
    v, dt = vel.val.data, vel.dt.data
    spatial = [t.data for t in vel.partials()[:3]]
    acc = dt
    if include_advection:
        for i in range(3):
            acc = acc + v[:, i:i + 1] * spatial[i]
    ds = [t.data[:, cols] for t, cols in zip(sigma.partials(), _SIGMA_COLS)]
    r = np.ascontiguousarray(acc * rho - (ds[0] + ds[1] + ds[2]))

    def vjp(g):
        # "+ 0.0" turns -0.0 into +0.0, as adding a zero-padded getitem
        # buffer did; the value's columns sum their terms last column first
        g_acc = g * rho
        accumulate_grad(vel.dt, g_acc + 0.0)
        if include_advection:
            for i in range(3):
                accumulate_grad(vel.partials()[i], g_acc * v[:, i:i + 1] + 0.0)
            g_val = 0.0
            for j in (2, 1, 0):
                g_val = g_val + g_acc[:, j:j + 1] * np.stack([d[:, j] for d in spatial], axis=1)
            accumulate_grad(vel.val, g_val)
        for t, cols in zip(sigma.partials(), _SIGMA_COLS):
            gs = np.zeros(t.data.shape)
            gs[:, list(cols)] = -g + 0.0
            accumulate_grad(t, gs)

    parents = (vel.val, *vel.partials(), *sigma.partials())
    return record(r, parents, vjp, "momentum_residual")


def _mean_sq_norm(r: Tensor) -> Tensor:
    """The mean over rows of the squared row norm: one tape node."""
    sq_norm = (r.data * r.data).sum(axis=1)

    def vjp(g):
        half = (g / sq_norm.size) * r.data  # what each factor of r * r receives
        accumulate_grad(r, half + half)

    return record(sq_norm.mean(), (r,), vjp, "mean_sq_norm")


def cmr_loss(field, points: np.ndarray, ids: np.ndarray, include_advection: bool = True) -> Tensor:
    """Mean squared residual norm (scalar tensor) over the sample points, at
    the field's own density ``field.rho``."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        return ad.constant(0.0)
    vel, sigma = field.evaluate_with_jets(points, ids)
    return _mean_sq_norm(momentum_residual(vel, sigma, rho=field.rho, include_advection=include_advection))


def _id_blocks(ids: np.ndarray, block_size: int):
    """Indices into ``ids`` grouped into contiguous runs of sorted particle id."""
    order = np.argsort(ids, kind="stable")
    return [order[s:s + block_size] for s in range(0, order.size, block_size)]


def block_sampled_cmr(field, points: np.ndarray, ids: np.ndarray, block_size: int,
                      include_advection: bool = True,
                      sample_count: int | None = None, rng=None,
                      backward_scale: float | None = None) -> float | Tensor:
    """CMR loss evaluated block by block over id-contiguous particle groups.

    Two modes:

    * ``backward_scale is None`` — returns a scalar tape tensor equal (up to
      block partitioning of the mean) to :func:`cmr_loss` on the same points.
    * ``backward_scale = w`` — runs each block on its own short-lived tape and
      immediately backpropagates ``w * n_block / n_total`` into the field
      parameters' ``.grad``; returns the (detached) loss value. This bounds
      peak memory by the block size instead of the sample count.

    ``sample_count`` draws that many sample indices without replacement first
    (requires ``rng``), so an iteration can touch a fixed-size subset.
    """
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if sample_count is not None and sample_count < points.shape[0]:
        if rng is None:
            raise ValueError("sample_count needs an rng")
        sel = rng.choice(points.shape[0], size=sample_count, replace=False)
        points, ids = points[sel], ids[sel]
    total = points.shape[0]
    if total == 0:
        return 0.0 if backward_scale is not None else ad.constant(0.0)
    blocks = _id_blocks(ids, block_size)
    if backward_scale is None:
        acc = None
        for idx in blocks:
            part = ad.mul(cmr_loss(field, points[idx], ids[idx], include_advection=include_advection),
                          idx.size / total)
            acc = part if acc is None else ad.add(acc, part)
        return acc

    value = 0.0
    for idx in blocks:
        with ad.Tape() as tape:
            part = cmr_loss(field, points[idx], ids[idx], include_advection=include_advection)
            tape.backward(part, seed=backward_scale * idx.size / total)
        value += float(part.data) * idx.size / total
    return value


# ---------------------------------------------------------------------------
# constitutive oracles (plain numpy; used to cross-check learned stresses)

def ideal_fluid_stress(pressure: float) -> np.ndarray:
    """Ideal fluid: sigma = -p*I."""
    return -float(pressure) * np.eye(3)


def rigid_stress(strain: np.ndarray) -> np.ndarray:
    """Rigid motion produces no strain; checks |e| <= RIGID_STRAIN_TOL, returns zero stress."""
    e = np.asarray(strain, dtype=np.float64)
    if np.abs(e).max() > RIGID_STRAIN_TOL:
        raise ValueError("rigid body cannot carry nonzero strain")
    return np.zeros((3, 3))


def pack_stress(sigma: np.ndarray) -> np.ndarray:
    """(..., 3, 3) symmetric tensor -> packed (..., 6) in component order."""
    s = np.asarray(sigma, dtype=np.float64)
    return np.stack([s[..., 0, 0], s[..., 1, 1], s[..., 2, 2],
                     s[..., 0, 1], s[..., 0, 2], s[..., 1, 2]], axis=-1)


# ---------------------------------------------------------------------------
# analytic fields with closed-form jets (ground truth for the residual)

class AnalyticJetField:
    """Wraps closed-form (v, sigma) callables as a jet-producing field.

    ``fn(points (N,4)) -> (v (N,3), dv (4,N,3), s (N,6), ds (4,N,6))`` where
    index 0..3 of the derivative stacks is d/dx, d/dy, d/dz, d/dt.
    """

    def __init__(self, fn, rho: float = 1.0):
        self._fn = fn
        self.rho = float(rho)

    def evaluate_with_jets(self, points: np.ndarray, ids=None):
        v, dv, s, ds = self._fn(np.asarray(points, dtype=np.float64))
        mk = ad.constant
        return (JetVec(mk(v), mk(dv[0]), mk(dv[1]), mk(dv[2]), mk(dv[3])),
                JetVec(mk(s), mk(ds[0]), mk(ds[1]), mk(ds[2]), mk(ds[3])))


def shear_flow_field(rate: float, eta: float, rho: float = 1.0) -> AnalyticJetField:
    """Steady simple shear v = (rate*y, 0, 0) with Newtonian stress; residual 0."""

    def fn(p):
        n = p.shape[0]
        v = np.zeros((n, 3))
        v[:, 0] = rate * p[:, 1]
        dv = np.zeros((4, n, 3))
        dv[1, :, 0] = rate
        s = np.zeros((n, 6))
        s[:, 3] = eta * rate  # sigma_xy = 2*eta*(rate/2)
        ds = np.zeros((4, n, 6))
        return v, dv, s, ds

    return AnalyticJetField(fn, rho=rho)


def hydrostatic_field(rho: float = 1.0) -> AnalyticJetField:
    """Static fluid with pressure p = x: sigma = -x*I, so r = (1, 0, 0)."""

    def fn(p):
        n = p.shape[0]
        v = np.zeros((n, 3))
        dv = np.zeros((4, n, 3))
        s = np.zeros((n, 6))
        s[:, 0] = s[:, 1] = s[:, 2] = -p[:, 0]
        ds = np.zeros((4, n, 6))
        ds[0, :, 0] = ds[0, :, 1] = ds[0, :, 2] = -1.0
        return v, dv, s, ds

    return AnalyticJetField(fn, rho=rho)


def elastic_wave_field(amplitude: float, wavenumber: float, lam: float, mu: float,
                       rho: float = 1.0) -> AnalyticJetField:
    """Plane longitudinal wave; satisfies the linearized balance exactly.

    Displacement u_x = -(A/w)*sin(k*x - w*t) gives v_x = A*cos(k*x - w*t),
    sigma_xx = -rho*c*A*cos(...), sigma_yy = sigma_zz = (lam/(lam+2mu))*sigma_xx,
    with c = sqrt((lam+2mu)/rho) and w = c*k. The advective term is O(A^2),
    so check this field with ``include_advection=False``.
    """
    c = np.sqrt((lam + 2.0 * mu) / rho)
    w = c * wavenumber
    lateral = lam / (lam + 2.0 * mu)

    def fn(p):
        n = p.shape[0]
        phase = wavenumber * p[:, 0] - w * p[:, 3]
        cosp, sinp = np.cos(phase), np.sin(phase)
        v = np.zeros((n, 3))
        v[:, 0] = amplitude * cosp
        dv = np.zeros((4, n, 3))
        dv[0, :, 0] = -amplitude * wavenumber * sinp
        dv[3, :, 0] = amplitude * w * sinp
        s = np.zeros((n, 6))
        s[:, 0] = -rho * c * amplitude * cosp
        s[:, 1] = s[:, 2] = lateral * s[:, 0]
        ds = np.zeros((4, n, 6))
        ds[0, :, 0] = rho * c * amplitude * wavenumber * sinp
        ds[0, :, 1] = ds[0, :, 2] = lateral * ds[0, :, 0]
        ds[3, :, 0] = -rho * c * amplitude * w * sinp
        ds[3, :, 1] = ds[3, :, 2] = lateral * ds[3, :, 0]
        return v, dv, s, ds

    return AnalyticJetField(fn, rho=rho)


def uniform_advection_field(velocity, rho: float = 1.0) -> AnalyticJetField:
    """Constant velocity, zero stress; residual 0 with or without advection."""
    vel = np.asarray(velocity, dtype=np.float64).reshape(3)

    def fn(p):
        n = p.shape[0]
        v = np.tile(vel, (n, 1))
        return v, np.zeros((4, n, 3)), np.zeros((n, 6)), np.zeros((4, n, 6))

    return AnalyticJetField(fn, rho=rho)
