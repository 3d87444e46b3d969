"""Multiresolution hashed feature grids with differentiable interpolation.

Two flavors are provided: 3D grids with trilinear interpolation (used by the
deformation encoder) and 2D plane grids with bilinear interpolation (used by
the material field). One op interpolates several grids of a flavor at once,
each grid reading its own columns of one query: ``hashgrid3d`` (the
deformation's four 3D grids) and ``plane2d`` (the material's six planes). It
is one tape node; its backward rule scatters into the level tables and, when
the query tensor requires gradients, applies the piecewise-multilinear slope
to the coordinates. A grid's own ``interpolate`` is the one-grid case.

Each query axis's cell on a level of n vertices (its floor, fraction and
low/high weights) is computed once per (axis, n) and shared by every grid
that reads that axis at that size.

Vertex indexing (``level_corners``, shared by both flavors): a level with
fewer vertices than the table capacity stores them densely at index
``ix + nx*(iy + ny*iz)`` (``iu + nu*iv`` on a plane; collision-free); larger
levels hash each integer vertex with the XOR-of-prime-multiplied-coordinates
scheme ``(ix*1 ^ iy*2654435761 ^ iz*805459861) mod table_size`` evaluated in
32-bit unsigned arithmetic (every product is truncated to 32 bits before the
XOR); a plane vertex (iu, iv) hashes as (iu, iv, 0). The k-th axis a grid
reads takes the k-th prime, so one query axis takes a different prime in
different grids.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, accumulate_grad, parameter, record, scatter_add

PRIMES = (1, 2654435761, 805459861)
_M32 = np.int64(0xFFFFFFFF)
INIT_SCALE = 1e-4  # table entries start uniform in [-INIT_SCALE, INIT_SCALE]


def geometric_levels(base: int, top: int, count: int) -> list[int]:
    """Per-level vertex counts growing geometrically from base to top (inclusive)."""
    if count == 1:
        return [int(top)]
    out = []
    for l in range(count):
        f = l / (count - 1)
        r = int(round(np.exp((1.0 - f) * np.log(base) + f * np.log(top))))
        out.append(max(2, r))
    out[0], out[-1] = max(2, int(base)), max(2, int(top))
    return out


# corner c of a cell: bit a of c -> the high vertex along axis a (x or u, y or v, z)
_CORNER = np.arange(8)
_BX, _BY, _BZ = _CORNER & 1, (_CORNER >> 1) & 1, (_CORNER >> 2) & 1
# sign of each corner weight's slope along x, y, z, as (corners, 1) columns
_SX, _SY, _SZ = (2.0 * b[:, None] - 1.0 for b in (_BX, _BY, _BZ))
_BU, _BV, _SU, _SV = _BX[:4], _BY[:4], _SX[:4], _SY[:4]
_PAIR = np.arange(2)[:, None]  # the low and the high vertex of a cell along one axis


def _add_corners(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Add (corners, ...) terms into ``acc`` one corner at a time, in corner
    order (the order the per-corner loops summed in), and return ``acc``."""
    for term in terms:
        acc += term
    return acc


class _Cells:
    """The cells of (N, D) query points along each axis, computed once per
    (axis, vertex count) and shared by every grid level that reads them."""

    def __init__(self, p: np.ndarray):
        self.p = p
        self._cells = {}
        self._hashed = {}

    def cell(self, a: int, n: int):
        """Axis ``a`` on n vertices: the (2, N) low/high vertex of each point's
        cell and its (2, N) low/high interpolation weights."""
        key = (a, n)
        if key not in self._cells:
            scaled = self.p[:, a] * (n - 1)
            c0 = np.floor(scaled).astype(np.int64)
            np.clip(c0, 0, n - 2, out=c0)
            frac = scaled - c0
            self._cells[key] = (c0 + _PAIR, np.stack([1.0 - frac, frac]))
        return self._cells[key]

    def hashed(self, a: int, n: int, prime: int) -> np.ndarray:
        """The 32-bit products of the (2, N) vertex pair of ``cell(a, n)`` with ``prime``."""
        key = (a, n, prime)
        if key not in self._hashed:
            self._hashed[key] = (self.cell(a, n)[0] * prime) & _M32
        return self._hashed[key]


def level_corners(cells: _Cells, axes, res, dense: bool, table_size: int):
    """One level of a grid that reads query ``axes`` at ``res`` vertices each.

    Returns the (2^D, N) table rows of each point's cell corners, in corner
    order, and each axis's (2, N) low/high interpolation weights. The rows are
    built from each axis's (2, N) vertex pair, broadcast over the corners.
    """
    if dense:
        parts, stride = [], 1
        for a, n in zip(axes, res):
            parts.append(cells.cell(a, n)[0] * stride)
            stride *= n
        combine = np.add
    else:
        parts = [cells.hashed(a, n, prime) for a, n, prime in zip(axes, res, PRIMES)]
        combine = np.bitwise_xor
    rows = parts[-1]
    for part in parts[-2::-1]:  # each earlier axis is the next lower corner bit
        rows = combine(rows[:, None], part).reshape(2 * len(rows), -1)
    if not dense:
        rows = rows % table_size
    return rows, [cells.cell(a, n)[1] for a, n in zip(axes, res)]


def _query_points(coords: Tensor, axes) -> np.ndarray:
    """The (N, D) query array, D being one more than the largest axis read."""
    dim = 1 + max(max(ax) for ax in axes)
    p = coords.data
    if p.ndim != 2 or p.shape[1] != dim:
        raise ValueError(f"expected (N, {dim}) query coordinates")
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # a NaN fails both
        raise ValueError(f"query coordinate outside [0,1]^{dim}")
    return p


class _LevelTables:
    """One table per resolution level, for points in [0,1]^dim.

    ``level_res`` lists each level's vertex counts per axis. Levels whose
    vertex product fits in ``table_size`` are dense; the rest share hashed
    slots. Each table row holds an ``entry_shape`` entry.
    """

    def __init__(self, level_res, table_size: int, entry_shape: tuple, rng):
        self.table_size = int(table_size)
        self.level_res = [tuple(int(r) for r in res) for res in level_res]
        for res in self.level_res:
            if min(res) < 2:
                raise ValueError("grid level needs at least 2 vertices per axis")
        self.dense = [int(np.prod(res)) <= self.table_size for res in self.level_res]
        self.tables = [
            parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, (min(int(np.prod(res)), self.table_size), *entry_shape)))
            for res in self.level_res
        ]

    def entry_count(self) -> int:
        return sum(t.data.shape[0] for t in self.tables)


class MultiResHashGrid3D(_LevelTables):
    """A stack of 3D feature tables, one per resolution level.

    ``level_res`` is a list of (nx, ny, nz) vertex counts; each table row is a
    ``feature_dim`` feature vector.
    """

    def __init__(self, level_res, table_size: int, feature_dim: int, rng):
        self.feature_dim = int(feature_dim)
        super().__init__(level_res, table_size, (self.feature_dim,), rng)

    @property
    def num_levels(self) -> int:
        return len(self.level_res)

    @property
    def out_dim(self) -> int:
        return self.num_levels * self.feature_dim

    def interpolate(self, coords: Tensor) -> Tensor:
        """Trilinear interpolation of every level at (N, 3) query points in [0,1]^3.

        Returns (N, levels*feature_dim). Differentiable with respect to the
        level tables and, piecewise, the query coordinates.
        """
        return hashgrid3d(coords, [self], [(0, 1, 2)])[0]

    def _backward(self, levels, g: np.ndarray, with_coords: bool):
        """Scatter the feature gradient ``g`` into the level tables; return the
        (N, 3) coordinate gradient summed over the levels when ``with_coords``."""
        fdim = self.feature_dim
        cgrad = None
        for l, (nx, ny, nz) in enumerate(self.level_res):
            idx, entries, wx, wy, wz = levels[l]
            cwx, cwy, cwz = wx[_BX], wy[_BY], wz[_BZ]  # (8, N) per-corner factors
            gl = g[:, l * fdim:(l + 1) * fdim]
            table = self.tables[l]
            if table.requires_grad:
                # (F, 8, N) products, so each feature column scatters from contiguous memory
                vals = cwx * cwy * cwz * np.ascontiguousarray(gl.T)[:, None, :]
                accumulate_grad(table, scatter_add(idx, np.moveaxis(vals, 0, -1), table.data.shape))
            if with_coords:
                dot = np.einsum("cnf,nf->cn", entries, gl)  # (8, N)
                gsum = np.zeros((3, g.shape[0]))
                for a, (sign, w1, w2) in enumerate(((_SX, cwy, cwz), (_SY, cwx, cwz), (_SZ, cwx, cwy))):
                    _add_corners(gsum[a], dot * sign * w1 * w2)
                gc = gsum.T * np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64)
                cgrad = gc if cgrad is None else cgrad + gc
        return cgrad


def hashgrid3d(coords: Tensor, grids, axes) -> tuple:
    """Trilinear interpolation of several 3D grids at one (N, D) query: one tape node.

    Grid k reads the three query columns ``axes[k]``. Returns each grid's
    (N, levels*feature_dim) features. The backward sums each grid's
    coordinate gradient over its levels and adds the grids into the query's
    gradient last grid first, the order their separate nodes swept in.
    """
    p = _query_points(coords, axes)
    cells = _Cells(p)
    feats, saved = [], []
    for grid, ax in zip(grids, axes):
        fdim = grid.feature_dim
        out = np.empty((p.shape[0], grid.out_dim))
        levels = []
        for l, res in enumerate(grid.level_res):
            idx, (wx, wy, wz) = level_corners(cells, ax, res, grid.dense[l], grid.table_size)  # idx: (8, N)
            entries = np.take(grid.tables[l].data, idx, axis=0)  # (8, N, F)
            w = wx[_BX] * wy[_BY] * wz[_BZ]
            out[:, l * fdim:(l + 1) * fdim] = np.einsum("cn,cnf->nf", w, entries)
            levels.append((idx, entries, wx, wy, wz))
        feats.append(out)
        saved.append(levels)

    def vjp(grads):
        cgrad = np.zeros(p.shape) if coords.requires_grad else None
        for k in reversed(range(len(grids))):
            if grads[k] is not None:
                gk = grids[k]._backward(saved[k], grads[k], cgrad is not None)
                if cgrad is not None:
                    cgrad[:, list(axes[k])] += gk
        if cgrad is not None:
            accumulate_grad(coords, cgrad)

    tables = [t for grid in grids for t in grid.tables]
    return record(tuple(feats), (coords, *tables), vjp, "hashgrid3d")


class PlaneGrid2D(_LevelTables):
    """2D multiresolution grid whose levels are summed into a single scalar.

    Each level carries one feature per vertex; ``interpolate`` returns the sum
    of the bilinearly interpolated levels, optionally together with its exact
    partial derivatives along both plane axes (needed when the caller
    propagates spatial derivatives through the value).
    """

    def __init__(self, level_res, table_size: int, rng):
        super().__init__(level_res, table_size, (), rng)

    def interpolate(self, coords: Tensor, with_partials: bool = False):
        """Summed bilinear interpolation at (N, 2) points in [0,1]^2.

        With ``with_partials`` the returned tuple is (value, d/du, d/dv), the
        plane's jet: one tape node whose outputs are all differentiable with
        respect to the level tables and the query coordinates.
        """
        jet = plane2d(coords, [self], [(0, 1)], with_partials)[0]
        return jet if with_partials else jet[0]

    def _backward(self, ax, levels, grads, coords: Tensor) -> None:
        """Scatter the jet gradients ``grads`` ((value,) or (value, d/du, d/dv),
        ``None`` where unreached) into the tables and the query columns ``ax``.
        ``levels`` holds each level's corner rows, entries and (4, N)
        per-corner u and v weights."""
        n_pts = levels[0][0].shape[1]
        # d/dv, then d/du, then the value, each over all levels: the order
        # the coordinate gradient sums in across levels
        for s, g in reversed(list(enumerate(grads))):
            if g is None:
                continue
            for l, (nu, nv) in enumerate(self.level_res):
                idx, entries, cwu, cwv = levels[l]
                table = self.tables[l]
                if coords.requires_grad:
                    gc = np.zeros((n_pts, coords.data.shape[1]))
                if s == 0:  # the value: the bilinear weights, and its slope along u and v
                    coeff = cwu * cwv
                    if coords.requires_grad:
                        gc[:, ax[0]] = _add_corners(np.zeros(n_pts), entries * _SU * cwv) * (nu - 1) * g
                        gc[:, ax[1]] = _add_corners(np.zeros(n_pts), entries * _SV * cwu) * (nv - 1) * g
                else:  # a partial: its own-axis slope is 0, the other is the cross slope
                    coeff = _SU * cwv * (nu - 1) if s == 1 else _SV * cwu * (nv - 1)
                    if coords.requires_grad:
                        cross = _add_corners(np.zeros(n_pts), entries * _SU * _SV)
                        gc[:, ax[2 - s]] = cross * ((nu - 1) * (nv - 1) * g)
                if coords.requires_grad:
                    accumulate_grad(coords, gc)
                if table.requires_grad:
                    accumulate_grad(table, scatter_add(idx, coeff * g, table.data.shape))


def plane2d(coords: Tensor, planes, axes, with_partials: bool) -> list:
    """Summed bilinear interpolation of several planes at one (N, D) query: one tape node.

    Plane k reads the query columns ``axes[k]`` as its (u, v). Returns each
    plane's jet: (value,), or (value, d/du, d/dv) with ``with_partials``,
    each an (N,) tensor. The backward runs the planes last first, the order
    their separate nodes swept in.
    """
    p = _query_points(coords, axes)
    cells = _Cells(p)
    n_pts = p.shape[0]
    n_slots = 3 if with_partials else 1
    jets = np.zeros((len(planes), n_slots, n_pts))
    saved = []
    for plane, ax, jet in zip(planes, axes, jets):
        levels = []
        for l, (nu, nv) in enumerate(plane.level_res):
            idx, (wu, wv) = level_corners(cells, ax, (nu, nv), plane.dense[l], plane.table_size)  # idx: (4, N)
            entries = np.take(plane.tables[l].data, idx)  # (4, N)
            cwu, cwv = wu[_BU], wv[_BV]  # (4, N) per-corner factors
            _add_corners(jet[0], entries * cwu * cwv)
            if with_partials:
                _add_corners(jet[1], entries * _SU * cwv * (nu - 1))
                _add_corners(jet[2], entries * _SV * cwu * (nv - 1))
            levels.append((idx, entries, cwu, cwv))
        saved.append(levels)

    def vjp(grads):
        for k in reversed(range(len(planes))):
            planes[k]._backward(axes[k], saved[k], grads[k * n_slots:(k + 1) * n_slots], coords)

    tables = [t for plane in planes for t in plane.tables]
    outs = record(tuple(jets.reshape(len(planes) * n_slots, n_pts)), (coords, *tables), vjp, "plane2d")
    return [outs[k * n_slots:(k + 1) * n_slots] for k in range(len(planes))]


def decomposed_entry_count(n: int, feature_dim: int) -> int:
    """Total table entries for four n^3 grids (the decomposed 4D layout)."""
    return 4 * n**3 * feature_dim


def monolithic_entry_count(n: int, feature_dim: int) -> int:
    """Table entries a single dense 4D grid of the same resolution would need."""
    return n**4 * feature_dim
