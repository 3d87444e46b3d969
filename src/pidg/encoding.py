"""Multiresolution hashed feature grids with differentiable interpolation.

Two flavors are provided: 3D grids with trilinear interpolation (used by the
deformation encoder) and 2D plane grids with bilinear interpolation (used by
the material field). Interpolation of a whole grid (all levels) is one fused
node on the tape; its backward rule scatters into the level tables and, when
the query tensor requires gradients, applies the piecewise-multilinear slope
to the coordinates.

Vertex indexing (``level_corners``, shared by both flavors): a level with
fewer vertices than the table capacity stores them densely at index
``ix + nx*(iy + ny*iz)`` (``iu + nu*iv`` on a plane; collision-free); larger
levels hash each integer vertex with the XOR-of-prime-multiplied-coordinates
scheme ``(ix*1 ^ iy*2654435761 ^ iz*805459861) mod table_size`` evaluated in
32-bit unsigned arithmetic (every product is truncated to 32 bits before the
XOR); a plane vertex (iu, iv) hashes as (iu, iv, 0).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, accumulate_grad, parameter, record, scatter_add

PRIMES = (1, 2654435761, 805459861)
_M32 = np.int64(0xFFFFFFFF)
INIT_SCALE = 1e-4  # table entries start uniform in [-INIT_SCALE, INIT_SCALE]


def hash_vertices(ix, iy, iz, table_size: int) -> np.ndarray:
    """32-bit XOR hash of integer vertex coordinates, reduced mod table_size."""
    ix = np.asarray(ix, dtype=np.int64)
    iy = np.asarray(iy, dtype=np.int64)
    iz = np.asarray(iz, dtype=np.int64)
    h = ((ix * PRIMES[0]) & _M32) ^ ((iy * PRIMES[1]) & _M32) ^ ((iz * PRIMES[2]) & _M32)
    return (h & _M32) % table_size


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


def _add_corners(acc: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Add (corners, ...) terms into ``acc`` one corner at a time, in corner
    order (the order the per-corner loops summed in), and return ``acc``."""
    for term in terms:
        acc += term
    return acc


def level_corners(p: np.ndarray, res, dense: bool, table_size: int):
    """The cells of (N, D) points in [0,1]^D on one level of ``res`` vertices per axis.

    Returns the (2^D, N) table rows of each point's cell corners, in corner
    order, and each axis's (2, N) low/high interpolation weights.
    """
    corners, weights = [], []
    for a, n in enumerate(res):
        scaled = p[:, a] * (n - 1)
        c0 = np.floor(scaled).astype(np.int64)
        np.clip(c0, 0, n - 2, out=c0)
        frac = scaled - c0
        corners.append(c0 + ((_CORNER[:2 ** len(res)] >> a) & 1)[:, None])
        weights.append(np.stack([1.0 - frac, frac]))
    if not dense:
        return hash_vertices(*corners, *[0] * (3 - len(res)), table_size), weights
    idx = corners[-1]
    for c, n in zip(corners[-2::-1], res[-2::-1]):
        idx = c + n * idx
    return idx, weights


class _LevelTables:
    """One table per resolution level, for points in [0,1]^dim.

    ``level_res`` lists each level's vertex counts per axis. Levels whose
    vertex product fits in ``table_size`` are dense; the rest share hashed
    slots. Each table row holds an ``entry_shape`` entry.
    """

    dim = 0

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

    def _queries(self, coords: Tensor) -> np.ndarray:
        p = coords.data
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ValueError(f"expected (N, {self.dim}) query coordinates")
        if p.size and (p.min() < 0.0 or p.max() > 1.0):
            raise ValueError(f"query coordinate outside [0,1]^{self.dim}")
        return p


class MultiResHashGrid3D(_LevelTables):
    """A stack of 3D feature tables, one per resolution level.

    ``level_res`` is a list of (nx, ny, nz) vertex counts; each table row is a
    ``feature_dim`` feature vector.
    """

    dim = 3

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
        p = self._queries(coords)
        n_pts = p.shape[0]
        fdim = self.feature_dim
        out = np.empty((n_pts, self.out_dim))
        saved = []
        for l, res in enumerate(self.level_res):
            idx, (wx, wy, wz) = level_corners(p, res, self.dense[l], self.table_size)  # idx: (8, N)
            entries = np.take(self.tables[l].data, idx, axis=0)  # (8, N, F)
            w = wx[_BX] * wy[_BY] * wz[_BZ]
            out[:, l * fdim:(l + 1) * fdim] = np.einsum("cn,cnf->nf", w, entries)
            saved.append((idx, entries, wx, wy, wz))

        grid = self

        def vjp(g):
            for l, (nx, ny, nz) in enumerate(grid.level_res):
                idx, entries, wx, wy, wz = saved[l]
                cwx, cwy, cwz = wx[_BX], wy[_BY], wz[_BZ]  # (8, N) per-corner factors
                gl = g[:, l * fdim:(l + 1) * fdim]
                table = grid.tables[l]
                if table.requires_grad:
                    # (F, 8, N) products, so each feature column scatters from contiguous memory
                    vals = cwx * cwy * cwz * np.ascontiguousarray(gl.T)[:, None, :]
                    accumulate_grad(table, scatter_add(idx, np.moveaxis(vals, 0, -1), table.data.shape))
                if coords.requires_grad:
                    dot = np.einsum("cnf,nf->cn", entries, gl)  # (8, N)
                    gsum = np.zeros((3, n_pts))
                    for a, (sign, w1, w2) in enumerate(((_SX, cwy, cwz), (_SY, cwx, cwz), (_SZ, cwx, cwy))):
                        _add_corners(gsum[a], dot * sign * w1 * w2)
                    accumulate_grad(coords, gsum.T * np.array([nx - 1, ny - 1, nz - 1], dtype=np.float64))

        return record(out, (coords, *self.tables), vjp, "hashgrid3d")


class PlaneGrid2D(_LevelTables):
    """2D multiresolution grid whose levels are summed into a single scalar.

    Each level carries one feature per vertex; ``interpolate`` returns the sum
    of the bilinearly interpolated levels, optionally together with its exact
    partial derivatives along both plane axes (needed when the caller
    propagates spatial derivatives through the value).
    """

    dim = 2

    def __init__(self, level_res, table_size: int, rng):
        super().__init__(level_res, table_size, (), rng)

    def interpolate(self, coords: Tensor, with_partials: bool = False):
        """Summed bilinear interpolation at (N, 2) points in [0,1]^2.

        With ``with_partials`` the returned tuple is (value, d/du, d/dv), the
        plane's jet: one tape node whose outputs are all differentiable with
        respect to the level tables and the query coordinates.
        """
        p = self._queries(coords)
        n_pts = p.shape[0]
        jet = tuple(np.zeros(n_pts) for _ in range(3 if with_partials else 1))
        saved = []
        for l, (nu, nv) in enumerate(self.level_res):
            idx, (wu, wv) = level_corners(p, (nu, nv), self.dense[l], self.table_size)  # idx: (4, N)
            entries = np.take(self.tables[l].data, idx)  # (4, N)
            _add_corners(jet[0], entries * wu[_BU] * wv[_BV])
            if with_partials:
                _add_corners(jet[1], entries * _SU * wv[_BV] * (nu - 1))
                _add_corners(jet[2], entries * _SV * wu[_BU] * (nv - 1))
            saved.append((idx, entries, wu, wv))

        def vjp(grads):
            # d/dv, then d/du, then the value, each over all levels: the order
            # the coordinate gradient sums in across levels
            for k, g in reversed(list(enumerate(grads))):
                if g is None:
                    continue
                for l, (nu, nv) in enumerate(self.level_res):
                    idx, entries, wu, wv = saved[l]
                    table = self.tables[l]
                    if k == 0:  # the value: the bilinear weights, and its slope along u and v
                        coeff = wu[_BU] * wv[_BV]
                        if coords.requires_grad:
                            gu = _add_corners(np.zeros(n_pts), entries * _SU * wv[_BV])
                            gv = _add_corners(np.zeros(n_pts), entries * _SV * wu[_BU])
                            accumulate_grad(coords, np.stack([gu * (nu - 1) * g, gv * (nv - 1) * g], axis=1))
                    else:  # a partial: its own-axis slope is 0, the other is the cross slope
                        coeff = _SU * wv[_BV] * (nu - 1) if k == 1 else _SV * wu[_BU] * (nv - 1)
                        if coords.requires_grad:
                            cross = _add_corners(np.zeros(n_pts), entries * _SU * _SV)
                            gc = np.zeros((n_pts, 2))
                            gc[:, 2 - k] = cross * ((nu - 1) * (nv - 1) * g)
                            accumulate_grad(coords, gc)
                    if table.requires_grad:
                        accumulate_grad(table, scatter_add(idx, coeff * g, table.data.shape))

        outs = record(jet, (coords, *self.tables), vjp, "plane2d")
        return outs if with_partials else outs[0]


def decomposed_entry_count(n: int, feature_dim: int) -> int:
    """Total table entries for four n^3 grids (the decomposed 4D layout)."""
    return 4 * n**3 * feature_dim


def monolithic_entry_count(n: int, feature_dim: int) -> int:
    """Table entries a single dense 4D grid of the same resolution would need."""
    return n**4 * feature_dim
