"""Hash-grid and plane-grid encodings: indexing, interpolation, gradients."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.encoding import (
    _BU,
    _BV,
    _SU,
    _SV,
    PRIMES,
    MultiResHashGrid3D,
    PlaneGrid2D,
    decomposed_entry_count,
    geometric_levels,
    _add_corners,
    hash_vertices,
    level_corners,
    monolithic_entry_count,
)

_M32 = (1 << 32) - 1


def _spread_tables(grid, rng):
    """Redraw every table uniform in [-0.5, 0.5], so slopes are far from flat."""
    for t in grid.tables:
        t.data = rng.uniform(-0.5, 0.5, t.data.shape)
    return grid


def test_hash_matches_independent_reference():
    # scalar re-implementation of the xor'd-primes scheme, mod table size
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 5000, size=(200, 3))
    for table in (64, 4096, 2**15):
        got = hash_vertices(pts[:, 0], pts[:, 1], pts[:, 2], table)
        for (x, y, z), h in zip(pts, got):
            ref = (((int(x) * PRIMES[0]) & _M32)
                   ^ ((int(y) * PRIMES[1]) & _M32)
                   ^ ((int(z) * PRIMES[2]) & _M32)) % table
            assert h == ref


def test_hash_2d_matches_reference():
    # a plane vertex (u, v) hashes as the 3D vertex (u, v, 0)
    rng = np.random.default_rng(1)
    pts = rng.integers(0, 5000, size=(100, 2))
    got = hash_vertices(pts[:, 0], pts[:, 1], 0, 1024)
    for (u, v), h in zip(pts, got):
        ref = (((int(u) * PRIMES[0]) & _M32) ^ ((int(v) * PRIMES[1]) & _M32)) % 1024
        assert h == ref


def test_geometric_levels_endpoints_and_monotone():
    ladder = geometric_levels(16, 2048, 16)
    assert len(ladder) == 16
    assert ladder[0] == 16 and ladder[-1] == 2048
    assert all(b >= a for a, b in zip(ladder, ladder[1:]))
    assert geometric_levels(8, 8, 1) == [8]


def test_dense_levels_have_exact_tables_and_hashed_levels_share():
    rng = np.random.default_rng(2)
    grid = MultiResHashGrid3D([(4, 4, 4), (64, 64, 64)], table_size=4096, feature_dim=2, rng=rng)
    assert grid.dense == [True, False]
    assert grid.tables[0].data.shape == (64, 2)      # 4^3 exact
    assert grid.tables[1].data.shape == (4096, 2)    # clamped to the table


def test_interpolation_hits_vertices_exactly():
    rng = np.random.default_rng(3)
    grid = MultiResHashGrid3D([(3, 3, 3)], table_size=64, feature_dim=2, rng=rng)
    # query exactly at vertex (1, 2, 0) of a 3^3 grid -> dense index x + 3y + 9z
    q = np.array([[0.5, 1.0, 0.0]])
    with ad.Tape():
        out = grid.interpolate(ad.constant(q))
    assert np.allclose(out.data[0], grid.tables[0].data[1 + 3 * 2 + 9 * 0], atol=1e-15)


def test_interpolation_is_trilinear_inside_a_cell():
    rng = np.random.default_rng(4)
    grid = MultiResHashGrid3D([(2, 2, 2)], table_size=8, feature_dim=1, rng=rng)
    t = grid.tables[0].data[:, 0]
    f = np.array([0.3, 0.7, 0.2])
    with ad.Tape():
        out = grid.interpolate(ad.constant(f[None]))
    expected = 0.0
    for c in range(8):
        bx, by, bz = c & 1, (c >> 1) & 1, (c >> 2) & 1
        w = ((f[0] if bx else 1 - f[0]) * (f[1] if by else 1 - f[1]) * (f[2] if bz else 1 - f[2]))
        expected += w * t[bx + 2 * (by + 2 * bz)]
    assert np.allclose(out.data[0, 0], expected, atol=1e-15)


def test_out_of_range_query_rejected():
    grid = MultiResHashGrid3D([(4, 4, 4)], 64, 1, np.random.default_rng(5))
    with ad.Tape():
        with pytest.raises(ValueError):
            grid.interpolate(ad.constant(np.array([[0.5, 1.2, 0.5]])))
        with pytest.raises(ValueError):
            grid.interpolate(ad.constant(np.array([[0.5, 0.5]])))


@pytest.mark.parametrize("seed", range(3))
def test_grid_table_gradients_match_fd(seed):
    rng = np.random.default_rng(10 + seed)
    grid = MultiResHashGrid3D([(3, 3, 3), (9, 9, 9)], table_size=128, feature_dim=2, rng=rng)
    pts = rng.uniform(0.05, 0.95, (6, 3))
    w = rng.normal(size=(6, grid.out_dim))

    with ad.Tape() as tape:
        out = ad.sum_(ad.mul(grid.interpolate(ad.constant(pts)), ad.constant(w)))
        grads = tape.grad(out, grid.tables)

    h = 1e-6
    for t, g in zip(grid.tables, grads):
        flat = t.data.reshape(-1)
        probes = rng.choice(flat.size, min(20, flat.size), replace=False)
        for i in probes:
            old = flat[i]
            flat[i] = old + h
            with ad.Tape():
                fp = float(ad.sum_(ad.mul(grid.interpolate(ad.constant(pts)), ad.constant(w))).data)
            flat[i] = old - h
            with ad.Tape():
                fm = float(ad.sum_(ad.mul(grid.interpolate(ad.constant(pts)), ad.constant(w))).data)
            flat[i] = old
            assert np.isclose(g.reshape(-1)[i], (fp - fm) / (2 * h), rtol=1e-5, atol=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_grid_coordinate_gradients_match_fd(seed):
    rng = np.random.default_rng(20 + seed)
    grid = _spread_tables(MultiResHashGrid3D([(5, 5, 5)], table_size=256, feature_dim=2, rng=rng), rng)
    pts = rng.uniform(0.1, 0.9, (4, 3))
    w = rng.normal(size=(4, grid.out_dim))

    with ad.Tape() as tape:
        c = ad.parameter(pts.copy())
        out = ad.sum_(ad.mul(grid.interpolate(c), ad.constant(w)))
        (g,) = tape.grad(out, [c])

    h = 1e-7  # stay inside the interpolation cell
    ref = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        for j in range(3):
            d = pts.copy()
            d[i, j] += h
            with ad.Tape():
                fp = float(ad.sum_(ad.mul(grid.interpolate(ad.constant(d)), ad.constant(w))).data)
            d[i, j] -= 2 * h
            with ad.Tape():
                fm = float(ad.sum_(ad.mul(grid.interpolate(ad.constant(d)), ad.constant(w))).data)
            ref[i, j] = (fp - fm) / (2 * h)
    assert np.allclose(g, ref, rtol=1e-4, atol=1e-8)


def test_plane_partials_match_fd():
    rng = np.random.default_rng(30)
    plane = _spread_tables(PlaneGrid2D([(4, 4), (16, 16)], table_size=256, rng=rng), rng)
    pts = rng.uniform(0.1, 0.9, (5, 2))
    with ad.Tape():
        val, du, dv = plane.interpolate(ad.constant(pts), with_partials=True)
    h = 1e-7
    for i in range(5):
        for j, part in ((0, du), (1, dv)):
            d = pts.copy()
            d[i, j] += h
            with ad.Tape():
                fp = plane.interpolate(ad.constant(d)).data[i]
            d[i, j] -= 2 * h
            with ad.Tape():
                fm = plane.interpolate(ad.constant(d)).data[i]
            assert np.isclose(part.data[i], (fp - fm) / (2 * h), rtol=1e-4, atol=1e-8)


def test_plane_partial_table_gradients_match_fd():
    # gradient THROUGH the partial derivatives (a loss on du must reach tables)
    rng = np.random.default_rng(31)
    plane = _spread_tables(PlaneGrid2D([(5, 5)], table_size=64, rng=rng), rng)
    pts = rng.uniform(0.15, 0.85, (3, 2))
    w = rng.normal(size=3)

    def loss():
        val, du, dv = plane.interpolate(ad.constant(pts), with_partials=True)
        return ad.sum_(ad.mul(ad.add(du, ad.mul(dv, 0.5)), ad.constant(w)))

    with ad.Tape() as tape:
        (g,) = tape.grad(loss(), [plane.tables[0]])
    h = 1e-6
    flat = plane.tables[0].data
    for i in rng.choice(flat.size, 12, replace=False):
        old = flat[i]
        flat[i] = old + h
        with ad.Tape():
            fp = float(loss().data)
        flat[i] = old - h
        with ad.Tape():
            fm = float(loss().data)
        flat[i] = old
        assert np.isclose(g[i], (fp - fm) / (2 * h), rtol=1e-5, atol=1e-9)


def test_entry_count_arithmetic():
    for n in (8, 16, 32):
        for d in (1, 2, 4):
            assert decomposed_entry_count(n, d) == 4 * n**3 * d
            assert monolithic_entry_count(n, d) == n**4 * d
            assert decomposed_entry_count(n, d) < monolithic_entry_count(n, d)


def test_grid_entry_count_reports_table_rows():
    rng = np.random.default_rng(40)
    grid = MultiResHashGrid3D([(4, 4, 4), (32, 32, 32)], table_size=1000, feature_dim=2, rng=rng)
    assert grid.entry_count() == 64 + 1000


# -- the per-corner loops the vectorised grids replaced, kept as oracles ------------

def _cells(p, n):
    scaled = p * (n - 1)
    c0 = np.clip(np.floor(scaled).astype(np.int64), 0, n - 2)
    return c0, scaled - c0


def _grid_oracle(grid, p, g):
    """Per-corner forward, table gradients (np.add.at) and coordinate gradient."""
    n, fdim = p.shape[0], grid.feature_dim
    out, tgrads, cgrad = np.empty((n, grid.out_dim)), [], None
    corners = [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)]
    for l, (nx, ny, nz) in enumerate(grid.level_res):
        (cx, fx), (cy, fy), (cz, fz) = _cells(p[:, 0], nx), _cells(p[:, 1], ny), _cells(p[:, 2], nz)
        wx, wy, wz = np.stack([1.0 - fx, fx]), np.stack([1.0 - fy, fy]), np.stack([1.0 - fz, fz])
        idx = np.empty((8, n), dtype=np.int64)
        w = np.empty((8, n))
        for c, (bx, by, bz) in enumerate(corners):
            ix, iy, iz = cx + bx, cy + by, cz + bz
            idx[c] = ix + nx * (iy + ny * iz) if grid.dense[l] else hash_vertices(ix, iy, iz, grid.table_size)
            w[c] = wx[bx] * wy[by] * wz[bz]
        entries = grid.tables[l].data[idx]
        out[:, l * fdim:(l + 1) * fdim] = np.einsum("cn,cnf->nf", w, entries)
        gl = g[:, l * fdim:(l + 1) * fdim]
        tgrad = np.zeros_like(grid.tables[l].data)
        for c, (bx, by, bz) in enumerate(corners):
            np.add.at(tgrad, idx[c], (wx[bx] * wy[by] * wz[bz])[:, None] * gl)
        tgrads.append(tgrad)
        dot = np.einsum("cnf,nf->cn", entries, gl)
        gx, gy, gz = np.zeros(n), np.zeros(n), np.zeros(n)
        for c, (bx, by, bz) in enumerate(corners):
            sx, sy, sz = (1.0 if b else -1.0 for b in (bx, by, bz))
            gx += dot[c] * sx * wy[by] * wz[bz]
            gy += dot[c] * sy * wx[bx] * wz[bz]
            gz += dot[c] * sz * wx[bx] * wy[by]
        gc = np.stack([gx * (nx - 1), gy * (ny - 1), gz * (nz - 1)], axis=1)
        cgrad = gc.copy() if cgrad is None else cgrad + gc
    return out, tgrads, cgrad


def _plane_oracle(plane, p, g, output):
    """Per-corner (value, d/du, d/dv) and the table gradients of one output."""
    n = p.shape[0]
    val, du, dv = np.zeros(n), np.zeros(n), np.zeros(n)
    tgrads = []
    for l, (nu, nv) in enumerate(plane.level_res):
        (cu, fu), (cv, fv) = _cells(p[:, 0], nu), _cells(p[:, 1], nv)
        wu, wv = np.stack([1.0 - fu, fu]), np.stack([1.0 - fv, fv])
        tgrad = np.zeros_like(plane.tables[l].data)
        for bu, bv in ((0, 0), (1, 0), (0, 1), (1, 1)):
            iu, iv = cu + bu, cv + bv
            idx = iu + nu * iv if plane.dense[l] else hash_vertices(iu, iv, 0, plane.table_size)
            e = plane.tables[l].data[idx]
            su, sv = (1.0 if bu else -1.0), (1.0 if bv else -1.0)
            val += e * wu[bu] * wv[bv]
            du += e * su * wv[bv] * (nu - 1)
            dv += e * sv * wu[bu] * (nv - 1)
            if output == 0:
                np.add.at(tgrad, idx, wu[bu] * wv[bv] * g)
            elif output == 1:
                np.add.at(tgrad, idx, su * wv[bv] * (nu - 1) * g)
            else:
                np.add.at(tgrad, idx, sv * wu[bu] * (nv - 1) * g)
        tgrads.append(tgrad)
    return (val, du, dv), tgrads


def _collides(keys, slots):
    """True when two different vertices share a table slot."""
    return len(np.unique(keys)) > len(np.unique(slots))


def test_grid_matches_per_corner_oracle_bit_for_bit():
    rng = np.random.default_rng(40)
    grid = _spread_tables(MultiResHashGrid3D([(3, 3, 3), (40, 40, 40)], table_size=64, feature_dim=2,
                                             rng=rng), rng)
    assert grid.dense == [True, False]
    pts = rng.uniform(0.0, 1.0, (400, 3))
    pts[:5] = [[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5], [1, 0, 1], [0.25, 1, 0]]  # cell edges
    cx, cy, cz = (_cells(pts[:, k], 40)[0] for k in range(3))
    assert _collides(cx + 40 * (cy + 40 * cz), hash_vertices(cx, cy, cz, 64))
    g = rng.normal(size=(400, grid.out_dim))
    g[::7] = -0.0
    with ad.Tape() as tape:
        c = ad.parameter(pts.copy())
        out = grid.interpolate(c)
        tape.backward(ad.sum_(ad.mul(out, ad.constant(g))))
    ref_out, ref_tgrads, ref_cgrad = _grid_oracle(grid, pts, g)
    assert out.data.tobytes() == ref_out.tobytes()
    for table, ref in zip(grid.tables, ref_tgrads):
        assert table.grad.tobytes() == ref.tobytes()
    assert c.grad.tobytes() == ref_cgrad.tobytes()


@pytest.mark.parametrize("output", [0, 1, 2])
def test_plane_matches_per_corner_oracle_bit_for_bit(output):
    rng = np.random.default_rng(41)
    plane = _spread_tables(PlaneGrid2D([(4, 4), (64, 64)], table_size=32, rng=rng), rng)
    assert plane.dense == [True, False]
    pts = rng.uniform(0.0, 1.0, (300, 2))
    pts[:3] = [[0, 0], [1, 1], [0.5, 1]]
    cu, cv = _cells(pts[:, 0], 64)[0], _cells(pts[:, 1], 64)[0]
    assert _collides(cu + 64 * cv, hash_vertices(cu, cv, 0, 32))
    g = rng.normal(size=300)
    g[::5] = -0.0
    with ad.Tape() as tape:
        outs = plane.interpolate(ad.constant(pts), with_partials=True)
        tape.backward(ad.sum_(ad.mul(outs[output], ad.constant(g))))
    ref_outs, ref_tgrads = _plane_oracle(plane, pts, g, output)
    for got, ref in zip(outs, ref_outs):
        assert got.data.tobytes() == ref.tobytes()
    for table, ref in zip(plane.tables, ref_tgrads):
        assert table.grad.tobytes() == ref.tobytes()


def _plane_jet_oracle(plane, coords):
    """The plane jet as three tape nodes over one saved state (value, d/du,
    d/dv), each with its own VJP: the composition the one ``plane2d`` node
    replaced."""
    p = coords.data
    n_pts = p.shape[0]
    val, du, dv = np.zeros(n_pts), np.zeros(n_pts), np.zeros(n_pts)
    saved = []
    for l, (nu, nv) in enumerate(plane.level_res):
        idx, (wu, wv) = level_corners(p, (nu, nv), plane.dense[l], plane.table_size)
        entries = np.take(plane.tables[l].data, idx)
        _add_corners(val, entries * wu[_BU] * wv[_BV])
        _add_corners(du, entries * _SU * wv[_BV] * (nu - 1))
        _add_corners(dv, entries * _SV * wu[_BU] * (nv - 1))
        saved.append((idx, entries, wu, wv))

    def vjp_val(g):
        for l, (nu, nv) in enumerate(plane.level_res):
            idx, entries, wu, wv = saved[l]
            table = plane.tables[l]
            ad.accumulate_grad(table, ad.scatter_add(idx, wu[_BU] * wv[_BV] * g, table.data.shape))
            if coords.requires_grad:
                gu = _add_corners(np.zeros(n_pts), entries * _SU * wv[_BV])
                gv = _add_corners(np.zeros(n_pts), entries * _SV * wu[_BU])
                ad.accumulate_grad(coords, np.stack([gu * (nu - 1) * g, gv * (nv - 1) * g], axis=1))

    def make_partial_vjp(axis):
        def vjp(g):
            for l, (nu, nv) in enumerate(plane.level_res):
                idx, entries, wu, wv = saved[l]
                scale = (nu - 1) if axis == 0 else (nv - 1)
                table = plane.tables[l]
                coeff = _SU * wv[_BV] if axis == 0 else _SV * wu[_BU]
                ad.accumulate_grad(table, ad.scatter_add(idx, coeff * scale * g, table.data.shape))
                if coords.requires_grad:
                    cross = _add_corners(np.zeros(n_pts), entries * _SU * _SV)
                    cross *= (nu - 1) * (nv - 1) * g
                    gc = np.zeros((n_pts, 2))
                    gc[:, 1 - axis] = cross
                    ad.accumulate_grad(coords, gc)

        return vjp

    parents = (coords, *plane.tables)
    return (ad.record(val, parents, vjp_val, "plane2d"),
            ad.record(du, parents, make_partial_vjp(0), "plane2d_du"),
            ad.record(dv, parents, make_partial_vjp(1), "plane2d_dv"))


@pytest.mark.parametrize("reached", [(0, 1, 2), (1,), (0, 2), (2,)])
def test_plane_jet_node_matches_three_node_oracle_bit_for_bit(reached):
    rng = np.random.default_rng(42)
    plane = _spread_tables(PlaneGrid2D([(4, 4), (9, 9), (64, 64)], table_size=32, rng=rng), rng)
    assert plane.dense == [True, False, False]
    pts = rng.uniform(0.0, 1.0, (200, 2))
    pts[:3] = [[0, 0], [1, 1], [0.5, 1]]
    w = rng.normal(size=(3, 200)) * 10.0 ** rng.integers(-6, 7, size=(3, 200))
    results = []
    for jet in (lambda c: plane.interpolate(c, with_partials=True), lambda c: _plane_jet_oracle(plane, c)):
        for t in plane.tables:
            t.grad = None
        with ad.Tape() as tape:
            c = ad.parameter(pts.copy())
            outs = jet(c)
            loss = ad.sum_(ad.stack([ad.sum_(ad.mul(outs[k], ad.constant(w[k]))) for k in reached]))
            tape.backward(loss)
        results.append(([o.data for o in outs], [t.grad for t in plane.tables], c.grad))
    (outs, tgrads, cgrad), (ref_outs, ref_tgrads, ref_cgrad) = results
    for got, ref in zip(outs + tgrads + [cgrad], ref_outs + ref_tgrads + [ref_cgrad]):
        assert got.tobytes() == ref.tobytes()
