"""The one-node field encoders against the per-grid nodes they replaced.

``DeformationField.encode4d`` is one ``hashgrid3d`` node over four 3D grids,
and the material field's six planes are one ``plane2d`` node. Their oracle
is the earlier composition: one single-grid node per grid, each reading its
own copy of the query columns (four ``getitem`` picks for the deformation
query). Outputs and every gradient must match it byte for byte.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pidg.autodiff as ad
from pidg.deform import GRID_AXES, DeformConfig, DeformationField
from pidg.material import PLANE_AXES, MaterialConfig, MaterialField


def _spread(tables, rng):
    for t in tables:
        t.data = rng.uniform(-0.5, 0.5, t.data.shape)


def _queries(rng, n, dim):
    """Random points, the first few on the faces and corners of the cube."""
    pts = rng.uniform(0.0, 1.0, (n, dim))
    faces = np.array([[0.0] * dim, [1.0] * dim, [0.5, 1.0, 0.0, 0.25][:dim], [1.0, 0.0, 1.0, 0.0][:dim]])
    pts[:min(n, 4)] = faces[:min(n, 4)]
    return pts


def _encode4d_oracle(field, p):
    """Four getitem picks of the query, then one single-grid node per grid."""
    picks = [p[:, axes] for axes in GRID_AXES.values()]
    f_xyz, f_xyt, f_yzt, f_xzt = (grid.interpolate(q) for grid, q in zip(field.grids.values(), picks))
    return f_xyz, (f_xyt, f_yzt, f_xzt)


def _plane_jets_oracle(field, p, with_partials):
    """One single-plane node per plane, each on its own constant (N, 2) columns."""
    out = []
    for name, i, j in PLANE_AXES:
        jet = field.planes[name].interpolate(ad.constant(p[:, (i, j)]), with_partials=with_partials)
        out.append(jet if with_partials else (jet,))
    return out


def _weights(rng, outs):
    """A random weight per output entry, some -0.0; ``None`` leaves an output unreached."""
    ws = []
    for k, o in enumerate(outs):
        if k % 4 == 3:
            ws.append(None)
            continue
        w = rng.normal(size=o.shape) * 10.0 ** rng.integers(-4, 5, size=o.shape)
        w.reshape(-1)[::5] = -0.0
        ws.append(w)
    return ws


def _run(encode, tables, pts, ws, query_grad):
    """Outputs, table gradients and query gradient of a weighted sum of the
    outputs that ``encode`` returns, as bytes."""
    for t in tables:
        t.grad = None
    with ad.Tape() as tape:
        p = ad.parameter(pts.copy()) if query_grad else ad.constant(pts.copy())
        outs = encode(p)
        terms = [ad.sum_(ad.mul(o, ad.constant(w))) for o, w in zip(outs, ws) if w is not None]
        tape.backward(ad.sum_(ad.stack(terms)))
    grads = [None if t.grad is None else t.grad.tobytes() for t in tables]
    qgrad = p.grad.tobytes() if query_grad and p.grad is not None else None
    return [o.data.tobytes() for o in outs], grads, qgrad


def _check_encode4d(field, pts, rng):
    tables = [t for g in field.grids.values() for t in g.tables]
    ws = _weights(rng, [np.empty((pts.shape[0], g.out_dim)) for g in field.grids.values()])  # g_xzt unreached

    def flat(encode):
        return lambda p: (lambda f: [f[0], *f[1]])(encode(p))

    got = _run(flat(field.encode4d), tables, pts, ws, query_grad=True)
    ref = _run(flat(lambda p: _encode4d_oracle(field, p)), tables, pts, ws, query_grad=True)
    assert got == ref


def _check_planes(field, pts, rng, with_partials):
    tables = [t for name, _, _ in PLANE_AXES for t in field.planes[name].tables]
    n_out = 6 * (3 if with_partials else 1)
    ws = _weights(rng, [np.empty(pts.shape[0])] * n_out)

    def flat(jets):
        return lambda p: [t for jet in jets(p.data) for t in jet]

    got = _run(flat(lambda p: field._plane_jets(p, with_partials)), tables, pts, ws, query_grad=False)
    ref = _run(flat(lambda p: _plane_jets_oracle(field, p, with_partials)), tables, pts, ws, query_grad=False)
    assert got == ref


def _hashed_deform_config():
    # a small table, so the upper levels hash and collide
    return DeformConfig(spatial_levels=3, spatial_base=4, spatial_max=40, temporal_levels=3,
                        time_base=2, time_max=6, table_size_log2=9, feature_dim=2,
                        attn_width=8, hidden_width=8)


@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("cfg", [DeformConfig(), _hashed_deform_config()], ids=["desk", "hashed"])
def test_encode4d_matches_per_grid_oracle_bit_for_bit(cfg, n):
    rng = np.random.default_rng(n)
    field = DeformationField(cfg, rng)
    _spread([t for g in field.grids.values() for t in g.tables], rng)
    _check_encode4d(field, _queries(rng, n, 4), rng)


@pytest.mark.parametrize("with_partials", [False, True])
@pytest.mark.parametrize("n", [0, 1, 300])
def test_six_plane_node_matches_per_plane_oracle_bit_for_bit(n, with_partials):
    rng = np.random.default_rng(10 + n)
    cfg = MaterialConfig(plane_levels=3, plane_base=4, plane_max=40, table_size=64,
                         fourier_n=2, embed_dim=4, hidden_width=8)
    field = MaterialField(4, rng, cfg)
    _spread([t for plane in field.planes.values() for t in plane.tables], rng)
    _check_planes(field, _queries(rng, n, 4), rng, with_partials)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spatial_levels=st.integers(1, 4), temporal_levels=st.integers(1, 4),
       spatial_base=st.integers(2, 9), spatial_max=st.integers(2, 60),
       time_base=st.integers(1, 4), time_max=st.integers(1, 8),
       table_size_log2=st.integers(3, 12), feature_dim=st.integers(1, 3),
       plane_levels=st.integers(1, 4), plane_base=st.integers(2, 9), plane_max=st.integers(2, 70),
       plane_table=st.integers(4, 600), seed=st.integers(0, 2**16))
def test_fused_encoders_match_per_grid_oracle_for_any_sizes(
        spatial_levels, temporal_levels, spatial_base, spatial_max, time_base, time_max,
        table_size_log2, feature_dim, plane_levels, plane_base, plane_max, plane_table, seed):
    # unequal level counts make the grids' resolutions differ level by level;
    # a small table hashes the upper levels; plane_max above sqrt(table_size)
    # hashes the upper plane levels
    rng = np.random.default_rng(seed)
    deform = DeformationField(DeformConfig(
        spatial_levels=spatial_levels, spatial_base=spatial_base, spatial_max=max(spatial_base, spatial_max),
        temporal_levels=temporal_levels, time_base=time_base, time_max=time_max,
        table_size_log2=table_size_log2, feature_dim=feature_dim, attn_width=4, hidden_width=4), rng)
    _spread([t for g in deform.grids.values() for t in g.tables], rng)
    _check_encode4d(deform, _queries(rng, 40, 4), rng)

    material = MaterialField(3, rng, MaterialConfig(
        plane_levels=plane_levels, plane_base=plane_base, plane_max=max(plane_base, plane_max),
        table_size=plane_table, fourier_n=1, embed_dim=2, hidden_width=4))
    _spread([t for plane in material.planes.values() for t in plane.tables], rng)
    for with_partials in (False, True):
        _check_planes(material, _queries(rng, 40, 4), rng, with_partials)


def test_deformation_query_is_one_encoder_node():
    rng = np.random.default_rng(3)
    field = DeformationField(_hashed_deform_config(), rng)
    mu = ad.parameter(rng.uniform(-0.3, 0.3, (7, 3)))
    quat = ad.constant(np.tile([1.0, 0.0, 0.0, 0.0], (7, 1)))
    with ad.Tape() as tape:
        p4 = ad.concatenate([ad.add(ad.mul(mu, 0.5), 0.5), ad.constant(np.full((7, 1), 0.3))], axis=1)
        field.deform_gaussians(mu, quat, ad.constant(np.zeros((7, 3))), p4)
    ops = [node.op for node in tape.nodes]
    assert ops.count("hashgrid3d") == 1
    assert not [n for n in tape.nodes if n.op == "getitem" and p4 in n._parents]


def test_material_query_is_one_plane_node():
    rng = np.random.default_rng(4)
    field = MaterialField(5, rng, MaterialConfig())
    for fn in (field.evaluate, field.evaluate_with_jets):
        with ad.Tape() as tape:
            fn(rng.uniform(0.0, 1.0, (5, 4)), np.arange(5))
        assert [node.op for node in tape.nodes] == ["plane2d", "material_head"]


def test_nan_in_a_table_names_the_encoder_op():
    rng = np.random.default_rng(5)
    deform = DeformationField(_hashed_deform_config(), rng)
    deform.grid_yzt.tables[1].data[:] = np.nan
    with ad.Tape(), pytest.raises(ad.NonFiniteError, match="hashgrid3d"):
        deform.encode4d(ad.constant(rng.uniform(0.0, 1.0, (6, 4))))
    material = MaterialField(4, rng, MaterialConfig())
    material.planes["yt"].tables[2].data[:] = np.nan
    for fn in (material.evaluate, material.evaluate_with_jets):
        with ad.Tape(), pytest.raises(ad.NonFiniteError, match="plane2d"):
            fn(rng.uniform(0.0, 1.0, (6, 4)), np.arange(4).repeat(2)[:6])


def test_nan_query_column_is_rejected():
    # the range check fails on a NaN as on a coordinate outside [0,1]
    rng = np.random.default_rng(6)
    deform = DeformationField(_hashed_deform_config(), rng)
    material = MaterialField(3, rng, MaterialConfig())
    pts = np.full((3, 4), 0.5)
    pts[1, 3] = np.nan
    with ad.Tape() as tape:
        with pytest.raises(ValueError, match="outside"):
            deform.encode4d(ad.constant(pts))
        for fn in (material.evaluate, material.evaluate_with_jets):
            with pytest.raises(ValueError, match="outside"):
                fn(pts, np.arange(3))
    assert not tape.nodes
