"""Deformation field: identity at init, gradients, static-row bypass."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.deform import DeformConfig, DeformationField


def tiny_config():
    return DeformConfig(spatial_levels=2, spatial_base=4, spatial_max=8,
                        temporal_levels=2, time_base=2, time_max=4,
                        table_size_log2=8, feature_dim=2,
                        attn_width=8, hidden_width=16)


def make_inputs(n=5, seed=0):
    rng = np.random.default_rng(seed)
    mu = rng.normal(scale=0.3, size=(n, 3))
    quat = rng.normal(size=(n, 4))
    quat /= np.linalg.norm(quat, axis=1, keepdims=True)
    log_scale = rng.normal(scale=0.2, size=(n, 3)) - 3.0
    p_norm = rng.uniform(0.1, 0.9, (n, 4))
    return mu, quat, log_scale, p_norm


def test_untrained_field_is_exact_identity():
    field = DeformationField(tiny_config(), np.random.default_rng(0))
    mu, quat, log_scale, p_norm = make_inputs()
    with ad.Tape():
        mu_d, quat_d, scale_d = field.deform_gaussians(
            ad.constant(mu), ad.constant(quat), ad.constant(log_scale), ad.constant(p_norm))
    # zero-init head -> pos_quat = (1,0,0,0), translation 0, dq 0, ds 0
    assert np.array_equal(mu_d.data, mu)
    assert np.allclose(quat_d.data, quat, atol=1e-15)  # renormalized unit quats
    assert np.array_equal(scale_d.data, log_scale)


def test_out_of_cube_query_rejected():
    field = DeformationField(tiny_config(), np.random.default_rng(1))
    bad = np.array([[0.5, 0.5, 0.5, 1.3]])
    with ad.Tape():
        with pytest.raises(ValueError):
            field.encode4d(ad.constant(bad))
        with pytest.raises(ValueError):
            field.encode4d(ad.constant(np.zeros((2, 3))))


def perturb_head(field, rng, scale=0.05):
    field.head.weight.data += rng.normal(scale=scale, size=field.head.weight.data.shape)
    field.head.bias.data += rng.normal(scale=scale, size=field.head.bias.data.shape)


def test_static_rows_bypass_bitwise():
    rng = np.random.default_rng(2)
    field = DeformationField(tiny_config(), rng)
    perturb_head(field, rng, 0.2)  # make the deformation non-trivial
    mu, quat, log_scale, p_norm = make_inputs(n=6, seed=3)
    dynamic = np.array([True, False, True, False, False, True])
    with ad.Tape():
        mu_d, quat_d, scale_d = field.deform_gaussians(
            ad.constant(mu), ad.constant(quat), ad.constant(log_scale),
            ad.constant(p_norm), dynamic=dynamic)
    st = ~dynamic
    assert np.array_equal(mu_d.data[st], mu[st])
    assert np.array_equal(scale_d.data[st], log_scale[st])
    # quats are re-normalized on the static path too; inputs are unit already
    assert np.allclose(quat_d.data[st], quat[st], atol=1e-15)
    # dynamic rows actually moved
    assert np.all(np.abs(mu_d.data[dynamic] - mu[dynamic]).max(axis=1) > 1e-6)


def test_static_rows_receive_no_gradient():
    rng = np.random.default_rng(4)
    field = DeformationField(tiny_config(), rng)
    perturb_head(field, rng, 0.2)
    mu, quat, log_scale, p_norm = make_inputs(n=4, seed=5)
    dynamic = np.array([True, False, True, False])
    with ad.Tape() as tape:
        mu_t = ad.parameter(mu.copy())
        mu_d, _, _ = field.deform_gaussians(
            mu_t, ad.constant(quat), ad.constant(log_scale),
            ad.constant(p_norm), dynamic=dynamic)
        # loss touches only the deformed output
        loss = ad.sum_(ad.mul(mu_d, mu_d))
        tape.backward(loss)
    g = mu_t.grad
    # static rows still get d/dmu of the identity branch (2*mu), dynamic rows
    # get the rotated-versions; both must be finite and correct for statics
    assert np.allclose(g[~dynamic], 2 * mu[~dynamic], atol=1e-12)


def test_attention_gate_range():
    rng = np.random.default_rng(6)
    field = DeformationField(tiny_config(), rng)
    # crank the spatial projection so the sigmoid gets extreme inputs
    field.f_s.weight.data *= 100.0
    pts = rng.uniform(0.1, 0.9, (40, 4))
    with ad.Tape():
        f_xyz, temporal = field.encode4d(ad.constant(pts))
        a = (2.0 * ad.sigmoid(field.f_s(f_xyz)) - 1.0).data
    assert np.all(a > -1.0) and np.all(a < 1.0)


def test_field_gradients_match_fd():
    rng = np.random.default_rng(7)
    field = DeformationField(tiny_config(), rng)
    perturb_head(field, rng, 0.1)
    mu, quat, log_scale, p_norm = make_inputs(n=3, seed=8)
    w = rng.normal(size=(3, 3))

    def loss_value():
        with ad.Tape():
            mu_d, _, _ = field.deform_gaussians(
                ad.constant(mu), ad.constant(quat), ad.constant(log_scale), ad.constant(p_norm))
            return float(ad.sum_(ad.mul(mu_d, ad.constant(w))).data)

    with ad.Tape() as tape:
        mu_d, _, _ = field.deform_gaussians(
            ad.constant(mu), ad.constant(quat), ad.constant(log_scale), ad.constant(p_norm))
        loss = ad.sum_(ad.mul(mu_d, ad.constant(w)))
        checks = [field.head.weight, field.hidden.weight, field.f_s.weight,
                  field.grid_xyz.tables[0], field.grid_xyt.tables[0]]
        grads = tape.grad(loss, checks)

    h = 1e-6
    for tensor, g in zip(checks, grads):
        flat = tensor.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        idx = rng.choice(flat.size, min(10, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            fp = loss_value()
            flat[i] = old - h
            fm = loss_value()
            flat[i] = old
            fd = (fp - fm) / (2 * h)
            assert np.isclose(gflat[i], fd, rtol=2e-4, atol=1e-8), (tensor.data.shape, i, gflat[i], fd)


def test_desk_config_entry_counts():
    rng = np.random.default_rng(9)
    field = DeformationField(DeformConfig(), rng)
    assert set(field.grids) == {"g_xyz", "g_xyt", "g_yzt", "g_xzt"}
    # every level is capped by the hash table size
    for name, grid in field.grids.items():
        for tbl, (nx, ny, nz) in zip(grid.tables, grid.level_res):
            assert tbl.data.shape[0] <= 2**15
            assert tbl.data.shape[0] <= nx * ny * nz
