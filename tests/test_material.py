"""Material field: features, quiescent init, jets vs finite differences."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.material import (
    MaterialConfig,
    MaterialField,
    fourier_time_features,
    fourier_time_tangent,
)


def tiny_config():
    return MaterialConfig(plane_levels=2, plane_base=4, plane_max=8,
                          table_size=256, fourier_n=2, embed_dim=4, hidden_width=16)


def test_feature_dim_arithmetic():
    field = MaterialField(10, np.random.default_rng(0), tiny_config())
    assert field.feature_dim == 6 + 2 * 2 + 4
    full = MaterialField(10, np.random.default_rng(0),
                         MaterialConfig(fourier_n=6, embed_dim=64))
    assert full.feature_dim == 6 + 12 + 64  # = 82
    desk = MaterialField(10, np.random.default_rng(0), MaterialConfig())
    assert desk.feature_dim == 6 + 2 * desk.config.fourier_n + desk.config.embed_dim


def test_fourier_features_hand_case():
    # n=2, t=0: (sin 0, cos 0, sin 0, cos 0) = (0, 1, 0, 1)
    f = fourier_time_features(np.array([0.0]), 2)
    assert np.allclose(f[0], [0.0, 1.0, 0.0, 1.0])
    # t = 0.5: frequencies pi and 2 pi -> (sin pi/2, cos pi/2, sin pi, cos pi)
    f = fourier_time_features(np.array([0.5]), 2)
    assert np.allclose(f[0], [1.0, 0.0, 0.0, -1.0], atol=1e-15)


def test_fourier_tangent_matches_fd():
    t = np.linspace(0.05, 0.95, 9)
    n = 4
    h = 1e-7
    fd = (fourier_time_features(t + h, n) - fourier_time_features(t - h, n)) / (2 * h)
    assert np.allclose(fourier_time_tangent(t, n), fd, rtol=1e-6, atol=1e-6)


def test_zero_initialized_head_gives_quiescent_field():
    field = MaterialField(8, np.random.default_rng(1), tiny_config())
    pts = np.random.default_rng(2).uniform(0.1, 0.9, (8, 4))
    with ad.Tape():
        v, s = field.evaluate(pts, np.arange(8))
    assert np.array_equal(v.data, np.zeros((8, 3)))
    assert np.array_equal(s.data, np.zeros((8, 6)))
    with ad.Tape():
        vj, sj = field.evaluate_with_jets(pts, np.arange(8))
    assert np.array_equal(vj.val.data, np.zeros((8, 3)))
    for p in vj.partials():
        assert np.array_equal(p.data, np.zeros((8, 3)))


def test_out_of_domain_points_rejected():
    field = MaterialField(4, np.random.default_rng(3), tiny_config())
    with ad.Tape():
        with pytest.raises(ValueError):
            field.evaluate(np.array([[0.5, 0.5, 0.5, -0.1]]), np.array([0]))
        with pytest.raises(ValueError):
            field.evaluate(np.zeros((2, 3)), np.array([0, 1]))


def perturbed_field(seed=4, n_particles=6):
    rng = np.random.default_rng(seed)
    field = MaterialField(n_particles, rng, tiny_config())
    field.head.weight.data += rng.normal(scale=0.3, size=field.head.weight.data.shape)
    field.head.bias.data += rng.normal(scale=0.1, size=field.head.bias.data.shape)
    return field


def test_jets_match_coordinate_finite_differences():
    field = perturbed_field()
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.15, 0.85, (5, 4))
    ids = rng.integers(0, 6, 5)
    with ad.Tape():
        vj, sj = field.evaluate_with_jets(pts, ids)
        jets = {"v": vj, "s": sj}
        vals = {"v": vj.val.data.copy(), "s": sj.val.data.copy()}
        parts = {k: [p.data.copy() for p in j.partials()] for k, j in jets.items()}
    h = 1e-6
    for axis in range(4):
        dp = pts.copy()
        dp[:, axis] += h
        dm = pts.copy()
        dm[:, axis] -= h
        with ad.Tape():
            vp, sp = field.evaluate(dp, ids)
            vm, sm = field.evaluate(dm, ids)
            fd_v = (vp.data - vm.data) / (2 * h)
            fd_s = (sp.data - sm.data) / (2 * h)
        assert np.allclose(parts["v"][axis], fd_v, rtol=1e-5, atol=1e-7), axis
        assert np.allclose(parts["s"][axis], fd_s, rtol=1e-5, atol=1e-7), axis
    # jet values equal plain evaluation bit for bit, and so do the parameter
    # gradients of a loss on the values
    wv, ws = rng.normal(size=(5, 3)), rng.normal(size=(5, 6))
    tensors = [t for _, t in field.params]
    grads = {}
    for name, fn in (("plain", field.evaluate), ("jets", field.evaluate_with_jets)):
        with ad.Tape() as tape:
            v, s = fn(pts, ids)
            if name == "jets":
                v, s = v.val, s.val
            assert v.data.tobytes() == vals["v"].tobytes()
            assert s.data.tobytes() == vals["s"].tobytes()
            loss = ad.add(ad.sum_(ad.mul(v, ad.constant(wv))), ad.sum_(ad.mul(s, ad.constant(ws))))
            grads[name] = tape.grad(loss, tensors)
    for (name, _), plain, jets in zip(field.params, grads["plain"], grads["jets"]):
        assert np.any(plain != 0.0), name
        assert plain.tobytes() == jets.tobytes(), name


def test_jet_partial_losses_reach_parameters():
    field = perturbed_field(seed=6)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.8, (4, 4))
    ids = np.arange(4)
    w = rng.normal(size=(4, 3))

    def loss_value():
        with ad.Tape():
            vj, _ = field.evaluate_with_jets(pts, ids)
            return float(ad.sum_(ad.mul(vj.dx, ad.constant(w))).data)

    check = [field.planes["xz"].tables[0], field.hidden.weight, field.head.weight]
    with ad.Tape() as tape:
        vj, _ = field.evaluate_with_jets(pts, ids)
        loss = ad.sum_(ad.mul(vj.dx, ad.constant(w)))
        grads = tape.grad(loss, check)

    h = 1e-6
    for tensor, g in zip(check, grads):
        flat = tensor.data.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        idx = rng.choice(flat.size, min(8, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            fp = loss_value()
            flat[i] = old - h
            fm = loss_value()
            flat[i] = old
            assert np.isclose(gflat[i], (fp - fm) / (2 * h), rtol=1e-4, atol=1e-8)


def test_entry_counts_cover_all_planes():
    field = MaterialField(4, np.random.default_rng(9), tiny_config())
    assert set(field.planes) == {"xz", "xy", "yz", "xt", "yt", "zt"}
    assert all(p.entry_count() == 4 * 4 + 8 * 8 for p in field.planes.values())  # dense 4^2 + 8^2
