"""Momentum residual, constitutive oracles, block-sampled regularizer."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg import physics
from pidg.jets import JetVec
from pidg.material import MaterialConfig, MaterialField
from test_material import material_oracle

from pidg.physics import (
    AnalyticJetField,
    block_sampled_cmr,
    cmr_loss,
    elastic_wave_field,
    hydrostatic_field,
    ideal_fluid_stress,
    momentum_residual,
    pack_stress,
    rigid_stress,
    shear_flow_field,
    uniform_advection_field,
)

# ---------------------------------------------------------------- constitutive


def test_ideal_fluid_is_isotropic_pressure():
    s = ideal_fluid_stress(2.5)
    assert np.allclose(s, -2.5 * np.eye(3), atol=1e-16)


def test_rigid_stress_accepts_only_zero_strain():
    assert np.array_equal(rigid_stress(np.zeros((3, 3))), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        rigid_stress(np.diag([1e-6, 0, 0]))


def test_stress_packing_round_trip():
    rng = np.random.default_rng(1)
    s = rng.normal(size=(5, 3, 3))
    s = 0.5 * (s + np.swapaxes(s, -1, -2))
    packed = pack_stress(s)
    assert packed.shape == (5, 6)
    for col, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
        assert np.array_equal(packed[:, col], s[:, i, j])
        assert np.array_equal(packed[:, col], s[:, j, i])


# ---------------------------------------------------------------- residual

def sample_points(rng, n=64):
    return rng.uniform(0.05, 0.95, (n, 4))


def test_shear_flow_residual_is_zero():
    field = shear_flow_field(rate=0.6, eta=0.5)
    pts = sample_points(np.random.default_rng(2))
    with ad.Tape():
        v, s = field.evaluate_with_jets(pts)
        r = momentum_residual(v, s, rho=1.0, include_advection=True).data
    assert np.max(np.abs(r)) < 1e-15


def test_uniform_advection_residual_is_zero():
    field = uniform_advection_field((0.3, -0.2, 0.1), rho=2.0)
    pts = sample_points(np.random.default_rng(3))
    for adv in (True, False):
        with ad.Tape():
            v, s = field.evaluate_with_jets(pts)
            r = momentum_residual(v, s, rho=2.0, include_advection=adv).data
        assert np.max(np.abs(r)) < 1e-15


def test_hydrostatic_residual_is_exactly_unit_x():
    field = hydrostatic_field()
    pts = sample_points(np.random.default_rng(4))
    with ad.Tape():
        v, s = field.evaluate_with_jets(pts)
        r = momentum_residual(v, s, rho=1.0, include_advection=True).data
    assert np.max(np.abs(r - np.array([1.0, 0.0, 0.0]))) < 1e-10


def test_elastic_wave_linearized_residual_is_zero():
    field = elastic_wave_field(amplitude=0.05, wavenumber=2 * np.pi, lam=1.0, mu=0.5)
    pts = sample_points(np.random.default_rng(5))
    with ad.Tape():
        v, s = field.evaluate_with_jets(pts)
        r = momentum_residual(v, s, rho=1.0, include_advection=False).data
    assert np.max(np.abs(r)) < 1e-12
    # with advection the imbalance is O(A^2 k)
    with ad.Tape():
        r_adv = momentum_residual(v, s, rho=1.0, include_advection=True).data
    assert 0 < np.max(np.abs(r_adv)) < 0.05**2 * 2 * np.pi * 1.1


def test_residual_against_brute_force_on_random_jets():
    # independent numpy evaluation of rho*(dv/dt + (v.grad)v) - div(sigma)
    rng = np.random.default_rng(6)
    n = 10
    v = rng.normal(size=(n, 3))
    dv = rng.normal(size=(4, n, 3))
    s = rng.normal(size=(n, 6))
    ds = rng.normal(size=(4, n, 6))
    rho = 1.7
    with ad.Tape():
        mk = ad.constant
        vel = JetVec(mk(v), mk(dv[0]), mk(dv[1]), mk(dv[2]), mk(dv[3]))
        sig = JetVec(mk(s), mk(ds[0]), mk(ds[1]), mk(ds[2]), mk(ds[3]))
        r = momentum_residual(vel, sig, rho=rho, include_advection=True).data

    cols = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
    ref = np.zeros((n, 3))
    for j in range(3):
        acc = dv[3, :, j].copy()
        for i in range(3):
            acc += v[:, i] * dv[i, :, j]
        div = sum(ds[i][:, cols[i][j]] for i in range(3))
        ref[:, j] = rho * acc - div
    assert np.max(np.abs(r - ref)) < 1e-12


def test_cmr_loss_is_mean_squared_norm():
    field = hydrostatic_field()
    pts = sample_points(np.random.default_rng(7), n=32)
    with ad.Tape():
        loss = cmr_loss(field, pts, np.zeros(32, dtype=np.int64)).data
    assert np.isclose(loss, 1.0, atol=1e-12)  # |r|^2 = 1 everywhere


# ---------------------------------------------------------------- blocking

def learned_field(seed=8, n_particles=12):
    rng = np.random.default_rng(seed)
    cfg = MaterialConfig(plane_levels=2, plane_base=4, plane_max=8,
                         table_size=256, fourier_n=2, embed_dim=4, hidden_width=16)
    field = MaterialField(n_particles, rng, cfg)
    field.head.weight.data += rng.normal(scale=0.3, size=field.head.weight.data.shape)
    field.head.bias.data += rng.normal(scale=0.1, size=field.head.bias.data.shape)
    return field


def test_cmr_tape_records_a_handful_of_nodes():
    field = learned_field()
    rng = np.random.default_rng(14)
    with ad.Tape() as tape:
        cmr_loss(field, sample_points(rng, n=10), rng.integers(0, 12, 10))
    ops = [node.op for node in tape.nodes]
    assert ops == ["plane2d", "material_head", "momentum_residual", "mean_sq_norm"]
    assert len(ops) < 15


def test_single_block_equals_unblocked_bitwise():
    field = learned_field()
    rng = np.random.default_rng(9)
    pts = sample_points(rng, n=20)
    ids = np.sort(rng.integers(0, 12, 20))
    with ad.Tape():
        whole = cmr_loss(field, pts, ids).data.copy()
    with ad.Tape():
        blocked = block_sampled_cmr(field, pts, ids, block_size=50).data.copy()
    # one block of everything: identical float path up to the *1.0 scaling
    assert float(whole) == float(blocked)


def test_multi_block_matches_unblocked():
    field = learned_field(seed=10)
    rng = np.random.default_rng(11)
    pts = sample_points(rng, n=30)
    ids = rng.integers(0, 12, 30)
    with ad.Tape():
        whole = float(cmr_loss(field, pts, ids).data)
    with ad.Tape():
        blocked = float(block_sampled_cmr(field, pts, ids, block_size=7).data)
    assert np.isclose(blocked, whole, rtol=1e-12, atol=1e-14)


def test_backward_mode_accumulates_scaled_gradients():
    rng = np.random.default_rng(12)
    pts = sample_points(rng, n=16)
    ids = rng.integers(0, 12, 16)
    scale = 0.37

    f1 = learned_field(seed=13)
    with ad.Tape() as tape:
        loss = block_sampled_cmr(f1, pts, ids, block_size=100)
        tape.backward(loss, seed=scale)
    ref = {name: t.grad.copy() for name, t in f1.params if t.grad is not None}

    f2 = learned_field(seed=13)  # identical parameters
    value = block_sampled_cmr(f2, pts, ids, block_size=5, backward_scale=scale)
    with ad.Tape():
        want_val = float(cmr_loss(f2, pts, ids).data)
    assert np.isclose(value, want_val, rtol=1e-12)
    for name, t in f2.params:
        if name in ref:
            assert np.allclose(t.grad, ref[name], rtol=1e-10, atol=1e-12), name


def test_subsampled_estimator_is_unbiased():
    # the subsample mean over many draws approaches the full-set mean
    field = hydrostatic_field()
    rng = np.random.default_rng(14)
    pts = sample_points(rng, n=40)
    # make per-point residual norms vary: mix in a linear-in-y stress bump
    def fn(p):
        n = p.shape[0]
        v = np.zeros((n, 3))
        dv = np.zeros((4, n, 3))
        s = np.zeros((n, 6))
        ds = np.zeros((4, n, 6))
        ds[0, :, 0] = -1.0 - p[:, 1]  # d sigma_xx / dx varies with y
        return v, dv, s, ds
    field = AnalyticJetField(fn)
    ids = np.arange(40)
    with ad.Tape():
        full = float(cmr_loss(field, pts, ids).data)
    draws = []
    for _ in range(400):
        with ad.Tape():
            draws.append(float(block_sampled_cmr(field, pts, ids, block_size=100,
                                                 sample_count=10, rng=rng).data))
    assert abs(np.mean(draws) - full) / full < 0.02


def test_empty_point_set_returns_zero():
    field = learned_field(seed=15)
    with ad.Tape():
        assert float(block_sampled_cmr(field, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 1024).data) == 0.0
    assert block_sampled_cmr(field, np.zeros((0, 4)), np.zeros(0, dtype=np.int64), 1024,
                             backward_scale=1.0) == 0.0


def test_subsample_requires_rng():
    field = learned_field(seed=16)
    pts = sample_points(np.random.default_rng(17), n=8)
    with pytest.raises(ValueError):
        block_sampled_cmr(field, pts, np.arange(8), 1024, sample_count=4)


# -- the tape compositions the residual and loss nodes replaced, kept as oracles --

_SIGMA_COLS = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


def _col(t, j):
    return ad.getitem(t, (slice(None), j))


def residual_oracle(vel, sigma, rho, include_advection):
    """The residual as per-column ``getitem`` picks, products and sums."""
    spatial = vel.partials()[:3]
    rows = []
    for j in range(3):
        acc = _col(vel.dt, j)
        if include_advection:
            for i in range(3):
                acc = ad.add(acc, ad.mul(_col(vel.val, i), _col(spatial[i], j)))
        div = None
        for i in range(3):
            term = _col(sigma.partials()[i], _SIGMA_COLS[i][j])
            div = term if div is None else ad.add(div, term)
        rows.append(ad.sub(ad.mul(acc, rho), div))
    return ad.stack(rows, axis=1)


def cmr_loss_oracle(field, points, ids, include_advection=True):
    """``cmr_loss`` as the composition of the tape oracles of its nodes."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        return ad.constant(0.0)
    vel, sigma = material_oracle(field, points, ids, with_partials=True)
    r = residual_oracle(vel, sigma, rho=field.rho, include_advection=include_advection)
    return ad.mean(ad.sum_(ad.mul(r, r), axis=1))


def _held_grads(field, rng):
    """Gradients already held from earlier tapes, as in training."""
    for k, (_, t) in enumerate(field.params):
        t.grad = None if k % 3 == 0 else rng.normal(size=t.data.shape)
    return [None if t.grad is None else t.grad.copy() for _, t in field.params]


def _grad_bytes(field):
    return [None if t.grad is None else t.grad.tobytes() for _, t in field.params]


@pytest.mark.parametrize("include_advection", [True, False])
@pytest.mark.parametrize("n", [1, 37])
def test_residual_node_matches_tape_oracle_bit_for_bit(n, include_advection):
    field = learned_field(seed=20)
    rng = np.random.default_rng(21)
    pts, ids = sample_points(rng, n=n), rng.integers(0, 12, n)
    held = _held_grads(field, rng)
    w = rng.normal(size=(n, 3))
    w[::3] = -0.0
    results = []
    for residual in (momentum_residual, residual_oracle):
        for (_, t), g in zip(field.params, held):
            t.grad = None if g is None else g.copy()
        with ad.Tape() as tape:
            vel, sig = field.evaluate_with_jets(pts, ids)
            r = residual(vel, sig, rho=1.3, include_advection=include_advection)
            tape.backward(ad.sum_(ad.mul(r, ad.constant(w))))
        results.append((r.data.tobytes(), _grad_bytes(field)))
    assert results[0] == results[1]


@pytest.mark.parametrize("include_advection", [True, False])
def test_residual_node_hands_each_slot_the_oracle_gradient(include_advection):
    # leaf jets, so each slot's own gradient shows, signed zeros included
    rng = np.random.default_rng(26)
    n = 25
    data = [rng.normal(size=(n, 3)) for _ in range(5)] + [rng.normal(size=(n, 6)) for _ in range(5)]
    w = rng.normal(size=(n, 3))
    w[::3], w[1::3] = -0.0, 0.0
    results = []
    for residual in (momentum_residual, residual_oracle):
        slots = [ad.parameter(d) for d in data]
        with ad.Tape() as tape:
            r = residual(JetVec(*slots[:5]), JetVec(*slots[5:]), rho=0.8, include_advection=include_advection)
            tape.backward(ad.sum_(ad.mul(r, ad.constant(w))))
        results.append((r.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in slots]))
    assert results[0] == results[1]


@pytest.mark.parametrize("include_advection", [True, False])
def test_residual_node_matches_tape_oracle_on_closed_form_jets(include_advection):
    pts = sample_points(np.random.default_rng(22), n=30)
    for field in (shear_flow_field(0.6, 0.5), hydrostatic_field(2.0),
                  elastic_wave_field(0.05, 2 * np.pi, 1.0, 0.5), uniform_advection_field((0.3, -0.2, 0.1))):
        with ad.Tape() as tape:
            vel, sig = field.evaluate_with_jets(pts)
            got = momentum_residual(vel, sig, rho=field.rho, include_advection=include_advection)
            ref = residual_oracle(vel, sig, rho=field.rho, include_advection=include_advection)
        assert got.data.tobytes() == ref.data.tobytes()
        assert tape.nodes == []


@pytest.mark.parametrize("include_advection", [True, False])
def test_cmr_loss_matches_tape_oracle_in_both_block_modes(include_advection, monkeypatch):
    rng = np.random.default_rng(23)
    pts, ids = sample_points(rng, n=45), rng.integers(0, 12, 45)
    runs = {}
    for name, loss in (("fused", cmr_loss), ("oracle", cmr_loss_oracle)):
        monkeypatch.setattr(physics, "cmr_loss", loss)
        field = learned_field(seed=24)
        _held_grads(field, np.random.default_rng(25))
        with ad.Tape() as tape:  # one tape over all blocks
            total = block_sampled_cmr(field, pts, ids, block_size=16, include_advection=include_advection)
            tape.backward(total, seed=0.7)
        taped = (total.data.tobytes(), _grad_bytes(field))
        _held_grads(field, np.random.default_rng(25))
        value = block_sampled_cmr(field, pts, ids, block_size=16, include_advection=include_advection,
                                  backward_scale=0.7)  # a tape per block
        runs[name] = (taped, repr(value), _grad_bytes(field))
    assert runs["fused"] == runs["oracle"]
