"""Adam: hand-computed updates, freezing, remapping, decay schedule."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.optim import BETA1, BETA2, EPS, Adam, exp_decay


def test_first_adam_step_hand_case():
    # f(theta) = theta^2 at theta = 1: g = 2. After the bias-corrected first
    # step, mhat = g, vhat = g^2, so the update is lr * g / (|g| + eps) ~ lr.
    theta = ad.parameter(np.array([1.0]))
    theta.grad = np.array([2.0])
    opt = Adam()
    opt.register("theta", theta)
    opt.step({"theta": 0.1})
    want = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    assert np.isclose(theta.data[0], want, atol=1e-12)
    assert opt.slots["theta"]["t"] == 1


def test_adam_sequence_matches_reference_implementation():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(5)]
    lr, b1, b2, eps = 0.05, BETA1, BETA2, EPS

    p = ad.parameter(x0.copy())
    opt = Adam()
    opt.register("p", p)
    for g in grads:
        p.grad = g.copy()
        opt.step({"p": lr})

    # independent textbook recurrence
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    assert np.max(np.abs(p.data - x)) < 1e-14


def test_none_gradient_advances_step_count_only():
    p = ad.parameter(np.ones(3))
    opt = Adam()
    opt.register("p", p)
    p.grad = None
    opt.step({"p": 0.1})
    assert opt.slots["p"]["t"] == 1
    assert np.array_equal(p.data, np.ones(3))
    assert np.array_equal(opt.slots["p"]["m"], np.zeros(3))


def test_frozen_rows_keep_value_and_state():
    p = ad.parameter(np.zeros((4, 2)))
    opt = Adam()
    opt.register("p", p)
    freeze = np.array([False, True, False, True])
    for _ in range(3):
        p.grad = np.ones((4, 2))
        opt.step({"p": 0.1}, freeze_rows={"p": freeze})
    assert np.array_equal(p.data[freeze], np.zeros((2, 2)))
    assert np.array_equal(opt.slots["p"]["m"][freeze], np.zeros((2, 2)))
    assert np.all(p.data[~freeze] < 0.0)
    # unfreezing resumes from clean state for those rows
    p.grad = np.ones((4, 2))
    opt.step({"p": 0.1})
    assert np.all(p.data[freeze] < 0.0)


def test_remap_rows_carries_state():
    p = ad.parameter(np.zeros((3, 2)))
    opt = Adam()
    opt.register("p", p)
    p.grad = np.arange(6, dtype=np.float64).reshape(3, 2)
    opt.step({"p": 0.1})
    m_before = opt.slots["p"]["m"].copy()
    # keep rows (2, 0), append 2 fresh rows
    opt.remap_rows("p", np.array([2, 0]), 2)
    m_after = opt.slots["p"]["m"]
    assert m_after.shape == (4, 2)
    assert np.array_equal(m_after[0], m_before[2])
    assert np.array_equal(m_after[1], m_before[0])
    assert np.array_equal(m_after[2:], np.zeros((2, 2)))


def test_duplicate_registration_rejected():
    p = ad.parameter(np.zeros(2))
    opt = Adam()
    opt.register("p", p)
    with pytest.raises(ValueError):
        opt.register("p", p)


def test_zero_grad_clears_all():
    p1, p2 = ad.parameter(np.zeros(2)), ad.parameter(np.zeros(2))
    p1.grad = np.ones(2)
    p2.grad = np.ones(2)
    opt = Adam()
    opt.register("a", p1)
    opt.register("b", p2)
    opt.zero_grad()
    assert p1.grad is None and p2.grad is None


def test_state_arrays_round_trip():
    rng = np.random.default_rng(1)
    p = ad.parameter(rng.normal(size=(3, 2)))
    opt = Adam()
    opt.register("p", p)
    for _ in range(4):
        p.grad = rng.normal(size=(3, 2))
        opt.step({"p": 0.01})
    state = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in opt.state_arrays().items()}

    clone = Adam()
    clone.register("p", ad.parameter(p.data.copy()))
    clone.load_state_arrays(state)
    assert np.array_equal(clone.slots["p"]["m"], opt.slots["p"]["m"])
    assert np.array_equal(clone.slots["p"]["v"], opt.slots["p"]["v"])
    assert clone.slots["p"]["t"] == 4


def test_exp_decay_schedule():
    # one decade of decay per 40% of the run
    assert np.isclose(exp_decay(0, 100), 1.0)
    assert np.isclose(exp_decay(40, 100), 0.1)
    assert np.isclose(exp_decay(80, 100), 0.01)


def _out_of_place_step(p, m, v, g, t, lr, live):
    """The update as out-of-place numpy formulas over the live rows."""
    m[live] = BETA1 * m[live] + (1.0 - BETA1) * g[live]
    v[live] = BETA2 * v[live] + (1.0 - BETA2) * g[live] ** 2
    mhat = m[live] / (1.0 - BETA1**t)
    vhat = v[live] / (1.0 - BETA2**t)
    p[live] -= lr * mhat / (np.sqrt(vhat) + EPS)


@pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 4, 3)])
def test_in_place_update_matches_the_out_of_place_formulas_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=shape)
    p = ad.parameter(x0.copy())
    opt = Adam()
    opt.register("p", p)
    ref_p, ref_m, ref_v = x0.copy(), np.zeros(shape), np.zeros(shape)
    for t in range(1, 6):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
        g[rng.uniform(size=shape) < 0.2] = -0.0
        frozen = rng.uniform(size=shape[0]) < 0.4 if t % 2 else None
        p.grad = g.copy()
        opt.step({"p": 0.03}, freeze_rows=None if frozen is None else {"p": frozen})
        _out_of_place_step(ref_p, ref_m, ref_v, g, t, 0.03, slice(None) if frozen is None else ~frozen)
        slot = opt.slots["p"]
        assert p.data.tobytes() == ref_p.tobytes()
        assert slot["m"].tobytes() == ref_m.tobytes()
        assert slot["v"].tobytes() == ref_v.tobytes()
        assert p.grad.tobytes() == g.tobytes()  # the gradient is only read
