"""Tape/VJP correctness against central finite differences."""

import numpy as np
import pytest

import pidg.autodiff as ad


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at x (elementwise probes)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        fp = f(x)
        flat[i] = old - h
        fm = f(x)
        flat[i] = old
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_unary(op, x, tol=1e-7, weight=None):
    """Compare tape gradient of sum(w * op(x)) with finite differences."""
    x = np.asarray(x, dtype=np.float64)
    w = np.ones_like(x) if weight is None else weight

    with ad.Tape() as tape:
        xt = ad.parameter(x.copy())
        tape.backward(ad.sum_(ad.mul(op(xt), ad.constant(w))))
    g = xt.grad

    def scalar(v):
        with ad.Tape():
            return float(ad.sum_(ad.mul(op(ad.constant(v)), ad.constant(w))).data)

    ref = fd_grad(scalar, x)
    assert np.allclose(g, ref, rtol=1e-5, atol=tol), (op, np.abs(g - ref).max())


UNARY_CASES = [
    (ad.exp, lambda r: r.uniform(-1.0, 1.0, (4, 3))),
    # one-input chains as the model records them: unit vectors (quaternion
    # normalisation, view directions), a residual column, an id-embedding
    # gather with repeated ids, the CMR reduction and an SSIM-style ratio
    (lambda t: ad.mul(t, ad.pow_const(ad.sum_(ad.mul(t, t), axis=-1, keepdims=True), -0.5)),
     lambda r: r.normal(size=(3, 4))),
    (lambda t: ad.getitem(t, (slice(None), 1)), lambda r: r.normal(size=(4, 3))),
    (lambda t: ad.take_rows(t, np.array([2, 0, 2, 1, 2])), lambda r: r.normal(size=(3, 2))),
    (lambda t: ad.mean(ad.sum_(ad.mul(t, t), axis=1)), lambda r: r.normal(size=(5, 3))),
    (lambda t: ad.div(ad.add(ad.mul(t, 2.0), 0.01), ad.add(ad.mul(t, t), 0.01)),
     lambda r: r.uniform(0.2, 1.0, (6,))),
    (ad.sigmoid, lambda r: r.uniform(-4.0, 4.0, (6,))),
    (ad.neg, lambda r: r.normal(size=(4,))),
    (lambda t: ad.pow_const(t, 3.0), lambda r: r.uniform(0.3, 2.0, (5,))),
    (lambda t: ad.pow_const(t, -0.5), lambda r: r.uniform(0.5, 2.0, (5,))),
    # keep samples away from the relu/abs/clip kinks
    (ad.relu, lambda r: r.choice([-1.0, 1.0], (8,)) * r.uniform(0.5, 1.5, (8,))),
    (ad.abs_, lambda r: r.choice([-1.0, 1.0], (8,)) * r.uniform(0.5, 1.5, (8,))),
    (lambda t: ad.clip(t, -0.5, 0.5), lambda r: r.uniform(0.6, 2.0, (6,)) * r.choice([-1, 1], (6,))),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", range(len(UNARY_CASES)))
def test_unary_gradients(case, seed):
    op, sample = UNARY_CASES[case]
    rng = np.random.default_rng(1000 * case + seed)
    check_unary(op, sample(rng), weight=rng.normal(size=1))


@pytest.mark.parametrize("seed", range(4))
def test_binary_gradients_with_broadcasting(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3))
    b = rng.uniform(0.5, 2.0, (3,))  # broadcasts across rows
    w = rng.normal(size=(4, 3))
    for op in (ad.add, ad.sub, ad.mul, ad.div):
        with ad.Tape() as tape:
            at, bt = ad.parameter(a.copy()), ad.parameter(b.copy())
            tape.backward(ad.sum_(ad.mul(op(at, bt), ad.constant(w))))
        ga, gb = at.grad, bt.grad
        assert gb.shape == b.shape  # unbroadcast folded the row axis

        def fa(v, op=op):
            with ad.Tape():
                return float(ad.sum_(ad.mul(op(ad.constant(v), ad.constant(b)), ad.constant(w))).data)

        def fb(v, op=op):
            with ad.Tape():
                return float(ad.sum_(ad.mul(op(ad.constant(a), ad.constant(v)), ad.constant(w))).data)

        assert np.allclose(ga, fd_grad(fa, a), rtol=1e-6, atol=1e-8)
        assert np.allclose(gb, fd_grad(fb, b), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("shapes", [((3, 4), (4, 2)), ((2, 3, 4), (2, 4, 5))])
def test_matmul_gradients(shapes):
    rng = np.random.default_rng(7)
    a = rng.normal(size=shapes[0])
    b = rng.normal(size=shapes[1])
    w = rng.normal(size=np.matmul(a, b).shape)
    with ad.Tape() as tape:
        at, bt = ad.parameter(a.copy()), ad.parameter(b.copy())
        tape.backward(ad.sum_(ad.mul(ad.matmul(at, bt), ad.constant(w))))
    ga, gb = at.grad, bt.grad

    def fa(v):
        with ad.Tape():
            return float(ad.sum_(ad.mul(ad.matmul(ad.constant(v), ad.constant(b)), ad.constant(w))).data)

    def fb(v):
        with ad.Tape():
            return float(ad.sum_(ad.mul(ad.matmul(ad.constant(a), ad.constant(v)), ad.constant(w))).data)

    assert np.allclose(ga, fd_grad(fa, a), rtol=1e-6, atol=1e-8)
    assert np.allclose(gb, fd_grad(fb, b), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("shapes", [((5, 4), (4,)), ((4,), (4, 2)), ((4,), (4,))])
def test_matmul_rejects_1d_operand(shapes):
    rng = np.random.default_rng(7)
    with ad.Tape():
        a, b = (ad.parameter(rng.normal(size=shape)) for shape in shapes)
        with pytest.raises(ValueError, match="at least 2 dimensions"):
            ad.matmul(a, b)


def test_structural_op_gradients():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 6))
    w = rng.normal(size=(2, 3, 4))

    def build(t):
        r = ad.reshape(t, (4, 2, 3))
        s = ad.swapaxes(r, 0, 2)  # (3, 2, 4)
        g = ad.getitem(s, (slice(None), slice(None), slice(0, 4)))
        return ad.sum_(ad.mul(ad.swapaxes(g, 0, 1), ad.constant(w)))

    with ad.Tape() as tape:
        at = ad.parameter(a.copy())
        tape.backward(build(at))
    ga = at.grad

    def f(v):
        with ad.Tape():
            return float(build(ad.constant(v)).data)

    assert np.allclose(ga, fd_grad(f, a), rtol=1e-6, atol=1e-9)


def test_take_rows_accumulates_duplicates():
    table = np.arange(12.0).reshape(4, 3)
    idx = np.array([1, 1, 3, 1])
    with ad.Tape() as tape:
        t = ad.parameter(table.copy())
        tape.backward(ad.sum_(ad.take_rows(t, idx)))
    g = t.grad
    expected = np.zeros_like(table)
    expected[1] = 3.0
    expected[3] = 1.0
    assert np.array_equal(g, expected)


def test_concatenate_and_stack_gradients():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    w = rng.normal(size=(6, 3))
    with ad.Tape() as tape:
        at, bt = ad.parameter(a.copy()), ad.parameter(b.copy())
        tape.backward(ad.sum_(ad.mul(ad.concatenate([at, bt], axis=0), ad.constant(w))))
    assert np.allclose(at.grad, w[:2])
    assert np.allclose(bt.grad, w[2:])

    c, d = rng.normal(size=(5,)), rng.normal(size=(5,))
    ws = rng.normal(size=(5, 2))
    with ad.Tape() as tape:
        ct, dt = ad.parameter(c.copy()), ad.parameter(d.copy())
        tape.backward(ad.sum_(ad.mul(ad.stack([ct, dt], axis=1), ad.constant(ws))))
    assert np.allclose(ct.grad, ws[:, 0])
    assert np.allclose(dt.grad, ws[:, 1])


def test_where_routes_gradient_by_mask():
    mask = np.array([True, False, True])
    with ad.Tape() as tape:
        a = ad.parameter(np.array([1.0, 2.0, 3.0]))
        b = ad.parameter(np.array([10.0, 20.0, 30.0]))
        tape.backward(ad.sum_(ad.mul(ad.where(mask, a, b), ad.constant(np.array([2.0, 5.0, 7.0])))))
    assert np.array_equal(a.grad, [2.0, 0.0, 7.0])
    assert np.array_equal(b.grad, [0.0, 5.0, 0.0])


def test_mean_and_sum_axis_gradients():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 4))
    with ad.Tape() as tape:
        at = ad.parameter(a.copy())
        tape.backward(ad.sum_(ad.mul(ad.mean(at, axis=0), ad.constant(np.array([1.0, 2.0, 3.0, 4.0])))))
    expected = np.tile(np.array([1.0, 2.0, 3.0, 4.0]) / 3.0, (3, 1))
    assert np.allclose(at.grad, expected)


def test_backward_seed_scales_gradient():
    with ad.Tape() as tape:
        x = ad.parameter(np.array(2.0))
        y = ad.mul(x, x)
        tape.backward(y, seed=3.0)
    assert np.allclose(x.grad, 12.0)  # 3 * dy/dx = 3 * 2x


def test_parameter_gradients_accumulate_across_backward_calls():
    with ad.Tape() as tape:
        x = ad.parameter(np.array(3.0))
        y = ad.mul(x, x)
        z = ad.mul(x, 2.0)
        tape.backward(y)
        assert np.allclose(x.grad, 6.0)
        tape.backward(z)
        assert np.allclose(x.grad, 8.0)  # 6 + 2: leaves accumulate
        assert y.grad is None  # intermediates are cleared each sweep


def test_sweep_releases_each_gradient_after_its_vjp():
    # when a node's VJP runs, every node swept before it (created after it)
    # has already released its gradient
    held = []
    with ad.Tape() as tape:
        x = ad.parameter(np.arange(3.0))
        y = ad.mul(x, x)
        out = ad.sum_(ad.add(ad.exp(ad.mul(y, 0.1)), y))
        nodes = list(tape.nodes)
        for i, node in enumerate(nodes):
            def probe(g, later=nodes[i + 1:], vjp=node._vjp):
                held.extend(n.op for n in later if n.grad is not None)
                vjp(g)

            node._vjp = probe
        tape.backward(out)
    assert held == []
    assert all(n.grad is None for n in nodes)
    assert np.allclose(x.grad, 2.0 * np.arange(3.0) * (0.1 * np.exp(0.1 * np.arange(3.0) ** 2) + 1.0))


def test_backward_rejects_nonscalar_root():
    with ad.Tape() as tape:
        x = ad.parameter(np.ones(3))
        y = ad.mul(x, 2.0)
        with pytest.raises(ValueError):
            tape.backward(y)


def test_grad_rejects_detached_input():
    with ad.Tape() as tape:
        x = ad.constant(np.array(1.0))
        y = ad.mul(x, 2.0)
        with pytest.raises(ValueError):
            tape.grad(y, [x])


def test_nonfinite_result_aborts():
    with np.errstate(all="ignore"):
        with ad.Tape():
            x = ad.parameter(np.array([1.0, -1.0]))
            with pytest.raises(ad.NonFiniteError):
                ad.pow_const(x, 0.5)
        with ad.Tape():
            x = ad.parameter(np.array(0.0))
            with pytest.raises(ad.NonFiniteError):
                ad.div(ad.constant(1.0), x)


def test_sigmoid_is_stable_for_large_inputs():
    with ad.Tape():
        out = ad.sigmoid(ad.constant(np.array([-500.0, 500.0])))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] >= 0.0 and out.data[1] <= 1.0


@pytest.mark.parametrize("trailing", [(), (3,), (2, 3)])
def test_scatter_add_matches_add_at_bit_for_bit(trailing):
    rng = np.random.default_rng(12)
    rows = 6
    idx = rng.integers(0, rows - 2, size=(4, 50))  # heavy repeats; the last two rows get nothing
    vals = rng.normal(size=idx.shape + trailing) * 10.0 ** rng.integers(-8, 9, size=idx.shape + trailing)
    vals[idx == 0] = -0.0  # a row whose every contribution is -0.0
    ref = np.zeros((rows,) + trailing)
    np.add.at(ref, idx, vals)
    got = ad.scatter_add(idx, vals, (rows,) + trailing)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("key", [
    (slice(None), [1, 1, 3]),
    (slice(None), (0, 2, 3)),
    (np.array([0, 0, 4, 0]),),
    np.array([True, False, True, True, False]),
    (slice(1, 4), 2),
    (Ellipsis, slice(0, 2)),
])
def test_getitem_gradient_matches_add_at_bit_for_bit(key):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(5, 4))
    g = rng.normal(size=a[key].shape) * 1e8
    g.reshape(-1)[::3] = rng.normal(size=g.reshape(-1)[::3].shape)
    with ad.Tape() as tape:
        t = ad.parameter(a.copy())
        tape.backward(ad.sum_(ad.mul(ad.getitem(t, key), ad.constant(g))))
    ref = np.zeros_like(a)
    np.add.at(ref, key, g)
    assert t.grad.tobytes() == ref.tobytes()


# -- ops with several outputs: one tape node, one VJP ----------------------------


def _pair(x, calls=None, op="pair"):
    """A two-output op on the tape: (2x, x^2), whose VJP logs what it got."""

    def vjp(grads):
        if calls is not None:
            calls.append(grads)
        g_double, g_square = grads
        if g_double is not None:
            ad.accumulate_grad(x, 2.0 * g_double)
        if g_square is not None:
            ad.accumulate_grad(x, 2.0 * x.data * g_square)

    return ad.record((2.0 * x.data, x.data * x.data), (x,), vjp, op)


def test_multi_output_op_is_one_node_whose_vjp_runs_once():
    calls = []
    with ad.Tape() as tape:
        x = ad.parameter(np.array([1.0, -2.0, 3.0]))
        double, square = _pair(x, calls)
        assert [n.op for n in tape.nodes] == ["pair"]
        assert double.op == square.op == "pair" and double.requires_grad and square.requires_grad
        tape.backward(ad.sum_(ad.add(ad.mul(double, 0.5), ad.mul(square, 3.0))))
        assert len(calls) == 1
        g_double, g_square = calls[0]
        assert np.array_equal(g_double, [0.5, 0.5, 0.5]) and np.array_equal(g_square, [3.0, 3.0, 3.0])
        assert np.array_equal(x.grad, 1.0 + 6.0 * x.data)
        assert double.grad is None and square.grad is None  # every output released


def test_multi_output_vjp_gets_none_for_an_unreached_output():
    calls = []
    with ad.Tape() as tape:
        x = ad.parameter(np.array([1.0, -2.0]))
        double, square = _pair(x, calls)
        tape.backward(ad.sum_(square))
        assert len(calls) == 1 and calls[0][0] is None
        assert np.array_equal(calls[0][1], [1.0, 1.0]) and np.array_equal(x.grad, 2.0 * x.data)
        assert double.grad is None and square.grad is None
        # a sweep that reaches no output skips the VJP
        tape.backward(ad.sum_(ad.mul(x, 1.0)))
        assert len(calls) == 1


def test_multi_output_nonfinite_value_names_the_op():
    with np.errstate(all="ignore"), ad.Tape():
        x = ad.parameter(np.array([1.0, 2.0]))
        for bad in (0, 1):
            outs = [x.data.copy(), x.data.copy()]
            outs[bad][1] = np.nan
            with pytest.raises(ad.NonFiniteError, match="'jet_op'"):
                ad.record(tuple(outs), (x,), lambda grads: None, "jet_op")


def test_multi_output_op_is_detached_without_a_graph():
    with ad.Tape(keep_graph=False) as tape:
        x = ad.parameter(np.array([1.0, 2.0]))
        outs = _pair(x)
    assert tape.nodes == [] and isinstance(outs, tuple) and len(outs) == 2
    assert all(not t.requires_grad and t._vjp is None and t._parents == () for t in outs)


def test_grad_rejects_an_intermediate_input():
    # the sweep releases an intermediate's gradient once its VJP has run
    with ad.Tape() as tape:
        x = ad.parameter(np.array([1.0, 2.0]))
        y = ad.mul(x, x)
        jet = _pair(x)
        out = ad.sum_(ad.add(ad.mul(y, 3.0), jet[0]))
        for intermediate in (y, jet[1]):
            with pytest.raises(ValueError, match="leaf"):
                tape.grad(out, [x, intermediate])
        assert np.array_equal(tape.grad(out, [x])[0], [8.0, 14.0])

