"""The particle chain's fused ops against the tape compositions they replaced.

``normalize_quaternions``, ``rotation_matrices``, ``covariance``,
``project_gaussians`` and ``appearance`` are one tape node each with a
hand-written VJP. The compositions below are the ordinary tape ops they
replaced, kept as oracles: every forward output and every parent's gradient
must match them bit for bit, signed zeros included, also when a parent
already holds a gradient.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pidg.autodiff as ad
from pidg.camera import camera_from_fov
from pidg.render import NEAR, appearance, project_gaussians, render
from pidg.scene import (SH_C0, SH_C1, DegenerateRotationError, GaussianCloud, covariance,
                        normalize_quaternions, rotation_matrices)
from pidg.synth import generate, scene_data
from pidg.train import Trainer

# -- oracles: the tape compositions -------------------------------------------


def _normalize_oracle(quat):
    n2 = ad.sum_(ad.mul(quat, quat), axis=-1, keepdims=True)
    return ad.mul(quat, ad.pow_const(n2, -0.5))


def _rotation_oracle(quat):
    q = _normalize_oracle(quat)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    two = 2.0
    r00 = 1.0 - two * (ad.mul(y, y) + ad.mul(z, z))
    r01 = two * (ad.mul(x, y) - ad.mul(w, z))
    r02 = two * (ad.mul(x, z) + ad.mul(w, y))
    r10 = two * (ad.mul(x, y) + ad.mul(w, z))
    r11 = 1.0 - two * (ad.mul(x, x) + ad.mul(z, z))
    r12 = two * (ad.mul(y, z) - ad.mul(w, x))
    r20 = two * (ad.mul(x, z) - ad.mul(w, y))
    r21 = two * (ad.mul(y, z) + ad.mul(w, x))
    r22 = 1.0 - two * (ad.mul(x, x) + ad.mul(y, y))
    return ad.stack([ad.stack([r00, r01, r02], axis=1),
                     ad.stack([r10, r11, r12], axis=1),
                     ad.stack([r20, r21, r22], axis=1)], axis=1)


def _covariance_oracle(quat, log_scale):
    rot = _rotation_oracle(quat)
    scale = ad.exp(log_scale)
    m = ad.mul(rot, ad.reshape(scale, (scale.shape[0], 1, 3)))
    return ad.matmul(m, ad.swapaxes(m, 1, 2))


def _project_oracle(pc, cov3d, camera):
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    inv_z = ad.pow_const(z, -1.0)
    u = camera.fx * ad.mul(x, inv_z) + camera.cx
    v = camera.fy * ad.mul(y, inv_z) + camera.cy
    means2d = ad.stack([u, v], axis=1)
    vc = ad.matmul(ad.matmul(ad.constant(camera.rot), cov3d), ad.constant(camera.rot.T))
    j00 = camera.fx * inv_z
    j02 = -camera.fx * ad.mul(x, ad.mul(inv_z, inv_z))
    j11 = camera.fy * inv_z
    j12 = -camera.fy * ad.mul(y, ad.mul(inv_z, inv_z))
    v00, v01, v02 = vc[:, 0, 0], vc[:, 0, 1], vc[:, 0, 2]
    v11, v12, v22 = vc[:, 1, 1], vc[:, 1, 2], vc[:, 2, 2]
    a = ad.mul(j00, ad.mul(j00, v00)) + 2.0 * ad.mul(j00, ad.mul(j02, v02)) + ad.mul(j02, ad.mul(j02, v22)) + 0.3
    b = (ad.mul(j00, ad.mul(j11, v01)) + ad.mul(j00, ad.mul(j12, v02))
         + ad.mul(j11, ad.mul(j02, v12)) + ad.mul(j02, ad.mul(j12, v22)))
    c = ad.mul(j11, ad.mul(j11, v11)) + 2.0 * ad.mul(j11, ad.mul(j12, v12)) + ad.mul(j12, ad.mul(j12, v22)) + 0.3
    inv_det = ad.pow_const(ad.sub(ad.mul(a, c), ad.mul(b, b)), -1.0)
    conic = ad.stack([ad.mul(c, inv_det), ad.neg(ad.mul(b, inv_det)), ad.mul(a, inv_det)], axis=1)
    return means2d, ad.stack([a, b, c], axis=1), conic, z


def _appearance_oracle(sh, opacity_logit, rows, positions, center):
    sh_k = ad.take_rows(sh, rows)
    logit_k = ad.take_rows(opacity_logit, rows)
    rel = ad.sub(positions, ad.constant(center))
    dirs = ad.mul(rel, ad.pow_const(ad.sum_(ad.mul(rel, rel), axis=1, keepdims=True), -0.5))
    c = (0.5 + SH_C0 * sh_k[:, 0, :]
         - SH_C1 * ad.mul(dirs[:, 1:2], sh_k[:, 1, :])
         + SH_C1 * ad.mul(dirs[:, 2:3], sh_k[:, 2, :])
         - SH_C1 * ad.mul(dirs[:, 0:1], sh_k[:, 3, :]))
    return ad.clip(c, 0.0, 1.0), ad.sigmoid(logit_k)


# -- the comparison -----------------------------------------------------------


def _signed_weights(rng, shape):
    """Output weights with exact zeros of both signs, so -0.0 gradients reach the VJPs."""
    w = rng.normal(size=shape)
    w[rng.uniform(size=shape) < 0.15] = 0.0
    w[rng.uniform(size=shape) < 0.15] = -0.0
    return w


def _run(op, arrays, args, weights, prior, derived=()):
    """Forward bytes and every leaf's gradient bytes after a weighted-sum
    backward. ``arrays`` become fresh parameters, ``prior`` their initial
    ``.grad`` (None or an array); ``derived`` names leaves passed through a
    ``take_rows`` of the given rows before the op, as a culled render does.
    An output whose weight is None is left unreached."""
    params = [ad.parameter(a) for a in arrays]
    for p, g in zip(params, prior):
        p.grad = None if g is None else g.copy()
    with ad.Tape() as tape:
        inputs = [ad.take_rows(p, derived[i]) if i in derived else p for i, p in enumerate(params)]
        outs = op(*inputs, *args)
        outs = outs if isinstance(outs, tuple) else (outs,)
        terms = [ad.sum_(ad.mul(o, ad.constant(w))) for o, w in zip(outs, weights) if w is not None]
        loss = terms[0]
        for t in terms[1:]:
            loss = ad.add(loss, t)
        tape.backward(loss)
    return ([o.data.tobytes() for o in outs],
            [None if p.grad is None else p.grad.tobytes() for p in params], len(tape.nodes))


def _assert_same(fused, oracle, arrays, args, weights, prior, derived=()):
    f_out, f_grads, f_nodes = _run(fused, arrays, args, weights, prior, derived)
    o_out, o_grads, o_nodes = _run(oracle, arrays, args, weights, prior, derived)
    assert f_out == o_out
    assert f_grads == o_grads
    assert f_nodes < o_nodes


def _priors(rng, arrays, with_prior):
    if not with_prior:
        return [None] * len(arrays)
    out = []
    for a in arrays:
        g = rng.normal(size=a.shape)
        g[rng.uniform(size=a.shape) < 0.3] = -0.0
        out.append(g)
    return out


def _camera(rng, yaw=None):
    yaw = rng.uniform(-0.6, 0.6) if yaw is None else yaw
    eye = (2.5 * np.sin(yaw), rng.uniform(-0.5, 0.5), -2.5 * np.cos(yaw))
    return camera_from_fov(eye, (0.0, 0.0, 0.0), 50.0, 32, 24)


def _quats(rng, n, tiny=False):
    q = rng.normal(size=(n, 4))
    if tiny:  # norms just above the 1e-8 floor
        q *= 1.0000001e-8 / np.linalg.norm(q, axis=1, keepdims=True) * rng.uniform(1.0, 1.5, (n, 1))
    return q


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_prior", [False, True])
def test_normalize_quaternions_matches_the_composition(seed, with_prior):
    rng = np.random.default_rng(70 + seed)
    q = _quats(rng, 7, tiny=seed == 3)
    _assert_same(normalize_quaternions, _normalize_oracle, [q], (), [_signed_weights(rng, (7, 4))],
                 _priors(rng, [q], with_prior))


def test_normalize_quaternions_repeated_rows_match_the_composition():
    # the static rows of a deformed render normalise a gathered, repeated input
    rng = np.random.default_rng(80)
    q = _quats(rng, 4)
    rows = np.array([2, 0, 2, 3, 2])
    _assert_same(normalize_quaternions, _normalize_oracle, [q], (), [_signed_weights(rng, (5, 4))],
                 _priors(rng, [q], True), derived={0: rows})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_prior", [False, True])
def test_rotation_matrices_match_the_composition(seed, with_prior):
    rng = np.random.default_rng(seed)
    q = _quats(rng, 7, tiny=seed == 3)
    _assert_same(rotation_matrices, _rotation_oracle, [q], (), [_signed_weights(rng, (7, 3, 3))],
                 _priors(rng, [q], with_prior))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_prior", [False, True])
def test_covariance_matches_the_composition(seed, with_prior):
    rng = np.random.default_rng(10 + seed)
    arrays = [_quats(rng, 6, tiny=seed == 3), rng.uniform(-4.0, 0.5, (6, 3))]
    _assert_same(covariance, _covariance_oracle, arrays, (), [_signed_weights(rng, (6, 3, 3))],
                 _priors(rng, arrays, with_prior))


def _project_inputs(rng, n, near=False):
    pc = np.column_stack([rng.uniform(-0.6, 0.6, (n, 2)), rng.uniform(1.0, 4.0, n)])
    if near:
        pc[:, 2] = NEAR * (1.0 + rng.uniform(1e-9, 1e-3, n))
    return [pc, _quats(rng, n), rng.uniform(-4.0, -1.0, (n, 3))]


def _projected(pc, quat, log_scale, camera):
    return project_gaussians(pc, covariance(quat, log_scale), camera)


def _projected_oracle(pc, quat, log_scale, camera):
    return _project_oracle(pc, _covariance_oracle(quat, log_scale), camera)


# which of (means2d, cov2d, conic, depth) the loss reads: every subset a caller makes
REACHED = [(1, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reached", REACHED)
def test_project_gaussians_matches_the_composition(seed, reached):
    rng = np.random.default_rng(20 + seed)
    n = 8
    arrays = _project_inputs(rng, n, near=seed == 2)
    weights = [_signed_weights(rng, s) if r else None
               for s, r in zip([(n, 2), (n, 3), (n, 3), (n,)], reached)]
    _assert_same(_projected, _projected_oracle, arrays, (_camera(rng),), weights,
                 _priors(rng, arrays, seed == 1))


def test_project_gaussians_repeated_rows_match_the_composition():
    rng = np.random.default_rng(30)
    arrays = _project_inputs(rng, 5)
    rows = np.array([3, 0, 3, 4, 3])  # row 1 and 2 culled, row 3 three times
    weights = [_signed_weights(rng, s) for s in [(5, 2), (5, 3), (5, 3), (5,)]]
    _assert_same(_projected, _projected_oracle, arrays, (_camera(rng),), weights,
                 _priors(rng, arrays, True), derived={0: rows, 1: rows, 2: rows})


def _appearance_inputs(rng, n, m):
    sh = rng.normal(scale=0.6, size=(n, 4, 3))
    logit = rng.normal(scale=3.0, size=n)
    pos = rng.normal(scale=0.5, size=(m, 3))
    return [sh, logit, pos]


def _swap_args(op):
    # appearance takes the rows between its parameters and the positions
    return lambda sh, logit, pos, rows, center: op(sh, logit, rows, pos, center)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("reached", [(1, 1), (1, 0), (0, 1)])
def test_appearance_matches_the_composition(seed, reached):
    rng = np.random.default_rng(40 + seed)
    n = 6
    rows = np.array([5, 0, 2, 2, 5, 4, 2])  # repeats, and rows 1 and 3 culled
    arrays = _appearance_inputs(rng, n, len(rows))
    weights = [_signed_weights(rng, s) if r else None for s, r in zip([(len(rows), 3), (len(rows),)], reached)]
    center = _camera(rng).center
    _assert_same(_swap_args(appearance), _swap_args(_appearance_oracle), arrays, (rows, center), weights,
                 _priors(rng, arrays, seed == 1))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 6), tiny=st.booleans(), near=st.booleans(),
       yaw=st.floats(-1.2, 1.2), log_lo=st.floats(-8.0, 0.0), with_prior=st.booleans())
def test_fused_chain_matches_the_composition_hypothesis(seed, n, tiny, near, yaw, log_lo, with_prior):
    rng = np.random.default_rng(seed)
    cam = _camera(rng, yaw)
    pc, quat, _ = _project_inputs(rng, n, near)
    quat = _quats(rng, n, tiny)
    log_scale = rng.uniform(log_lo, log_lo + 2.0, (n, 3))
    arrays = [pc, quat, log_scale]
    weights = [_signed_weights(rng, s) for s in [(n, 2), (n, 3), (n, 3), (n,)]]
    _assert_same(_projected, _projected_oracle, arrays, (cam,), weights, _priors(rng, arrays, with_prior))
    _assert_same(rotation_matrices, _rotation_oracle, [quat], (), [_signed_weights(rng, (n, 3, 3))],
                 _priors(rng, [quat], with_prior))
    _assert_same(normalize_quaternions, _normalize_oracle, [quat], (), [_signed_weights(rng, (n, 4))],
                 _priors(rng, [quat], with_prior))
    rows = rng.integers(0, n, size=rng.integers(1, 2 * n + 1))
    arrays = _appearance_inputs(rng, n, len(rows))
    weights = [_signed_weights(rng, (len(rows), 3)), _signed_weights(rng, len(rows))]
    _assert_same(_swap_args(appearance), _swap_args(_appearance_oracle), arrays, (rows, cam.center), weights,
                 _priors(rng, arrays, with_prior))


# -- checks --------------------------------------------------------------------


def test_degenerate_quaternion_raises_in_each_rotation_op():
    q = np.zeros((2, 4))
    q[0, 0] = 1.0
    q[1, 0] = 0.99e-8
    with ad.Tape():
        with pytest.raises(DegenerateRotationError):
            normalize_quaternions(ad.parameter(q))
        with pytest.raises(DegenerateRotationError):
            rotation_matrices(ad.parameter(q))
        with pytest.raises(DegenerateRotationError):
            covariance(ad.parameter(q), ad.parameter(np.zeros((2, 3))))
        q[1, 0] = 1.01e-8  # just above the floor: no error
        normalize_quaternions(ad.parameter(q))


def test_nan_quaternion_names_normalize_quaternions():
    q = np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))
    q[1, 2] = np.nan
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError, match="'normalize_quaternions'"):
            normalize_quaternions(ad.parameter(q))


@pytest.mark.parametrize("op", ["normalize_quaternions", "rotation_matrices", "covariance"])
def test_overflowing_quaternion_norm_names_the_op(op):
    # |q|^2 overflows, so the rotation comes out finite (the identity); the
    # composition raised at the squared norm, and so does the fused op
    q = np.array([[1e200, 0.0, 0.0, 0.0]])
    with ad.Tape(), np.errstate(over="ignore"):
        with pytest.raises(ad.NonFiniteError, match=op):
            if op == "normalize_quaternions":
                normalize_quaternions(ad.parameter(q))
            elif op == "rotation_matrices":
                rotation_matrices(ad.parameter(q))
            else:
                covariance(ad.parameter(q), ad.parameter(np.zeros((1, 3))))


def test_nan_log_scale_names_covariance():
    ls = np.zeros((3, 3))
    ls[1, 2] = np.nan
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError, match="'covariance'"):
            covariance(ad.parameter(np.tile([1.0, 0.0, 0.0, 0.0], (3, 1))), ad.parameter(ls))


def test_nan_or_overflow_in_projection_names_project_gaussians():
    rng = np.random.default_rng(50)
    pc, quat, ls = _project_inputs(rng, 3)
    cam = _camera(rng)
    bad = pc.copy()
    bad[2, 0] = np.nan
    with ad.Tape():
        cov = covariance(ad.parameter(quat), ad.parameter(ls))
        with pytest.raises(ad.NonFiniteError, match="'project_gaussians'"):
            project_gaussians(ad.parameter(bad), cov, cam)
        # a determinant that overflows leaves a finite conic (zero) and cov2d
        huge = ad.parameter(np.tile(np.eye(3) * 1e300, (3, 1, 1)))
        with pytest.raises(ad.NonFiniteError, match="'project_gaussians'"), np.errstate(over="ignore",
                                                                                          invalid="ignore"):
            project_gaussians(ad.parameter(pc), huge, cam)


def test_nan_opacity_or_clipped_infinite_colour_names_appearance():
    rng = np.random.default_rng(60)
    cloud = GaussianCloud.random_init(rng, 5, (0.0, 0.0, 0.0), 0.3, 0.08, opacity=0.5)
    cam = _camera(rng, 0.0)
    cloud.opacity_logit.data[3] = np.nan
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError, match="'appearance'"):
            render(cloud, cam, 0.0)
    cloud.opacity_logit.data[3] = 0.0
    cloud.sh.data[2, 0, 1] = np.inf  # the clip alone would make this colour 1.0
    with ad.Tape():
        with pytest.raises(ad.NonFiniteError, match="'appearance'"):
            render(cloud, cam, 0.0)


# -- the main tape -------------------------------------------------------------


def _shear128_trainer():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    w = WORKLOADS["shear128"]
    return Trainer(w.run_config(1), scene_data(generate(w.scene_spec(1))))


def test_shear128_main_tapes_hold_the_fused_chain(monkeypatch):
    # the tape compositions recorded 273 stage-1 and 542 stage-2 main-tape
    # nodes; one node per normalisation leaves 72 and 160
    tr = _shear128_trainer()
    counts = []
    backward = ad.Tape.backward

    def counting_backward(tape, out, seed=1.0):
        counts.append(len(tape.nodes))
        return backward(tape, out, seed)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)

    def main_tape_nodes():
        # a step sweeps its main tape first, then the CMR tapes on their own
        start = len(counts)
        tr.step()
        return counts[start]

    assert main_tape_nodes() <= 72
    while tr.stage() == 1:
        tr.step()
    assert main_tape_nodes() <= 160
