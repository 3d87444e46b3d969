"""Photometric losses: SSIM oracle checks, L1, PSNR edge cases."""

import numpy as np
import pytest

import pidg.autodiff as ad
from pidg.losses import SSIM_WINDOW, blur_valid, gaussian_kernel, l1, psnr, renders_loss, ssim


def test_gaussian_kernel_normalized_and_symmetric():
    k = gaussian_kernel(11, 1.5)
    assert np.isclose(k.sum(), 1.0, atol=1e-15)
    assert np.allclose(k, k[::-1])
    assert k.argmax() == 5


def test_blur_valid_matches_numpy_correlate():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(16, 14))
    k = gaussian_kernel(5, 1.0)
    with ad.Tape():
        out = blur_valid(ad.constant(img), k).data
    ref = np.empty((12, 10))
    for i in range(12):
        for j in range(10):
            ref[i, j] = (img[i:i + 5, j:j + 5] * np.outer(k, k)).sum()
    assert np.max(np.abs(out - ref)) < 1e-13


def test_blur_valid_rejects_small_images():
    with ad.Tape():
        with pytest.raises(ValueError):
            blur_valid(ad.constant(np.zeros((8, 8))), SSIM_WINDOW)


def test_blur_gradient_matches_fd():
    rng = np.random.default_rng(1)
    img = rng.uniform(size=(9, 9))
    k = gaussian_kernel(5, 1.0)
    w = rng.normal(size=(5, 5))
    with ad.Tape() as tape:
        x = ad.parameter(img.copy())
        loss = ad.sum_(ad.mul(blur_valid(x, k), ad.constant(w)))
        (g,) = tape.grad(loss, [x])
    h = 1e-6
    for i, j in [(0, 0), (4, 4), (8, 8), (2, 7)]:
        d = img.copy()
        d[i, j] += h
        with ad.Tape():
            fp = float(ad.sum_(ad.mul(blur_valid(ad.constant(d), k), ad.constant(w))).data)
        d[i, j] -= 2 * h
        with ad.Tape():
            fm = float(ad.sum_(ad.mul(blur_valid(ad.constant(d), k), ad.constant(w))).data)
        assert np.isclose(g[i, j], (fp - fm) / (2 * h), rtol=1e-6, atol=1e-9)


def test_ssim_identical_images_is_one():
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(20, 20, 3))
    with ad.Tape():
        s = float(ssim(ad.constant(img), img).data)
    assert np.isclose(s, 1.0, atol=1e-12)


def test_ssim_constant_images_closed_form():
    # constant images a, b: variance and covariance vanish, so
    # SSIM = (2ab + C1) / (a^2 + b^2 + C1) * (C2 / C2)
    a_val, b_val = 0.3, 0.7
    a = np.full((16, 16, 1), a_val)
    b = np.full((16, 16, 1), b_val)
    with ad.Tape():
        s = float(ssim(ad.constant(a), b).data)
    want = (2 * a_val * b_val + 0.01**2) / (a_val**2 + b_val**2 + 0.01**2)
    assert np.isclose(s, want, atol=1e-10)


def test_ssim_matches_scikit_image():
    skimage = pytest.importorskip("skimage.metrics")
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(32, 32))
    y = np.clip(x + rng.normal(scale=0.1, size=(32, 32)), 0.0, 1.0)
    with ad.Tape():
        ours = float(ssim(ad.constant(x), y).data)
    ref = skimage.structural_similarity(
        x, y, win_size=11, gaussian_weights=True, sigma=1.5,
        use_sample_covariance=False, data_range=1.0)
    # skimage averages over the full (crop-padded) image; restrict it the same
    # way by comparing only to modest precision
    assert abs(ours - ref) < 5e-3


def test_ssim_shape_mismatch_rejected():
    with ad.Tape():
        with pytest.raises(ValueError):
            ssim(ad.constant(np.zeros((16, 16, 3))), np.zeros((16, 16, 1)))


def test_ssim_gradient_matches_fd():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 0.8, (13, 13, 1))
    y = rng.uniform(0.2, 0.8, (13, 13, 1))
    with ad.Tape() as tape:
        xt = ad.parameter(x.copy())
        (g,) = tape.grad(ssim(xt, y), [xt])
    h = 1e-6
    for i, j in [(0, 0), (6, 6), (12, 3)]:
        d = x.copy()
        d[i, j, 0] += h
        with ad.Tape():
            fp = float(ssim(ad.constant(d), y).data)
        d[i, j, 0] -= 2 * h
        with ad.Tape():
            fm = float(ssim(ad.constant(d), y).data)
        assert np.isclose(g[i, j, 0], (fp - fm) / (2 * h), rtol=1e-5, atol=1e-9)


def test_l1_hand_value():
    a = np.array([[0.0, 1.0], [2.0, 3.0]])
    b = np.array([[1.0, 1.0], [0.0, 0.0]])
    with ad.Tape():
        v = float(l1(ad.constant(a), b).data)
    assert np.isclose(v, (1 + 0 + 2 + 3) / 4)


def test_renders_loss_arithmetic():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(16, 16, 3))
    y = rng.uniform(size=(16, 16, 3))
    lam = 0.2
    with ad.Tape():
        total = float(renders_loss(ad.constant(x), y, lambda_dssim=lam).data)
        part_l1 = float(l1(ad.constant(x), y).data)
        part_ssim = float(ssim(ad.constant(x), y).data)
    assert np.isclose(total, (1 - lam) * part_l1 + lam * 0.5 * (1 - part_ssim), atol=1e-14)


def test_psnr_cases():
    a = np.zeros((4, 4))
    assert psnr(a, a) == 99.0  # identical -> capped
    b = np.full((4, 4), 0.1)
    assert np.isclose(psnr(a, b), 10 * np.log10(1 / 0.01))  # mse = 0.01 -> 20 dB
    assert psnr(a, a + 1e-10) == 99.0  # cap engages
    assert np.isclose(psnr(a, a + 1.0), 0.0)  # unit error -> 0 dB
