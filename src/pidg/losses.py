"""Image-space losses: L1 + D-SSIM photometric term and PSNR.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5, C1 = 0.01^2,
C2 = 0.03^2) with valid-mode windowing, so the statistics never mix in
padding. The blur is one fused tape op (separable correlation along both
axes); everything else is ordinary tape algebra, which keeps the whole
photometric loss differentiable with respect to the rendered image.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, record

_C1 = 0.01**2
_C2 = 0.03**2
PSNR_CAP = 99.0  # dB, what ``psnr`` reports for identical images


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    k = np.exp(-0.5 * (r / sigma) ** 2)
    return k / k.sum()


SSIM_WINDOW = gaussian_kernel(11, 1.5)


def _corr_valid(x: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    xm = np.moveaxis(x, axis, -1)
    win = np.lib.stride_tricks.sliding_window_view(xm, k.size, axis=-1)
    return np.moveaxis(win @ k, -1, axis)


def _corr_adjoint(g: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    pad = [(0, 0)] * g.ndim
    pad[axis] = (k.size - 1, k.size - 1)
    return _corr_valid(np.pad(g, pad), k[::-1], axis)


def blur_valid(img: Tensor, kernel: np.ndarray) -> Tensor:
    """Separable valid-mode blur of (H, W, ...) along the first two axes."""
    k = np.asarray(kernel, dtype=np.float64)
    if img.data.shape[0] < k.size or img.data.shape[1] < k.size:
        raise ValueError(f"image smaller than the {k.size}-tap window")
    out = _corr_valid(_corr_valid(img.data, k, 0), k, 1)

    def vjp(g):
        ad.accumulate_grad(img, _corr_adjoint(_corr_adjoint(g, k, 1), k, 0))

    return record(out, (img,), vjp, "blur_valid")


def ssim(img: Tensor, target: np.ndarray) -> Tensor:
    """Mean SSIM between a rendered image tensor and a fixed target (H, W, C)."""
    y = np.asarray(target, dtype=np.float64)
    if y.shape != img.data.shape:
        raise ValueError("image and target shapes differ")
    k = SSIM_WINDOW
    mu_y = _corr_valid(_corr_valid(y, k, 0), k, 1)
    var_y = _corr_valid(_corr_valid(y * y, k, 0), k, 1) - mu_y**2

    mu_x = blur_valid(img, k)
    mu_x2 = ad.mul(mu_x, mu_x)
    var_x = ad.sub(blur_valid(ad.mul(img, img), k), mu_x2)
    cov = ad.sub(blur_valid(ad.mul(img, y), k), ad.mul(mu_x, mu_y))

    lum = ad.div(2.0 * ad.mul(mu_x, mu_y) + _C1, ad.add(mu_x2, mu_y**2 + _C1))
    struct = ad.div(2.0 * cov + _C2, ad.add(var_x, var_y + _C2))
    return ad.mean(ad.mul(lum, struct))


def l1(img: Tensor, target: np.ndarray) -> Tensor:
    return ad.mean(ad.abs_(ad.sub(img, np.asarray(target, dtype=np.float64))))


def renders_loss(img: Tensor, target: np.ndarray, lambda_dssim: float) -> Tensor:
    """(1 - lambda) * L1 + lambda * (1 - SSIM) / 2."""
    dssim = ad.mul(ad.sub(1.0, ssim(img, target)), 0.5)
    return ad.add(ad.mul(l1(img, target), 1.0 - lambda_dssim), ad.mul(dssim, lambda_dssim))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB for unit-range images, capped at PSNR_CAP."""
    mse = float(np.mean((np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * np.log10(1.0 / mse))
