"""Minimal dense-layer building blocks on top of the tape."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class Linear:
    """Fully connected layer, y = x @ W + b."""

    def __init__(self, in_dim: int, out_dim: int, rng, zero_init: bool = False):
        if zero_init:
            w = np.zeros((in_dim, out_dim))
            b = np.zeros(out_dim)
        else:
            bound = 1.0 / np.sqrt(in_dim)
            w = rng.uniform(-bound, bound, (in_dim, out_dim))
            b = rng.uniform(-bound, bound, out_dim)
        self.weight = ad.parameter(w)
        self.bias = ad.parameter(b)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight), self.bias)
