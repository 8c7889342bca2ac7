"""Differentiable training losses over engine tensors (NCHW, [0,1])."""
from __future__ import annotations

import numpy as np

from .engine import ops
from .engine.tensor import Tensor
from .metrics import WeightMap


def charbonnier_loss(x: Tensor, y: Tensor) -> Tensor:
    """mean(sqrt((x - y)^2 + eps^2)), eps = 1e-3; a smooth L1 that equals
    eps at x == y."""
    d = ops.sub(x, y)
    return ops.tmean(ops.sqrt(ops.add(ops.square(d), 1e-3 * 1e-3)))


def fft_loss(x: Tensor, y: Tensor) -> Tensor:
    """L1 distance between stacked Re/Im spectra, normalized per sample bin.

    loss = sum(|dRe| + |dIm|) / (n*c*h*w), so two frames differing by a
    constant d everywhere score exactly d (only the DC bins differ, each by
    d*h*w, and the normalization restores d).
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n, c, h, w = x.shape
    d = ops.sub(ops.fft2_rc(x), ops.fft2_rc(y))
    return ops.div(ops.tsum(ops.absolute(d)), float(n * c * h * w))


def ws_weighted_l1(x: Tensor, y: Tensor, weights) -> Tensor:
    """Latitude-weighted L1, averaged over samples:
    mean_i sum(w_i * |x_i - y_i|) / (c * sum(w_i)).

    ``weights`` is a WeightMap or an (h, w) array shared by all samples, or
    an (n, h, w) stack with one map per sample; a uniform map reduces this
    to plain mean absolute error.  The normalization is folded into a
    constant weight tensor, so one weighted sum does the whole job.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n, c, h, w = x.shape
    if isinstance(weights, WeightMap):
        warr = weights.as_array()
    else:
        warr = np.asarray(weights, dtype=np.float64)
    if warr.shape not in ((h, w), (n, h, w)):
        raise ValueError(
            f"weights shape {warr.shape} != frame {h}x{w} or {n}x{h}x{w}")
    maps = warr.reshape(-1, h, w)
    sums = maps.reshape(len(maps), -1).sum(axis=1)[:, None, None]
    wt = Tensor((maps / (sums * n * c))[:, None].astype(x.data.dtype))
    return ops.tsum(ops.mul(wt, ops.absolute(ops.sub(x, y))))
