"""Classical separable resamplers: Catmull-Rom bicubic and Lanczos-4.

Planes are 2-D float arrays or (..., H, W) stacks resized in one call.
Output pixel centers map to source coordinates via the center-aligned
convention src = (dst + 0.5) / scale - 0.5.  Rows of the resize matrix
are normalized so constants are reproduced exactly; downscaling stretches
the kernel for antialiasing.  An integer upscale by s runs s polyphase
FIR filters, taken from the matrix rows, instead of the dense product.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.ndimage import correlate1d


def cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Catmull-Rom cubic (a = -0.5), support 2."""
    a = -0.5
    t = np.abs(t)
    out = np.zeros_like(t)
    near = t <= 1.0
    far = (t > 1.0) & (t < 2.0)
    tn = t[near]
    tf = t[far]
    out[near] = (a + 2.0) * tn ** 3 - (a + 3.0) * tn ** 2 + 1.0
    out[far] = a * tf ** 3 - 5.0 * a * tf ** 2 + 8.0 * a * tf - 4.0 * a
    return out


def lanczos_kernel(t: np.ndarray) -> np.ndarray:
    """Lanczos-4 windowed sinc, support 4."""
    t = np.asarray(t, dtype=np.float64)
    out = np.sinc(t) * np.sinc(t / 4)
    return np.where(np.abs(t) < 4, out, 0.0)


_KERNELS = {
    "cubic": (cubic_kernel, 2.0),
    "lanczos4": (lanczos_kernel, 4.0),
}


@lru_cache(maxsize=16)
def resize_matrix(src: int, dst: int, kernel: str = "cubic") -> np.ndarray:
    """(dst, src) row-stochastic sampling matrix along one axis.

    Memoized (a training run degrades every patch with the same two), so
    the matrix is read-only.
    """
    if src < 1 or dst < 1:
        raise ValueError(f"sizes must be positive, got {src} -> {dst}")
    try:
        kfun, support = _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; choices: {sorted(_KERNELS)}"
        ) from None
    scale = dst / src
    stretch = max(1.0, 1.0 / scale)
    reach = support * stretch
    center = (np.arange(dst) + 0.5) / scale - 0.5
    lo = np.floor(center - reach).astype(np.int64) + 1
    width = np.ceil(center + reach).astype(np.int64) - lo + 1
    mat = np.zeros((dst, src), dtype=np.float64)
    # Rows with the same tap count form one 2-D batch, so each row's weight
    # sum reduces the same values in the same order as a 1-D sum would.
    for n in np.unique(width):
        rows = np.flatnonzero(width == n)
        taps = lo[rows, None] + np.arange(n)
        w = kfun((taps - center[rows, None]) / stretch)
        total = w.sum(axis=1, keepdims=True)
        zero = np.flatnonzero(total == 0.0)
        if zero.size:
            raise ValueError(
                f"degenerate kernel row at output {rows[zero[0]]}")
        np.add.at(mat, (rows[:, None], np.clip(taps, 0, src - 1)), w / total)
    mat.flags.writeable = False
    return mat


# an input index this far from both ends has rows free of edge clamping
_MID = int(max(support for _, support in _KERNELS.values())) + 1


def _upscale_axis(x: np.ndarray, axis: int, s: int,
                  kernel: str) -> np.ndarray:
    """Integer upscale by ``s`` along ``axis``: output k*s + p is phase p's
    FIR around input k, clamped at the edges as the matrix clamps.  Each
    phase is an unclamped row of a small dense matrix."""
    mat = resize_matrix(2 * _MID + 1, (2 * _MID + 1) * s, kernel)
    shape = list(x.shape)
    shape[axis] *= s
    out = np.empty(shape)
    phase = [slice(None)] * x.ndim
    for p in range(s):
        nz = np.flatnonzero(mat[_MID * s + p])
        fir = mat[_MID * s + p, nz[0]:nz[-1] + 1]
        phase[axis] = slice(p, None, s)
        correlate1d(x, fir, axis=axis, output=out[tuple(phase)],
                    mode="nearest", origin=_MID - nz[0] - len(fir) // 2)
    return out


def resize_plane(plane: np.ndarray, out_hw: tuple[int, int],
                 kernel: str = "cubic") -> np.ndarray:
    """Separable resize of a (..., h, w) plane stack (float64 output)."""
    if plane.ndim < 2:
        raise ValueError(
            f"expected (..., h, w) planes, got shape {plane.shape}")
    # C order keeps every plane a BLAS operand, so a stack resizes each
    # plane exactly as a lone 2-D call would
    out = np.ascontiguousarray(plane, dtype=np.float64)
    for axis, dst in zip((-2, -1), out_hw):
        src = out.shape[axis]
        if 0 < src <= dst and dst % src == 0:
            out = _upscale_axis(out, axis, dst // src, kernel)
        else:
            mat = resize_matrix(src, dst, kernel)
            out = mat @ out if axis == -2 else out @ mat.T
    return out

