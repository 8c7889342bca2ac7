"""Classical separable resamplers: Catmull-Rom bicubic and Lanczos-4.

Planes are 2-D float arrays or (..., H, W) stacks resized in one call.
Output pixel centers map to source coordinates via the center-aligned
convention src = (dst + 0.5) / scale - 0.5.  Rows of the resize matrix
are normalized so constants are reproduced exactly; downscaling stretches
the kernel for antialiasing.  An integer upscale by s runs s polyphase
FIR filters, taken from the matrix rows, instead of the dense product,
and an integer row upscale does so one block of rows at a time.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.ndimage import correlate1d

from .. import parallel


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

# float64 elements of one row-upscale block's buffer, halo aside (1 MiB).
# On one span a three-plane 2K x2 upscale took 37.3 ms (cubic) and 58.5 ms
# (lanczos4) against 42.2 and 64.9 ms with 2 MiB blocks (medians of 30
# alternating pairs, 2-vCPU Xeon VM, BLAS on one thread).
_BLOCK = 1 << 17


def _upscale_factor(src: int, dst: int) -> int:
    """``dst // src`` for an integer upscale, else 0."""
    return dst // src if 0 < src <= dst and dst % src == 0 else 0


def _phases(kernel: str, s: int) -> list[tuple[np.ndarray, int]]:
    """The ``s`` FIRs of an integer upscale, each with the offset of its
    first tap: output k*s + p is phase p's FIR around input k.  Each phase
    is an unclamped row of a small dense matrix."""
    mat = resize_matrix(2 * _MID + 1, (2 * _MID + 1) * s, kernel)
    phases = []
    for row in mat[_MID * s:(_MID + 1) * s]:
        nz = np.flatnonzero(row)
        phases.append((row[nz[0]:nz[-1] + 1], nz[0] - _MID))
    return phases


def _polyphase(x: np.ndarray, phases, axis: int, out: np.ndarray) -> None:
    """Upscale ``x`` along ``axis`` into ``out``, clamping at the edges as
    the matrix clamps.  correlate1d sums in float64 and rounds once as it
    stores into ``out``'s dtype."""
    s = len(phases)
    phase = [slice(None)] * x.ndim
    for p, (fir, first) in enumerate(phases):
        phase[axis] = slice(p, None, s)
        correlate1d(x, fir, axis=axis, output=out[tuple(phase)],
                    mode="nearest", origin=-first - len(fir) // 2)


def resize_plane(plane: np.ndarray, out_hw: tuple[int, int],
                 kernel: str = "cubic", out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Separable resize of a (..., h, w) plane stack into ``out``, a new
    float64 array when None, which is returned.

    An integer row upscale walks blocks of input rows.  Each block reads a
    halo as deep as the longest FIR reaches, so no output row sees the
    block's edge, runs the row phases into a float64 buffer, then resizes
    its columns straight into ``out``.  The first and last blocks clamp at
    the frame's edges, so every block equals the same rows of one
    whole-stack pass.  With polyphase columns a block's buffer holds
    ``_BLOCK`` elements besides its halo, and the blocks run in spans on
    the workers (``parallel.over_blocks``, as many as keep their buffers
    within ``parallel.SCRATCH``), so the bytes do not depend on the worker
    count.  Dense columns keep one block, so BLAS runs once per plane on
    the calling thread.  Every other row ratio is one dense product.
    """
    if plane.ndim < 2:
        raise ValueError(
            f"expected (..., h, w) planes, got shape {plane.shape}")
    (h, w), (oh, ow) = plane.shape[-2:], out_hw
    shape = plane.shape[:-2] + (oh, ow)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, expected {shape}")
    sw = _upscale_factor(w, ow)
    cols = _phases(kernel, sw) if sw else resize_matrix(w, ow, kernel).T

    def resize_cols(x, dst):
        if sw:
            _polyphase(x, cols, -1, dst)
        else:
            np.matmul(x, cols, out=dst)

    sh = _upscale_factor(h, oh)
    if not sh:
        # C order keeps every plane a BLAS operand, so a stack resizes each
        # plane exactly as a lone 2-D call would
        resize_cols(resize_matrix(h, oh, kernel)
                    @ np.ascontiguousarray(plane, dtype=np.float64), out)
        return out
    if not out.size:  # an empty stack: no blocks to size
        return out
    rows = _phases(kernel, sh)
    halo = max(max(-first, first + len(fir) - 1) for fir, first in rows)

    def run(r0, r1, step):
        buf = np.empty(plane.shape[:-2] + (min(h, step + 2 * halo) * sh, w))
        for b0 in range(r0, r1, step):
            b1 = min(h, b0 + step)
            lo, hi = max(0, b0 - halo), min(h, b1 + halo)
            block = buf[..., :(hi - lo) * sh, :]
            _polyphase(plane[..., lo:hi, :], rows, -2, block)
            resize_cols(block[..., (b0 - lo) * sh:(b1 - lo) * sh, :],
                        out[..., b0 * sh:b1 * sh, :])

    if sw:
        # blocks of ``_BLOCK`` buffer elements besides the halo
        lead = math.prod(plane.shape[:-2])
        step = max(1, _BLOCK // (lead * sh * w))
        parallel.over_blocks(
            -(-h // step),
            lambda c0, c1: run(c0 * step, min(h, c1 * step), step),
            parallel.SCRATCH // (8 * lead * step * sh * w))
    else:
        # a dense column product runs as one block: one BLAS call per
        # plane, as in a whole-stack pass
        run(0, h, h)
    return out
