"""References for ``odsr.models.resample``.

* ``resize_matrix`` builds one row at a time, where the engine builds all
  rows with the same tap count at once; the two must agree bit for bit.
* ``resize_plane`` is the dense separable product, which the polyphase
  upscale matches to 1e-12.
* ``polyphase_resize_plane`` runs each integer upscale as one whole-stack
  pass along its axis; ``resample.resize_plane``, which runs an integer
  row upscale one block of rows at a time, must agree with it bit for bit.
"""
import numpy as np
from scipy.ndimage import correlate1d

from odsr.models import resample
from odsr.models.resample import _KERNELS, _MID


def resize_matrix(src: int, dst: int, kernel: str = "cubic") -> np.ndarray:
    kfun, support = _KERNELS[kernel]
    scale = dst / src
    stretch = max(1.0, 1.0 / scale)
    reach = support * stretch
    mat = np.zeros((dst, src), dtype=np.float64)
    for i in range(dst):
        center = (i + 0.5) / scale - 0.5
        lo = int(np.floor(center - reach)) + 1
        hi = int(np.ceil(center + reach))
        taps = np.arange(lo, hi + 1)
        w = kfun((taps - center) / stretch)
        total = w.sum()
        if total == 0.0:
            raise ValueError(f"degenerate kernel row at output {i}")
        w = w / total
        np.add.at(mat[i], np.clip(taps, 0, src - 1), w)
    return mat


def resize_plane(plane: np.ndarray, out_hw: tuple[int, int],
                 kernel: str = "cubic") -> np.ndarray:
    """Dense separable resize: the reference for the polyphase upscale."""
    mh = resize_matrix(plane.shape[-2], out_hw[0], kernel)
    mw = resize_matrix(plane.shape[-1], out_hw[1], kernel)
    return mh @ np.asarray(plane, dtype=np.float64) @ mw.T


def _upscale_axis(x: np.ndarray, axis: int, s: int,
                  kernel: str) -> np.ndarray:
    """Integer upscale by ``s`` along ``axis``: output k*s + p is phase p's
    FIR around input k, clamped at the edges as the matrix clamps.  Each
    phase is an unclamped row of a small dense matrix."""
    mat = resample.resize_matrix(2 * _MID + 1, (2 * _MID + 1) * s, kernel)
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


def polyphase_resize_plane(plane: np.ndarray, out_hw: tuple[int, int],
                           kernel: str = "cubic") -> np.ndarray:
    """Whole-stack resize (float64 output): each integer upscale is one
    ``_upscale_axis`` pass, every other ratio a dense product."""
    out = np.ascontiguousarray(plane, dtype=np.float64)
    for axis, dst in zip((-2, -1), out_hw):
        src = out.shape[axis]
        if 0 < src <= dst and dst % src == 0:
            out = _upscale_axis(out, axis, dst // src, kernel)
        else:
            mat = resample.resize_matrix(src, dst, kernel)
            out = mat @ out if axis == -2 else out @ mat.T
    return out
