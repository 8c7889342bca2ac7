"""Row-by-row resize matrix: the reference for ``resample.resize_matrix``.

The engine builds all rows with the same tap count at once; this builds one
row at a time, and the two must agree bit for bit.
"""
import numpy as np

from odsr.models.resample import _KERNELS


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
