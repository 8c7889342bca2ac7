"""4-D index ``np.add.at`` adjoints of the Safm resampling ops, kept only
as a test oracle.

The engine (``odsr.engine.ops``) scatter-adds the gradients of
``upsample_nearest`` and ``adaptive_max_pool`` through one flat source
index.  These are the forms it replaced: one ``np.add.at`` with a
broadcast (image, channel, row, column) index array per axis.  Both walk
the gradient in C order, so a source hit more than once gets its adds in
the same order, and the results must agree bit for bit.  The double fancy
index of ``upsample_nearest`` is kept as the forward's reference.
"""
import numpy as np


def _image_channel(shape):
    n, c = shape[:2]
    return (np.broadcast_to(np.arange(n)[:, None, None, None], shape),
            np.broadcast_to(np.arange(c)[None, :, None, None], shape))


def upsample_nearest(x: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """out(y, x) = in(y*h//th, x*w//tw), as one fancy index per axis."""
    h, w = x.shape[2:]
    th, tw = out_hw
    iy = (np.arange(th) * h) // th
    ix = (np.arange(tw) * w) // tw
    return np.ascontiguousarray(x[:, :, iy][:, :, :, ix])


def upsample_nearest_vjp(g: np.ndarray, in_hw: tuple[int, int]
                         ) -> np.ndarray:
    """Input gradient of out(y, x) = in(y*h//th, x*w//tw)."""
    n, c, th, tw = g.shape
    h, w = in_hw
    iy = (np.arange(th) * h) // th
    ix = (np.arange(tw) * w) // tw
    gx = np.zeros((n, c, h, w), dtype=g.dtype)
    ni, ci = _image_channel(g.shape)
    np.add.at(gx, (ni, ci, np.broadcast_to(iy[:, None], g.shape),
                   np.broadcast_to(ix, g.shape)), g)
    return gx


def _window_indices(size: int, out_size: int) -> np.ndarray:
    """floor/ceil adaptive window edges, padded to equal length by clipping."""
    i = np.arange(out_size)
    starts = (i * size) // out_size
    ends = -((-(i + 1) * size) // out_size)
    idx = starts[:, None] + np.arange(int((ends - starts).max()))
    return np.minimum(idx, (ends - 1)[:, None])


def adaptive_max_pool_vjp(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient of adaptive max pooling to ``g``'s size.

    Each window's maximum is found as the engine finds it: the first
    column whose row-wise maximum is largest, then the first row in that
    column (NaN counts as largest, as in ``argmax``).
    """
    n, c, oh, ow = g.shape
    idx_h = _window_indices(x.shape[2], oh)
    idx_w = _window_indices(x.shape[3], ow)
    rows = x[:, :, idx_h, :]                                 # n c oh Lh w
    gath = rows.max(axis=3)[:, :, :, idx_w]                  # n c oh ow Lw
    src_w = idx_w[np.arange(ow), gath.argmax(axis=4)]
    ni, ci = _image_channel(g.shape)
    rows_at = rows[ni, ci, np.arange(oh)[:, None], :, src_w]  # n c oh ow Lh
    src_h = idx_h[np.arange(oh)[:, None], rows_at.argmax(axis=4)]
    gx = np.zeros_like(x)
    np.add.at(gx, (ni, ci, src_h, src_w), g)
    return gx
