"""im2col reference convolutions, kept only as a test oracle.

The engine's convolutions (``odsr.engine.ops``) accumulate shifted matmuls
per kernel tap, and run transposed convolutions as one sub-pixel
correlation followed by a pixel shuffle.  These are the earlier im2col
formulations they replaced: every window is copied into a
``sliding_window_view`` column buffer, processed in row bands of at most
``COL_BUDGET`` elements, and transposed convolutions zero-dilate and flip.
Different summation order, same maths; the parity suite compares the two.
``corr2d_per_tap`` and ``corr2d_wgrad_per_tap`` are the exceptions: the
correlation's and the weight gradient's earlier per-tap forms, which the
engine equals bit for bit where a group has more inputs than outputs.
"""
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# im2col buffers larger than this many elements are processed in row bands.
COL_BUDGET = 1 << 24


def corr2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
           groups: int) -> np.ndarray:
    """Grouped strided cross-correlation, NCHW x [oc, ic/g, kh, kw]."""
    n, ci, h, wd = x.shape
    co, cig, kh, kw = w.shape
    s, p, g = stride, padding, groups
    oh = (h + 2 * p - kh) // s + 1
    ow = (wd + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel {kh}x{kw} does not fit input {h}x{wd} with padding {p}")
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    out = np.empty((n, co, oh, ow), dtype=x.dtype)
    band = max(1, min(oh, COL_BUDGET // max(1, n * ow * ci * kh * kw)))
    wm = w.reshape(g, co // g, cig * kh * kw)
    for r0 in range(0, oh, band):
        r1 = min(r0 + band, oh)
        rows = xp[:, :, r0 * s:(r1 - 1) * s + kh, :]
        win = sliding_window_view(rows, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
        win = win.reshape(n, g, cig, r1 - r0, ow, kh, kw)
        cols = win.transpose(1, 0, 3, 4, 2, 5, 6).reshape(
            g, n * (r1 - r0) * ow, cig * kh * kw)
        prod = cols @ wm.transpose(0, 2, 1)
        out[:, :, r0:r1, :] = prod.reshape(
            g, n, r1 - r0, ow, co // g).transpose(1, 0, 4, 2, 3).reshape(
            n, co, r1 - r0, ow)
    return out


def corr2d_wgrad(x: np.ndarray, gout: np.ndarray, kh: int, kw: int,
                 stride: int, padding: int, groups: int) -> np.ndarray:
    n, ci, h, wd = x.shape
    _, co, oh, ow = gout.shape
    s, p, g = stride, padding, groups
    cig = ci // g
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    xp = xp[:, :, :(oh - 1) * s + kh, :(ow - 1) * s + kw]
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    win = win.reshape(n, g, cig, oh, ow, kh, kw)
    cols = win.transpose(1, 0, 3, 4, 2, 5, 6).reshape(
        g, n * oh * ow, cig * kh * kw)
    gm = gout.reshape(n, g, co // g, oh, ow).transpose(1, 0, 3, 4, 2).reshape(
        g, n * oh * ow, co // g)
    wg = gm.transpose(0, 2, 1) @ cols
    return np.ascontiguousarray(wg.reshape(co, cig, kh, kw))


def _phase_buffer(x: np.ndarray, s: int, p: int, hq: int, wq: int,
                  groups: int) -> np.ndarray:
    """Padded ``x`` split into stride phases [s, s, g, ci/g, n*hq*wq]: tap
    (i, j) reads phase (i % s, j % s) at flat offset (i // s) * wq + j // s.
    """
    n, ci = x.shape[:2]
    canvas = np.zeros((n, ci, hq * s, wq * s), dtype=x.dtype)
    crop = x[:, :, :hq * s - p, :wq * s - p]
    canvas[:, :, p:p + crop.shape[2], p:p + crop.shape[3]] = crop
    return np.ascontiguousarray(
        canvas.reshape(n, ci, hq, s, wq, s).transpose(3, 5, 1, 0, 2, 4)
    ).reshape(s, s, groups, ci // groups, -1)


def corr2d_per_tap(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                   groups: int, block: int) -> np.ndarray:
    """Correlation as one matmul per tap into a temporary, added into the
    accumulator, over blocks of whole padded rows of at most ``block``
    columns (at least one row).

    The taps run stride phase by stride phase, the first one's product
    taking the block's place.  Each block's product sees the columns the
    engine's block sees, so the sums are the same to the bit.
    """
    n, ci, h, wd = x.shape
    co, cig, kh, kw = w.shape
    s, p, g = stride, padding, groups
    oh = (h + 2 * p - kh) // s + 1
    ow = (wd + 2 * p - kw) // s + 1
    hq, wq = oh + -(-kh // s) - 1, ow + -(-kw // s) - 1
    flat = _phase_buffer(x, s, p, hq, wq, g)
    wg = w.reshape(g, co // g, cig, kh, kw)
    acc = np.zeros((g, co // g, n * hq * wq), dtype=np.result_type(x, w))
    last = (n - 1) * hq + oh
    rows = min(max(1, block // wq), last)
    taps = [(i, j) for a in range(min(s, kh)) for b in range(min(s, kw))
            for i in range(a, kh, s) for j in range(b, kw, s)]
    for r0 in range(0, last, rows):
        c0, c1 = r0 * wq, (min(r0 + rows, last) - 1) * wq + ow
        part = acc[:, :, c0:c1]
        for t, (i, j) in enumerate(taps):
            off = i // s * wq + j // s
            src = flat[i % s, j % s, :, :, c0 + off:c1 + off]
            prod = np.matmul(np.ascontiguousarray(wg[..., i, j]), src)
            if t:
                part += prod
            else:
                part[...] = prod
    return np.ascontiguousarray(acc.reshape(co, n, hq, wq)[
        :, :, :oh, :ow].transpose(1, 0, 2, 3))


def corr2d_wgrad_per_tap(x: np.ndarray, gout: np.ndarray, kh: int, kw: int,
                         stride: int, padding: int,
                         groups: int) -> np.ndarray:
    """Weight gradient as one matmul per tap over all columns of the phase
    buffer.

    The padded input is split into stride phases [s, s, ci, n*hq*wq], with
    hq x wq padded pixels per phase plane; tap (i, j) reads phase
    (i % s, j % s) at flat offset (i // s) * wq + j // s, and its gradient
    is that shifted view times the zero-padded output gradient on the same
    flat grid.
    """
    n, ci, h, wd = x.shape
    _, co, oh, ow = gout.shape
    s, p, g = stride, padding, groups
    cig = ci // g
    hq, wq = oh + -(-kh // s) - 1, ow + -(-kw // s) - 1
    flat = _phase_buffer(x, s, p, hq, wq, g)
    gz = np.zeros((co, n, hq, wq), dtype=gout.dtype)
    gz[:, :, :oh, :ow] = gout.transpose(1, 0, 2, 3)
    length = (n - 1) * hq * wq + (oh - 1) * wq + ow
    gmt = gz.reshape(g, co // g, -1)[:, :, :length].transpose(0, 2, 1)
    gw = np.empty((g, co // g, cig, kh, kw), dtype=np.result_type(x, gout))
    for i in range(kh):
        for j in range(kw):
            off = i // s * wq + j // s
            src = flat[i % s, j % s, :, :, off:off + length]
            gw[..., i, j] = np.matmul(src, gmt).transpose(0, 2, 1)
    return gw.reshape(co, cig, kh, kw)


def swap_flip(w: np.ndarray, groups: int) -> np.ndarray:
    """Per-group swap of in/out channel roles plus spatial flip."""
    co, cig, kh, kw = w.shape
    g = groups
    wg = w.reshape(g, co // g, cig, kh, kw)
    return np.ascontiguousarray(
        wg.transpose(0, 2, 1, 3, 4).reshape(g * cig, co // g, kh, kw)
        [:, :, ::-1, ::-1])


def corr2d_xgrad(gout: np.ndarray, w: np.ndarray, stride: int, padding: int,
                 in_hw: tuple[int, int], groups: int) -> np.ndarray:
    n, co, oh, ow = gout.shape
    h, wd = in_hw
    _, cig, kh, kw = w.shape
    s, p = stride, padding
    if kh - 1 - p < 0 or kw - 1 - p < 0:
        raise ValueError(f"padding {p} larger than kernel-1 is unsupported")
    if s > 1:
        gd = np.zeros((n, co, (oh - 1) * s + 1, (ow - 1) * s + 1),
                      dtype=gout.dtype)
        gd[:, :, ::s, ::s] = gout
    else:
        gd = gout
    extra_h = h + 2 * p - kh - (oh - 1) * s
    extra_w = wd + 2 * p - kw - (ow - 1) * s
    gp = np.pad(gd, ((0, 0), (0, 0),
                     (kh - 1 - p, kh - 1 - p + extra_h),
                     (kw - 1 - p, kw - 1 - p + extra_w)))
    return corr2d(gp, swap_flip(w, groups), stride=1, padding=0,
                  groups=groups)


def conv_transpose2d(x: np.ndarray, w: np.ndarray, stride: int,
                     padding: int, output_padding: int) -> np.ndarray:
    """Transposed conv by zero-dilation, padding and a flipped correlation."""
    n, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    s, p, op = stride, padding, output_padding
    if s > 1:
        xd = np.zeros((n, ci, (h - 1) * s + 1, (wd - 1) * s + 1),
                      dtype=x.dtype)
        xd[:, :, ::s, ::s] = x
    else:
        xd = x
    xp = np.pad(xd, ((0, 0), (0, 0),
                     (kh - 1 - p, kh - 1 - p + op),
                     (kw - 1 - p, kw - 1 - p + op)))
    wf = np.ascontiguousarray(w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return corr2d(xp, wf, stride=1, padding=0, groups=1)


def conv_transpose2d_grads(x: np.ndarray, w: np.ndarray, gout: np.ndarray,
                           stride: int, padding: int):
    """(input gradient, weight gradient) of :func:`conv_transpose2d`."""
    _, _, h, wd = x.shape
    ci, co, kh, kw = w.shape
    p = padding
    gp = np.pad(gout, ((0, 0), (0, 0), (p, p), (p, p))) if p else gout
    gx = corr2d(gp, w, stride=stride, padding=0, groups=1)[:, :, :h, :wd]
    gw = corr2d_wgrad(gp, x, kh, kw, stride=stride, padding=0, groups=1)
    return gx, gw.reshape(ci, co, kh, kw)
