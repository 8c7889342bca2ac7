"""Differentiable operations over :class:`~odsr.engine.tensor.Tensor`.

Every op computes eagerly with numpy and, when the active tape needs the
gradient of one of its inputs, records a VJP closure.  A closure captures
only the arrays and shapes it reads, never a Tensor, so the tape keeps no
output or input that backward does not read.  Broadcasting follows numpy
rules for the elementwise ops; convolution and friends are NCHW.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import fft2, ifft2
from scipy.special import erf

from .tensor import Tensor, active_tape

# Elements per column block of a correlation's accumulator or stacked
# operand, whichever is larger: the block stays in cache across its taps.
# A forward block holds at least one padded row, so on planes wider than
# _BLOCK / max(co/g, taps*ci/g) columns it grows to one row, and at most the
# rows the input has, so small planes get small buffers.
_BLOCK = 1 << 17
# Elements per block of the float32 GELU kernel: its four scratch rows stay
# in cache across the 27 passes of the rational erf.
_GELU_BLOCK = 1 << 15

# Leaky ReLU's negative slope; max(x, slope * x) needs 0 < slope < 1.
_LEAKY_SLOPE = 0.1

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Float32 erf(t) = t * P(t^2) / Q(t^2) on t in [-4, 4] (erf is +-1 in float32
# beyond), the rational form Eigen and XLA use; max abs error 4.6e-7.  P is
# pre-scaled by 0.5 (exact in binary) so that P/Q is erf/2.  Highest degree
# first.
_ERF_HALF_P = np.float32(0.5) * np.array(
    [-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
     -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array(
    [-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
     -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce the non-Tensor operand, keeping the Tensor operand's dtype.

    Keeps python-scalar constants from upcasting float32 graphs to float64.
    """
    if isinstance(a, Tensor):
        if isinstance(b, Tensor):
            return a, b
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return Tensor(np.asarray(a, dtype=b.data.dtype)), b


def _tape_for(*inputs: Tensor):
    """The active tape if it needs the gradient of any of ``inputs``."""
    tape = active_tape()
    if tape is not None and any(tape.needs_grad(t) for t in inputs):
        return tape
    return None


def _record(inputs: tuple[Tensor, ...], out: Tensor, vjp) -> Tensor:
    tape = _tape_for(*inputs)
    if tape is not None:
        tape.record(inputs, out, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise arithmetic -----------------------------------------------

def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record((a, b), out, vjp)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record((a, b), out, vjp)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    x, y = a.data, b.data
    out = Tensor(x * y)

    def vjp(g):
        return _unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)

    return _record((a, b), out, vjp)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    x, y = a.data, b.data
    out = Tensor(x / y)

    def vjp(g):
        return (_unbroadcast(g / y, x.shape),
                _unbroadcast(-g * x / (y * y), y.shape))

    return _record((a, b), out, vjp)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record((a,), out, lambda g: (-g,))


def square(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(x * x)
    return _record((a,), out, lambda g: (g * (2.0 * x),))


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    out = Tensor(root)
    return _record((a,), out, lambda g: (g * (0.5 / root),))


def absolute(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(np.abs(x))
    return _record((a,), out, lambda g: (g * np.sign(x),))


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    out = Tensor(val)
    return _record((a,), out, lambda g: (g * val,))


# -- reductions -----------------------------------------------------------

def _restore_axes(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(a % len(shape) for a in axes)
    if not keepdims:
        expanded = list(g.shape)
        for a in sorted(axes):
            expanded.insert(a, 1)
        g = g.reshape(expanded)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        return (_restore_axes(g, shape, axis, keepdims).astype(
            dtype, copy=False),)

    return _record((a,), out, vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.size / out.size
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        full = _restore_axes(g, shape, axis, keepdims)
        return ((full / count).astype(dtype, copy=False),)

    return _record((a,), out, vjp)


# -- activations ----------------------------------------------------------

def relu(a: Tensor) -> Tensor:
    x = a.data
    out = Tensor(np.maximum(x, 0))
    return _record((a,), out, lambda g: (g * (x > 0),))


def leaky_relu(a: Tensor) -> Tensor:
    """max(x, slope * x) with the fixed slope 0.1.

    Forward and VJP are bitwise equal to ``where(x > 0, x, slope * x)`` and
    ``g * where(x > 0, 1, slope)`` (NaN, ±0 and ±inf included).  Each is one
    pass into a fresh array plus in-place ufuncs, several times faster than
    those ``np.where`` forms.
    """
    x = a.data
    val = _LEAKY_SLOPE * x
    np.maximum(val, x, out=val)
    out = Tensor(val)

    def vjp(g):
        gx = (x > 0).astype(g.dtype)
        np.maximum(gx, _LEAKY_SLOPE, out=gx)  # 1 where x > 0, else the slope
        gx *= g
        return (gx,)

    return _record((a,), out, vjp)


def _horner(t2: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> None:
    """out = polynomial in ``t2`` (coefficients highest degree first)."""
    np.multiply(t2, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= t2
        out += c


def _gelu_f32(x: np.ndarray, keep_d: bool
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """(x * Phi(x), the derivative or None) of float32 ``x`` with the
    rational erf.

    Walks the flat array in cache-sized blocks; every pass is an in-place
    ufunc into scratch rows, so no full-size temporary is made.  The
    derivative (:func:`_gelu_slope`) is made at full size only when
    ``keep_d`` (a VJP will need it), from each block's Phi.
    """
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    t, t2, p, q = (np.empty_like(flat[:_GELU_BLOCK]) for _ in range(4))
    d = np.empty_like(flat) if keep_d else None
    for c0 in range(0, flat.size, _GELU_BLOCK):
        c1 = min(c0 + _GELU_BLOCK, flat.size)
        xb, m = flat[c0:c1], c1 - c0
        tb, t2b, pb, qb = t[:m], t2[:m], p[:m], q[:m]
        np.multiply(xb, np.float32(_INV_SQRT2), out=tb)
        np.clip(tb, -4.0, 4.0, out=tb)
        np.multiply(tb, tb, out=t2b)
        _horner(t2b, _ERF_HALF_P, pb)
        pb *= tb
        _horner(t2b, _ERF_Q, qb)
        np.divide(pb, qb, out=tb)  # t is spent by now: Phi goes there
        tb += 0.5
        np.multiply(xb, tb, out=out[c0:c1])
        if d is not None:
            _gelu_slope(xb, tb, d[c0:c1])
    return out.reshape(x.shape), None if d is None else d.reshape(x.shape)


def _gelu_slope(x: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    """out = phi + x * exp(-0.5 * x * x) * c, GELU's derivative, with
    c = 1/√(2π) in x's dtype.

    Each pass is one in-place step of that expression with the operand
    order and temporaries numpy's temporary elision gives ``g * (phi + x *
    exp(-0.5 * x * x) * c)`` on large arrays, so ``out * g`` is bitwise
    equal to that VJP, NaN signs included (which NaN of two a loop returns
    depends on both).
    """
    np.multiply(-0.5, x, out=out)
    out *= x
    np.exp(out, out=out)
    out *= x.dtype.type(_INV_SQRT2PI)
    np.multiply(x, out, out=out)
    out += phi


def gelu(a: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x).

    float32 input uses the blocked rational erf of :func:`_gelu_f32`, and
    float64 input scipy's full-precision erf.  Under a tape the forward
    saves only the derivative :func:`_gelu_slope`, not x or Phi, and the
    VJP is ``d * g``.
    """
    x = a.data
    keep_d = _tape_for(a) is not None
    if x.dtype == np.float32:
        val, d = _gelu_f32(x, keep_d)
    else:
        phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        val, d = x * phi, np.empty_like(x) if keep_d else None
        if keep_d:
            _gelu_slope(x, phi, d)
    return _record((a,), Tensor(val), lambda g: (d * g,))


# -- convolution ----------------------------------------------------------

@dataclass(frozen=True)
class ConvParams:
    """Bundled convolution parameters (weights [out_ch, in_ch/g, kh, kw])."""

    weight: Tensor
    bias: Tensor | None = None
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        if self.weight.ndim != 4:
            raise ValueError(f"weight must be 4-D, got {self.weight.shape}")
        oc = self.weight.shape[0]
        if self.groups < 1 or oc % self.groups:
            raise ValueError(f"out_ch {oc} not divisible by groups {self.groups}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.bias is not None and self.bias.shape != (oc,):
            raise ValueError(
                f"bias shape {self.bias.shape} does not match out_ch {oc}")

    @property
    def in_ch(self) -> int:
        return self.weight.shape[1] * self.groups

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weight.shape[2], self.weight.shape[3]


def _geometry(h: int, w: int, kh: int, kw: int, s: int, p: int):
    """Output size and the per-phase plane size the taps read from."""
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"kernel {kh}x{kw} does not fit input {h}x{w} with padding {p}")
    return oh, ow, oh + -(-kh // s) - 1, ow + -(-kw // s) - 1


def _phases(x: np.ndarray, s: int, p: int, hq: int, wq: int) -> np.ndarray:
    """Zero-padded ``x`` split into stride phases, channels first.

    Returns [s, s, ci, n*hq*wq]: phase (a, b) holds padded pixel
    (r*s + a, q*s + b) at (image, r, q), so the stride-s correlation becomes
    s*s stride-1 ones, and tap (i, j) reads phase (i % s, j % s) at flat
    offset (i // s) * wq + j // s.
    """
    n, ci, h, w = x.shape
    buf = np.zeros((s, s, ci, n, hq, wq), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for a in range(s):
        r0 = max(0, -((a - p) // s))  # first phase row inside the image
        rows = xt[:, :, r0 * s + a - p::s][:, :, :hq - r0]
        for b in range(s):
            q0 = max(0, -((b - p) // s))
            blk = rows[..., q0 * s + b - p::s][..., :wq - q0]
            buf[a, b, :, :, r0:r0 + blk.shape[2], q0:q0 + blk.shape[3]] = blk
    return buf.reshape(s, s, ci, n * hq * wq)


def _stacking(cig: int, cog: int, taps: int, g: int) -> tuple[int, int]:
    """Rows per group of the stacked GEMM operand (0: one GEMM per tap) and
    the columns per block, so a block's accumulator and stacked operand
    stay in cache.

    All taps share one GEMM when a group has at most as many inputs as
    outputs, so a thin input side does not make a thin inner dimension.
    One tap, depthwise groups and ``ci/g > co/g`` keep a GEMM per tap:
    there the stacking copy costs more than the wider GEMM saves.
    """
    stacked = taps * cig if taps > 1 and 1 < cig <= cog else 0
    return stacked, max(1, _BLOCK // (g * max(cog, stacked)))


def _tap_order(kh: int, kw: int, s: int) -> list[int]:
    """Flat taps i*kw + j stride phase by stride phase: one phase's taps
    read one phase buffer on a regular grid of offsets."""
    return [i * kw + j for a in range(min(s, kh)) for b in range(min(s, kw))
            for i in range(a, kh, s) for j in range(b, kw, s)]


def _operands(flat: np.ndarray, col: np.ndarray | None, kh: int, kw: int,
              s: int, wq: int, c0: int, c1: int) -> list[np.ndarray]:
    """Columns [c0, c1) of every tap's shifted slice of ``flat``, in
    :func:`_tap_order`: one view per tap, or with a scratch ``col``
    [g, taps*ci/g, block] one operand stacked tap-major, filled by one
    strided copy per stride phase."""
    n = c1 - c0
    if col is None:
        views = []
        for t in _tap_order(kh, kw, s):
            i, j = divmod(t, kw)
            off = c0 + i // s * wq + j // s
            views.append(flat[i % s, j % s, :, :, off:off + n])
        return views
    _, _, g, cig, _ = flat.shape
    sg, sc, e = flat.strides[2:]
    row = 0
    for a, b in np.ndindex(min(s, kh), min(s, kw)):
        # phase (a, b) holds taps (a + u*s, b + v*s), at offsets u*wq + v
        nu, nv = -(-(kh - a) // s), -(-(kw - b) // s)
        rows = nu * nv * cig
        col[:, row:row + rows, :n].reshape(g, nu, nv, cig, n)[...] = \
            as_strided(flat[a, b, :, :, c0:], (g, nu, nv, cig, n),
                       (sg, wq * e, e, sc, e), writeable=False)
        row += rows
    return [col[:, :, :n]]


def _corr(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
          groups: int) -> np.ndarray:
    """Grouped strided cross-correlation, NCHW x [oc, ic/g, kh, kw].

    GEMMs over a flat channels-first buffer of the padded input, one block
    of whole rows at a time (at least one row) so the accumulator stays in
    cache, each block copied straight into the output.  With
    ``ci/g <= co/g`` one GEMM per block reads a block-sized stacked buffer
    of every tap's shifted slice; otherwise each tap's product is added in
    (tap accumulation).  Depthwise groups (one input channel each) use a
    broadcast multiply in place of the matmul.
    """
    n, ci, h, wd = x.shape
    co, cig, kh, kw = w.shape
    s, g = stride, groups
    oh, ow, hq, wq = _geometry(h, wd, kh, kw, s, padding)
    dtype = np.result_type(x, w)
    out = np.empty((n, co, oh, ow), dtype=dtype)
    if kh == kw == 1 and s == 1 and padding == 0 and g == 1:
        np.matmul(w.reshape(co, ci), x.reshape(n, ci, h * wd),
                  out=out.reshape(n, co, h * wd))
        return out
    flat = _phases(x, s, padding, hq, wq).reshape(s, s, g, cig, -1)
    stacked, block = _stacking(cig, co // g, kh * kw, g)
    # [g, co/g, ci/g, taps] -> [1, g, co/g, taps*ci/g] or [taps, g, co/g, ci/g]
    wt = w.reshape(g, co // g, cig, kh * kw)[..., _tap_order(kh, kw, s)]
    wt = wt.transpose(0, 1, 3, 2).reshape(1, g, co // g, -1) if stacked \
        else np.ascontiguousarray(wt.transpose(3, 0, 1, 2))
    product = np.multiply if cig == 1 else np.matmul
    last = (n - 1) * hq + oh  # padded rows through the last output row
    rows = min(max(1, block // wq), last)
    acc = np.empty((g, co // g, rows * wq), dtype=dtype)
    tmp = np.empty_like(acc) if len(wt) > 1 else None
    col = np.empty((g, stacked, rows * wq), dtype=flat.dtype) \
        if stacked else None
    for r0 in range(0, last, rows):
        r1 = min(r0 + rows, last)
        c0, c1 = r0 * wq, (r1 - 1) * wq + ow
        part = acc[:, :, :c1 - c0]
        for k, src in enumerate(_operands(flat, col, kh, kw, s, wq, c0, c1)):
            if k == 0:
                product(wt[k], src, out=part)
            else:
                prod = tmp[:, :, :c1 - c0]
                product(wt[k], src, out=prod)
                part += prod
        done = acc.reshape(co, rows, wq)
        for m in range(r0 // hq, (r1 - 1) // hq + 1):
            a, b = max(r0, m * hq), min(r1, m * hq + oh)
            if a < b:
                out[m, :, a - m * hq:b - m * hq] = done[:, a - r0:b - r0, :ow]
    return out


def _corr_wgrad(x: np.ndarray, gout: np.ndarray, kh: int, kw: int,
                stride: int, padding: int, groups: int) -> np.ndarray:
    """Weight gradient of :func:`_corr`, with the taps grouped as there: one
    GEMM per tap over all columns, or one GEMM per block-sized stacked
    buffer, accumulated over the blocks."""
    n, ci, h, wd = x.shape
    _, co, oh, ow = gout.shape
    s, g = stride, groups
    cig = ci // g
    _, _, hq, wq = _geometry(h, wd, kh, kw, s, padding)
    flat = _phases(x, s, padding, hq, wq).reshape(s, s, g, cig, -1)
    gz = np.zeros((co, n, hq, wq), dtype=gout.dtype)
    gz[:, :, :oh, :ow] = gout.transpose(1, 0, 2, 3)
    length = (n - 1) * hq * wq + (oh - 1) * wq + ow
    gm = gz.reshape(g, co // g, -1)[:, :, :length]
    dtype = np.result_type(x, gout)
    stacked, block = _stacking(cig, co // g, kh * kw, g)
    block = min(block, length) if stacked else length
    col = np.empty((g, stacked, block), dtype=flat.dtype) if stacked else None
    # operand @ goutᵀ: [1 or taps, g, taps*ci/g or ci/g, co/g]
    parts = np.empty((1 if stacked else kh * kw, g, stacked or cig, co // g),
                     dtype=dtype)
    tmp = np.empty_like(parts[0]) if stacked else None
    for c0 in range(0, length, block):
        c1 = min(c0 + block, length)
        srcs = _operands(flat, col, kh, kw, s, wq, c0, c1)
        for dst, src in zip(parts, srcs):
            np.matmul(src, gm[:, :, c0:c1].transpose(0, 2, 1),
                      out=tmp if c0 else dst)
            if c0:
                dst += tmp
    gw = np.empty((g, co // g, cig, kh * kw), dtype=dtype)
    gw[..., _tap_order(kh, kw, s)] = parts.transpose(1, 0, 2, 3).reshape(
        g, -1, cig, co // g).transpose(0, 3, 2, 1)
    return gw.reshape(co, cig, kh, kw)


def _corr_transpose(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                    out_hw: tuple[int, int], groups: int) -> np.ndarray:
    """Transposed correlation (adjoint of :func:`_corr`) as a sub-pixel one.

    x [n, ci, h, w], w [ci, co/g, kh, kw] -> [n, co, out_hw].  Output phase
    (a, b) of the stride grid sees taps (u*s + a, v*s + b) only, so with the
    kernel zero-filled to t*s taps (t = ceil(k/s)) every phase is a stride-1
    correlation with t x t flipped taps, and one :func:`_corr` computes all
    s*s phases as channels; a pixel shuffle interleaves them.  It runs at
    padding t-1-d, d the largest trim (at most p/s) whose output still
    covers every row and column kept, and a crop removes what is left of
    the padding: a stride-1 input gradient with p < k is one correlation at
    padding k-1-p and no crop.  Output rows or columns that no input
    reaches stay zero.
    """
    ci, cog, kh, kw = w.shape
    _, _, h, wd = x.shape
    s, p, g = stride, padding, groups
    oh, ow = out_hw
    cig = ci // g
    t = -(-max(kh, kw) // s)
    d = max(0, min(p // s, t - 1, h + t - 1 + (p + oh) // -s,
                   wd + t - 1 + (p + ow) // -s))
    wz = np.zeros((g, cig, cog, t * s, t * s), dtype=w.dtype)
    wz[..., :kh, :kw] = w.reshape(g, cig, cog, kh, kw)
    wsub = wz.reshape(g, cig, cog, t, s, t, s)[:, :, :, ::-1, :, ::-1]
    wsub = wsub.transpose(0, 2, 4, 6, 1, 3, 5).reshape(-1, cig, t, t)
    full = _shuffle_array(_corr(x, wsub, 1, t - 1 - d, g), s)
    e = p - d * s
    if e == 0 and full.shape[2:] == (oh, ow):
        return full
    out = np.zeros((*full.shape[:2], oh, ow), dtype=full.dtype)
    crop = full[:, :, e:e + oh, e:e + ow]
    out[:, :, :crop.shape[2], :crop.shape[3]] = crop
    return out


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """2-D grouped convolution (cross-correlation convention)."""
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be NCHW, got shape {x.shape}")
    if x.shape[1] != p.in_ch:
        raise ValueError(
            f"input has {x.shape[1]} channels, ConvParams expects {p.in_ch}")
    xd, wd = x.data, p.weight.data
    s, pad, groups = p.stride, p.padding, p.groups
    val = _corr(xd, wd, s, pad, groups)
    biased = p.bias is not None
    if biased:
        val += p.bias.data[None, :, None, None]
    out = Tensor(val)
    inputs = (x, p.weight, p.bias) if biased else (x, p.weight)
    need_x = _tape_for(x) is not None

    def vjp(g):
        gx = _corr_transpose(g, wd, s, pad, xd.shape[2:], groups) \
            if need_x else None
        gw = _corr_wgrad(xd, g, wd.shape[2], wd.shape[3], s, pad, groups)
        return (gx, gw, g.sum(axis=(0, 2, 3))) if biased else (gx, gw)

    return _record(inputs, out, vjp)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0,
                     output_padding: int = 0) -> Tensor:
    """2-D transposed convolution, weights [in_ch, out_ch, kh, kw].

    Adjoint of conv2d with the same stride/padding; ``output_padding``
    resolves the output-size ambiguity for stride > 1 (must be < stride).
    groups are not supported.
    """
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {x.shape}")
    ci, _, kh, kw = weight.shape
    if x.shape[1] != ci:
        raise ValueError(
            f"input has {x.shape[1]} channels, weight expects {ci}")
    s, p, op = stride, padding, output_padding
    if not 0 <= op < max(s, 1):
        raise ValueError(f"output_padding {op} must be in [0, stride)")
    h, wd = x.shape[2:]
    out_hw = ((h - 1) * s - 2 * p + kh + op, (wd - 1) * s - 2 * p + kw + op)
    if min(out_hw) < 1:
        raise ValueError("transposed conv output would be empty")
    xd, wd = x.data, weight.data
    val = _corr_transpose(xd, wd, s, p, out_hw, 1)
    biased = bias is not None
    if biased:
        val += bias.data[None, :, None, None]
    out = Tensor(val)
    inputs = (x, weight, bias) if biased else (x, weight)
    need_x = _tape_for(x) is not None

    def vjp(g):
        gx = _corr(g, wd, s, p, 1) if need_x else None
        gw = _corr_wgrad(g, xd, kh, kw, s, p, 1)
        return (gx, gw, g.sum(axis=(0, 2, 3))) if biased else (gx, gw)

    return _record(inputs, out, vjp)


# -- pixel shuffle --------------------------------------------------------

def _shuffle_array(x: np.ndarray, r: int) -> np.ndarray:
    """[n, c*r^2, h, w] -> [n, c, h*r, w*r]; r = 1 makes no copy.

    Each of the r^2 phases is one strided copy whose inner loop runs along
    a row: a whole-array transposed copy would run its inner loop over the
    r phase columns, which numpy walks slowly.
    """
    n, c, h, w = x.shape
    if r == 1:
        return np.ascontiguousarray(x)
    c2 = c // (r * r)
    x6 = x.reshape(n, c2, r, r, h, w)
    out = np.empty((n, c2, h, r, w, r), dtype=x.dtype)
    for a in range(r):
        for b in range(r):
            out[:, :, :, a, :, b] = x6[:, :, a, b]
    return out.reshape(n, c2, h * r, w * r)


def _unshuffle_array(x: np.ndarray, r: int) -> np.ndarray:
    n, c, h, w = x.shape
    val = x.reshape(n, c, h // r, r, w // r, r).transpose(
        0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h // r, w // r)
    return np.ascontiguousarray(val)


def pixel_shuffle(x: Tensor, r: int) -> Tensor:
    """Rearrange [n, c*r^2, h, w] -> [n, c, h*r, w*r].

    out(n, c, y, x) = in(n, c*r^2 + (y mod r)*r + (x mod r), y//r, x//r).
    """
    _, c, _, _ = x.shape
    if r < 1 or c % (r * r):
        raise ValueError(f"channels {c} not divisible by r^2 = {r * r}")
    out = Tensor(_shuffle_array(x.data, r))
    return _record((x,), out, lambda g: (_unshuffle_array(g, r),))


def pixel_unshuffle(x: Tensor, r: int) -> Tensor:
    """Inverse of :func:`pixel_shuffle`: [n, c, h*r, w*r] -> [n, c*r^2, h, w]."""
    _, _, h, w = x.shape
    if r < 1 or h % r or w % r:
        raise ValueError(f"spatial dims {h}x{w} not divisible by r = {r}")
    out = Tensor(_unshuffle_array(x.data, r))
    return _record((x,), out, lambda g: (_shuffle_array(g, r),))


def resize_conv_kernel(weight: Tensor, scale: int) -> Tensor:
    """Transposed-conv weight of a resize-convolution plus nearest skip.

    weight [co, c, 3, 3] -> K [c+co, co, s+2, s+2] such that
    ``conv_transpose2d(concat(x, skip), K, bias, s, 1)`` equals
    conv3x3(nearest_up(x, s), padding 1) + bias + nearest_up(skip, s): a
    3x3 conv of a nearest-upsampled map is one strided transposed conv of
    the source (Odena et al., Distill 2016; Shi et al., arXiv:1609.07009).
    Row c, column o is B w[o, c] Bᵀ, where B[j, i] = [0 <= j+i-2 < s] says
    whether tap i of the upsampled conv lands on transposed tap j; skip row
    c+o holds a ones box at [1:s+1, 1:s+1] in column o.
    """
    s = scale
    if s < 1:
        raise ValueError(f"scale must be >= 1, got {s}")
    if weight.ndim != 4 or weight.shape[2:] != (3, 3):
        raise ValueError(f"weight must be [co, c, 3, 3], got {weight.shape}")
    co, c = weight.shape[:2]
    j = np.arange(s + 2)[:, None] + np.arange(3) - 2
    box = ((j >= 0) & (j < s)).astype(weight.data.dtype)
    k = np.zeros((c + co, co, s + 2, s + 2), dtype=box.dtype)
    k[:c] = np.einsum("ji,ocim,lm->cojl", box, weight.data, box)
    k[c + np.arange(co), np.arange(co), 1:s + 1, 1:s + 1] = 1
    return _record((weight,), Tensor(k), lambda g: (
        np.einsum("ji,cojl,lm->ocim", box, g[:c], box),))


# -- pooling and resampling -----------------------------------------------

def _pool_gather_indices(size: int, out_size: int):
    """floor/ceil adaptive window edges, padded to equal length by clipping."""
    i = np.arange(out_size)
    starts = (i * size) // out_size
    ends = -((-(i + 1) * size) // out_size)  # ceil
    length = int((ends - starts).max())
    idx = starts[:, None] + np.arange(length)[None, :]
    return np.minimum(idx, (ends - 1)[:, None])


def _scatter_add(src: np.ndarray, g: np.ndarray, shape: tuple[int, ...],
                 dtype) -> np.ndarray:
    """Zeros of ``shape`` with each ``g`` added at flat index ``src``.

    One 1-D ``np.add.at`` in C order of ``g``: a target hit more than once
    receives its adds in the order of the 4-D index form, so the sum is the
    same to the bit, many times faster.
    """
    gx = np.zeros(shape, dtype)
    np.add.at(gx.reshape(-1), src.reshape(-1), g.reshape(-1))
    return gx


def adaptive_max_pool(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Adaptive max pooling with floor/ceil window edges per output cell.

    Under a tape the flat index of each window's maximum (the first one on
    ties and NaN) is kept, and the VJP scatter-adds through it.
    """
    n, c, h, w = x.shape
    oh, ow = out_hw
    if not (1 <= oh <= h and 1 <= ow <= w):
        raise ValueError(f"output {oh}x{ow} invalid for input {h}x{w}")
    idx_h = _pool_gather_indices(h, oh)
    idx_w = _pool_gather_indices(w, ow)
    rows = x.data[:, :, idx_h, :]              # n c oh Lh w
    rowmax = rows.max(axis=3)                  # n c oh w
    gath = rowmax[:, :, :, idx_w]              # n c oh ow Lw
    out = Tensor(np.ascontiguousarray(gath.max(axis=4)))

    if _tape_for(x) is None:
        return out

    arg_w = gath.argmax(axis=4)                              # n c oh ow
    src_w = idx_w[np.arange(ow)[None, None, None, :], arg_w]  # abs col
    rows_at = rows[
        np.arange(n)[:, None, None, None],
        np.arange(c)[None, :, None, None],
        np.arange(oh)[None, None, :, None], :,
        src_w]                                               # n c oh ow Lh
    arg_h = rows_at.argmax(axis=4)
    src_h = idx_h[np.arange(oh)[None, None, :, None], arg_h]
    # flat index into x of each window's maximum
    src = (np.arange(n * c).reshape(n, c, 1, 1) * h + src_h) * w + src_w
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        return (_scatter_add(src, g, shape, dtype),)

    return _record((x,), out, vjp)


def upsample_nearest(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Nearest-neighbour resize: out(y, x) = in(y*h//th, x*w//tw).

    The VJP scatter-adds the gradient through the flat source index of
    every output pixel; source pixels no output reads get zero.
    """
    n, c, h, w = x.shape
    th, tw = out_hw
    if th < 1 or tw < 1:
        raise ValueError(f"target size {th}x{tw} must be positive")
    iy = (np.arange(th) * h) // th
    ix = (np.arange(tw) * w) // tw
    # both indices ascend, so each source row and column repeats as often
    # as it is read (zero times when the target is smaller)
    out = Tensor(np.repeat(np.repeat(x.data, np.bincount(iy, minlength=h),
                                     axis=2),
                           np.bincount(ix, minlength=w), axis=3))
    dtype = x.dtype

    def vjp(g):
        src = (np.arange(n * c).reshape(n, c, 1, 1) * h
               + iy[:, None]) * w + ix
        return (_scatter_add(src, g, (n, c, h, w), dtype),)

    return _record((x,), out, vjp)


# -- channel plumbing -----------------------------------------------------

def concat_channels(parts: list[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat_channels needs at least one tensor")
    out = Tensor(np.concatenate([t.data for t in parts], axis=1))
    sizes = [t.shape[1] for t in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(np.ascontiguousarray(g[:, a:b])
                     for a, b in zip(bounds[:-1], bounds[1:]))

    return _record(tuple(parts), out, vjp)


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    c = x.shape[1]
    if not 0 <= start < stop <= c:
        raise ValueError(f"slice [{start}:{stop}] invalid for {c} channels")
    out = Tensor(np.ascontiguousarray(x.data[:, start:stop]))
    shape, dtype = x.shape, x.dtype

    def vjp(g):
        gx = np.zeros(shape, dtype)
        gx[:, start:stop] = g
        return (gx,)

    return _record((x,), out, vjp)


def repeat_channels(x: Tensor, times: int) -> Tensor:
    """Repeat each channel ``times`` consecutively (interleaved repeat)."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    n, c, h, w = x.shape
    out = Tensor(np.ascontiguousarray(np.repeat(x.data, times, axis=1)))

    def vjp(g):
        return (g.reshape(n, c, times, h, w).sum(axis=2),)

    return _record((x,), out, vjp)


# -- spectral ops ---------------------------------------------------------

def _unpack(z: np.ndarray) -> np.ndarray:
    """Re || Im [n, 2c, h, w] -> complex [n, c, h, w], complex64 if float32."""
    c = z.shape[1] // 2
    out = np.empty(z[:, :c].shape, np.result_type(z.dtype, np.complex64))
    out.real = z[:, :c]
    out.imag = z[:, c:]
    return out


def fft2_rc(x: Tensor) -> Tensor:
    """2-D FFT of each channel plane, packed as [n, 2c, h, w] = Re || Im."""
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {x.shape}")
    spec = fft2(x.data, axes=(2, 3))
    out = Tensor(np.concatenate([spec.real, spec.imag], axis=1))
    dtype = x.dtype

    def vjp(g):
        # the adjoint of the unnormalized FFT is the inverse FFT without its
        # 1/(h*w)
        gx = ifft2(_unpack(g), axes=(2, 3), norm="forward").real
        return (gx.astype(dtype),)

    return _record((x,), out, vjp)


def ifft2_rc(z: Tensor) -> Tensor:
    """Real part of the normalized inverse FFT of a packed Re || Im tensor."""
    if z.ndim != 4 or z.shape[1] % 2:
        raise ValueError(f"input must be [n, 2c, h, w], got shape {z.shape}")
    out = Tensor(ifft2(_unpack(z.data), axes=(2, 3)).real)
    dtype = z.dtype

    def vjp(g):
        spec = fft2(g, axes=(2, 3), norm="forward")
        gz = np.concatenate([spec.real, spec.imag], axis=1)
        return (gz.astype(dtype, copy=False),)

    return _record((z,), out, vjp)


# -- composite: global response normalization -----------------------------

def grn(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Global response normalization: x * gamma * (g / mean_c(g)) + beta + x.

    g is the per-channel spatial L2 norm, and mean_c(g) has 1e-6 added.
    gamma/beta are [1, c, 1, 1] and initialize to zero so the layer starts
    as identity.
    """
    gnorm = sqrt(tsum(square(x), axis=(2, 3), keepdims=True))
    denom = add(tmean(gnorm, axis=1, keepdims=True), 1e-6)
    nx = div(gnorm, denom)
    return add(add(mul(gamma, mul(x, nx)), beta), x)


# Arithmetic dunders route through the ops so tapes see them.
Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = div
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = neg
Tensor.__abs__ = absolute
