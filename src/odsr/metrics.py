"""Spherically weighted quality metrics for equirectangular frames.

An ERP frame oversamples the poles, so per-pixel errors are weighted by the
cosine of latitude: w(i, j) = cos((i + 0.5 - h/2) * pi / h) for row i of an
h-row frame.  WS-PSNR replaces the MSE with the weighted mean, WS-SSIM
weights the valid-window SSIM map at each window center.  Plain PSNR/SSIM
are included for comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from . import parallel


@dataclass(frozen=True)
class WeightMap:
    """Latitude cosine weights for an h x w equirectangular frame.

    Weights are constant along each row; ``rows`` holds one value per row.
    """

    height: int
    width: int
    rows: np.ndarray

    @classmethod
    def for_frame(cls, height: int, width: int) -> "WeightMap":
        if height < 1 or width < 1:
            raise ValueError(f"frame dims must be positive, got "
                             f"{height}x{width}")
        i = np.arange(height, dtype=np.float64)
        rows = np.cos((i + 0.5 - height / 2.0) * np.pi / height)
        return cls(height, width, rows)

    def as_array(self) -> np.ndarray:
        """Full (h, w) weight array (a broadcast view, do not mutate)."""
        return np.broadcast_to(self.rows[:, None], (self.height, self.width))


def _as_planes(ref, test) -> tuple[np.ndarray, np.ndarray]:
    """Two same-shape, non-empty 2-D planes, as given (nothing is copied)."""
    r, t = np.asarray(ref), np.asarray(test)
    for a in (r, t):
        if a.ndim != 2 or a.size == 0:
            raise ValueError(f"expected a non-empty 2-D plane, got {a.shape}")
    if r.shape != t.shape:
        raise ValueError(f"shape mismatch: ref {r.shape} vs test {t.shape}")
    return r, t


# float64 elements of scratch one row block may hold (2 MiB, cache-sized)
_BLOCK = 1 << 18


def ws_mse(ref, test) -> float:
    """Latitude-weighted mean squared error of one plane."""
    r, t = _as_planes(ref, test)
    diff = np.subtract(r, t, dtype=np.float64)
    wm = WeightMap.for_frame(*diff.shape)
    # (w * diff) * diff in place, a block of rows at a time; a quarter of
    # the budget measured faster than the whole of it on 2K planes
    rows = max(1, _BLOCK // (4 * diff.shape[1]))
    wd = np.empty((min(rows, diff.shape[0]), diff.shape[1]))
    for i in range(0, diff.shape[0], rows):
        d = diff[i:i + rows]
        d *= np.multiply(wm.rows[i:i + rows, None], d, out=wd[:len(d)])
    return float(diff.sum() / wm.as_array().sum())


def mse(ref, test) -> float:
    """Plain mean squared error of one plane."""
    r, t = _as_planes(ref, test)
    diff = np.subtract(r, t, dtype=np.float64)
    return float(np.mean(np.square(diff, out=diff)))


def mse_to_db(value: float, peak: float = 255.0) -> float:
    """10*log10(peak^2 / mse); +inf when the error is exactly zero."""
    if peak <= 0:
        raise ValueError(f"peak must be positive, got {peak}")
    if value < 0:
        raise ValueError(f"mse must be non-negative, got {value}")
    if value == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / value)


def ws_psnr(ref, test, peak: float = 255.0) -> float:
    """Weighted-to-spherically-uniform PSNR in dB (+inf for identical)."""
    return mse_to_db(ws_mse(ref, test), peak)


def psnr(ref, test, peak: float = 255.0) -> float:
    """Plain PSNR in dB (+inf for identical)."""
    return mse_to_db(mse(ref, test), peak)


_WIN = 11
_RADIUS = _WIN // 2
_SIGMA = 1.5
# SSIM's stabilizers (0.01 peak)^2 and (0.03 peak)^2 at the 8-bit peak 255
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


def _gaussian_taps() -> np.ndarray:
    x = np.arange(_WIN, dtype=np.float64) - _RADIUS
    g = np.exp(-(x * x) / (2.0 * _SIGMA * _SIGMA))
    return g / g.sum()


def _ssim_rows(width: int) -> int:
    """Output rows of one SSIM row block: its five input planes over the
    rows plus 10 and two five-plane work buffers fit in ``_BLOCK``."""
    return max(1, (_BLOCK // (5 * width) - 10) // 3)


def ssim_map(ref, test) -> np.ndarray:
    """Valid-mode SSIM map of 8-bit-range planes (peak 255): shape
    (h-10, w-10), 11x11 Gaussian sigma 1.5.

    One walk over blocks of output rows, split into contiguous spans on
    the workers (``parallel.over_blocks``). Each span owns one block of
    scratch sized to stay in its core's cache, and there are no more spans
    than keep their scratch within the map's size. A block fills r, t,
    r*r, t*t and r*t as float64 over its rows plus the 10 the window
    needs, and runs the vertical Gaussian on its valid rows only: as numpy
    row slices in ``correlate1d``'s order for a symmetric filter, x[c] g5 then += (x[c-5+k] + x[c+5-k]) g_k for
    k = 0..4 (checked against scipy 1.17.1). One ``correlate1d`` call then
    runs the horizontal pass over the five-plane block, and the SSIM
    formula runs in place. The map is cropped [5:-5, 5:-5], so no kept
    value reads the ``nearest`` padding and the skipped border rows are
    never needed. Every row runs the same steps whichever span holds it,
    so the map is bitwise at any worker count. ``tests/eval_oracle.py``
    holds the out-of-place form this must equal bit for bit.
    """
    r, t = _as_planes(ref, test)
    h, w = r.shape
    if min(h, w) < _WIN:
        raise ValueError(
            f"frame {r.shape} smaller than the {_WIN}x{_WIN} SSIM window")
    g = _gaussian_taps()
    out = np.empty((h - 2 * _RADIUS, w - 2 * _RADIUS))
    rows = min(_ssim_rows(w), len(out))

    def run(b0, b1):
        planes = np.empty((5, rows + 2 * _RADIUS, w))
        vert = np.empty((5, rows, w))
        work = np.empty((5, rows, w))
        for o in range(b0 * rows, b1 * rows, rows):
            n = min(rows, len(out) - o)
            x = planes[:, :n + 2 * _RADIUS]
            np.copyto(x[0], r[o:o + n + 2 * _RADIUS])
            np.copyto(x[1], t[o:o + n + 2 * _RADIUS])
            np.multiply(x[:2], x[:2], out=x[2:4])
            np.multiply(x[0], x[1], out=x[4])
            v, s = vert[:, :n], work[:, :n]
            np.multiply(x[:, _RADIUS:_RADIUS + n], g[_RADIUS], out=v)
            for k in range(_RADIUS):
                far = _WIN - 1 - k
                np.add(x[:, k:k + n], x[:, far:far + n], out=s)
                s *= g[k]
                v += s
            correlate1d(v, g, axis=-1, output=s, mode="nearest")
            # over full rows, which keeps every operand contiguous
            mu1, mu2, s1, s2, s12 = s
            mu12 = np.multiply(mu1, mu2, out=v[0])
            s[:2] *= s[:2]  # mu1_sq, mu2_sq
            s[2:4] -= s[:2]
            s12 -= mu12
            # ((2 mu12 + c1) (2 s12 + c2))
            #   / ((mu1_sq + mu2_sq + c1) (s1 + s2 + c2))
            num = np.add(np.multiply(mu12, 2, out=mu12), _C1, out=mu12)
            num *= np.add(np.multiply(s12, 2, out=s12), _C2, out=s12)
            den = np.add(np.add(mu1, mu2, out=mu1), _C1, out=mu1)
            den *= np.add(np.add(s1, s2, out=s1), _C2, out=s1)
            num /= den
            out[o:o + n] = num[:, _RADIUS:-_RADIUS]

    parallel.over_blocks(-(-len(out) // rows), run, out.size // _BLOCK)
    return out


def ssim_means(ref, test) -> tuple[float, float]:
    """(WS-SSIM, SSIM) of one 8-bit-range plane pair, from one SSIM map."""
    smap = ssim_map(ref, test)
    plain = float(smap.mean())
    wmap = WeightMap.for_frame(*np.asarray(ref).shape).as_array()
    wmap = wmap[_RADIUS:-_RADIUS, _RADIUS:-_RADIUS]
    smap *= wmap
    return float(smap.sum() / wmap.sum()), plain


def ws_ssim(ref, test) -> float:
    """SSIM map weighted by latitude cosines at the window centers."""
    return ssim_means(ref, test)[0]


def ssim(ref, test) -> float:
    """Plain mean of the valid-mode SSIM map."""
    return ssim_means(ref, test)[1]
