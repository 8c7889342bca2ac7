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
    """Fresh float64 copies of two same-shape, non-empty 2-D planes."""
    r, t = np.asarray(ref), np.asarray(test)
    for a in (r, t):
        if a.ndim != 2 or a.size == 0:
            raise ValueError(f"expected a non-empty 2-D plane, got {a.shape}")
    if r.shape != t.shape:
        raise ValueError(f"shape mismatch: ref {r.shape} vs test {t.shape}")
    return r.astype(np.float64), t.astype(np.float64)


def ws_mse(ref, test) -> float:
    """Latitude-weighted mean squared error of one plane."""
    r, t = _as_planes(ref, test)
    w = WeightMap.for_frame(*r.shape).as_array()
    diff = r - t
    return float((w * diff * diff).sum() / w.sum())


def mse(ref, test) -> float:
    """Plain mean squared error of one plane."""
    r, t = _as_planes(ref, test)
    return float(np.mean((r - t) ** 2))


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


def _gaussian_taps(sigma: float = 1.5) -> np.ndarray:
    x = np.arange(_WIN, dtype=np.float64) - _RADIUS
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def ssim_map(ref, test, peak: float = 255.0) -> np.ndarray:
    """Valid-mode SSIM map: shape (h-10, w-10), 11x11 Gaussian sigma 1.5."""
    r, t = _as_planes(ref, test)
    if min(r.shape) < _WIN:
        raise ValueError(
            f"frame {r.shape} smaller than the {_WIN}x{_WIN} SSIM window")
    taps = _gaussian_taps()
    tmp = np.empty_like(r)

    def smooth(img, out=None):
        correlate1d(img, taps, axis=0, output=tmp, mode="nearest")
        return correlate1d(tmp, taps, axis=1, output=out, mode="nearest")

    # in place on fresh copies (astype), with the out-of-place form's values
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu1 = smooth(r)
    mu2 = smooth(t)
    mu12 = mu1 * mu2  # before mu1 and mu2 are squared in place
    mu1 *= mu1  # mu1_sq
    mu2 *= mu2  # mu2_sq
    rt = r * t  # before r and t are squared in place
    s1 = smooth(np.multiply(r, r, out=r), out=r)
    s1 -= mu1
    s2 = smooth(np.multiply(t, t, out=t), out=t)
    s2 -= mu2
    s12 = smooth(rt, out=rt)
    s12 -= mu12
    # ((2 mu12 + c1) (2 s12 + c2)) / ((mu1_sq + mu2_sq + c1) (s1 + s2 + c2))
    num = np.add(np.multiply(mu12, 2, out=mu12), c1, out=mu12)
    num *= np.add(np.multiply(s12, 2, out=s12), c2, out=s12)
    den = np.add(np.add(mu1, mu2, out=mu1), c1, out=mu1)
    den *= np.add(np.add(s1, s2, out=s1), c2, out=s1)
    num /= den
    return num[_RADIUS:-_RADIUS, _RADIUS:-_RADIUS]


def ssim_means(ref, test, peak: float = 255.0) -> tuple[float, float]:
    """(WS-SSIM, SSIM) of one plane pair, from one SSIM map."""
    smap = ssim_map(ref, test, peak)
    wmap = WeightMap.for_frame(*np.asarray(ref).shape).as_array()
    wmap = wmap[_RADIUS:-_RADIUS, _RADIUS:-_RADIUS]
    return float((smap * wmap).sum() / wmap.sum()), float(smap.mean())


def ws_ssim(ref, test, peak: float = 255.0) -> float:
    """SSIM map weighted by latitude cosines at the window centers."""
    return ssim_means(ref, test, peak)[0]


def ssim(ref, test, peak: float = 255.0) -> float:
    """Plain mean of the valid-mode SSIM map."""
    return ssim_means(ref, test, peak)[1]
