"""Bjontegaard rate-distortion deltas between two 4-point RD curves.

bd_rate fits each curve's log10(bitrate) as a cubic polynomial in quality,
integrates both fits over the overlapping quality range, and converts the
mean log-rate gap back to a percentage.  Negative means the test codec
needs less bitrate than the anchor for equal quality.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RDPoint:
    """One rate-distortion measurement (bitrate in kbps, quality in dB)."""

    bitrate: float
    quality: float

    def __post_init__(self):
        if not (math.isfinite(self.bitrate) and self.bitrate > 0):
            raise ValueError(f"bitrate must be finite positive, "
                             f"got {self.bitrate}")
        if not math.isfinite(self.quality):
            raise ValueError(f"quality must be finite, got {self.quality}")


@dataclass(frozen=True)
class RDCurve:
    """Exactly four RD points, strictly increasing in bitrate and quality."""

    points: tuple[RDPoint, ...]

    def __post_init__(self):
        if len(self.points) != 4:
            raise ValueError(
                f"an RD curve needs exactly 4 points, got {len(self.points)}")
        rates = [p.bitrate for p in self.points]
        quals = [p.quality for p in self.points]
        if any(b >= a for a, b in zip(rates[1:], rates[:-1])):
            raise ValueError(f"bitrates must strictly increase: {rates}")
        if any(b >= a for a, b in zip(quals[1:], quals[:-1])):
            raise ValueError(f"qualities must strictly increase: {quals}")

    @property
    def bitrates(self) -> np.ndarray:
        return np.array([p.bitrate for p in self.points], dtype=np.float64)

    @property
    def qualities(self) -> np.ndarray:
        return np.array([p.quality for p in self.points], dtype=np.float64)


def curve(pairs) -> RDCurve:
    """Build an RDCurve from (bitrate, quality) pairs."""
    return RDCurve(tuple(RDPoint(float(b), float(q)) for b, q in pairs))


def _overlap(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    lo = max(a.min(), b.min())
    hi = min(a.max(), b.max())
    if not hi > lo:
        raise ValueError(
            f"curves do not overlap: [{a.min()}, {a.max()}] vs "
            f"[{b.min()}, {b.max()}]")
    return lo, hi


def _poly_integral(x: np.ndarray, y: np.ndarray, lo: float,
                   hi: float) -> float:
    fit = np.polyfit(x, y, 3)
    integral = np.polyint(fit)
    return float(np.polyval(integral, hi) - np.polyval(integral, lo))


def bd_rate(anchor: RDCurve, test: RDCurve) -> float:
    """Average bitrate change of ``test`` vs ``anchor`` in percent."""
    lo, hi = _overlap(anchor.qualities, test.qualities)
    log_anchor = np.log10(anchor.bitrates)
    log_test = np.log10(test.bitrates)
    int_anchor = _poly_integral(anchor.qualities, log_anchor, lo, hi)
    int_test = _poly_integral(test.qualities, log_test, lo, hi)
    avg_diff = float((int_test - int_anchor) / (hi - lo))
    try:
        ratio = 10.0 ** avg_diff
    except OverflowError:
        raise ValueError(
            f"BD-rate overflows: the mean log10 bitrate gap {avg_diff:.6g} "
            f"gives a rate ratio beyond float range") from None
    return (ratio - 1.0) * 100.0


def bd_quality(anchor: RDCurve, test: RDCurve) -> float:
    """Average quality change of ``test`` vs ``anchor`` in dB."""
    log_anchor = np.log10(anchor.bitrates)
    log_test = np.log10(test.bitrates)
    lo, hi = _overlap(log_anchor, log_test)
    int_anchor = _poly_integral(log_anchor, anchor.qualities, lo, hi)
    int_test = _poly_integral(log_test, test.qualities, lo, hi)
    return (int_test - int_anchor) / (hi - lo)


def read_rd_csv(text: str) -> RDCurve:
    """Parse a curve from CSV with a ``bitrate,quality`` header."""
    reader = csv.reader(io.StringIO(text))
    rows = (row for row in reader if row)  # blank lines carry no point
    pairs = []
    try:
        header = [f.strip() for f in next(rows, [])]
        if header != ["bitrate", "quality"]:
            raise ValueError(f"header must be 'bitrate,quality', got {header}")
        for row in rows:
            if len(row) != 2:
                raise ValueError(f"expected 2 cells, got {len(row)}")
            pairs.append((float(row[0]), float(row[1])))
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"RD CSV line {reader.line_num}: {exc}") from None
    return curve(pairs)
