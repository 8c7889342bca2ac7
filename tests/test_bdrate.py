"""Rate-distortion curve comparison: analytic anchors and invariances."""
import math

import numpy as np
import pytest

from odsr import bdrate

BASE = [(1000.0, 30.0), (2000.0, 33.0), (4000.0, 36.0), (8000.0, 39.0)]


def scaled(factor):
    return bdrate.curve([(b * factor, q) for b, q in BASE])


class TestAnalyticAnchors:
    def test_uniform_rate_reduction(self):
        # identical quality at 0.8x the bitrate everywhere is exactly -20%
        got = bdrate.bd_rate(bdrate.curve(BASE), scaled(0.8))
        assert got == pytest.approx(-20.0, abs=1e-6)

    def test_uniform_rate_increase(self):
        got = bdrate.bd_rate(bdrate.curve(BASE), scaled(1.25))
        assert got == pytest.approx(25.0, abs=1e-6)

    def test_identical_curves_are_zero(self):
        assert bdrate.bd_rate(bdrate.curve(BASE),
                              bdrate.curve(BASE)) == pytest.approx(0, abs=1e-12)
        assert bdrate.bd_quality(bdrate.curve(BASE),
                                 bdrate.curve(BASE)) == pytest.approx(
                                     0, abs=1e-12)

    def test_constant_quality_offset(self):
        # +1 dB at every rate is a BD-quality gain of exactly 1 dB
        up = bdrate.curve([(b, q + 1.0) for b, q in BASE])
        assert bdrate.bd_quality(bdrate.curve(BASE), up) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("factor", (0.5, 0.8, 1.25, 2.0))
    def test_log_domain_exactness(self, factor):
        # constant rate scaling shifts log-rate by a constant, so the
        # integral difference is exactly log(factor)
        got = bdrate.bd_rate(bdrate.curve(BASE), scaled(factor))
        assert got == pytest.approx((factor - 1.0) * 100.0, abs=1e-6)


class TestAntisymmetry:
    def test_rate_antisymmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rates = np.cumsum(rng.uniform(500, 3000, 4))
            a = bdrate.curve(zip(rates, np.cumsum(rng.uniform(0.5, 3.0, 4))
                                 + 28))
            b = bdrate.curve(zip(rates * rng.uniform(0.7, 1.4),
                                 np.cumsum(rng.uniform(0.5, 3.0, 4)) + 28))
            fwd = bdrate.bd_rate(a, b)
            rev = bdrate.bd_rate(b, a)
            # percentage deltas invert multiplicatively
            assert (1 + fwd / 100) * (1 + rev / 100) == pytest.approx(
                1.0, abs=1e-9)

    def test_quality_antisymmetry(self):
        a = bdrate.curve(BASE)
        b = bdrate.curve([(b_ * 1.1, q + 0.7) for b_, q in BASE])
        assert bdrate.bd_quality(a, b) == pytest.approx(
            -bdrate.bd_quality(b, a), abs=1e-9)


class TestValidation:
    def test_needs_exactly_four_points(self):
        with pytest.raises(ValueError):
            bdrate.curve(BASE[:3])
        with pytest.raises(ValueError):
            bdrate.curve(BASE + [(16000.0, 42.0)])

    def test_monotonic_rates_required(self):
        pts = [(1000.0, 30.0), (900.0, 33.0), (4000.0, 36.0), (8000.0, 39.0)]
        with pytest.raises(ValueError):
            bdrate.curve(pts)

    def test_monotonic_quality_required(self):
        pts = [(1000.0, 30.0), (2000.0, 29.0), (4000.0, 36.0), (8000.0, 39.0)]
        with pytest.raises(ValueError):
            bdrate.curve(pts)

    def test_disjoint_quality_ranges_rejected(self):
        low = bdrate.curve(BASE)
        high = bdrate.curve([(b, q + 20.0) for b, q in BASE])
        with pytest.raises(ValueError):
            bdrate.bd_rate(low, high)

    def test_rate_ratio_overflow_rejected(self):
        qualities = (30, 32, 34, 36)
        tiny = bdrate.curve(zip((1e-300, 2e-300, 3e-300, 4e-300), qualities))
        huge = bdrate.curve(zip((1e300, 2e300, 3e300, 4e300), qualities))
        with pytest.raises(ValueError, match="overflow"):
            bdrate.bd_rate(tiny, huge)
        # the other way round the ratio underflows to a -100% change
        assert bdrate.bd_rate(huge, tiny) == -100.0


class TestCsv:
    def test_parse_roundtrip(self):
        text = "bitrate,quality\n" + "\n".join(
            f"{b},{q}" for b, q in BASE) + "\n"
        c = bdrate.read_rd_csv(text)
        np.testing.assert_allclose(c.bitrates, [b for b, _ in BASE])
        np.testing.assert_allclose(c.qualities, [q for _, q in BASE])

    def test_header_required(self):
        with pytest.raises(ValueError):
            bdrate.read_rd_csv("rate,psnr\n1,30\n2,33\n4,36\n8,39\n")

    @pytest.mark.parametrize("row", ["2000", "2000,33,9"])
    def test_row_with_wrong_cell_count_names_line(self, row):
        text = f"bitrate,quality\n1000,30\n{row}\n4000,36\n8000,39\n"
        with pytest.raises(ValueError, match="line 3"):
            bdrate.read_rd_csv(text)

    def test_whitespace_tolerated(self):
        text = "bitrate,quality\n 1000 , 30\n2000,33\n4000,36\n8000,39\n"
        c = bdrate.read_rd_csv(text)
        assert c.points[0].bitrate == 1000.0


class TestInterpolationQuality:
    def test_result_independent_of_anchor_units(self):
        # kbps vs bps: scaling both curves by the same factor changes nothing
        a, b = bdrate.curve(BASE), scaled(0.9)
        a2 = bdrate.curve([(r * 1000, q) for r, q in BASE])
        b2 = bdrate.curve([(r * 1000 * 0.9, q) for r, q in BASE])
        assert bdrate.bd_rate(a, b) == pytest.approx(
            bdrate.bd_rate(a2, b2), abs=1e-9)

    def test_sign_convention(self):
        # a better codec (same quality, less rate) must be negative
        assert bdrate.bd_rate(bdrate.curve(BASE), scaled(0.8)) < 0
        # and a quality gain at fixed rate is positive BD-quality
        up = bdrate.curve([(b, q + 0.5) for b, q in BASE])
        assert bdrate.bd_quality(bdrate.curve(BASE), up) > 0
