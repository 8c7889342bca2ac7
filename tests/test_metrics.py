"""Spherical and planar quality metrics against brute-force oracles."""
import math

import numpy as np
import pytest

from odsr import metrics


def brute_ws_psnr(ref, test, peak=255.0):
    """Literal double loop over pixels in 64-bit, no vectorization."""
    h, w = ref.shape
    num = 0.0
    den = 0.0
    for i in range(h):
        weight = math.cos((i + 0.5 - h / 2.0) * math.pi / h)
        for j in range(w):
            d = float(ref[i, j]) - float(test[i, j])
            num += weight * d * d
            den += weight
    wmse = num / den
    if wmse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / wmse)


class TestWsPsnr:
    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            ref = rng.integers(0, 256, (32, 64)).astype(np.float64)
            test = np.clip(ref + rng.normal(0, 12, ref.shape), 0, 255)
            fast = metrics.ws_psnr(ref, test)
            slow = brute_ws_psnr(ref, test)
            worst = max(worst, abs(fast - slow))
        assert worst < 1e-9, f"worst disagreement {worst} dB"

    def test_uniform_off_by_one_level(self):
        ref = np.full((64, 128), 100.0)
        test = ref + 1.0
        # weighted MSE of a constant-error field is exactly 1
        assert metrics.ws_psnr(ref, test) == pytest.approx(
            20.0 * math.log10(255.0), abs=1e-4)
        assert metrics.ws_psnr(ref, test) == pytest.approx(48.1308, abs=1e-4)

    def test_identical_is_infinite(self):
        img = np.random.default_rng(0).integers(0, 256, (16, 32)).astype(float)
        assert metrics.ws_psnr(img, img) == math.inf

    def test_equator_errors_weigh_more_than_poles(self):
        h, w = 32, 64
        ref = np.zeros((h, w))
        pole = ref.copy()
        pole[0, :] = 10.0
        equator = ref.copy()
        equator[h // 2, :] = 10.0
        assert metrics.ws_psnr(ref, equator) < metrics.ws_psnr(ref, pole)
        # unweighted PSNR cannot tell them apart
        assert metrics.psnr(ref, equator) == pytest.approx(
            metrics.psnr(ref, pole), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.ws_psnr(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_peak_one_for_unit_range(self):
        ref = np.full((8, 8), 0.5)
        test = np.full((8, 8), 0.25)
        assert metrics.ws_psnr(ref, test, peak=1.0) == pytest.approx(
            10.0 * math.log10(1.0 / 0.0625), abs=1e-12)


class TestWeightMap:
    def test_rows_are_latitude_cosines(self):
        wm = metrics.WeightMap.for_frame(180, 360)
        i = np.arange(180)
        expect = np.cos((i + 0.5 - 90.0) * np.pi / 180.0)
        np.testing.assert_allclose(wm.rows, expect, atol=1e-15)

    def test_symmetric_about_equator(self):
        wm = metrics.WeightMap.for_frame(64, 4)
        np.testing.assert_allclose(wm.rows, wm.rows[::-1], atol=1e-15)

    def test_all_positive_and_peak_at_center(self):
        wm = metrics.WeightMap.for_frame(33, 2)
        assert (wm.rows > 0).all()
        assert wm.rows.argmax() == 16

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            metrics.WeightMap.for_frame(0, 8)


class TestMse:
    def test_mse_to_db_validation(self):
        with pytest.raises(ValueError):
            metrics.mse_to_db(-1.0)
        with pytest.raises(ValueError):
            metrics.mse_to_db(1.0, peak=0.0)
        assert metrics.mse_to_db(0.0) == math.inf


class TestSsim:
    def test_identical_images_score_one(self):
        img = np.random.default_rng(1).integers(0, 256, (32, 48)).astype(float)
        assert metrics.ssim(img, img) == pytest.approx(1.0, abs=1e-12)
        assert metrics.ws_ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_noise_lowers_score(self):
        rng = np.random.default_rng(2)
        yy, xx = np.meshgrid(np.linspace(0, 4, 64), np.linspace(0, 4, 64),
                             indexing="ij")
        ref = 128 + 90 * np.sin(yy) * np.cos(xx)
        noisy = np.clip(ref + rng.normal(0, 25, ref.shape), 0, 255)
        assert metrics.ssim(ref, noisy) < 0.65
        assert metrics.ws_ssim(ref, noisy) < 0.65

    def test_score_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.random((24, 24)) * 255
            b = rng.random((24, 24)) * 255
            s = metrics.ssim(a, b)
            assert -1.0 <= s <= 1.0

    def test_mean_shift_vs_noise(self):
        # SSIM forgives a small global luminance shift more than
        # structure-destroying noise of equal MSE
        rng = np.random.default_rng(6)
        ref = rng.integers(32, 224, (64, 64)).astype(float)
        shift = ref + 8.0
        noise = ref + rng.choice([-8.0, 8.0], ref.shape)
        assert metrics.mse(ref, shift) == pytest.approx(
            metrics.mse(ref, noise))
        assert metrics.ssim(ref, shift) > metrics.ssim(ref, noise)

    def test_ws_ssim_weights_equator(self):
        rng = np.random.default_rng(8)
        ref = rng.integers(0, 256, (64, 64)).astype(float)
        pole = ref.copy()
        pole[:8] = np.clip(pole[:8] + rng.normal(0, 40, (8, 64)), 0, 255)
        eq = ref.copy()
        eq[28:36] = np.clip(eq[28:36] + rng.normal(0, 40, (8, 64)), 0, 255)
        assert metrics.ws_ssim(ref, eq) < metrics.ws_ssim(ref, pole)

    def test_window_requires_minimum_size(self):
        with pytest.raises(ValueError):
            metrics.ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_ssim_map_shape_and_consistency(self):
        rng = np.random.default_rng(9)
        ref = rng.random((32, 32)) * 255
        test = np.clip(ref + rng.normal(0, 10, ref.shape), 0, 255)
        m = metrics.ssim_map(ref, test)
        # map covers valid 11x11 window positions only
        assert m.shape == (22, 22)
        assert metrics.ssim(ref, test) == pytest.approx(m.mean(), rel=1e-12)
