"""Training losses: analytic values, gradients, weighting semantics."""
import math

import numpy as np
import pytest

from odsr import losses
from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward
from odsr.metrics import WeightMap

from conftest import check_gradients


def t4(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


class TestCharbonnier:
    def test_zero_difference_gives_eps(self):
        x = t4(np.random.default_rng(0).random((1, 3, 4, 4)))
        loss = losses.charbonnier_loss(x, x)
        assert loss.data == pytest.approx(1e-3, rel=1e-12)

    def test_matches_formula(self):
        rng = np.random.default_rng(1)
        a = rng.random((2, 3, 5, 5))
        b = rng.random((2, 3, 5, 5))
        want = np.sqrt((a - b) ** 2 + 1e-6).mean()
        got = losses.charbonnier_loss(t4(a), t4(b)).data
        assert got == pytest.approx(want, rel=1e-12)

    def test_approaches_l1_for_large_errors(self):
        a = t4(np.zeros((1, 1, 2, 2)))
        b = t4(np.full((1, 1, 2, 2), 0.5))
        loss = losses.charbonnier_loss(a, b)
        assert loss.data == pytest.approx(0.5, rel=1e-5)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        a = rng.random((1, 2, 4, 4))
        b = rng.random((1, 2, 4, 4))
        check_gradients(lambda x, y: losses.charbonnier_loss(x, y), [a, b])

    def test_smooth_at_zero(self):
        # gradient magnitude stays below 1 (saturated L1 slope) everywhere
        a = np.zeros((1, 1, 3, 3))
        b = np.full((1, 1, 3, 3), 1e-5)
        xt = Tensor(a, dtype=np.float64)
        with Tape(wrt=[xt]) as tape:
            loss = losses.charbonnier_loss(xt, Tensor(b, dtype=np.float64))
        grads = backward(tape, loss)
        assert np.abs(grads[xt]).max() < 1.0 / a.size


class TestFftLoss:
    def test_identical_is_zero(self):
        x = t4(np.random.default_rng(3).random((1, 3, 8, 8)))
        assert losses.fft_loss(x, x).data == 0.0

    def test_constant_offset_scores_the_offset(self):
        # only DC bins differ; normalization makes the loss equal d
        base = np.random.default_rng(4).random((2, 3, 8, 16))
        d = 0.125
        got = losses.fft_loss(t4(base), t4(base + d)).data
        assert got == pytest.approx(d, rel=1e-9)

    def test_detects_pure_phase_error(self):
        # a one-pixel circular shift preserves the power spectrum but
        # moves phase; an amplitude-only criterion would score it zero
        rng = np.random.default_rng(5)
        a = rng.random((1, 1, 8, 8))
        b = np.roll(a, 1, axis=-1)
        assert losses.fft_loss(t4(a), t4(b)).data > 0.01

    def test_gradient(self):
        rng = np.random.default_rng(6)
        a = rng.random((1, 1, 4, 4))
        b = rng.random((1, 1, 4, 4))
        check_gradients(lambda x, y: losses.fft_loss(x, y), [a, b], tol=5e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            losses.fft_loss(t4(np.zeros((1, 1, 4, 4))),
                            t4(np.zeros((1, 1, 4, 8))))


class TestWsWeightedL1:
    def test_uniform_weights_reduce_to_mae(self):
        rng = np.random.default_rng(7)
        a = rng.random((2, 3, 6, 5))
        b = rng.random((2, 3, 6, 5))
        got = losses.ws_weighted_l1(t4(a), t4(b), np.ones((6, 5))).data
        assert got == pytest.approx(np.abs(a - b).mean(), rel=1e-12)

    def test_weight_map_object_accepted(self):
        rng = np.random.default_rng(8)
        a = rng.random((1, 3, 8, 4))
        b = rng.random((1, 3, 8, 4))
        wm = WeightMap.for_frame(8, 4)
        via_map = losses.ws_weighted_l1(t4(a), t4(b), wm).data
        via_arr = losses.ws_weighted_l1(t4(a), t4(b), wm.as_array()).data
        assert via_map == pytest.approx(via_arr, rel=1e-12)

    def test_polar_error_discounted(self):
        h, w = 16, 8
        wm = WeightMap.for_frame(h, w)
        base = np.zeros((1, 1, h, w))
        pole = base.copy()
        pole[..., 0, :] = 1.0
        eq = base.copy()
        eq[..., h // 2, :] = 1.0
        lp = losses.ws_weighted_l1(t4(pole), t4(base), wm).data
        le = losses.ws_weighted_l1(t4(eq), t4(base), wm).data
        assert le > lp
        ratio = wm.rows[h // 2] / wm.rows[0]
        assert le / lp == pytest.approx(ratio, rel=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        a = rng.random((1, 2, 6, 4)) + 0.5  # keep |x-y| away from 0 kink
        b = rng.random((1, 2, 6, 4)) - 0.5
        wm = WeightMap.for_frame(6, 4)
        check_gradients(
            lambda x, y: losses.ws_weighted_l1(x, y, wm), [a, b])

    def test_one_map_per_sample(self):
        rng = np.random.default_rng(11)
        a = rng.random((3, 2, 6, 5))
        b = rng.random((3, 2, 6, 5))
        maps = rng.random((3, 6, 5)) + 0.1
        got = losses.ws_weighted_l1(t4(a), t4(b), maps).data
        want = np.mean([(maps[i] * np.abs(a[i] - b[i])).sum()
                        / (2 * maps[i].sum()) for i in range(3)])
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError):
            losses.ws_weighted_l1(t4(a), t4(b), maps[:2])

    def test_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            losses.ws_weighted_l1(t4(np.zeros((1, 1, 4, 4))),
                                  t4(np.zeros((1, 1, 4, 4))),
                                  np.ones((4, 5)))


class TestLossesAreTapeAware:
    @pytest.mark.parametrize("fn", [
        lambda x, y: losses.charbonnier_loss(x, y),
        lambda x, y: losses.fft_loss(x, y),
        lambda x, y: losses.ws_weighted_l1(x, y, np.ones((4, 4))),
    ])
    def test_backprop_reaches_both_inputs(self, fn):
        rng = np.random.default_rng(10)
        xt = Tensor(rng.random((1, 1, 4, 4)) + 0.25)
        yt = Tensor(rng.random((1, 1, 4, 4)) - 0.25)
        with Tape(wrt=[xt, yt]) as tape:
            loss = fn(xt, yt)
        grads = backward(tape, loss)
        gx, gy = grads[xt], grads[yt]
        assert np.abs(gx).max() > 0
        assert np.abs(gy).max() > 0
        # antisymmetric pair: dL/dx == -dL/dy for all three losses
        np.testing.assert_allclose(gx, -gy, atol=1e-12)
