"""The eval path against its out-of-place references: polyphase integer
upscales against the dense matrix product, and the in-place MSEs, SSIM map
and colour conversions against their original expressions, bit for bit."""
import statistics
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

import eval_oracle
import resample_oracle
from odsr import harness, media, metrics
from odsr.models import resample

CASES = settings(max_examples=200, deadline=None)
KERNELS = st.sampled_from(["cubic", "lanczos4"])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestPolyphaseUpscale:
    @CASES
    @given(h=st.integers(1, 64), w=st.integers(1, 64),
           sh=st.integers(1, 8), sw=st.integers(1, 8), kernel=KERNELS,
           lead=st.sampled_from([(), (2,), (1, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_product(self, h, w, sh, sw, kernel, lead, seed):
        x = np.random.default_rng(seed).random(lead + (h, w))
        got = resample.resize_plane(x, (h * sh, w * sw), kernel)
        want = resample_oracle.resize_plane(x, (h * sh, w * sw), kernel)
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-12

    @CASES
    @given(h=st.integers(1, 40), w=st.integers(1, 40),
           oh=st.integers(1, 80), ow=st.integers(1, 80), kernel=KERNELS)
    def test_any_ratio_matches_dense_product(self, h, w, oh, ow, kernel):
        # mixes polyphase and dense axes; dense-only ratios stay bitwise
        x = np.random.default_rng(h * 41 + w).random((h, w))
        got = resample.resize_plane(x, (oh, ow), kernel)
        want = resample_oracle.resize_plane(x, (oh, ow), kernel)
        if oh % h and ow % w:
            np.testing.assert_array_equal(_bits(got), _bits(want))
        else:
            assert np.abs(got - want).max() <= 1e-12

    def test_downscale_stays_bitwise(self):
        # trainer.degrade's antialiased downscale keeps the dense matrices
        x = np.random.default_rng(5).random((3, 64, 96)).astype(np.float32)
        got = resample.resize_plane(x, (32, 48))
        want = resample_oracle.resize_plane(x, (32, 48))
        np.testing.assert_array_equal(_bits(got), _bits(want))


_U8_FRAME = st.tuples(st.integers(1, 24), st.integers(1, 24),
                      st.integers(0, 2 ** 32 - 1))


def _rgb(half_h, half_w, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, (2 * half_h, 2 * half_w, 3), dtype=np.uint8)


class TestColourInPlace:
    @CASES
    @given(frame=_U8_FRAME)
    def test_rgb_to_yuv420_bitwise(self, frame):
        rgb = _rgb(*frame)
        got = media.rgb_to_yuv420(media.FrameBuffer.from_rgb(rgb))
        assert got.payload == eval_oracle.rgb_to_yuv420(rgb).payload

    @CASES
    @given(frame=_U8_FRAME)
    def test_yuv420_to_rgb_bitwise(self, frame):
        hh, hw, seed = frame
        n = 4 * hh * hw
        payload = np.random.default_rng(seed).integers(
            0, 256, n * 3 // 2, dtype=np.uint8).tobytes()
        yuv = media.FrameBuffer("yuv420", 2 * hw, 2 * hh, payload)
        assert media.yuv420_to_rgb(yuv).payload == \
            eval_oracle.yuv420_to_rgb(yuv).payload

    def test_full_2k_frame_bitwise(self):
        rgb = np.random.default_rng(11).integers(
            0, 256, (1080, 1920, 3), dtype=np.uint8)
        yuv = media.rgb_to_yuv420(media.FrameBuffer.from_rgb(rgb))
        assert yuv.payload == eval_oracle.rgb_to_yuv420(rgb).payload
        assert media.yuv420_to_rgb(yuv).payload == \
            eval_oracle.yuv420_to_rgb(yuv).payload

    def test_partial_last_block_bitwise(self):
        # two whole row blocks, then one of three row pairs
        rows = media._yuv_rows(1920)
        h = 2 * rows + 6
        assert rows % 2 == 0 and h % rows == 6
        rgb = np.random.default_rng(12).integers(
            0, 256, (h, 1920, 3), dtype=np.uint8)
        got = media.rgb_to_yuv420(media.FrameBuffer.from_rgb(rgb))
        assert got.payload == eval_oracle.rgb_to_yuv420(rgb).payload


_DTYPES = st.sampled_from([np.uint8, np.float32, np.float64])


def _plane_pair(h, w, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        return tuple(rng.integers(0, 256, (h, w), dtype=np.uint8)
                     for _ in range(2))
    return tuple((rng.random((h, w)) * 255.0).astype(dtype)
                 for _ in range(2))


class TestMseInPlace:
    @CASES
    @given(h=st.integers(1, 48), w=st.integers(1, 48), dtype=_DTYPES,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_and_inputs_left_unmodified(self, h, w, dtype, seed):
        ref, test = _plane_pair(h, w, dtype, seed)
        ref0, test0 = ref.copy(), test.copy()
        assert metrics.ws_mse(ref, test) == eval_oracle.ws_mse(ref0, test0)
        assert metrics.mse(ref, test) == eval_oracle.mse(ref0, test0)
        np.testing.assert_array_equal(ref, ref0)
        np.testing.assert_array_equal(test, test0)

    def test_full_2k_pairs_bitwise(self):
        # 1080 rows span many weighting blocks
        for dtype in (np.uint8, np.float32, np.float64):
            ref, test = _plane_pair(1080, 1920, dtype, 13)
            assert metrics.ws_mse(ref, test) == eval_oracle.ws_mse(ref, test)
            assert metrics.mse(ref, test) == eval_oracle.mse(ref, test)


class TestSsimInPlace:
    @CASES
    @given(h=st.integers(11, 48), w=st.integers(11, 48),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_map_bitwise_on_uint8_planes(self, h, w, seed):
        rng = np.random.default_rng(seed)
        ref = rng.integers(0, 256, (h, w), dtype=np.uint8)
        test = rng.integers(0, 256, (h, w), dtype=np.uint8)
        np.testing.assert_array_equal(
            _bits(metrics.ssim_map(ref, test)),
            _bits(eval_oracle.ssim_map(ref, test)))

    def test_full_2k_pair_bitwise(self):
        rng = np.random.default_rng(14)
        ref = rng.integers(0, 256, (1080, 1920), dtype=np.uint8)
        noise = rng.integers(-20, 21, ref.shape)
        test = np.clip(ref + noise, 0, 255).astype(np.uint8)
        np.testing.assert_array_equal(
            _bits(metrics.ssim_map(ref, test)),
            _bits(eval_oracle.ssim_map(ref, test)))

    def test_partial_last_block_bitwise(self):
        # two whole row blocks, then a partial one of three rows
        rows = metrics._ssim_rows(1920)
        h = 10 + 2 * rows + 3
        assert 3 < rows
        rng = np.random.default_rng(15)
        ref = rng.integers(0, 256, (h, 1920), dtype=np.uint8)
        test = rng.integers(0, 256, (h, 1920), dtype=np.uint8)
        np.testing.assert_array_equal(
            _bits(metrics.ssim_map(ref, test)),
            _bits(eval_oracle.ssim_map(ref, test)))

    def test_memory_stays_block_sized(self):
        """The map is built one row block at a time: on a 2K pair the
        traced peak stays under two float64 planes, where whole-plane
        smoothing kept about seven alive."""
        rng = np.random.default_rng(16)
        ref = rng.integers(0, 256, (1080, 1920), dtype=np.uint8)
        test = rng.integers(0, 256, (1080, 1920), dtype=np.uint8)
        tracemalloc.start()
        try:
            metrics.ssim_map(ref, test)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1080 * 1920 * 8

    def test_inputs_left_unmodified(self):
        rng = np.random.default_rng(2)
        ref = rng.random((40, 60)) * 255.0
        test = rng.random((40, 60)) * 255.0
        ref0, test0 = ref.copy(), test.copy()
        got = metrics.ssim_map(ref, test)
        np.testing.assert_array_equal(_bits(ref), _bits(ref0))
        np.testing.assert_array_equal(_bits(test), _bits(test0))
        np.testing.assert_array_equal(
            _bits(got), _bits(eval_oracle.ssim_map(ref0, test0)))

    def test_same_array_as_both_inputs(self):
        plane = np.random.default_rng(4).random((20, 30)) * 255.0
        before = plane.copy()
        smap = metrics.ssim_map(plane, plane)
        np.testing.assert_array_equal(_bits(plane), _bits(before))
        np.testing.assert_allclose(smap, 1.0, atol=1e-12)

    def test_means_match_the_wrappers(self):
        rng = np.random.default_rng(6)
        ref = rng.random((32, 48)) * 255.0
        test = np.clip(ref + rng.normal(0.0, 20.0, ref.shape), 0, 255)
        ws, plain = metrics.ssim_means(ref, test)
        assert ws == metrics.ws_ssim(ref, test)
        assert plain == metrics.ssim(ref, test)


class TestPairMetrics:
    @settings(max_examples=40, deadline=None)
    @given(frame=st.tuples(st.integers(6, 20), st.integers(6, 20),
                           st.integers(0, 2 ** 32 - 1)),
           plane=st.sampled_from(["y", "rgb-mean"]),
           layout=st.sampled_from(["yuv420", "rgb8"]))
    def test_one_map_per_pair_matches_separate_calls(self, frame, plane,
                                                     layout):
        hh, hw, seed = frame
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (2 * hh, 2 * hw, 3), dtype=np.uint8)
        noise = rng.integers(-30, 31, a.shape)
        b = np.clip(a + noise, 0, 255).astype(np.uint8)
        ref, test = (media.FrameBuffer.from_rgb(x) for x in (a, b))
        if layout == "yuv420":
            ref, test = media.rgb_to_yuv420(ref), media.rgb_to_yuv420(test)
        refs = harness._frame_planes(ref, plane)
        tests = harness._frame_planes(test, plane)
        pairs = list(zip(refs, tests))
        want = (
            metrics.mse_to_db(statistics.fmean(
                metrics.ws_mse(r, t) for r, t in pairs)),
            statistics.fmean(metrics.ws_ssim(r, t) for r, t in pairs),
            metrics.mse_to_db(statistics.fmean(
                metrics.mse(r, t) for r, t in pairs)),
            statistics.fmean(metrics.ssim(r, t) for r, t in pairs),
        )
        assert harness._pair_metrics(ref, test, plane) == want
