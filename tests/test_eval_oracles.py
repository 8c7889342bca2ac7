"""The eval path against its out-of-place references: polyphase integer
upscales against the dense matrix product, the row-blocked upscale against
whole-stack passes, and the in-place MSEs, SSIM map, colour and frame/tensor
conversions against their original expressions, bit for bit."""
import statistics
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eval_oracle
import resample_oracle
from odsr import harness, media, metrics, parallel
from odsr.engine.tensor import Tensor
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


def _unit_floats(shape, seed, dtype=np.float32):
    """Values in [-0.1, 1.1]: the clip and the rounding see both edges."""
    rng = np.random.default_rng(seed)
    return (rng.random(shape) * 1.2 - 0.1).astype(dtype)


def _assert_blocked_matches_whole(x, out_hw, kernel):
    """float64 output and a float32 ``out`` against whole-stack passes."""
    want = resample_oracle.polyphase_resize_plane(x, out_hw, kernel)
    got = resample.resize_plane(x, out_hw, kernel)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(_bits(got), _bits(want))
    out = np.empty(want.shape, np.float32)
    assert resample.resize_plane(x, out_hw, kernel, out=out) is out
    np.testing.assert_array_equal(out.view(np.int32),
                                  want.astype(np.float32).view(np.int32))


class TestBlockedUpscale:
    """An integer row upscale runs one block of input rows at a time; every
    block must equal the same rows of one whole-stack pass."""

    @CASES
    @given(h=st.integers(1, 40), w=st.integers(1, 12),
           sh=st.integers(1, 4), sw=st.integers(1, 4), kernel=KERNELS,
           lead=st.sampled_from([(), (2,), (2, 3)]),
           block=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1))
    def test_any_block_size_matches_whole_stack(self, h, w, sh, sw, kernel,
                                                lead, block, seed):
        # small blocks give blocks of one row up to the whole height, with
        # partial last blocks and inputs shorter than the halo
        x = _unit_floats(lead + (h, w), seed)
        with mock.patch.object(resample, "_BLOCK", block):
            _assert_blocked_matches_whole(x, (h * sh, w * sw), kernel)

    @pytest.mark.parametrize("kernel", ["cubic", "lanczos4"])
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_several_blocks_and_a_partial_last_one(self, kernel, s):
        # tests/test_parallel.py runs the blocks in spans
        w = 100
        step = resample._BLOCK // (2 * 3 * s * w)
        h = 2 * step + 7
        x = _unit_floats((2, 3, h, w), 17 + s)
        _assert_blocked_matches_whole(x, (h * s, w * s), kernel)

    @pytest.mark.parametrize("kernel", ["cubic", "lanczos4"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_inputs_shorter_than_the_halo(self, kernel, h):
        x = _unit_floats((2, 3, h, 5), h)
        for s in (1, 2, 3, 4):
            _assert_blocked_matches_whole(x, (h * s, 5 * s), kernel)

    def test_dense_columns_and_rows_stay_whole_stack(self):
        # a row upscale with dense columns, and dense rows with a column
        # upscale, match the whole-stack passes bit for bit
        x = _unit_floats((2, 3, 20, 30), 21)
        for out_hw in ((40, 45), (30, 60), (10, 90)):
            _assert_blocked_matches_whole(x, out_hw, "lanczos4")

    @pytest.mark.parametrize("out_hw", [(8, 8), (8, 6), (6, 8), (3, 3)],
                             ids=["polyphase both", "polyphase rows",
                                  "polyphase columns", "dense both"])
    def test_an_empty_stack_gives_an_empty_output(self, out_hw):
        got = resample.resize_plane(np.zeros((0, 4, 4)), out_hw)
        assert got.shape == (0, *out_hw) and got.dtype == np.float64

    def test_out_shape_is_checked(self):
        with pytest.raises(ValueError, match="out has shape"):
            resample.resize_plane(np.zeros((4, 4)), (8, 8),
                                  out=np.empty((8, 9)))

    @pytest.mark.parametrize("name", ["bicubic", "lanczos4"])
    def test_baseline_model_matches_whole_stack(self, name):
        # odd sizes, a batch of 2 and values the clip cuts, at x3
        x = _unit_floats((2, 3, 37, 53), 3)
        got = harness.make_model(name, 3)(Tensor(x)).data
        want = np.clip(resample_oracle.polyphase_resize_plane(
            x, (111, 159), harness._BASELINES[name]).astype(np.float32),
            0.0, 1.0)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.int32),
                                      want.view(np.int32))


# worker counts the partial-block tests force, whatever the host has
WORKERS = (1, 2, 3, 5)


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

    def test_partial_last_block_bitwise(self, monkeypatch):
        # two whole row blocks, then one of three row pairs, at each worker
        # count
        for workers in WORKERS:
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            rows = media.block_rows(1920)
            h = 2 * rows + 6
            assert rows % 2 == 0 and h % rows == 6
            rgb = np.random.default_rng(12).integers(
                0, 256, (h, 1920, 3), dtype=np.uint8)
            got = media.rgb_to_yuv420(media.FrameBuffer.from_rgb(rgb))
            assert got.payload == eval_oracle.rgb_to_yuv420(rgb).payload

    def test_decode_partial_last_block_bitwise(self, monkeypatch):
        for workers in WORKERS:
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            rows = media.block_rows(1920)
            h = 2 * rows + 6
            assert h % rows == 6
            payload = np.random.default_rng(13).integers(
                0, 256, h * 1920 * 3 // 2, dtype=np.uint8).tobytes()
            yuv = media.FrameBuffer("yuv420", 1920, h, payload)
            assert media.yuv420_to_rgb(yuv).payload == \
                eval_oracle.yuv420_to_rgb(yuv).payload


class TestFrameTensorConversions:
    @CASES
    @given(frame=_U8_FRAME, layout=st.sampled_from(["yuv420", "rgb8", "y8"]))
    def test_frame_to_tensor_bitwise(self, frame, layout):
        rgb = _rgb(*frame)
        f = media.FrameBuffer.from_rgb(rgb)
        if layout == "yuv420":
            f = media.rgb_to_yuv420(f)
        elif layout == "y8":
            f = media.FrameBuffer.from_y(rgb[..., 1])
        got = harness.frame_to_tensor(f).data
        want = eval_oracle.frame_to_tensor(f).data
        assert got.dtype == want.dtype and got.strides == want.strides
        np.testing.assert_array_equal(got.view(np.int32),
                                      want.view(np.int32))

    @CASES
    @given(frame=_U8_FRAME, layout=st.sampled_from(["yuv420", "rgb8", "y8"]),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_tensor_to_frame_bitwise(self, frame, layout, dtype):
        hh, hw, seed = frame
        t = Tensor(_unit_floats((1, 3, 2 * hh, 2 * hw), seed, dtype))
        assert harness.tensor_to_frame(t, layout) == \
            eval_oracle.tensor_to_frame(t, layout)

    @pytest.mark.parametrize("layout", ["yuv420", "rgb8", "y8"])
    def test_tensor_to_frame_partial_last_block_bitwise(self, monkeypatch,
                                                        layout):
        # yuv420 walks its blocks in spans, rgb8 and y8 on one thread
        for workers in WORKERS:
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            rows = media.block_rows(1920)
            h = 2 * rows + 6
            assert h % rows == 6
            t = Tensor(_unit_floats((1, 3, h, 1920), 19))
            assert harness.tensor_to_frame(t, layout) == \
                eval_oracle.tensor_to_frame(t, layout)


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
