"""Benchmark harness: timing, evaluation, leaderboard assembly."""
import math
import time
import tracemalloc

import numpy as np
import pytest

from odsr import harness, media, score
from odsr.engine.tensor import Tensor
from odsr.models import resample


class SleepStub:
    """Model that burns a fixed wall-clock duration per forward pass."""

    scale = 2
    name = "sleep-stub"

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, x):
        time.sleep(self.seconds)
        n, c, h, w = x.shape
        return Tensor(np.zeros((n, c, h * 2, w * 2), dtype=np.float32))


def make_frame(rng, h, w):
    return media.FrameBuffer.from_rgb(
        rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


class TestMeasureRuntime:
    def test_sleep_stub_median_within_15_percent(self):
        for target in (0.002, 0.008):
            sample = harness.measure_runtime(SleepStub(target), (8, 8),
                                             warmup=1, reps=9)
            assert abs(sample.median - target) / target < 0.15, \
                f"median {sample.median} vs injected {target}"

    def test_injected_durations_reduce_to_median(self):
        ticks = iter(np.cumsum([0.0, 0.005, 0.0, 0.006, 0.0, 0.100]))
        sample = harness.measure_runtime(
            lambda x: x, (4, 4), warmup=0, reps=3,
            clock=lambda: float(next(ticks)))
        # robust location: [5, 6, 100] ms -> 6 ms, not the 37 ms mean
        assert sample.median == pytest.approx(0.006, rel=1e-9)

    def test_repeated_real_model_medians_agree(self):
        import statistics
        model = harness.make_model("fsrcnn", 2)
        medians = [harness.measure_runtime(model, (24, 24),
                                           warmup=2, reps=11).median
                   for _ in range(5)]
        cv = statistics.stdev(medians) / statistics.fmean(medians)
        assert cv < 0.10, f"medians {medians} spread cv {cv:.3f}"

    def test_validates_reps(self):
        with pytest.raises(ValueError):
            harness.measure_runtime(SleepStub(0), (4, 4), reps=2)

    def test_accepts_frame_buffer(self):
        frame = make_frame(np.random.default_rng(0), 6, 6)
        sample = harness.measure_runtime(SleepStub(0), frame,
                                         warmup=0, reps=3)
        assert sample.lr_hw == (6, 6)
        assert sample.out_hw == (12, 12)

    def test_summary_helper(self):
        sample = harness.RuntimeSample((0.005, 0.006, 0.1), (1, 1), (2, 2))
        assert sample.median == 0.006
        assert sample.cv > 1.0  # the outlier shows in spread, not location
        assert harness.RuntimeSample((0.5,), (1, 1), (2, 2)).cv == 0.0


class TestModels:
    def test_registry_contents(self):
        names = harness.model_names()
        for expect in ("bicubic", "lanczos4", "fsrcnn", "ffcir",
                       "cspsr", "vacv", "athena"):
            assert expect in names

    def test_baseline_output_shape(self):
        model = harness.make_model("lanczos4", 4)
        y = model(Tensor(np.random.default_rng(0).random(
            (1, 3, 5, 7), dtype=np.float32)))
        assert y.shape == (1, 3, 20, 28)
        assert model.scale == 4 and model.name == "lanczos4"
        # the whole stack resizes in one call, bitwise as plane by plane
        x = np.random.default_rng(3).random((2, 3, 9, 13), dtype=np.float32)
        for name, kernel in (("bicubic", "cubic"), ("lanczos4", "lanczos4")):
            got = harness.make_model(name, 2)(Tensor(x)).data
            want = np.stack([[np.clip(resample.resize_plane(
                plane.astype(np.float64), (18, 26), kernel).astype(
                np.float32), 0.0, 1.0) for plane in planes] for planes in x])
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got.view(np.int32),
                                          want.view(np.int32))

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            harness.make_model("upscale-o-matic", 2)

    def test_frame_tensor_roundtrip(self):
        frame = make_frame(np.random.default_rng(1), 8, 10)
        t = harness.frame_to_tensor(frame)
        assert t.shape == (1, 3, 8, 10) and t.dtype == np.float32
        back = harness.tensor_to_frame(t, "rgb8")
        np.testing.assert_array_equal(back.rgb(), frame.rgb())

    def test_run_sequence_is_lazy_and_streaming(self):
        calls = []

        class Recorder:
            scale = 2

            def __call__(self, x):
                calls.append(1)
                n, c, h, w = x.shape
                return Tensor(np.zeros((n, c, 2 * h, 2 * w),
                                       dtype=np.float32))

        rng = np.random.default_rng(2)
        frames = [make_frame(rng, 4, 4) for _ in range(3)]
        gen = harness.run_sequence(Recorder(), frames)
        assert calls == []  # nothing ran yet
        first = next(gen)
        assert calls == [1]
        assert (first.height, first.width) == (8, 8)
        assert len(list(gen)) == 2


class TestRunSequenceMemory:
    def test_baseline_frame_stays_near_its_tensors(self):
        """A bicubic x2 upscale of one 540x960 4:2:0 frame holds its float32
        input and output tensors and two payloads (the encoded array and
        its bytes copy), plus 4 MiB for the row-block buffers: 2 MiB of
        float64 planes in the encode or the resize, and their rounding and
        chroma blocks.  Whole-frame float64 resizing peaked at 95 MB."""
        rgb = np.random.default_rng(5).integers(
            0, 256, (540, 960, 3), dtype=np.uint8)
        frame = media.rgb_to_yuv420(media.FrameBuffer.from_rgb(rgb))
        model = harness.make_model("bicubic", 2)
        tensors = 4 * 3 * (540 * 960 + 1080 * 1920)
        payloads = 2 * 1080 * 1920 * 3 // 2
        tracemalloc.start()
        try:
            out = list(harness.run_sequence(model, [frame]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out[0].width, out[0].height) == (1920, 1080)
        assert peak < tensors + payloads + 4 * 2 ** 20


class TestEvaluatePair:
    def test_identical_sequences(self):
        rng = np.random.default_rng(3)
        frames = [make_frame(rng, 16, 24) for _ in range(2)]
        report = harness.evaluate_pair(frames, frames)
        assert report.mean_ws_psnr == math.inf
        assert report.mean_ws_ssim == pytest.approx(1.0)

    def test_per_frame_rows_match_metrics(self):
        from odsr import metrics
        rng = np.random.default_rng(4)
        ref = [make_frame(rng, 16, 24)]
        test = [make_frame(rng, 16, 24)]
        report = harness.evaluate_pair(ref, test, plane="y")
        want = metrics.ws_psnr(ref[0].y().astype(np.float64),
                               test[0].y().astype(np.float64))
        assert report.ws_psnr[0] == pytest.approx(want, rel=1e-12)

    def test_rgb_mean_pools_mse_before_db(self):
        from odsr import metrics
        rng = np.random.default_rng(5)
        a = rng.integers(0, 256, (16, 24, 3), dtype=np.uint8)
        b = a.copy()
        b[..., 0] ^= 4  # only the red plane differs
        ref = [media.FrameBuffer.from_rgb(a)]
        test = [media.FrameBuffer.from_rgb(b)]
        report = harness.evaluate_pair(ref, test, plane="rgb-mean")
        pooled = np.mean([metrics.ws_mse(a[..., k].astype(float),
                                         b[..., k].astype(float))
                          for k in range(3)])
        assert report.ws_psnr[0] == pytest.approx(
            metrics.mse_to_db(pooled), rel=1e-12)
        assert math.isfinite(report.ws_psnr[0])

    def test_length_mismatch(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            harness.evaluate_pair([make_frame(rng, 16, 16)], [])

    def test_size_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            harness.evaluate_pair([make_frame(rng, 16, 16)],
                                  [make_frame(rng, 16, 24)])

    def test_workers_match_serial(self, monkeypatch):
        # three CPUs, so four frames take the threaded path on any machine
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        pools = []
        real_pool = harness.ThreadPoolExecutor
        monkeypatch.setattr(harness, "ThreadPoolExecutor",
                            lambda **kw: pools.append(kw) or real_pool(**kw))
        rng = np.random.default_rng(8)
        ref = [make_frame(rng, 16, 24) for _ in range(4)]
        test = [make_frame(rng, 16, 24) for _ in range(4)]
        threaded = harness.evaluate_pair(ref, test)
        assert pools == [{"max_workers": 3}]
        single = [harness.evaluate_pair([r], [t]) for r, t in zip(ref, test)]
        assert len(pools) == 1  # a one-frame call scores serially
        for key in ("ws_psnr", "ws_ssim", "psnr", "ssim"):
            assert getattr(threaded, key) == [
                getattr(s, key)[0] for s in single]


def entry(team, ws_psnr, runtime, scale=4, **kw):
    return score.LeaderboardEntry(team=team, scale=scale, ws_psnr=ws_psnr,
                                  ws_ssim=kw.get("ws_ssim", 0.8),
                                  runtime_s=runtime,
                                  bd_br_pct=kw.get("bd_br_pct"),
                                  g_flops=kw.get("g_flops"),
                                  params_k=kw.get("params_k"))


class TestLeaderboard:
    def test_published_x4_rank_order(self):
        entries = score.published_results(4)
        params = score.ScoreParams.for_scale(4)
        ranked = harness.rank_entries(entries, params)
        teams = [e.team for e in ranked]
        four = [t for t in teams if t in ("FFCIR", "IVCL", "VACV", "ATHENA")]
        assert four == ["FFCIR", "IVCL", "VACV", "ATHENA"]

    def test_q_recomputed_not_stored(self):
        e = entry("A", 29.0, 0.01)
        p4 = score.ScoreParams.for_scale(4)
        assert e.q(p4) == pytest.approx(score.q_score(29.0, 0.01, p4))
        # different params change the answer; nothing is cached
        p2 = score.ScoreParams.for_scale(2)
        assert e.q(p2) != e.q(p4)

    def test_tie_breaks_on_runtime(self):
        p = score.ScoreParams.for_scale(4)
        # same Q by construction: both under threshold, same psnr
        a = entry("slow", 29.0, 0.012)
        b = entry("fast", 29.0, 0.004)
        ranked = harness.rank_entries([a, b], p)
        assert [e.team for e in ranked] == ["fast", "slow"]

    def test_unscored_rows_sink_to_bottom(self):
        p = score.ScoreParams.for_scale(4)
        rows = [entry("baseline", 27.8, None), entry("net", 28.5, 0.01)]
        ranked = harness.rank_entries(rows, p)
        assert [e.team for e in ranked] == ["net", "baseline"]

    def test_mixed_scales_rejected(self):
        p = score.ScoreParams.for_scale(4)
        with pytest.raises(ValueError):
            harness.rank_entries([entry("a", 29, 0.01, scale=4),
                                  entry("b", 29, 0.01, scale=2)], p)

    def test_markdown_marks_winner(self):
        p = score.ScoreParams.for_scale(4)
        text = harness.emit_leaderboard_markdown(
            [entry("second", 28.5, 0.01), entry("first", 29.5, 0.01)], p)
        lines = text.strip().split("\n")
        assert lines[0].startswith("|")
        assert "**first** (winner)" in text
        assert text.index("first") < text.index("second")

    def test_csv_roundtrip_field_for_field(self):
        p = score.ScoreParams.for_scale(4)
        rows = [entry("a", 29.123456, 0.0123, bd_br_pct=-40.5,
                      g_flops=55.857, params_k=394.824),
                entry("b", 28.5, None)]
        text = harness.emit_leaderboard_csv(rows, p)
        back = harness.parse_leaderboard_csv(text)
        assert len(back) == 2
        for orig, parsed in zip(harness.rank_entries(rows, p), back):
            for field in harness._LB_FIELDS:
                assert getattr(orig, field) == getattr(parsed, field), field

    @pytest.mark.parametrize("column,cell", [
        ("ws_psnr", "nan"), ("ws_psnr", "inf"), ("runtime_s", "-inf"),
        ("params_k", "NaN"), ("ws_ssim", "1e999")])
    def test_non_finite_cell_names_line_and_column(self, column, cell):
        p = score.ScoreParams.for_scale(4)
        text = harness.emit_leaderboard_csv(
            [entry("a", 29.0, 0.01, g_flops=1.0, params_k=2.0),
             entry("b", 28.0, 0.02, g_flops=1.0, params_k=2.0)], p)
        lines = text.splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(column)] = cell
        lines[2] = ",".join(row)
        with pytest.raises(ValueError,
                           match=f"line 3: column {column}: '{cell}'"):
            harness.parse_leaderboard_csv("\n".join(lines) + "\n")

    def test_csv_q_column_present_but_derived(self):
        p = score.ScoreParams.for_scale(4)
        text = harness.emit_leaderboard_csv([entry("a", 29.0, 0.01)], p)
        header = text.splitlines()[0].split(",")
        assert "q" in header
        q_pos = header.index("q")
        value = float(text.splitlines()[1].split(",")[q_pos])
        assert value == pytest.approx(score.q_score(29.0, 0.01, p), abs=1e-6)
