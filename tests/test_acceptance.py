"""Acceptance gate: every criterion runs here and prints one verdict line.

The verdict lines appear in the ``acceptance criteria`` section of the
pytest terminal summary (see conftest).  Each test exercises one numbered
criterion at its stated tolerance; the criterion fails honestly if the
implementation misses the bar.
"""
import math
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from odsr import bdrate, harness, media, metrics, score, trainer
from odsr.engine.tensor import Tensor
from odsr.models import builders, networks, resample

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORTS = ROOT / "reports"


@contextmanager
def criterion(log, num, desc):
    try:
        yield
    except BaseException:
        log.append(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    log.append(f"[PASS] criterion {num:2d}: {desc}")


def nested_pytest(*paths):
    """Run a test file in a clean interpreter; return (ok, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[str(ROOT / p) for p in paths]],
        cwd=ROOT, capture_output=True, text=True)
    return proc.returncode == 0, time.perf_counter() - t0, proc.stdout


def test_criterion_1_q_score_fidelity(acceptance_log):
    with criterion(acceptance_log, 1,
                   "Q formula anchors; x2 table documented irreproducible"):
        fig = score.ScoreParams.for_scale(2)
        assert round(score.q_score(31.0, 0.010, fig), 2) == 100.00
        assert score.q_score(29.589, 0.0057, fig) == pytest.approx(
            67.93, abs=0.01)
        assert score.runtime_score(0.0298, fig) == pytest.approx(
            0.6611, abs=1e-4)
        # the published x2 Q column does NOT reproduce from the
        # published constants; the reconciliation note is an artifact
        vacv = next(r for r in score.published_results(2)
                    if r.team == "VACV")
        assert abs(score.q_score(vacv.ws_psnr, vacv.runtime_s, fig)
                   - vacv.q_printed) > 1.0
        note = score.q_discrepancy_note()
        assert "not reproducible" in note
        REPORTS.mkdir(exist_ok=True)
        out = REPORTS / "q_score_discrepancy.md"
        out.write_text(note)
        assert out.stat().st_size > 500


def test_criterion_2_ws_psnr_oracle(acceptance_log):
    with criterion(acceptance_log, 2,
                   "WS-PSNR vs 64-bit brute force (100 pairs, 1e-9 dB)"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            ref = rng.integers(0, 256, (32, 64)).astype(np.float64)
            test = np.clip(ref + rng.normal(0, 15, ref.shape), 0, 255)
            h, w = ref.shape
            num = den = 0.0
            for i in range(h):
                wt = math.cos((i + 0.5 - h / 2.0) * math.pi / h)
                for j in range(w):
                    d = float(ref[i, j]) - float(test[i, j])
                    num += wt * d * d
                    den += wt
            slow = 10.0 * math.log10(255.0 ** 2 / (num / den))
            assert abs(metrics.ws_psnr(ref, test) - slow) < 1e-9
        one = np.full((64, 128), 40.0)
        assert metrics.ws_psnr(one, one + 1.0) == pytest.approx(
            48.1308, abs=1e-4)


def test_criterion_3_bd_rate_analytic(acceptance_log):
    with criterion(acceptance_log, 3,
                   "BD-rate -20%/+25% analytic; antisymmetry to 1e-9"):
        base = [(1000.0, 30.0), (2000.0, 33.0), (4000.0, 36.0),
                (8000.0, 39.0)]
        a = bdrate.curve(base)
        down = bdrate.curve([(b * 0.8, q) for b, q in base])
        up = bdrate.curve([(b * 1.25, q) for b, q in base])
        assert bdrate.bd_rate(a, down) == pytest.approx(-20.0, abs=1e-6)
        assert bdrate.bd_rate(a, up) == pytest.approx(25.0, abs=1e-6)
        rng = np.random.default_rng(7)
        for _ in range(10):
            rates = np.cumsum(rng.uniform(500, 3000, 4))
            qa = np.cumsum(rng.uniform(0.5, 3.0, 4)) + 28
            qb = np.cumsum(rng.uniform(0.5, 3.0, 4)) + 28
            c1 = bdrate.curve(zip(rates, qa))
            c2 = bdrate.curve(zip(rates * rng.uniform(0.75, 1.3), qb))
            fwd = bdrate.bd_rate(c1, c2)
            rev = bdrate.bd_rate(c2, c1)
            assert abs((1 + fwd / 100) * (1 + rev / 100) - 1.0) < 1e-9
            assert abs(bdrate.bd_quality(c1, c2)
                       + bdrate.bd_quality(c2, c1)) < 1e-9


def test_criterion_4_parameter_anchors(acceptance_log):
    with criterion(acceptance_log, 4,
                   "parameter counts within published tolerances"):
        anchors = (("ffcir", 4, 394_824, 0.10), ("ffcir", 2, 383_124, 0.10),
                   ("cspsr", 4, 232_128, 0.15), ("vacv", 4, 315_120, 0.15),
                   ("athena", 4, 188_160, 0.15),
                   ("fsrcnn", 4, 24_683, 0.20))
        for name, scale, want, tol in anchors:
            got = networks.count_params(builders.build(name, scale))
            assert abs(got - want) / want <= tol, (name, scale, got)


def test_criterion_5_gradient_suite(acceptance_log):
    with criterion(acceptance_log, 5,
                   "FD gradient checks, ops 1e-6 / nets 1e-4, under 5 min"):
        ok, seconds, out = nested_pytest("tests/test_engine_ops.py",
                                         "tests/test_engine_autograd.py")
        assert ok, out[-2000:]
        assert seconds < 300, f"gradient suite took {seconds:.0f}s"


def test_criterion_6_desk_scale_convergence(acceptance_log):
    with criterion(acceptance_log, 6,
                   "200-iteration x2 training beats bicubic on patches"):
        t0 = time.perf_counter()
        frames = trainer.synthetic_frames(8, hw=(128, 128), seed=0)
        net = networks.Network.init(builders.build("athena", 2), seed=0)
        cfg = trainer.TrainConfig(iterations=200, batch=8, patch=32,
                                  lr=2e-3, loss="charbonnier", seed=0,
                                  flip=False, rot90=False)
        result = trainer.train(net, frames, cfg)
        first = float(np.mean(result.losses[:10]))
        last = float(np.mean(result.losses[-10:]))
        assert last <= 0.5 * first, f"loss only {first:.4f} -> {last:.4f}"

        rng = np.random.default_rng(123)
        chw = [trainer.as_chw(f) for f in frames]
        pairs = [trainer.sample_patch(chw[i % len(chw)], 2, 32, rng)
                 for i in range(24)]

        def bicubic_up(x):
            arr = x.data[0]
            up = np.stack([resample.resize_plane(arr[c], (64, 64))
                           for c in range(3)])
            return Tensor(np.clip(up, 0.0, 1.0,
                                  dtype=np.float64).astype(np.float32)[None])

        net_db = trainer.eval_patch_ws_psnr(result.network, pairs)
        cubic_db = trainer.eval_patch_ws_psnr(bicubic_up, pairs)
        assert net_db > cubic_db, (
            f"net {net_db:.2f} dB vs bicubic {cubic_db:.2f} dB")
        wall = time.perf_counter() - t0
        assert wall < 600, f"training fixture took {wall:.0f}s"


def test_criterion_7_property_suites(acceptance_log):
    with criterion(acceptance_log, 7,
                   "shuffle/scale/FFT property suites, 200+ cases each"):
        from test_properties import CASES
        assert CASES.max_examples >= 200
        ok, _, out = nested_pytest("tests/test_properties.py")
        assert ok, out[-2000:]


def test_criterion_8_media_round_trips(acceptance_log):
    with criterion(acceptance_log, 8,
                   "PPM/Y4M bitwise round trips; 12-byte Y4M example"):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            frame = media.FrameBuffer.from_rgb(
                rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            blob = media.write_ppm(frame)
            assert media.write_ppm(media.read_ppm(blob)) == blob
        for _ in range(10):
            h, w = 2 * int(rng.integers(1, 13)), 2 * int(rng.integers(1, 13))
            frames = [media.FrameBuffer.from_yuv(
                rng.integers(0, 256, (h, w), dtype=np.uint8),
                rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
                rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
                for _ in range(3)]
            blob = media.write_y4m(media.VideoSequence(frames))
            assert media.write_y4m(media.read_y4m(blob)) == blob
        seq = media.read_y4m(b"YUV4MPEG2 W4 H2 F30:1\nFRAME\n" + bytes(12))
        assert (seq.width, seq.height) == (4, 2)
        assert seq.fps == 30


def test_criterion_9_ranking_reproduction(acceptance_log):
    with criterion(acceptance_log, 9,
                   "published x4 pairs reproduce the challenge rank order"):
        entries = score.published_results(4)
        params = score.ScoreParams.for_scale(4)
        ranked = harness.rank_entries(entries, params)
        teams = [e.team for e in ranked
                 if e.team in ("FFCIR", "IVCL", "VACV", "ATHENA")]
        assert teams == ["FFCIR", "IVCL", "VACV", "ATHENA"], teams
        text = harness.emit_leaderboard_markdown(entries, params)
        assert "**FFCIR** (winner)" in text


def test_criterion_10_runtime_harness_stability(acceptance_log):
    with criterion(acceptance_log, 10,
                   "sleep-stub medians within 15%; real medians CV < 10%"):
        import statistics

        class Stub:
            scale = 2

            def __init__(self, seconds):
                self.seconds = seconds

            def __call__(self, x):
                time.sleep(self.seconds)
                n, c, h, w = x.shape
                return Tensor(np.zeros((n, c, 2 * h, 2 * w),
                                       dtype=np.float32))

        for target in (0.002, 0.008):
            got = harness.measure_runtime(Stub(target), (8, 8),
                                          warmup=1, reps=9).median
            assert abs(got - target) / target < 0.15, (target, got)

        ticks = iter(np.cumsum([0.0, 0.005, 0.0, 0.006, 0.0, 0.100]))
        sample = harness.measure_runtime(
            lambda x: x, (4, 4), warmup=0, reps=3,
            clock=lambda: float(next(ticks)))
        assert sample.median == pytest.approx(0.006, rel=1e-9)

        model = harness.make_model("fsrcnn", 2)
        medians = [harness.measure_runtime(model, (24, 24), warmup=2,
                                           reps=11).median
                   for _ in range(5)]
        cv = statistics.stdev(medians) / statistics.fmean(medians)
        assert cv < 0.10, f"median spread cv {cv:.3f} over {medians}"
