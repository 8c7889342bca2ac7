"""Benchmark harness: run models over sequences, time them, score them.

A "model" here is any callable mapping a [1, 3, h, w] float tensor in
[0, 1] to its [1, 3, scale*h, scale*w] counterpart, carrying ``.scale`` and
``.name`` attributes.  The harness owns everything around that call: frame
decoding, color conversion, metric evaluation, runtime measurement (which
deliberately excludes I/O and conversions), and leaderboard emission.
"""
from __future__ import annotations

import csv
import io
import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from . import metrics as qm
from .engine.tensor import Tensor
# rgb_to_yuv420 stays importable here: perfbench/spans.py times the
# colour conversions under their names in this module
from .media import (FrameBuffer, block_rows, encode_yuv420, rgb_to_yuv420,
                    round_u8, yuv420_to_rgb)
from .models import builders, checkpoint, networks, resample
from .score import LeaderboardEntry, ScoreParams

# -- models -----------------------------------------------------------------


class InterpModel:
    """Classical resampler behind the model interface (no weights)."""

    def __init__(self, kernel: str, scale: int, name: str | None = None):
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.kernel = kernel
        self.scale = scale
        self.name = name or kernel

    def __call__(self, x: Tensor) -> Tensor:
        arr = x.data
        n, c, h, w = arr.shape
        out = np.empty((n, c, h * self.scale, w * self.scale), arr.dtype)
        resample.resize_plane(arr, out.shape[2:], self.kernel, out=out)
        return Tensor(np.clip(out, 0.0, 1.0, out=out))


_BASELINES = {
    "bicubic": "cubic",
    "lanczos4": "lanczos4",
}


def make_model(name: str, scale: int, checkpoint_path=None, seed: int = 0):
    """Build a ready-to-run model: a network (fresh or from a checkpoint)
    or a classical baseline."""
    if name in _BASELINES:
        return InterpModel(_BASELINES[name], scale, name)
    spec = builders.build(name, scale)
    if checkpoint_path is not None:
        return checkpoint.load_checkpoint(checkpoint_path, spec)
    return networks.Network.init(spec, seed=seed)


def model_names() -> list[str]:
    return sorted(builders.BUILDERS) + sorted(_BASELINES)


# -- frame <-> tensor -------------------------------------------------------

def frame_to_tensor(frame: FrameBuffer) -> Tensor:
    """Decode any frame layout to a [1, 3, h, w] float32 tensor in [0, 1],
    a channel-first view of channel-last memory."""
    if frame.layout == "yuv420":
        frame = yuv420_to_rgb(frame)
    if frame.layout == "rgb8":
        arr = frame.rgb()
    else:  # y8: replicate the gray plane
        arr = np.repeat(frame.y()[:, :, None], 3, axis=2)
    hwc = arr.astype(np.float32)
    hwc /= np.float32(255.0)
    return Tensor(hwc.transpose(2, 0, 1)[None])


def tensor_to_frame(t: Tensor, layout: str) -> FrameBuffer:
    """Encode a [1, 3, h, w] tensor in [0, 1] back to the given layout.

    Scales and rounds one block of ``block_rows`` rows at a time, so no
    full-size float or rgb8 copy is made: yuv420 feeds each block straight
    into ``encode_yuv420``, rgb8 and y8 write it into their payload.
    """
    chw = t.data[0]
    _, h, w = chw.shape

    def rgb_rows(i, k):
        return round_u8(chw[:, i:i + k] * 255.0)

    if layout == "yuv420":
        return encode_yuv420(w, h, rgb_rows)
    rows = block_rows(w)
    if layout == "rgb8":
        out = np.empty((h, w, 3), np.uint8)
        for i in range(0, h, rows):
            out[i:i + rows] = rgb_rows(i, rows).transpose(1, 2, 0)
    elif layout == "y8":
        out = np.empty((h, w), np.uint8)
        for i in range(0, h, rows):
            out[i:i + rows] = round_u8(
                chw[:, i:i + rows].mean(axis=0) * 255.0)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return FrameBuffer(layout, w, h, out.tobytes())


def run_sequence(model, frames: Iterable[FrameBuffer],
                 layout: str | None = None) -> Iterator[FrameBuffer]:
    """Lazily upscale a stream of frames, one at a time.

    Each output is encoded in ``layout``, or in its input frame's layout
    when that is None.  For a baseline model, a frame holds at its peak the
    float32 input and output tensors, the output payload and its bytes
    copy, and about 2 MB of row-block buffers: for a 540x960 4:2:0 frame
    at x2, 31.1 MB of tensors and 6.2 MB of payloads, about 40 MB in all.
    """
    for frame in frames:
        x = frame_to_tensor(frame)
        y = model(x)
        yield tensor_to_frame(y, layout or frame.layout)


# -- runtime ----------------------------------------------------------------

@dataclass(frozen=True)
class RuntimeSample:
    """Per-repetition forward seconds plus summary statistics."""

    seconds: tuple[float, ...]
    lr_hw: tuple[int, int]
    out_hw: tuple[int, int]

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)

    @property
    def cv(self) -> float:
        """Coefficient of variation; 0 for a single sample."""
        mean = statistics.fmean(self.seconds)
        return (statistics.stdev(self.seconds) / mean
                if mean != 0.0 and len(self.seconds) > 1 else 0.0)


def measure_runtime(model, frame, warmup: int = 5, reps: int = 30,
                    clock: Callable[[], float] = time.perf_counter
                    ) -> RuntimeSample:
    """Time ``model``; excludes I/O, conversion, and weight loading.

    ``frame`` is either a FrameBuffer or an (h, w) pair, in which case a
    fixed random input (seed 0) is synthesized.  The same tensor is reused
    across warmup and timed repetitions, so only the forward pass sits
    between the clock reads.
    """
    if reps < 3:
        raise ValueError(f"reps must be >= 3, got {reps}")
    if isinstance(frame, FrameBuffer):
        x = frame_to_tensor(frame)
        h, w = frame.height, frame.width
    else:
        h, w = frame
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((1, 3, h, w), dtype=np.float32))
    out_hw = (h, w)
    for _ in range(warmup):
        out = model(x)
        out_hw = out.shape[2:]
    seconds = []
    for _ in range(reps):
        t0 = clock()
        out = model(x)
        t1 = clock()
        out_hw = out.shape[2:]
        seconds.append(t1 - t0)
    return RuntimeSample(tuple(seconds), (h, w), tuple(out_hw))


# -- metric evaluation -------------------------------------------------------

@dataclass
class MetricReport:
    """Per-frame and aggregate quality metrics for a sequence pair."""

    plane: str
    ws_psnr: list[float]
    ws_ssim: list[float]
    psnr: list[float]
    ssim: list[float]

    @staticmethod
    def _mean_db(values: list[float]) -> float:
        if all(math.isinf(v) for v in values):
            return math.inf
        return statistics.fmean(min(v, 100.0) for v in values)

    @property
    def mean_ws_psnr(self) -> float:
        return self._mean_db(self.ws_psnr)

    @property
    def mean_psnr(self) -> float:
        return self._mean_db(self.psnr)

    @property
    def mean_ws_ssim(self) -> float:
        return statistics.fmean(self.ws_ssim)

    @property
    def mean_ssim(self) -> float:
        return statistics.fmean(self.ssim)


def _frame_planes(frame: FrameBuffer, plane: str) -> list[np.ndarray]:
    """uint8 planes; each metric reads them into float64 as it goes."""
    if plane not in ("y", "rgb-mean"):
        raise ValueError(f"unknown metric plane {plane!r} (y or rgb-mean)")
    if plane == "y" or frame.layout == "y8":
        return [frame.y()]
    if frame.layout == "yuv420":
        frame = yuv420_to_rgb(frame)
    return list(frame.rgb().transpose(2, 0, 1))


def _pair_metrics(ref: FrameBuffer, test: FrameBuffer,
                  plane: str) -> tuple[float, float, float, float]:
    refs = _frame_planes(ref, plane)
    tests = _frame_planes(test, plane)
    # PSNR pools the (weighted) MSE across planes before the dB conversion;
    # SSIM values average directly.
    ws = statistics.fmean(qm.ws_mse(r, t) for r, t in zip(refs, tests))
    plain = statistics.fmean(qm.mse(r, t) for r, t in zip(refs, tests))
    ws_ssim, ssim = zip(*(qm.ssim_means(r, t) for r, t in zip(refs, tests)))
    return (qm.mse_to_db(ws), statistics.fmean(ws_ssim),
            qm.mse_to_db(plain), statistics.fmean(ssim))


def evaluate_pair(ref_frames, test_frames, plane: str = "y"
                  ) -> MetricReport:
    """Frame-aligned metrics between a reference and a test sequence,
    scored on ``min(frames, CPUs)`` threads (serially when that is one);
    a frame's values do not depend on the thread that scores it."""
    refs = list(ref_frames)
    tests = list(test_frames)
    if len(refs) != len(tests):
        raise ValueError(
            f"sequence length mismatch: {len(refs)} vs {len(tests)}")
    if not refs:
        raise ValueError("empty sequences")
    for i, (r, t) in enumerate(zip(refs, tests)):
        if (r.width, r.height) != (t.width, t.height):
            raise ValueError(
                f"frame {i} size mismatch: ref {r.width}x{r.height} vs "
                f"test {t.width}x{t.height}")
    workers = min(len(refs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                lambda pair: _pair_metrics(pair[0], pair[1], plane),
                zip(refs, tests)))
    else:
        rows = [_pair_metrics(r, t, plane) for r, t in zip(refs, tests)]
    return MetricReport(
        plane=plane,
        ws_psnr=[r[0] for r in rows],
        ws_ssim=[r[1] for r in rows],
        psnr=[r[2] for r in rows],
        ssim=[r[3] for r in rows],
    )


# -- leaderboard --------------------------------------------------------------

_LB_FIELDS = ("team", "scale", "ws_psnr", "ws_ssim", "runtime_s",
              "bd_br_pct", "g_flops", "params_k")


def rank_entries(entries, params: ScoreParams) -> list[LeaderboardEntry]:
    """Q descending; ties break toward lower runtime; unscored rows last."""
    entries = list(entries)
    scales = {e.scale for e in entries}
    if len(scales) > 1:
        raise ValueError(f"mixed scales in one leaderboard: {sorted(scales)}")

    def key(e: LeaderboardEntry):
        q = e.q(params)
        if q is None:
            return (1, 0.0, -e.ws_psnr)
        return (0, -q, e.runtime_s)

    return sorted(entries, key=key)


def _fmt(x, digits=4) -> str:
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.{digits}f}".rstrip("0").rstrip(".")


def emit_leaderboard_markdown(entries, params: ScoreParams) -> str:
    ranked = rank_entries(entries, params)
    lines = [
        "| Rank | Method | Scale | WS-PSNR (dB) | WS-SSIM | Runtime (s) | "
        "Score Q | BD-BR vs anchor (%) | G-FLOPs | Params (K) |",
        "|------|--------|-------|--------------|---------|-------------|"
        "---------|---------------------|---------|------------|",
    ]
    for i, e in enumerate(ranked):
        q = e.q(params)
        team = f"**{e.team}** (winner)" if i == 0 and q is not None else e.team
        lines.append(
            f"| {i + 1} | {team} | x{e.scale} | {e.ws_psnr:.3f} | "
            f"{_fmt(e.ws_ssim)} | {_fmt(e.runtime_s)} | "
            f"{'' if q is None else f'{q:.2f}'} | {_fmt(e.bd_br_pct, 2)} | "
            f"{_fmt(e.g_flops, 3)} | {_fmt(e.params_k, 3)} |")
    return "\n".join(lines) + "\n"


def emit_leaderboard_csv(entries, params: ScoreParams) -> str:
    ranked = rank_entries(entries, params)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_LB_FIELDS + ("q",))
    for e in ranked:
        q = e.q(params)
        writer.writerow(
            [e.team, e.scale]
            + ["" if v is None else repr(v)
               for v in (getattr(e, f) for f in _LB_FIELDS[2:])]
            + ["" if q is None else f"{q:.6f}"])
    return out.getvalue()


def _finite(row: dict, field: str) -> float:
    value = float(row[field])
    if not math.isfinite(value):
        raise ValueError(f"column {field}: {row[field]!r} is not finite")
    return value


def parse_leaderboard_csv(text: str) -> list[LeaderboardEntry]:
    """Inverse of :func:`emit_leaderboard_csv` (the q column is derived,
    so it is ignored on input)."""
    reader = csv.DictReader(io.StringIO(text))
    entries = []
    try:
        missing = set(_LB_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"missing columns {sorted(missing)}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"expected {len(reader.fieldnames)} cells")
            entries.append(LeaderboardEntry(
                row["team"], int(row["scale"]),
                *(_finite(row, f) if f == "ws_psnr" or row[f].strip()
                  else None for f in _LB_FIELDS[2:])))
    except (ValueError, csv.Error) as exc:
        raise ValueError(
            f"leaderboard CSV line {reader.reader.line_num}: {exc}") from None
    return entries
