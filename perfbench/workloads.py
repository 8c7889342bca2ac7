"""The three benchmark workloads, their inputs, and their output checks.

A workload's ``setup(seed, size)`` builds models and synthesizes inputs
and returns its parts.  A :class:`Part` is one measured thing (a network, a
baseline, scoring); its ``unit()`` does one work unit and returns the output
that ``check`` inspects, and its optional ``verify()`` is an output check
run once after the timed rounds.  ``per_unit`` converts a unit's time to the
reported unit (a band, a training step, or one output frame).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from odsr import harness, media, trainer
from odsr.engine.tensor import Tensor
from odsr.models import builders, networks

SR_MODELS = ("ffcir", "cspsr", "vacv", "athena", "fsrcnn")
TRAIN_MODELS = ("ffcir", "fsrcnn", "athena")
BASELINES = ("bicubic", "lanczos4")
SR_SCALE, TRAIN_SCALE, EVAL_SCALE = 4, 2, 2
DEFAULT_SEED = 0
DIGEST_PATH = Path(__file__).with_name("sr_digest.json")
# digest tolerance relative to the output's RMS: ~800 float32 ulps, room for
# a kernel that sums in another order, far below any wiring error
DIGEST_RTOL = 1e-4
# the WS-PSNR oracle and the metric both work in float64
WS_PSNR_ATOL_DB = 1e-6


@dataclass
class Part:
    """``unit()`` runs one work unit; ``check(output)`` lists what is wrong
    with its output; ``verify()`` lists what is wrong with a one-off
    output; ``metric`` names the part's time in the traced run."""

    name: str
    unit: Callable[[], object]
    check: Callable[[object], list[str]]
    metric: str
    per_unit: float = 1.0
    verify: Callable[[], list[str]] | None = None


# -- sr-x4-2k ------------------------------------------------------------------

@dataclass(frozen=True)
class SrSize:
    lr_hw: tuple[int, int] = (270, 480)   # the x4 track's 2K LR frame
    band_rows: int = 18                   # 15 bands of 18 LR rows


def sr_band(seed: int, size: SrSize) -> np.ndarray:
    """The seeded LR frame's band ``seed mod bands`` as (1, 3, rows, w)."""
    h, w = size.lr_hw
    rng = np.random.default_rng(seed)
    frame = rng.random((1, 3, h, w), dtype=np.float32)
    b = seed % (h // size.band_rows)
    rows = slice(b * size.band_rows, (b + 1) * size.band_rows)
    return np.ascontiguousarray(frame[:, :, rows])


def output_digest(out: np.ndarray) -> dict:
    """Per-channel mean and RMS plus 64 fixed samples of an SR output."""
    flat = out.reshape(out.shape[1], -1).astype(np.float64)
    idx = np.random.default_rng(12345).integers(0, out.size, 64)
    return {"shape": list(out.shape),
            "mean": flat.mean(axis=1).tolist(),
            "rms": np.sqrt((flat * flat).mean(axis=1)).tolist(),
            "samples": out.reshape(-1)[idx].astype(np.float64).tolist()}


def digest_problems(got: dict, want: dict) -> list[str]:
    if got["shape"] != want["shape"]:
        return [f"digest shape {got['shape']} != {want['shape']}"]
    atol = DIGEST_RTOL * max(want["rms"])
    problems = []
    for key in ("mean", "rms", "samples"):
        err = float(np.max(np.abs(np.subtract(got[key], want[key]))))
        if err > atol:
            problems.append(f"digest {key} off by {err:.3g} "
                            f"(tolerance {atol:.3g})")
    return problems


def verify_digest(name: str, net) -> list[str]:
    """Run the default seed's band of the default frame through ``net`` and
    compare the output with the digest recorded in ``sr_digest.json``."""
    if not DIGEST_PATH.is_file():
        return [f"{name}: no recorded digest at {DIGEST_PATH.name}"]
    recorded = json.loads(DIGEST_PATH.read_text())
    if name not in recorded:
        return [f"{name}: no recorded digest in {DIGEST_PATH.name}"]
    out = net(Tensor(sr_band(DEFAULT_SEED, SrSize()))).data
    return [f"{name}: {p}" for p in digest_problems(output_digest(out),
                                                    recorded[name])]


def sr_setup(seed: int, size: SrSize = SrSize()) -> list[Part]:
    """Every run, whatever its seed and size, also checks each network's
    output on the default seed's band against the recorded digest."""
    x = Tensor(sr_band(seed, size))
    rows, w = x.shape[2:]
    want_shape = (1, 3, rows * SR_SCALE, w * SR_SCALE)
    parts = []
    for name in SR_MODELS:
        net = harness.make_model(name, SR_SCALE)
        first: list[bytes] = []

        def check(out, name=name, first=first):
            arr = out.data
            if arr.shape != want_shape or arr.dtype != np.float32:
                return [f"{name}: output {arr.shape} {arr.dtype}, want "
                        f"{want_shape} float32"]
            if not np.isfinite(arr).all():
                return [f"{name}: output has non-finite values"]
            digest = hashlib.sha256(arr.tobytes()).digest()
            if not first:
                first.append(digest)
            elif digest != first[0]:
                return [f"{name}: output differs between repeats"]
            return []

        parts.append(Part(name, lambda net=net: net(x), check,
                          "sr_band_s." + name,
                          verify=partial(verify_digest, name, net)))
    return parts


# -- train-x2-p32 --------------------------------------------------------------

@dataclass(frozen=True)
class TrainSize:
    frames: int = 8
    frame_hw: tuple[int, int] = (128, 128)
    batch: int = 8
    patch: int = 32


def train_setup(seed: int, size: TrainSize = TrainSize()) -> list[Part]:
    """Each unit is one ``trainer.train`` call of one step from the initial
    weights, so every unit repeats the same seeded patches."""
    frames = trainer.synthetic_frames(size.frames, size.frame_hw, seed)
    cfg = trainer.TrainConfig(iterations=1, batch=size.batch,
                              patch=size.patch, loss="charbonnier",
                              seed=seed)
    parts = []
    for name in TRAIN_MODELS:
        net = networks.Network.init(builders.build(name, TRAIN_SCALE))
        first: list[float] = []

        def unit(net=net):
            dtypes: list = []
            make_loss = trainer.__dict__["make_loss"]

            def probed_make_loss(c):
                fn = make_loss(c)

                def loss(*args):
                    out = fn(*args)
                    dtypes.append(out.dtype)
                    return out
                return loss

            trainer.make_loss = probed_make_loss
            try:
                result = trainer.train(net, frames, cfg)
            finally:
                trainer.make_loss = make_loss
            return result.losses, dtypes

        def check(out, name=name, first=first):
            losses, dtypes = out
            if not all(map(math.isfinite, losses)) or \
                    any(d != np.float32 for d in dtypes):
                return [f"{name}: losses {losses} ({dtypes}), want finite "
                        f"float32"]
            if not first:
                first.extend(losses)
            elif list(losses) != first:
                return [f"{name}: loss {losses} differs between repeats "
                        f"({first})"]
            return []

        parts.append(Part(name, unit, check, "train_step_s." + name))
    return parts


# -- eval-x2-2k ----------------------------------------------------------------

@dataclass(frozen=True)
class EvalSize:
    hr_hw: tuple[int, int] = (1080, 1920)


def ws_psnr_oracle(ref: np.ndarray, test: np.ndarray) -> float:
    """WS-PSNR of two uint8 planes, written out in float64 numpy:
    rows weighted by cos(latitude), peak 255, +inf when identical."""
    h = ref.shape[0]
    lat = (np.arange(h, dtype=np.float64) + 0.5 - h / 2.0) * np.pi / h
    wrow = np.cos(lat)
    diff = ref.astype(np.float64) - test.astype(np.float64)
    wmse = float((wrow[:, None] * diff * diff).sum()
                 / (wrow.sum() * ref.shape[1]))
    return math.inf if wmse == 0.0 else 10.0 * math.log10(255.0 ** 2 / wmse)


def eval_setup(seed: int, size: EvalSize = EvalSize()) -> list[Part]:
    hr_rgb = trainer.synthetic_frames(1, size.hr_hw, seed)
    s = EVAL_SCALE
    # synthetic_frames draws on the even grid, so decimation is exact LR

    def stream(arrays):
        return media.write_y4m(media.VideoSequence(
            [media.rgb_to_yuv420(media.FrameBuffer.from_rgb(a))
             for a in arrays]))

    hr_frames = media.read_y4m(stream(hr_rgb)).frames
    lr_blob = stream([a[::s, ::s] for a in hr_rgb])
    decoded: dict[str, list] = {}
    parts = []
    for name in BASELINES:
        model = harness.make_model(name, s)

        def unit(model=model, name=name):
            seq = media.read_y4m(lr_blob)
            outs = list(harness.run_sequence(model, seq.frames))
            blob = media.write_y4m(media.VideoSequence(outs, seq.fps))
            back = media.read_y4m(blob)
            decoded[name] = back.frames
            return outs, back.frames

        def check(out, name=name):
            outs, back = out
            problems = []
            for i, (a, b) in enumerate(zip(outs, back)):
                if (a.width, a.height) != size.hr_hw[::-1]:
                    problems.append(f"{name}: frame {i} is "
                                    f"{a.width}x{a.height}")
                if (a.layout, a.payload) != (b.layout, b.payload):
                    problems.append(f"{name}: Y4M write->read of frame {i} "
                                    f"is not bit-exact")
            if len(back) != len(outs):
                problems.append(f"{name}: {len(back)} frames read back, "
                                f"{len(outs)} written")
            return problems

        parts.append(Part("upscale." + name, unit, check,
                          "upscale_frame_s." + name))

    def score():
        return {name: (harness.evaluate_pair(hr_frames, decoded[name],
                                             plane="y"), decoded[name])
                for name in BASELINES}

    def check_score(out):
        problems = []
        for name, (report, tests) in out.items():
            for i, (r, t) in enumerate(zip(hr_frames, tests)):
                want = ws_psnr_oracle(r.y(), t.y())
                got = report.ws_psnr[i]
                if not (got == want or abs(got - want) <= WS_PSNR_ATOL_DB):
                    problems.append(f"{name}: WS-PSNR {got!r} != oracle "
                                    f"{want!r} on frame {i}")
        return problems

    parts.append(Part("score", score, check_score, "score_frame_s",
                      per_unit=1.0 / len(BASELINES)))
    return parts


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[..., list[Part]]
    unit: str  # what one reported unit is
    size: object


WORKLOADS = {
    "sr-x4-2k": Workload("sr-x4-2k", sr_setup, "18-row LR band, x4",
                         SrSize()),
    "train-x2-p32": Workload("train-x2-p32", train_setup, "training step",
                             TrainSize()),
    "eval-x2-2k": Workload("eval-x2-2k", eval_setup, "2K output frame",
                           EvalSize()),
}
