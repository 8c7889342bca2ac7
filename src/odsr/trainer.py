"""Desk-scale trainer: patch sampling, Adam, and a small training loop.

Everything is sized for CPU experiments that finish in minutes: a few
frames, small patches, a couple hundred iterations.  The loop is pure in
the sense that parameters flow in and out as dicts; the network object is
never mutated.
"""
from __future__ import annotations

import io
import csv
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import harness
from .engine import ops
from .engine.tensor import Tape, Tensor, backward
from .losses import charbonnier_loss, fft_loss, ws_weighted_l1
from .media import round_u8
from .metrics import WeightMap, mse_to_db, ws_mse
from .models import blocks
from .models.networks import Network
from .models.resample import resize_plane

LOSSES = ("charbonnier", "charbonnier+fft", "ws-l1")


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one desk-scale run.  ``patch`` is the LR patch side."""

    iterations: int = 200
    batch: int = 8
    patch: int = 32
    lr: float = 2e-3
    loss: str = "charbonnier"
    seed: int = 0
    flip: bool = True
    rot90: bool = True
    mixup: bool = False
    mixup_alpha: float = 1.2
    fft_weight: float = 0.1
    decay_every: int = 0
    decay_factor: float = 0.1

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}; choices: {LOSSES}")
        for name in ("iterations", "batch", "patch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.mixup and self.mixup_alpha <= 0:
            raise ValueError(
                f"mixup_alpha must be positive, got {self.mixup_alpha}")


def lr_at(cfg: TrainConfig, step: int) -> float:
    """Step-decay schedule; constant when decay_every == 0."""
    if cfg.decay_every <= 0:
        return cfg.lr
    return cfg.lr * cfg.decay_factor ** (step // cfg.decay_every)


# -- optimizer ----------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, updated in place by adam_step."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={k: np.zeros_like(t.data) for k, t in params.items()},
                   v={k: np.zeros_like(t.data) for k, t in params.items()})


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> dict[str, Tensor]:
    """One bias-corrected Adam update; returns a fresh parameter dict."""
    missing = sorted(set(params) - set(grads))
    if missing:
        raise ValueError(f"gradients missing for {missing[:4]}")
    state.step += 1
    t = state.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t
    out = {}
    for name, tensor in params.items():
        g = grads[name].astype(tensor.dtype, copy=False)
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        step_arr = (lr / c1) * m / (np.sqrt(v / c2) + _EPS)
        out[name] = Tensor(tensor.data - step_arr.astype(tensor.dtype))
    return out


# -- data ---------------------------------------------------------------------

def as_chw(frame) -> np.ndarray:
    """Any HR frame to float32 (3, h, w) in [0, 1].

    Accepts a FrameBuffer, an (h, w, 3) uint8/float array, or an already
    channel-first float array.
    """
    if hasattr(frame, "rgb") and hasattr(frame, "layout"):
        return harness.frame_to_tensor(frame).data[0]
    arr = np.asarray(frame)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-D frame, got shape {arr.shape}")
    if arr.shape[-1] == 3:
        arr = arr.transpose(2, 0, 1)
    if arr.shape[0] != 3:
        raise ValueError(f"no channel axis of size 3 in {arr.shape}")
    if arr.dtype == np.uint8:
        return arr.astype(np.float32) / np.float32(255.0)
    out = arr.astype(np.float32)
    if out.min() < -1e-3 or out.max() > 1.0 + 1e-3:
        raise ValueError("float frames must already be scaled to [0, 1]")
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class PatchPair:
    """An aligned (LR, HR) crop: HR covers scale*(top, left) onward."""

    lr: np.ndarray     # (3, p, p) float32
    hr: np.ndarray     # (3, p*s, p*s) float32
    top: int           # LR-grid row offset in the source frame
    left: int          # LR-grid column offset
    frame_hw: tuple[int, int]  # HR source frame size

    @property
    def scale(self) -> int:
        return self.hr.shape[1] // self.lr.shape[1]


def degrade(hr_chw: np.ndarray, scale: int) -> np.ndarray:
    """Synthesize the LR counterpart by antialiased bicubic downscaling."""
    _, h, w = hr_chw.shape
    lr = resize_plane(hr_chw, (h // scale, w // scale))
    return np.clip(lr, 0.0, 1.0).astype(np.float32)


def sample_patch(hr_chw: np.ndarray, scale: int, patch: int,
                 rng: np.random.Generator) -> PatchPair:
    """Draw one aligned pair; LR comes from degrading the HR crop."""
    _, h, w = hr_chw.shape
    if h % scale or w % scale:
        raise ValueError(f"frame {h}x{w} not divisible by scale {scale}")
    lh, lw = h // scale, w // scale
    if patch > lh or patch > lw:
        raise ValueError(f"patch {patch} exceeds LR frame {lh}x{lw}")
    top = int(rng.integers(0, lh - patch + 1))
    left = int(rng.integers(0, lw - patch + 1))
    hr = hr_chw[:, top * scale:(top + patch) * scale,
                left * scale:(left + patch) * scale].astype(np.float32)
    return PatchPair(degrade(hr, scale), hr, top, left, (h, w))


def augment_pair(pair: PatchPair, rng: np.random.Generator,
                 flip: bool = True, rot90: bool = True) -> PatchPair:
    """Horizontal flip and quarter rotations, applied jointly to LR and HR."""
    lr, hr = pair.lr, pair.hr
    if flip and rng.integers(2):
        lr = lr[:, :, ::-1]
        hr = hr[:, :, ::-1]
    if rot90:
        k = int(rng.integers(4))
        if k:
            lr = np.rot90(lr, k, axes=(1, 2))
            hr = np.rot90(hr, k, axes=(1, 2))
    return replace(pair, lr=np.ascontiguousarray(lr),
                   hr=np.ascontiguousarray(hr))


def mixup_batch(lr_b: np.ndarray, hr_b: np.ndarray,
                rng: np.random.Generator, alpha: float = 1.2
                ) -> tuple[np.ndarray, np.ndarray]:
    """Blend each sample with a permuted partner; same lambda for LR/HR."""
    n = lr_b.shape[0]
    lam = rng.beta(alpha, alpha, size=(n, 1, 1, 1)).astype(np.float32)
    perm = rng.permutation(n)
    return (lam * lr_b + (1.0 - lam) * lr_b[perm],
            lam * hr_b + (1.0 - lam) * hr_b[perm])


def patch_weights(pair: PatchPair) -> np.ndarray:
    """Latitude weights for an HR patch, taken from its source-frame rows."""
    h, w = pair.frame_hw
    s = pair.scale
    rows = WeightMap.for_frame(h, w).rows
    top = pair.top * s
    band = rows[top:top + pair.hr.shape[1]]
    return np.broadcast_to(band[:, None], pair.hr.shape[1:]).copy()


# -- loop ---------------------------------------------------------------------

@dataclass(frozen=True)
class TrainResult:
    network: Network
    losses: tuple[float, ...]
    lr_schedule: tuple[float, ...]
    seconds: float
    config: TrainConfig


def make_loss(cfg: TrainConfig) -> Callable:
    """(pred, target, pairs) -> scalar loss tensor for the configured loss."""
    if cfg.loss == "charbonnier":
        return lambda p, t, pairs: charbonnier_loss(p, t)
    if cfg.loss == "charbonnier+fft":
        return lambda p, t, pairs: ops.add(
            charbonnier_loss(p, t),
            ops.mul(fft_loss(p, t), np.float32(cfg.fft_weight)))
    return lambda p, t, pairs: ws_weighted_l1(
        p, t, np.stack([patch_weights(q) for q in pairs]))


def train(net: Network, frames: Sequence, cfg: TrainConfig,
          progress: Callable[[int, float], None] | None = None
          ) -> TrainResult:
    """Run the configured number of Adam iterations and return the result.

    ``frames`` are HR sources (FrameBuffers or arrays); LR patches are
    synthesized on the fly by bicubic degradation.  With the ws-l1 loss,
    rotations are disabled so patch rows keep their source latitude.
    """
    if not frames:
        raise ValueError("no training frames")
    hr_frames = [as_chw(f) for f in frames]
    scale = net.scale
    net.spec.check_input_hw(cfg.patch, cfg.patch)
    rot = cfg.rot90 and cfg.loss != "ws-l1"
    rng = np.random.default_rng(cfg.seed)
    params = dict(net.params)
    state = AdamState.for_params(params)
    loss_fn = make_loss(cfg)
    losses: list[float] = []
    lrs: list[float] = []
    t0 = time.perf_counter()
    for step in range(cfg.iterations):
        pairs = []
        for _ in range(cfg.batch):
            fi = int(rng.integers(len(hr_frames)))
            pair = sample_patch(hr_frames[fi], scale, cfg.patch, rng)
            pairs.append(augment_pair(pair, rng, cfg.flip, rot))
        lr_b = np.stack([p.lr for p in pairs])
        hr_b = np.stack([p.hr for p in pairs])
        if cfg.mixup:
            lr_b, hr_b = mixup_batch(lr_b, hr_b, rng, cfg.mixup_alpha)
        x = Tensor(lr_b)
        target = Tensor(hr_b)
        step_lr = lr_at(cfg, step)
        with Tape(wrt=params.values()) as tape:
            pred = blocks.run_layers(net.spec.layers, x, params, "net")
            loss = loss_fn(pred, target, pairs)
        leaf_grads = backward(tape, loss)
        dead = sorted(k for k, t in params.items() if t not in leaf_grads)
        if dead:
            raise RuntimeError(f"parameters received no gradient: {dead[:4]}")
        grads = {k: leaf_grads[t] for k, t in params.items()}
        params = adam_step(params, grads, state, step_lr)
        losses.append(float(loss.item()))
        lrs.append(step_lr)
        if progress is not None:
            progress(step, losses[-1])
    seconds = time.perf_counter() - t0
    return TrainResult(net.replace_params(params), tuple(losses),
                       tuple(lrs), seconds, cfg)


def loss_trace_csv(result: TrainResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("step", "lr", "loss"))
    for i, (lr_i, loss_i) in enumerate(zip(result.lr_schedule,
                                           result.losses)):
        writer.writerow((i, repr(lr_i), repr(loss_i)))
    return out.getvalue()


# -- evaluation helpers --------------------------------------------------------

def eval_patch_ws_psnr(forward: Callable[[Tensor], Tensor],
                       pairs: Sequence[PatchPair]) -> float:
    """Mean WS-PSNR (peak 1.0) of ``forward`` over aligned patch pairs.

    The per-patch value pools the weighted MSE over the three channels
    before converting to dB; patch weights are local to the patch.
    """
    if not pairs:
        raise ValueError("no evaluation pairs")
    vals = []
    for pair in pairs:
        pred = np.clip(forward(Tensor(pair.lr[None])).data[0], 0.0, 1.0)
        pooled = float(np.mean([ws_mse(pair.hr[c], pred[c])
                                for c in range(3)]))
        vals.append(min(mse_to_db(pooled, peak=1.0), 100.0))
    return float(np.mean(vals))


def synthetic_frames(count: int = 8, hw: tuple[int, int] = (128, 128),
                     seed: int = 0) -> list[np.ndarray]:
    """Quick-start HR material: soft gradients, flat blocks, fine checkers.

    Returns uint8 (h, w, 3) frames of at least 64x64.  All structure is
    drawn on the even pixel grid (composed at half resolution, then
    nearest-upsampled), so a x2 model can in principle invert the
    degradation exactly.  The 2-pixel checker regions average to flat gray
    under antialiased downscaling, which no generic interpolator can undo;
    that is what lets very short training runs produce a visible win over
    bicubic upscaling.
    """
    h, w = hw
    if h % 2 or w % 2:
        raise ValueError(f"frame dims must be even, got {hw}")
    if min(h, w) < 64:
        raise ValueError(f"frame dims must be at least 64, got {hw}")
    hh, hw2 = h // 2, w // 2
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:hh, 0:hw2]
    frames = []
    for _ in range(count):
        base = np.empty((hh, hw2, 3), dtype=np.float64)
        angle = rng.uniform(0, 2 * np.pi)
        ramp = (np.cos(angle) * xx / hw2 + np.sin(angle) * yy / hh)
        ramp = (ramp - ramp.min()) / max(float(np.ptp(ramp)), 1e-9)
        for c in range(3):
            lo, hi = sorted(rng.uniform(0.15, 0.85, size=2))
            base[..., c] = lo + (hi - lo) * ramp
        for _ in range(int(rng.integers(6, 10))):
            top = int(rng.integers(0, hh - 4))
            left = int(rng.integers(0, hw2 - 4))
            bh = int(rng.integers(3, hh // 2))
            bw = int(rng.integers(3, hw2 // 2))
            base[top:top + bh, left:left + bw] = rng.uniform(
                0.05, 0.95, size=3)
        for _ in range(2):
            top = int(rng.integers(0, hh - 16))
            left = int(rng.integers(0, hw2 - 16))
            bh = int(rng.integers(12, hh // 2))
            bw = int(rng.integers(12, hw2 // 2))
            cell = (yy[top:top + bh, left:left + bw]
                    + xx[top:top + bh, left:left + bw]) % 2
            base[top:top + bh, left:left + bw] = np.where(
                cell[..., None].astype(bool), 0.75, 0.25)
        up = np.kron(base, np.ones((2, 2, 1)))
        frames.append(round_u8(up * 255.0))
    return frames
