"""Layer descriptors for the SR networks.

A network is a tuple of descriptors applied in order.  Descriptors are
frozen dataclasses that know three things: their parameter table and
output channel count (:meth:`specs`), their forward computation against a
flat parameter dict, and their FLOP cost.  Each descriptor checks its input
channels as the specs are walked, so a mis-wired builder fails at
construction time rather than mid-forward.  Every activation outside the
GELU gates is a leaky ReLU with the op's fixed slope of 0.1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from ..engine import ops
from ..engine.tensor import Tensor


class ParamSpec(NamedTuple):
    name: str
    shape: tuple[int, ...]
    fan_in: int | None  # None means zero-init


class Shape(NamedTuple):
    c: int
    h: int
    w: int


def _conv_specs(path: str, c_in: int, c_out: int, k: int, groups: int = 1,
                bias: bool = True) -> list[ParamSpec]:
    fan = (c_in // groups) * k * k
    specs = [ParamSpec(f"{path}.w", (c_out, c_in // groups, k, k), fan)]
    if bias:
        specs.append(ParamSpec(f"{path}.b", (c_out,), None))
    return specs


def _conv(x: Tensor, P: dict[str, Tensor], path: str, stride: int = 1,
          padding: int = 0, groups: int = 1) -> Tensor:
    return ops.conv2d(x, ops.ConvParams(
        P[f"{path}.w"], P.get(f"{path}.b"), stride, padding, groups))


def run_layers(layers, x: Tensor, P: dict[str, Tensor], path: str) -> Tensor:
    for i, layer in enumerate(layers):
        x = layer.forward(x, P, f"{path}.{i}")
    return x


def _layers_specs(layers, c: int, path: str) -> tuple[list[ParamSpec], int]:
    specs: list[ParamSpec] = []
    for i, layer in enumerate(layers):
        layer_specs, c = layer.specs(c, f"{path}.{i}")
        specs.extend(layer_specs)
    return specs, c


def _expect(kind: str, want: int, got: int) -> None:
    if got != want:
        raise ValueError(f"{kind} expects {want} channels, got {got}")


def _same_channels(kind: str, body, c_in: int,
                   path: str) -> tuple[list[ParamSpec], int]:
    specs, c_out = _layers_specs(body, c_in, path)
    if c_out != c_in:
        raise ValueError(f"{kind} body maps {c_in} -> {c_out} channels")
    return specs, c_in


def _layers_flops(layers, s: Shape) -> tuple[int, Shape]:
    total = 0
    for layer in layers:
        f, s = layer.flops(s)
        total += f
    return total, s


@dataclass(frozen=True)
class Conv:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    bias: bool = True

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("Conv", self.in_ch, c_in)
        return _conv_specs(path, self.in_ch, self.out_ch, self.kernel,
                           self.groups, self.bias), self.out_ch

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return _conv(x, P, path, self.stride, self.padding, self.groups)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        oh = (s.h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (s.w + 2 * self.padding - self.kernel) // self.stride + 1
        macs = (self.in_ch // self.groups) * self.kernel ** 2 \
            * self.out_ch * oh * ow
        return 2 * macs, Shape(self.out_ch, oh, ow)


@dataclass(frozen=True)
class ConvTranspose:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0
    output_padding: int = 0

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("ConvTranspose", self.in_ch, c_in)
        fan = self.out_ch * self.kernel ** 2  # fan-in of the adjoint conv
        return [
            ParamSpec(f"{path}.w",
                      (self.in_ch, self.out_ch, self.kernel, self.kernel),
                      fan),
            ParamSpec(f"{path}.b", (self.out_ch,), None),
        ], self.out_ch

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.conv_transpose2d(
            x, P[f"{path}.w"], P[f"{path}.b"], self.stride, self.padding,
            self.output_padding)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        oh = (s.h - 1) * self.stride - 2 * self.padding + self.kernel \
            + self.output_padding
        ow = (s.w - 1) * self.stride - 2 * self.padding + self.kernel \
            + self.output_padding
        macs = self.in_ch * self.out_ch * self.kernel ** 2 * s.h * s.w
        return 2 * macs, Shape(self.out_ch, oh, ow)


@dataclass(frozen=True)
class Act:
    """Leaky ReLU, slope 0.1."""

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        return [], c_in

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.leaky_relu(x)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        return s.c * s.h * s.w, s


@dataclass(frozen=True)
class PixelShuffle:
    r: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        if c_in % (self.r * self.r):
            raise ValueError(
                f"PixelShuffle({self.r}) needs channels divisible by "
                f"{self.r * self.r}, got {c_in}")
        return [], c_in // (self.r * self.r)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.pixel_shuffle(x, self.r)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        return 0, Shape(s.c // (self.r * self.r), s.h * self.r, s.w * self.r)


@dataclass(frozen=True)
class RepeatChannels:
    times: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        return [], c_in * self.times

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.repeat_channels(x, self.times)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        return 0, Shape(s.c * self.times, s.h, s.w)


@dataclass(frozen=True)
class Grn:
    ch: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("Grn", self.ch, c_in)
        return [ParamSpec(f"{path}.gamma", (1, self.ch, 1, 1), None),
                ParamSpec(f"{path}.beta", (1, self.ch, 1, 1), None)], self.ch

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.grn(x, P[f"{path}.gamma"], P[f"{path}.beta"])

    def flops(self, s: Shape) -> tuple[int, Shape]:
        return 5 * s.c * s.h * s.w, s


_SAFM_LEVELS = 4
_CCM_EXPAND = 2
_HEAD_KERNELS = (3, 5, 7)


@dataclass(frozen=True)
class Safm:
    """Spatially-adaptive feature modulation: multi-scale depthwise pyramid
    aggregated by a 1x1 conv, GELU-gated against the block input."""

    ch: int

    def __post_init__(self):
        if self.ch % _SAFM_LEVELS:
            raise ValueError(
                f"Safm channels {self.ch} not divisible by {_SAFM_LEVELS}")

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("Safm", self.ch, c_in)
        g = self.ch // _SAFM_LEVELS
        specs: list[ParamSpec] = []
        for i in range(_SAFM_LEVELS):
            specs.extend(_conv_specs(f"{path}.dw{i}", g, g, 3, groups=g))
        specs.extend(_conv_specs(f"{path}.aggr", self.ch, self.ch, 1))
        return specs, self.ch

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        g = self.ch // _SAFM_LEVELS
        h, w = x.shape[2], x.shape[3]
        outs = []
        for i in range(_SAFM_LEVELS):
            part = ops.slice_channels(x, i * g, (i + 1) * g)
            if i == 0:
                y = _conv(part, P, f"{path}.dw0", padding=1, groups=g)
            else:
                pooled = ops.adaptive_max_pool(
                    part, (h // 2 ** i, w // 2 ** i))
                y = _conv(pooled, P, f"{path}.dw{i}", padding=1, groups=g)
                y = ops.upsample_nearest(y, (h, w))
            outs.append(y)
        aggr = _conv(ops.concat_channels(outs), P, f"{path}.aggr")
        return ops.mul(ops.gelu(aggr), x)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        g = s.c // _SAFM_LEVELS
        total = 0
        for i in range(_SAFM_LEVELS):
            hh, ww = s.h // 2 ** i, s.w // 2 ** i
            total += 2 * 9 * g * hh * ww  # depthwise conv
            if i:
                total += g * (hh * ww + s.h * s.w)  # pool + upsample
        total += 2 * s.c * s.c * s.h * s.w  # 1x1 aggregation
        total += 2 * s.c * s.h * s.w  # gate: gelu + multiply
        return total, s


@dataclass(frozen=True)
class Ccm:
    """Convolutional channel mixer: 3x3 expand (2x), GELU, 1x1 project."""

    ch: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("Ccm", self.ch, c_in)
        hidden = self.ch * _CCM_EXPAND
        return (_conv_specs(f"{path}.expand", self.ch, hidden, 3)
                + _conv_specs(f"{path}.project", hidden, self.ch, 1),
                self.ch)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        y = ops.gelu(_conv(x, P, f"{path}.expand", padding=1))
        return _conv(y, P, f"{path}.project")

    def flops(self, s: Shape) -> tuple[int, Shape]:
        hidden = self.ch * _CCM_EXPAND
        total = 2 * 9 * self.ch * hidden * s.h * s.w
        total += hidden * s.h * s.w
        total += 2 * hidden * self.ch * s.h * s.w
        return total, s


@dataclass(frozen=True)
class Ffc:
    """Fourier unit summed with a full-width spatial 3x3 convolution.

    Spectral path: fft2 per channel, stack Re/Im (2c), 1x1 conv + GELU in
    the frequency domain, inverse transform's real part.
    """

    ch: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("Ffc", self.ch, c_in)
        return (_conv_specs(f"{path}.spatial", self.ch, self.ch, 3)
                + _conv_specs(f"{path}.freq", 2 * self.ch, 2 * self.ch, 1),
                self.ch)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        spatial = _conv(x, P, f"{path}.spatial", padding=1)
        # no name holds the packed spectrum, so without a tape it is freed
        # before the GELU runs
        z = ops.gelu(_conv(ops.fft2_rc(x), P, f"{path}.freq"))
        return ops.add(spatial, ops.ifft2_rc(z))

    def flops(self, s: Shape) -> tuple[int, Shape]:
        import math
        total = 2 * 9 * self.ch * self.ch * s.h * s.w
        fft_plane = 5 * s.h * s.w * math.log2(max(2, s.h * s.w))
        total += int(2 * self.ch * fft_plane)  # forward + inverse transforms
        c2 = 2 * self.ch
        total += 2 * c2 * c2 * s.h * s.w + c2 * s.h * s.w
        total += self.ch * s.h * s.w  # sum of paths
        return total, s


@dataclass(frozen=True)
class CspBlock:
    """Cross-stage-partial block: half the channels bypass, half are
    processed by two 3x3 convs, then a 1x1 transition fuses the stages."""

    ch: int

    def __post_init__(self):
        if self.ch % 2:
            raise ValueError(f"CspBlock needs even channels, got {self.ch}")

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("CspBlock", self.ch, c_in)
        half = self.ch // 2
        return (_conv_specs(f"{path}.conv1", half, half, 3)
                + _conv_specs(f"{path}.conv2", half, half, 3)
                + _conv_specs(f"{path}.transition", self.ch, self.ch, 1),
                self.ch)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        half = self.ch // 2
        keep = ops.slice_channels(x, 0, half)
        y = ops.slice_channels(x, half, self.ch)
        y = ops.leaky_relu(_conv(y, P, f"{path}.conv1", padding=1))
        y = ops.leaky_relu(_conv(y, P, f"{path}.conv2", padding=1))
        merged = ops.concat_channels([keep, y])
        return ops.leaky_relu(_conv(merged, P, f"{path}.transition"))

    def flops(self, s: Shape) -> tuple[int, Shape]:
        half = self.ch // 2
        total = 2 * (2 * 9 * half * half * s.h * s.w)
        total += 2 * self.ch * self.ch * s.h * s.w
        total += 3 * self.ch * s.h * s.w  # activations (approx)
        return total, s


@dataclass(frozen=True)
class DownscaleHead:
    """Parallel strided convolutions (one per kernel size) concatenated.

    Each path halves the spatial resolution, so the tail must upscale by
    2 * scale to compensate.
    """

    in_ch: int
    width: int

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        _expect("DownscaleHead", self.in_ch, c_in)
        specs: list[ParamSpec] = []
        for k in _HEAD_KERNELS:
            specs.extend(_conv_specs(f"{path}.k{k}", self.in_ch, self.width, k))
        return specs, self.width * len(_HEAD_KERNELS)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        outs = []
        for k in _HEAD_KERNELS:
            y = _conv(x, P, f"{path}.k{k}", stride=2, padding=k // 2)
            outs.append(ops.leaky_relu(y))
        return ops.concat_channels(outs)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        total = 0
        out_s = s
        for k in _HEAD_KERNELS:
            p = k // 2
            oh = (s.h + 2 * p - k) // 2 + 1
            ow = (s.w + 2 * p - k) // 2 + 1
            total += 2 * self.in_ch * k * k * self.width * oh * ow
            total += self.width * oh * ow
            out_s = Shape(self.width * len(_HEAD_KERNELS), oh, ow)
        return total, out_s


@dataclass(frozen=True)
class Residual:
    """y = x + body(x); the body must preserve the channel count."""

    body: tuple

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        return _same_channels("Residual", self.body, c_in, path)

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        return ops.add(run_layers(self.body, x, P, path), x)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        total, out_s = _layers_flops(self.body, s)
        return total + out_s.c * out_s.h * out_s.w, out_s


@dataclass(frozen=True)
class ParallelConcat:
    """Apply each branch to the same input and concatenate the outputs."""

    branches: tuple

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        specs: list[ParamSpec] = []
        c_out = 0
        for j, branch in enumerate(self.branches):
            s, c = _layers_specs(branch, c_in, f"{path}.b{j}")
            specs.extend(s)
            c_out += c
        return specs, c_out

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        outs = [run_layers(b, x, P, f"{path}.b{j}")
                for j, b in enumerate(self.branches)]
        return ops.concat_channels(outs)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        total = 0
        c_out = 0
        last = s
        for branch in self.branches:
            f, bs = _layers_flops(branch, s)
            total += f
            c_out += bs.c
            last = bs
        return total, Shape(c_out, last.h, last.w)


@dataclass(frozen=True)
class UpsampleAddSkip:
    """y = body(x) + nearest_upsample(x, scale); the global SR residual.

    The body must end in ``RepeatChannels(s^2), PixelShuffle(s), Conv(c,
    c_in, 3, padding=1)``: a 3x3 conv of the nearest-upsampled features.
    That tail and the skip run as one stride-s transposed conv of the LR
    features and input (:func:`~odsr.engine.ops.resize_conv_kernel`), so
    no upsampled feature map is built; the parameters keep the tail Conv's
    names.
    """

    scale: int
    body: tuple

    def specs(self, c_in: int, path: str) -> tuple[list[ParamSpec], int]:
        specs, c = _same_channels("UpsampleAddSkip", self.body, c_in, path)
        s = self.scale
        tail = self.body[-3:]
        if tail[:2] != (RepeatChannels(s * s), PixelShuffle(s)) \
                or not isinstance(tail[-1], Conv) \
                or tail[-1] != Conv(tail[-1].in_ch, c, 3, padding=1):
            raise ValueError(
                f"UpsampleAddSkip body must end in RepeatChannels({s * s}), "
                f"PixelShuffle({s}), Conv(c, {c}, 3, padding=1)")
        return specs, c

    def forward(self, x: Tensor, P, path: str) -> Tensor:
        feat = run_layers(self.body[:-3], x, P, path)
        conv = f"{path}.{len(self.body) - 1}"
        k = ops.resize_conv_kernel(P[f"{conv}.w"], self.scale)
        return ops.conv_transpose2d(ops.concat_channels([feat, x]), k,
                                    P[f"{conv}.b"], self.scale, 1)

    def flops(self, s: Shape) -> tuple[int, Shape]:
        total, out_s = _layers_flops(self.body, s)
        total += 2 * out_s.c * out_s.h * out_s.w  # upsample + add
        return total, out_s


def iter_descriptors(layers, path: str = "net") -> Iterable[tuple[str, object]]:
    """Depth-first walk over every descriptor, including nested bodies."""
    for i, layer in enumerate(layers):
        here = f"{path}.{i}"
        yield here, layer
        if isinstance(layer, (Residual, UpsampleAddSkip)):
            yield from iter_descriptors(layer.body, here)
        elif isinstance(layer, ParallelConcat):
            for j, branch in enumerate(layer.branches):
                yield from iter_descriptors(branch, f"{here}.b{j}")
