"""Builders for the four challenge networks and the FSRCNN baseline.

Channel widths are pinned so that total parameter counts land on the
published leaderboard figures (FFCIR matches them exactly; the others sit
within a few percent).
"""
from __future__ import annotations

from .blocks import (
    Act,
    Ccm,
    Conv,
    ConvTranspose,
    CspBlock,
    DownscaleHead,
    Ffc,
    Grn,
    ParallelConcat,
    PixelShuffle,
    RepeatChannels,
    Residual,
    Safm,
    UpsampleAddSkip,
)
from .networks import NetworkSpec

_SCALES = (2, 4)


def _check_scale(scale: int) -> None:
    if scale not in _SCALES:
        raise ValueError(f"scale must be one of {_SCALES}, got {scale}")


def build_ffcir(scale: int) -> NetworkSpec:
    """Fourier-convolution SR net: GRN-normalized shallow features, blocks of
    SAFM || FFC fused by a bias-free 1x1 conv plus a channel mixer, long
    skip, pixel-shuffle tail."""
    _check_scale(scale)
    c = 36
    body: list = []
    for _ in range(8):
        body.append(Residual((
            ParallelConcat((((Safm(c),)), ((Ffc(c),)))),
            Conv(2 * c, c, 1, bias=False),
        )))
        body.append(Residual((Ccm(c),)))
    layers = (
        Conv(3, c, 3, padding=1),
        Grn(c),
        Residual(tuple(body)),
        Conv(c, 3 * scale * scale, 3, padding=1),
        PixelShuffle(scale),
    )
    # the deepest SAFM pyramid level pools by 8
    return NetworkSpec("ffcir", scale, layers, min_hw=8)


def build_cspsr(scale: int) -> NetworkSpec:
    """Cross-stage-partial SR net with a global residual over the blocks."""
    _check_scale(scale)
    c = 64
    layers = (
        Conv(3, c, 3, padding=1),
        Residual(tuple(CspBlock(c) for _ in range(8))),
        Conv(c, 3 * scale * scale, 3, padding=1),
        PixelShuffle(scale),
    )
    return NetworkSpec("cspsr", scale, layers)


def build_vacv(scale: int) -> NetworkSpec:
    """SAFM/CCM net whose tail is a 3x3 conv of the nearest-upsampled
    features (declared as repeat scale^2 times, shuffle, conv), with a
    nearest-upsampled global input residual.  ``UpsampleAddSkip`` runs that
    tail and the residual as one stride-scale transposed conv of the LR
    features and input."""
    _check_scale(scale)
    c = 44
    body: list = [Conv(3, c, 3, padding=1)]
    for _ in range(8):
        body.append(Residual((Safm(c),)))
        body.append(Residual((Ccm(c),)))
    body.extend([
        RepeatChannels(scale * scale),
        PixelShuffle(scale),
        Conv(c, 3, 3, padding=1),
    ])
    return NetworkSpec("vacv", scale,
                   (UpsampleAddSkip(scale, tuple(body)),),
                   min_hw=8)


def build_athena(scale: int) -> NetworkSpec:
    """Multi-kernel strided head (halves resolution), two residual body
    convs, and a pixel-shuffle tail at 2*scale to recover the half."""
    _check_scale(scale)
    width = 21
    c = width * 3
    r = 2 * scale
    layers = (
        DownscaleHead(3, width),
        Residual((Conv(c, c, 3, padding=1), Act())),
        Residual((Conv(c, c, 3, padding=1), Act())),
        Conv(c, 3 * r * r, 3, padding=1),
        PixelShuffle(r),
    )
    # the strided head halves resolution, so dims must be even
    return NetworkSpec("athena", scale, layers, hw_multiple=2)


def build_fsrcnn(scale: int) -> NetworkSpec:
    """FSRCNN baseline (RGB in/out): feature, shrink, four mapping layers,
    expand, transposed-conv upscale."""
    _check_scale(scale)
    d, s = 56, 12
    layers: list = [Conv(3, d, 5, padding=2), Act(), Conv(d, s, 1), Act()]
    for _ in range(4):
        layers.extend([Conv(s, s, 3, padding=1), Act()])
    layers.extend([
        Conv(s, d, 1), Act(),
        ConvTranspose(d, 3, 9, stride=scale, padding=4,
                      output_padding=scale - 1),
    ])
    return NetworkSpec("fsrcnn", scale, tuple(layers))


BUILDERS = {
    "ffcir": build_ffcir,
    "cspsr": build_cspsr,
    "vacv": build_vacv,
    "athena": build_athena,
    "fsrcnn": build_fsrcnn,
}


def build(name: str, scale: int) -> NetworkSpec:
    """Look up a builder by network name."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown network {name!r}; choices: {sorted(BUILDERS)}") from None
    return builder(scale)
