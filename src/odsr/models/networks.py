"""Network assembly: specs, parameter init, forward, param/FLOP counting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.tensor import Tensor
from . import blocks
from .blocks import ParamSpec, Shape


@dataclass(frozen=True)
class NetworkSpec:
    """An immutable network description: named, scaled, layered.

    ``min_hw`` and ``hw_multiple`` encode structural input constraints
    (pooling ladders, strided heads); forward passes reject inputs that
    violate them rather than silently changing the output geometry.
    """

    name: str
    scale: int
    layers: tuple
    min_hw: int = 1
    hw_multiple: int = 1

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.min_hw < 1 or self.hw_multiple < 1:
            raise ValueError("input constraints must be >= 1")
        # channel agreement along every edge, input and output are RGB
        _, c_out = blocks._layers_specs(self.layers, 3, "net")
        if c_out != 3:
            raise ValueError(
                f"network must end with 3 channels, got {c_out}")

    def check_input_hw(self, h: int, w: int) -> None:
        """Raise ValueError unless an h x w input meets the constraints."""
        if min(h, w) < self.min_hw:
            raise ValueError(f"{self.name} needs inputs of at least "
                             f"{self.min_hw}px per side, got {h}x{w}")
        if h % self.hw_multiple or w % self.hw_multiple:
            raise ValueError(f"{self.name} needs dims divisible by "
                             f"{self.hw_multiple}, got {h}x{w}")


def param_specs(spec: NetworkSpec) -> list[ParamSpec]:
    """Flat parameter table in deterministic order."""
    specs, _ = blocks._layers_specs(spec.layers, 3, "net")
    names = [s.name for s in specs]
    if len(names) != len(set(names)):
        raise ValueError("duplicate parameter names in spec walk")
    return specs


def count_params(spec: NetworkSpec) -> int:
    """Total learnable parameter count."""
    return sum(int(np.prod(s.shape)) for s in param_specs(spec))


def count_flops(spec: NetworkSpec, lr_hw: tuple[int, int]) -> int:
    """FLOPs for one forward pass at the given LR input size.

    Convention: a convolution costs 2 multiply-accumulates per tap
    (bias adds not counted); elementwise ops cost one FLOP per element;
    an FFT plane costs 5*H*W*log2(H*W).  Raises ValueError for sizes no
    forward accepts (:meth:`NetworkSpec.check_input_hw`).
    """
    h, w = lr_hw
    spec.check_input_hw(h, w)
    total, out = blocks._layers_flops(spec.layers, Shape(3, h, w))
    expect = Shape(3, h * spec.scale, w * spec.scale)
    if out != expect:
        raise ValueError(f"spec produces {out}, expected {expect}")
    return total


def init_params(spec: NetworkSpec, seed: int = 0,
                dtype=np.float32) -> dict[str, Tensor]:
    """Fan-in uniform weights, zero biases and GRN gains.

    bound = 1/sqrt(fan_in), the standard conv default.  The mild variance
    contraction per layer keeps the multiplicative SAFM gates in their
    stable regime; residual paths carry the signal.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for ps in param_specs(spec):
        if ps.fan_in is None:
            arr = np.zeros(ps.shape, dtype=dtype)
        else:
            bound = 1.0 / np.sqrt(ps.fan_in)
            arr = rng.uniform(-bound, bound, size=ps.shape).astype(dtype)
        params[ps.name] = Tensor(arr)
    return params


class Network:
    """A spec bound to a parameter dict; callable on NCHW tensors in [0,1]."""

    def __init__(self, spec: NetworkSpec, params: dict[str, Tensor]):
        expected = {ps.name: ps.shape for ps in param_specs(spec)}
        got = {name: tuple(t.shape) for name, t in params.items()}
        if expected != got:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            bad = sorted(k for k in expected.keys() & got.keys()
                         if expected[k] != got[k])
            raise ValueError(
                f"parameter table mismatch: missing={missing[:4]} "
                f"extra={extra[:4]} shape_mismatch={bad[:4]}")
        self.spec = spec
        self.params = params

    @classmethod
    def init(cls, spec: NetworkSpec, seed: int = 0,
             dtype=np.float32) -> "Network":
        return cls(spec, init_params(spec, seed, dtype))

    @property
    def scale(self) -> int:
        return self.spec.scale

    @property
    def name(self) -> str:
        return self.spec.name

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ValueError(f"input must be [n, 3, h, w], got {x.shape}")
        self.spec.check_input_hw(*x.shape[2:])
        return blocks.run_layers(self.spec.layers, x, self.params, "net")

    def replace_params(self, params: dict[str, Tensor]) -> "Network":
        return Network(self.spec, params)
