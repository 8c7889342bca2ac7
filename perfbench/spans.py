"""Spans recorded from outside the program, around the calls into each layer.

A :class:`Tracer` replaces public functions of ``odsr`` modules (and methods
of ``odsr`` classes) at the name their callers look up, records one span per
call, and puts every original back in :meth:`Tracer.restore`.  Spans stay in
memory as plain lists and are aggregated or written out after the run.

Each span is ``[name, start, end, parent, unit, info]``: ``parent`` is the
index of the enclosing span (or -1), ``unit`` the work-unit id current when
the span opened, and ``info`` a small dict of counts filled after the call.
"""
from __future__ import annotations

import inspect
import time
import tracemalloc
from collections import defaultdict

NAME, START, END, PARENT, UNIT, INFO = range(6)

CONV_CLASSES = ("dense", "pointwise", "depthwise", "strided")

# ops grouped the way the per-layer metrics report them
RESIZE_OPS = ("adaptive_max_pool", "upsample_nearest", "pixel_shuffle",
              "pixel_unshuffle", "repeat_channels")
ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "neg", "square", "sqrt",
                   "absolute", "exp", "tsum", "tmean", "relu", "leaky_relu",
                   "grn", "concat_channels", "slice_channels")
# Tensor dunders bound to an op at import time; the reflected ones are
# lambdas that call the module-level op, so wrapping the op covers them
TENSOR_DUNDERS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
                  "__abs__")
DESCRIPTOR_KINDS = ("Conv", "ConvTranspose", "Act", "PixelShuffle",
                    "RepeatChannels", "Grn", "Safm", "Ccm", "Ffc",
                    "CspBlock", "DownscaleHead", "Residual", "ParallelConcat",
                    "UpsampleAddSkip")


def conv_class(p) -> str:
    """Shape class of a ``ConvParams``: strided, depthwise, pointwise, dense."""
    if p.stride > 1:
        return "strided"
    if p.groups > 1:
        return "depthwise"
    if p.kernel == (1, 1):
        return "pointwise"
    return "dense"


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if a is not None))


def conv_info(x, p, out) -> dict:
    """FLOPs by the ``blocks`` convention (2 per MAC, bias not counted) and
    bytes computed from the input, weight, bias and output sizes."""
    n = x.shape[0]
    _, oc, oh, ow = out.shape
    kh, kw = p.kernel
    macs = n * (p.in_ch // p.groups) * kh * kw * oc * oh * ow
    bias = None if p.bias is None else p.bias.data
    return {"flops": 2 * macs,
            "bytes": _nbytes(x.data, p.weight.data, bias, out.data)}


def conv_transpose_info(x, weight, bias, out) -> dict:
    n, ci, h, w = x.shape
    _, co, kh, kw = weight.shape
    macs = n * ci * co * kh * kw * h * w
    b = None if bias is None else bias.data
    return {"flops": 2 * macs,
            "bytes": _nbytes(x.data, weight.data, b, out.data)}


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``memory=True`` also tracks, per span, the tracemalloc peak above the
    traced memory at span start (``info["peak_bytes"]``); the caller starts
    and stops tracemalloc.
    """

    def __init__(self, memory: bool = False, clock=time.perf_counter):
        self.spans: list[list] = []
        self.memory = memory
        self.clock = clock
        self.unit = None
        self.tape_nodes_by_unit: dict = defaultdict(int)
        self._stack: list[int] = []
        self._mem: dict[int, list[int]] = {}  # span -> [start_cur, max_peak]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                self._mem[parent][1] = max(self._mem[parent][1], peak)
            tracemalloc.reset_peak()
            self._mem[idx] = [cur, cur]
        self.spans.append([name, self.clock(), 0.0, parent, self.unit, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]} closed out of order")
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            start_cur, max_peak = self._mem.pop(idx)
            max_peak = max(max_peak, peak)
            info = dict(info or {}, peak_bytes=max_peak - start_cur)
            if span[PARENT] >= 0:
                pm = self._mem[span[PARENT]]
                pm[1] = max(pm[1], max_peak)
            tracemalloc.reset_peak()
        span[INFO] = info

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name, info=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or ``f(args) -> str``; ``info(args, kwargs,
        result)`` returns the span's counts after the call.
        """
        fn = owner.__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, info(args, kwargs, result)
                             if info is not None and result is not None
                             else None)

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def wrap_outermost(self, owner, attr: str, name: str) -> None:
        """Like :meth:`wrap`, but only calls not nested in another call of
        the same function record a span (``run_layers`` recurses)."""
        fn = owner.__dict__[attr]
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                depth[0] -= 1

        wrapper.__wrapped__ = fn
        self._replace(owner, attr, wrapper)

    def wrap_tape_record(self, tape_cls) -> None:
        """Count tape nodes and time each recorded VJP when backward runs.

        A VJP recorded while an ``ops.conv*`` span is open is a conv VJP.
        """
        record = tape_cls.__dict__["record"]
        tracer = self

        def wrapper(tape, inputs, out, vjp):
            tracer.tape_nodes_by_unit[tracer.unit] += 1
            inner = tracer.innermost() or ""
            name = ("tensor.vjp.conv" if inner.startswith("ops.conv")
                    else "tensor.vjp.other")

            def timed_vjp(g):
                idx = tracer.open(name)
                try:
                    return vjp(g)
                finally:
                    tracer.close(idx)

            return record(tape, inputs, out, timed_vjp)

        wrapper.__wrapped__ = record
        self._replace(tape_cls, "record", wrapper)

    def restore(self) -> None:
        """Put every wrapped name back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def wrapped_names(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    # -- aggregation -----------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children
        (children nest inside their parent on one thread, so they cover
        exactly that much of it)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out


def install_all(tracer: Tracer, odsr) -> None:
    """Wrap every layer the benchmark reports on.

    ``odsr`` is a namespace holding the imported modules; names are wrapped
    where their callers look them up (module attributes for ``ops.X``,
    ``resample.X``, ``qm.X`` and ``media.X``; the importing module's own
    binding for names imported with ``from ... import``).
    """
    ops, tensor = odsr.ops, odsr.tensor
    blocks, networks, resample = odsr.blocks, odsr.networks, odsr.resample
    media, metrics, harness, trainer = (odsr.media, odsr.metrics,
                                        odsr.harness, odsr.trainer)

    # engine.ops
    tracer.wrap(ops, "conv2d", lambda a: "ops.conv." + conv_class(a[1]),
                lambda a, k, r: conv_info(a[0], a[1], r))
    tracer.wrap(ops, "conv_transpose2d", "ops.conv_transpose",
                lambda a, k, r: conv_transpose_info(
                    a[0], a[1], a[2] if len(a) > 2 else k.get("bias"), r))
    tracer.wrap(ops, "gelu", "ops.gelu")
    tracer.wrap(ops, "fft2_rc", "ops.fft")
    tracer.wrap(ops, "ifft2_rc", "ops.fft")
    for op in RESIZE_OPS:
        tracer.wrap(ops, op, "ops.resize")
    for op in ELEMENTWISE_OPS:
        tracer.wrap(ops, op, "ops.elementwise")
    for dunder in TENSOR_DUNDERS:
        tracer.wrap(tensor.Tensor, dunder, "ops.elementwise")

    # engine.tensor: tape nodes, VJPs, and the backward the trainer calls
    tracer.wrap_tape_record(tensor.Tape)
    tracer.wrap(trainer, "backward", "tensor.backward")

    # models.blocks: every descriptor's forward, and the outermost layer run
    def descriptor_info(a, k, r):
        layer, x, path = a[0], a[1], a[3]
        n, c, h, w = x.shape
        flops, _ = layer.flops(blocks.Shape(c, h, w))
        return {"path": path, "out_shape": list(r.shape),
                "flops": n * flops}

    for kind in DESCRIPTOR_KINDS:
        tracer.wrap(getattr(blocks, kind), "forward", "blocks." + kind,
                    descriptor_info)
    tracer.wrap_outermost(blocks, "run_layers", "blocks.run_layers")

    # models.networks
    tracer.wrap(networks.Network, "__call__", "networks.forward",
                lambda a, k, r: {"model": a[0].name, "scale": a[0].scale,
                                 "lr_hw": list(a[1].shape[2:])})

    # models.resample (harness looks up resample.X, the trainer its own name)
    sig = inspect.signature(resample.resize_matrix)

    def matrix_key(a, k, r):
        bound = sig.bind(*a, **k)
        bound.apply_defaults()
        return {"key": list(bound.arguments.values())}

    tracer.wrap(resample, "resize_matrix", "resample.resize_matrix",
                matrix_key)
    tracer.wrap(resample, "resize_plane", "resample.resize_plane")
    tracer.wrap(trainer, "resize_plane", "resample.resize_plane")

    # media: the benchmark's own Y4M calls, and the harness's conversions
    tracer.wrap(media, "read_y4m", "media.read_y4m",
                lambda a, k, r: {"bytes": len(a[0])})
    tracer.wrap(media, "write_y4m", "media.write_y4m",
                lambda a, k, r: {"bytes": len(r)})
    for fn in ("yuv420_to_rgb", "rgb_to_yuv420"):
        tracer.wrap(harness, fn, "media." + fn)

    # metrics, as the harness calls them
    for fn in ("ws_ssim", "ssim", "ws_mse", "mse"):
        tracer.wrap(metrics, fn, "metrics." + fn)

    # harness
    for fn in ("frame_to_tensor", "tensor_to_frame", "evaluate_pair"):
        tracer.wrap(harness, fn, "harness." + fn)

    # trainer: the step's stages, at the names train() looks up
    tracer.wrap(trainer, "sample_patch", "trainer.data")
    tracer.wrap(trainer, "augment_pair", "trainer.data")
    tracer.wrap(trainer, "degrade", "trainer.degrade")
    tracer.wrap(trainer, "adam_step", "trainer.adam")

    make_loss = trainer.__dict__["make_loss"]

    def traced_make_loss(cfg):
        loss_fn = make_loss(cfg)

        def traced_loss(*args):
            idx = tracer.open("trainer.loss")
            try:
                return loss_fn(*args)
            finally:
                tracer.close(idx)

        return traced_loss

    traced_make_loss.__wrapped__ = make_loss
    tracer._replace(trainer, "make_loss", traced_make_loss)


def spans_as_records(tracer: Tracer) -> list[dict]:
    """JSON-ready spans, times relative to the first span's start."""
    if not tracer.spans:
        return []
    t0 = tracer.spans[0][START]
    return [{"name": s[NAME], "start_s": s[START] - t0,
             "end_s": s[END] - t0, "parent": s[PARENT],
             "unit": None if s[UNIT] is None else list(s[UNIT]),
             **({"info": s[INFO]} if s[INFO] else {})}
            for s in tracer.spans]
