"""The names perfbench's tracer wraps still exist in ``odsr``.

``perfbench/spans.py`` replaces ``odsr`` functions and methods by name for a
traced run (``perfbench/run.py --trace 1``). A rename in ``src/`` would make
that run fail with a ``KeyError``; this test fails first.
"""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from odsr import harness, media, metrics, trainer
from odsr.engine import ops, tensor
from odsr.models import blocks, builders, networks, resample

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules():
    return SimpleNamespace(ops=ops, tensor=tensor, blocks=blocks,
                           networks=networks, resample=resample, media=media,
                           metrics=metrics, harness=harness, trainer=trainer)


def test_install_all_wraps_and_restore_puts_back():
    spans = _load_spans()
    odsr = _modules()
    net = networks.Network.init(builders.build("vacv", 2), seed=0)
    x = tensor.Tensor(np.random.default_rng(0).random((1, 3, 8, 8),
                                                       dtype=np.float32))
    want = net(x).data
    tracer = spans.Tracer()
    spans.install_all(tracer, odsr)
    try:
        wrapped = tracer.wrapped_names()
        got = net(x).data
    finally:
        tracer.restore()
    assert wrapped
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original
    np.testing.assert_array_equal(got, want)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"networks.forward", "blocks.UpsampleAddSkip"} <= names
    # vacv's upsampling tail is a transposed conv the per-layer metrics count
    assert any(s[spans.NAME] == "ops.conv_transpose"
               and tracer.spans[s[spans.PARENT]][spans.NAME]
               == "blocks.UpsampleAddSkip" for s in tracer.spans)


def test_traced_training_step_matches_untraced():
    # the traced train workload wraps Tape.record and trainer.backward; a
    # step under the wrappers must train exactly as without them
    spans = _load_spans()
    frames = trainer.synthetic_frames(1, hw=(64, 64), seed=1)
    cfg = trainer.TrainConfig(iterations=1, batch=2, patch=8, seed=0)

    def step():
        net = networks.Network.init(builders.build("fsrcnn", 2), seed=0)
        return trainer.train(net, frames, cfg)

    want = step()
    tracer = spans.Tracer()
    spans.install_all(tracer, _modules())
    try:
        got = step()
    finally:
        tracer.restore()
    assert got.losses == want.losses
    for k, t in want.network.params.items():
        np.testing.assert_array_equal(got.network.params[k].data, t.data)
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"tensor.backward", "tensor.vjp.conv"} <= names
