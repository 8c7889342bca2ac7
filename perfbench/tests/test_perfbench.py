"""The benchmark's own tests: smoke sizes, restored names, conv classes."""
import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
import run
import spans
import workloads
from workloads import (WORKLOADS, EvalSize, SrSize, TrainSize,
                       ws_psnr_oracle)

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# seconds-long sizes of each workload
SMOKE = {"sr-x4-2k": SrSize(lr_hw=(24, 40), band_rows=12),
         "train-x2-p32": TrainSize(frames=2, frame_hw=(64, 64), batch=2,
                                   patch=16),
         "eval-x2-2k": EvalSize(hr_hw=(64, 96))}


def _namespaces(odsr):
    """Every module and class whose names the tracer may replace."""
    owners = [odsr.ops, odsr.tensor.Tensor, odsr.tensor.Tape, odsr.blocks,
              odsr.networks.Network, odsr.resample, odsr.media,
              odsr.metrics, odsr.harness, odsr.trainer]
    owners += [getattr(odsr.blocks, k) for k in spans.DESCRIPTOR_KINDS]
    return owners


def _snapshot(odsr):
    return [(o, dict(vars(o))) for o in _namespaces(odsr)]


def _assert_restored(snapshot):
    for owner, before in snapshot:
        after = dict(vars(owner))
        changed = sorted(k for k in before.keys() | after.keys()
                         if before.get(k) is not after.get(k))
        assert not changed, f"{owner} not restored: {changed}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name):
    w = WORKLOADS[name]
    metrics, attempted, problems, record = run.run_untraced(
        w, seed=0, seconds=0.2, import_s=0.0, size=SMOKE[name])
    assert problems == []
    assert attempted >= 2 * len(record["part_s"])
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    for value, unit in metrics.values():
        assert math.isfinite(value) and value > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_restores_names(name, odsr):
    w = WORKLOADS[name]
    before = _snapshot(odsr)
    metrics, attempted, problems, record, report = run.run_traced(
        w, seed=0, seconds=0.2, odsr=odsr, size=SMOKE[name])
    _assert_restored(before)
    assert problems == []
    assert all(c["ok"] for c in report.checks)
    assert report.checks or name == "eval-x2-2k"
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(math.isfinite(v) for v, _ in metrics.values())


def test_install_wraps_then_restore_puts_back(odsr):
    before = _snapshot(odsr)
    tracer = spans.Tracer()
    spans.install_all(tracer, odsr)
    try:
        wrapped = tracer.wrapped_names()
        assert len(wrapped) > 40
        for owner, attr, original in wrapped:
            assert vars(owner)[attr] is not original
        assert odsr.ops.conv2d.__wrapped__ is dict(before)[odsr.ops]["conv2d"]
    finally:
        tracer.restore()
    _assert_restored(before)


def test_restore_after_failure_inside_traced_call(odsr):
    before = _snapshot(odsr)
    tracer = spans.Tracer()
    spans.install_all(tracer, odsr)
    try:
        with pytest.raises(ValueError):
            odsr.ops.conv2d(odsr.tensor.Tensor(np.zeros((1, 2, 4, 4))),
                            odsr.ops.ConvParams(odsr.tensor.Tensor(
                                np.zeros((1, 3, 3, 3)))))
        assert tracer.spans[-1][spans.END] > 0
    finally:
        tracer.restore()
    _assert_restored(before)


@pytest.mark.parametrize("shape, stride, groups, want", [
    ((8, 4, 3, 3), 1, 1, "dense"),
    ((8, 4, 1, 1), 1, 1, "pointwise"),
    ((4, 1, 3, 3), 1, 4, "depthwise"),
    ((8, 4, 5, 5), 2, 1, "strided"),
])
def test_conv_shape_class(odsr, shape, stride, groups, want):
    w = odsr.tensor.Tensor(np.ones(shape, dtype=np.float32))
    p = odsr.ops.ConvParams(w, stride=stride, padding=shape[2] // 2,
                            groups=groups)
    assert spans.conv_class(p) == want
    x = odsr.tensor.Tensor(np.ones((2, shape[1] * groups, 10, 12),
                                   dtype=np.float32))
    out = odsr.ops.conv2d(x, p)
    layer = odsr.blocks.Conv(shape[1] * groups, shape[0], shape[2], stride,
                             shape[2] // 2, groups)
    flops, _ = layer.flops(odsr.blocks.Shape(*x.shape[1:]))
    assert spans.conv_info(x, p, out)["flops"] == 2 * flops


def test_sr_digest_check(odsr, monkeypatch, tmp_path):
    net = odsr.harness.make_model("athena", workloads.SR_SCALE)
    assert workloads.verify_digest("athena", net) == []
    recorded = json.loads(workloads.DIGEST_PATH.read_text())
    recorded["athena"]["mean"][0] += 1e-2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(recorded))
    monkeypatch.setattr(workloads, "DIGEST_PATH", wrong)
    assert "digest mean" in " ".join(workloads.verify_digest("athena", net))
    monkeypatch.setattr(workloads, "DIGEST_PATH", tmp_path / "none.json")
    assert workloads.verify_digest("athena", net) != []


def test_self_time_subtracts_children():
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    tracer.unit = ("p", 1)
    outer = tracer.open("outer")
    for _ in range(2):
        tracer.close(tracer.open("inner"))
    tracer.close(outer)
    assert tracer.self_seconds() == [10.0 - 2.0 - 2.0, 2.0, 2.0]


def test_measure_divides_each_unit_by_the_references_around_it(monkeypatch):
    ticks = iter([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])  # two units of 1 s
    monkeypatch.setattr(run.time, "perf_counter",
                        lambda: next(ticks, 100.0))
    refs = iter([2.0, 4.0, 8.0])
    parts = [workloads.Part(n, lambda: None, lambda out: [], n)
             for n in ("a", "b")]
    samples, ratios, attempted, problems = run.measure(
        parts, 0.0, 1, warmup=0, reference=lambda: next(refs))
    assert attempted == 2 and problems == []
    assert samples == {"a": [1.0], "b": [1.0]}
    assert ratios == {"a": [1.0 / 3.0], "b": [1.0 / 6.0]}


def test_reference_kernel_allocates_nothing_while_timed():
    ref = reference.Reference()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert ref() > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2 ** 16


def test_ws_psnr_oracle_matches_metric(odsr):
    rng = np.random.default_rng(3)
    ref = rng.integers(0, 256, (36, 64), dtype=np.uint8)
    test = rng.integers(0, 256, (36, 64), dtype=np.uint8)
    assert ws_psnr_oracle(ref, test) == pytest.approx(
        odsr.metrics.ws_psnr(ref, test), abs=1e-9)
    assert ws_psnr_oracle(ref, ref) == math.inf


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sr-x4-2k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
