"""Per-layer metrics, per-descriptor tables and self-checks of a traced run.

Every ``.ms``, ``.calls``, ``.flops`` and ``.bytes`` value is per work unit:
for each part, the layer's total over the timed units of the traced phase,
divided by their number and scaled like the part's time (``Part.per_unit``),
then summed over the parts.  So the ``ops.*`` and ``trainer.*`` times of a
workload add up to (traced) ``unit_s``.  ``.ms`` is inclusive time, except
``blocks.<Kind>.self_ms``, ``tensor.backward.ms`` (the tape walk without the
VJPs) and ``ops.elementwise.ms`` (``grn`` without the ops it calls, which
count themselves), which are self time.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import (CONV_CLASSES, END, INFO, NAME, PARENT, START, UNIT,
                   spans_as_records)

SELF_TIMED = {"ops.elementwise", "tensor.backward"}
SPLIT_MARGIN = 0.05  # the measured stages must cover >= 95% of their total
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["per_layer"]]


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    checks: list[dict] = field(default_factory=list)
    tables: dict[str, list[dict]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    text: list[str] = field(default_factory=list)


def _totals(tracer, scale: dict[str, float]):
    """Per span name: per-unit inclusive s, self s, calls, flops, bytes."""
    counts = defaultdict(int)
    for s in tracer.spans:
        if s[NAME] == "unit" and s[UNIT][1] > 0:
            counts[s[UNIT][0]] += 1
    selfs = tracer.self_seconds()
    acc = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(tracer.spans):
        part, k = s[UNIT]
        if k == 0:
            continue
        w = scale[part] / counts[part]
        a = acc[s[NAME]]
        a["incl"] += (s[END] - s[START]) * w
        a["self"] += selfs[i] * w
        a["calls"] += w
        for key in ("flops", "bytes"):
            if s[INFO] and key in s[INFO]:
                a[key] += s[INFO][key] * w
    return acc, counts


def per_layer(workload: str, parts, tracer, mem, plain: dict[str, float],
              traced: dict[str, float], odsr) -> Report:
    scale = {p.name: p.per_unit for p in parts}
    acc, counts = _totals(tracer, scale)
    ms = {}
    for name, a in acc.items():
        ms[name] = 1e3 * (a["self"] if name in SELF_TIMED
                          or name.startswith("blocks.") else a["incl"])
    m: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}

    for cls in CONV_CLASSES + ("transpose",):
        span = "ops.conv_transpose" if cls == "transpose" else f"ops.conv.{cls}"
        a = acc.get(span)
        if a:
            m[f"{span}.calls"] = a["calls"]
            m[f"{span}.flops"] = a["flops"]
            m[f"{span}.bytes"] = a["bytes"]
            m[f"{span}.gflops_per_s"] = a["flops"] / (ms[span] * 1e6)
    for name, unit, _ in PER_LAYER:  # "<span>.ms" and "<span>.self_ms"
        span = name.rsplit(".", 1)[0]
        if unit == "ms" and span in ms:
            m[name] = ms[span]
    if "tensor.backward" in acc:  # the trainer's view includes the VJPs
        m["trainer.backward.ms"] = 1e3 * acc["tensor.backward"]["incl"]
    m["resample.resize_matrix.calls"] = acc.get(
        "resample.resize_matrix", {}).get("calls", 0.0)
    m["media.bytes"] = sum(acc[n]["bytes"] for n in
                           ("media.read_y4m", "media.write_y4m") if n in acc)
    m["tensor.tape_nodes"] = sum(
        n * scale[part] / counts[part]
        for (part, k), n in tracer.tape_nodes_by_unit.items() if k > 0)
    m["resample.resize_matrix.reuse_ratio"] = _reuse_ratio(tracer)
    m["trace.overhead_ratio"] = sum(traced.values()) / sum(plain.values())

    report = Report(metrics={})
    if workload == "sr-x4-2k":
        _sr_tables(report, parts, tracer, mem, plain, m, odsr)
    elif workload == "train-x2-p32":
        _trainer_split(report, tracer, mem, scale, counts, m)
    for p in parts:
        if p.metric not in m:
            raise KeyError(f"part metric {p.metric} is not in BENCHMARK.json")
        m[p.metric] = plain[p.name]
    report.metrics = {name: (m[name], unit) for name, unit, _ in PER_LAYER}
    report.spans = spans_as_records(tracer)
    for c in report.checks:
        report.text.append(f"self-check {c['name']}: "
                           f"{'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    return report


def _reuse_ratio(tracer) -> float:
    keys = [tuple(s[INFO]["key"]) for s in tracer.spans
            if s[NAME] == "resample.resize_matrix" and s[INFO]
            and s[UNIT][1] > 0]
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def _sr_tables(report, parts, tracer, mem, plain, m, odsr) -> None:
    """Per-descriptor table and FLOP / ms self-checks for each network."""
    blocks, builders, networks = odsr.blocks, odsr.builders, odsr.networks
    by_path = defaultdict(list)   # (model, path) -> [(ms, info)]
    forward_ms = defaultdict(list)
    model_of_unit = {}
    for s in tracer.spans:
        if s[NAME] == "networks.forward" and s[UNIT][1] > 0:
            model_of_unit[s[UNIT]] = s[INFO]["model"]
            forward_ms[s[INFO]["model"]].append(1e3 * (s[END] - s[START]))
    for s in tracer.spans:
        if s[NAME].startswith("blocks.") and s[INFO] and s[UNIT] in \
                model_of_unit:
            key = (model_of_unit[s[UNIT]], s[INFO]["path"])
            by_path[key].append((1e3 * (s[END] - s[START]), s[INFO]))
    # conv FLOPs counted at ops level from the real tensor shapes, against
    # flops() of the Conv / ConvTranspose descriptor each call runs in
    # (composite blocks call the conv ops themselves, so they are left out)
    conv_ops = defaultdict(int)
    conv_desc = defaultdict(int)
    for s in tracer.spans:
        if s[NAME].startswith("ops.conv") and s[UNIT] in model_of_unit \
                and s[PARENT] >= 0:
            parent = tracer.spans[s[PARENT]]
            if parent[NAME] in ("blocks.Conv", "blocks.ConvTranspose"):
                model = model_of_unit[s[UNIT]]
                conv_ops[model] += s[INFO]["flops"]
                conv_desc[model] += parent[INFO]["flops"]
    peaks = {}
    mem_model = {s[UNIT]: s[INFO]["model"] for s in mem.spans
                 if s[NAME] == "networks.forward"}
    for s in mem.spans:
        if s[NAME].startswith("blocks.") and s[INFO] and "path" in s[INFO]:
            peaks[(mem_model[s[UNIT]], s[INFO]["path"])] = \
                s[INFO]["peak_bytes"]
    for part in parts:
        model = part.name
        fwd_info = next(s[INFO] for s in tracer.spans
                        if s[NAME] == "networks.forward"
                        and s[INFO]["model"] == model)
        lr_hw = fwd_info["lr_hw"]
        spec = builders.build(model, fwd_info["scale"])
        rows = []
        top_flops = top_ms = 0.0
        for path, layer in blocks.iter_descriptors(spec.layers, "net"):
            seen = by_path.get((model, path), [])
            if not seen:
                continue
            t = sum(x for x, _ in seen) / len(seen)
            info = seen[0][1]
            row = {"path": path, "kind": type(layer).__name__,
                   "out_shape": info["out_shape"], "flops": info["flops"],
                   "ms": t, "gflops_per_s": info["flops"] / (t * 1e6),
                   "peak_bytes": peaks.get((model, path), 0)}
            rows.append(row)
            if path.count(".") == 1:
                top_flops += info["flops"]
                top_ms += t
        report.tables[model] = rows
        want = networks.count_flops(spec, tuple(lr_hw))
        report.checks.append({
            "name": f"{model}.flops", "ok": top_flops == want,
            "detail": f"top-level descriptor FLOPs {int(top_flops)} vs "
                      f"count_flops {want}"})
        report.checks.append({
            "name": f"{model}.conv_flops",
            "ok": conv_desc[model] > 0 and conv_ops[model] == conv_desc[model],
            "detail": f"ops-level conv FLOPs {conv_ops[model]} vs "
                      f"Conv/ConvTranspose descriptor FLOPs "
                      f"{conv_desc[model]}, over "
                      f"{len(forward_ms[model])} forwards"})
        fwd = sum(forward_ms[model]) / len(forward_ms[model])
        ratio = top_ms / fwd
        report.checks.append({
            "name": f"{model}.ms", "ok": 1.0 - SPLIT_MARGIN <= ratio <= 1.0,
            "detail": f"top-level descriptor ms {top_ms:.2f} = "
                      f"{ratio:.4f} of forward {fwd:.2f} ms "
                      f"(margin {SPLIT_MARGIN})"})
        m[f"networks.{model}.gflops_per_s"] = want / (plain[model] * 1e9)
        report.text.append(f"descriptors {model} (lr {lr_hw[0]}x{lr_hw[1]}):"
                           " path kind out_shape flops ms GFLOP/s peak_bytes")
        for r in rows:
            report.text.append(
                f"  {r['path']} {r['kind']} {r['out_shape']} {r['flops']} "
                f"{r['ms']:.3f} {r['gflops_per_s']:.3f} {r['peak_bytes']}")


def _trainer_split(report, tracer, mem, scale, counts, m) -> None:
    """trainer.forward (layers plus loss), trainer.peak_bytes, and the
    data+forward+backward+adam check against the step."""
    stage = {"trainer.data": "data", "blocks.run_layers": "forward",
             "trainer.loss": "forward", "tensor.backward": "backward",
             "trainer.adam": "adam"}
    sums = defaultdict(float)
    step_total = 0.0
    for s in tracer.spans:
        part, k = s[UNIT]
        if k == 0:
            continue
        w = scale[part] / counts[part]
        if s[NAME] == "unit":
            step_total += (s[END] - s[START]) * w
        elif s[NAME] in stage and tracer.spans[s[PARENT]][NAME] == "unit":
            sums[stage[s[NAME]]] += (s[END] - s[START]) * w
    m["trainer.forward.ms"] = 1e3 * sums["forward"]
    covered = sum(sums.values())
    ratio = covered / step_total
    report.checks.append({
        "name": "trainer.split", "ok": 1.0 - SPLIT_MARGIN <= ratio <= 1.0,
        "detail": f"data+forward+backward+adam {1e3 * covered:.2f} ms = "
                  f"{ratio:.4f} of step {1e3 * step_total:.2f} ms "
                  f"(margin {SPLIT_MARGIN})"})
    m["trainer.peak_bytes"] = max(
        (s[INFO]["peak_bytes"] for s in mem.spans if s[NAME] == "unit"),
        default=0)
