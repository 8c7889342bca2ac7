"""Command-line front end.

Subcommands: run, metrics, bdrate, score-q, leaderboard, params, flops,
surface, train.  Every subcommand accepts ``--config FILE`` (plain-text
``key = value`` lines, ``#`` comments; keys are the long flag names) whose
values act as defaults that explicit flags override.  Output goes to
stdout, or to ``--out PATH`` when given.  Exit codes: 0 success, 2 bad
input, 1 internal error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bdrate as bd
from . import harness, media, trainer
from .models import builders, checkpoint, networks
from .score import ScoreParams, q_score, score_surface_csv

_FIG_DEFAULTS = ScoreParams.for_scale(2)


def load_config(path) -> dict[str, str]:
    """Parse ``key = value`` lines; keys are normalized to underscores."""
    out = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', "
                             f"got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
               "0": False, "false": False, "off": False, "no": False}


def _to_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


class _Options:
    """Merged view of CLI flags, config-file entries, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if args.config else {}

    def get(self, key: str, conv=str, default=None, required: bool = False):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None and key.replace("-", "_") in self.cfg:
            raw = self.cfg[key.replace("-", "_")]
            value = conv(raw) if conv is not None else raw
        if value is None:
            value = default
        if value is None and required:
            raise ValueError(f"missing required option --{key}")
        return value


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _score_params(opt: _Options) -> ScoreParams:
    scale = opt.get("scale", int)
    base = ScoreParams.for_scale(scale) if scale else _FIG_DEFAULTS
    return ScoreParams(
        psnr_min=opt.get("min", float, base.psnr_min),
        psnr_max=opt.get("max", float, base.psnr_max),
        beta=opt.get("beta", float, base.beta),
        penalty_rate=opt.get("bmax", float, base.penalty_rate),
        rt_threshold=opt.get("threshold", float, base.rt_threshold))


def _add_score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, choices=(2, 4),
                   help="pick the published per-scale PSNR span")
    p.add_argument("--min", type=float, help="PSNR floor (0%% quality)")
    p.add_argument("--max", type=float, help="PSNR ceiling (100%% quality)")
    p.add_argument("--beta", type=float, help="quality/runtime blend")
    p.add_argument("--bmax", type=float, help="runtime penalty rate")
    p.add_argument("--threshold", type=float,
                   help="real-time threshold in seconds")


# -- subcommand bodies --------------------------------------------------------

def _cmd_run(opt: _Options) -> int:
    name = opt.get("model", required=True)
    scale = opt.get("scale", int, required=True)
    seq = media.load_sequence(opt.get("input", required=True))
    out_path = opt.get("out", required=True)
    model = harness.make_model(name, scale, opt.get("checkpoint"),
                               seed=opt.get("seed", int, 0))
    frames = list(harness.run_sequence(model, seq.frames))
    media.save_sequence(out_path, media.VideoSequence(
        frames, seq.fps, seq.extra_header, seq.frame_markers))
    print(f"{name} x{scale}: {len(frames)} frames "
          f"{seq.width}x{seq.height} -> {frames[0].width}x"
          f"{frames[0].height} written to {out_path}")
    return 0


def _cmd_metrics(opt: _Options) -> int:
    ref = media.load_sequence(opt.get("ref", required=True))
    test = media.load_sequence(opt.get("test", required=True))
    report = harness.evaluate_pair(
        ref.frames, test.frames,
        plane=opt.get("plane", str, "y"),
        workers=opt.get("workers", int))
    lines = ["frame,ws_psnr,ws_ssim,psnr,ssim"]
    for i in range(len(report.ws_psnr)):
        lines.append(f"{i},{report.ws_psnr[i]:.6f},{report.ws_ssim[i]:.6f},"
                     f"{report.psnr[i]:.6f},{report.ssim[i]:.6f}")
    lines.append(f"mean,{report.mean_ws_psnr:.6f},{report.mean_ws_ssim:.6f},"
                 f"{report.mean_psnr:.6f},{report.mean_ssim:.6f}")
    _emit("\n".join(lines) + "\n", opt.get("out"))
    return 0


def _cmd_bdrate(opt: _Options) -> int:
    anchor = bd.read_rd_csv(Path(opt.get("anchor", required=True)).read_text())
    test = bd.read_rd_csv(Path(opt.get("test", required=True)).read_text())
    metric = opt.get("metric", str, "rate")
    if metric == "rate":
        _emit(f"{bd.bd_rate(anchor, test):+.4f}%", opt.get("out"))
    elif metric == "quality":
        _emit(f"{bd.bd_quality(anchor, test):+.4f} dB", opt.get("out"))
    else:
        raise ValueError(f"unknown bdrate metric {metric!r} (rate|quality)")
    return 0


def _cmd_score_q(opt: _Options) -> int:
    params = _score_params(opt)
    q = q_score(opt.get("ws-psnr", float, required=True),
                opt.get("runtime", float, required=True), params)
    _emit(f"{q:.2f}", opt.get("out"))
    return 0


def _cmd_leaderboard(opt: _Options) -> int:
    published = opt.get("published", int)
    csv_path = opt.get("entries")
    if (published is None) == (csv_path is None):
        raise ValueError("give exactly one of --entries CSV or "
                         "--published SCALE")
    if published is not None:
        entries = harness.entries_from_published(published)
        if opt.get("scale", int) is None:
            opt.cfg.setdefault("scale", str(published))
    else:
        entries = harness.parse_leaderboard_csv(Path(csv_path).read_text())
    params = _score_params(opt)
    fmt = opt.get("format", str, "markdown")
    if fmt == "markdown":
        text = harness.emit_leaderboard_markdown(entries, params)
    elif fmt == "csv":
        text = harness.emit_leaderboard_csv(entries, params)
    else:
        raise ValueError(f"unknown format {fmt!r} (markdown|csv)")
    _emit(text, opt.get("out"))
    return 0


def _cmd_params(opt: _Options) -> int:
    spec = builders.build(opt.get("model", required=True),
                          opt.get("scale", int, required=True))
    lines = []
    if opt.get("detail", _to_bool, False):
        for ps in networks.param_specs(spec):
            n = int(np.prod(ps.shape))
            lines.append(f"{ps.name},{n},{'x'.join(map(str, ps.shape))}")
    total = networks.count_params(spec)
    lines.append(f"total,{total},{total / 1000.0:.3f}K")
    _emit("\n".join(lines) + "\n", opt.get("out"))
    return 0


def _cmd_flops(opt: _Options) -> int:
    name = opt.get("model", required=True)
    scale = opt.get("scale", int, required=True)
    spec = builders.build(name, scale)
    height = opt.get("height", int, 1080 // scale)
    width = opt.get("width", int, 1920 // scale)
    flops = networks.count_flops(spec, (height, width))
    _emit(f"{name} x{scale} on {height}x{width} LR input: "
          f"{flops / 1e9:.3f} G-FLOPs", opt.get("out"))
    return 0


def _cmd_surface(opt: _Options) -> int:
    params = _score_params(opt)
    p0 = opt.get("psnr-lo", float, params.psnr_min)
    p1 = opt.get("psnr-hi", float, params.psnr_max)
    t0 = opt.get("rt-lo", float, 0.001)
    t1 = opt.get("rt-hi", float, 0.1)
    np_steps = opt.get("psnr-steps", int, 23)
    nt_steps = opt.get("rt-steps", int, 25)
    if np_steps < 2 or nt_steps < 2:
        raise ValueError("surface needs at least a 2x2 grid")
    text = score_surface_csv(params,
                             np.linspace(p0, p1, np_steps),
                             np.linspace(t0, t1, nt_steps))
    _emit(text, opt.get("out"))
    return 0


_TRAIN_SETTINGS = {
    "iterations": int, "batch": int, "patch": int, "lr": float, "loss": str,
    "seed": int, "flip": _to_bool, "rot90": _to_bool, "mixup": _to_bool,
    "mixup_alpha": float, "fft_weight": float, "decay_every": int,
    "decay_factor": float,
}


def _cmd_train(opt: _Options) -> int:
    name = opt.get("model", required=True)
    scale = opt.get("scale", int, required=True)
    source = opt.get("frames", str, "synthetic")
    if source == "synthetic":
        frames = trainer.synthetic_frames(
            opt.get("synthetic-count", int, 8),
            seed=opt.get("frame-seed", int, 0))
    else:
        frames = media.load_sequence(source).frames
    # only the settings given reach TrainConfig, so its defaults apply
    given = {key: opt.get(key, conv) for key, conv in _TRAIN_SETTINGS.items()}
    cfg = trainer.TrainConfig(
        **{k: v for k, v in given.items() if v is not None})
    net = harness.make_model(name, scale, opt.get("checkpoint"),
                             seed=opt.get("init-seed", int, 0))
    result = trainer.train(net, frames, cfg)
    ckpt_out = opt.get("checkpoint-out")
    if ckpt_out:
        checkpoint.save_checkpoint(ckpt_out, result.network)
    _emit(trainer.loss_trace_csv(result), opt.get("out"))
    # average the first/last 10 steps, shrinking so short runs keep the
    # two windows disjoint
    win = max(1, min(10, len(result.losses) // 2))
    first = float(np.mean(result.losses[:win]))
    last = float(np.mean(result.losses[-win:]))
    print(f"{name} x{scale}: {cfg.iterations} iters in "
          f"{result.seconds:.1f}s; loss {first:.5f} -> {last:.5f}"
          + (f"; weights saved to {ckpt_out}" if ckpt_out else ""),
          file=sys.stderr)
    return 0


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odsr",
        description="360-degree video super-resolution benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key = value defaults file")
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = add("run", _cmd_run, "upscale a sequence with a model")
    p.add_argument("--model", choices=harness.model_names())
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--checkpoint", help="weights to load")
    p.add_argument("--seed", type=int, help="init seed when no checkpoint")
    p.add_argument("--input", help=".y4m file or directory of PPM frames")

    p = add("metrics", _cmd_metrics, "frame metrics between two sequences")
    p.add_argument("--ref", help="reference sequence path")
    p.add_argument("--test", help="test sequence path")
    p.add_argument("--plane", choices=("y", "rgb-mean"))
    p.add_argument("--workers", type=int, help="parallel frame workers")

    p = add("bdrate", _cmd_bdrate, "Bjontegaard delta between RD curves")
    p.add_argument("--anchor", help="anchor bitrate,quality CSV")
    p.add_argument("--test", help="test bitrate,quality CSV")
    p.add_argument("--metric", choices=("rate", "quality"))

    p = add("score-q", _cmd_score_q, "challenge score Q for one result")
    p.add_argument("--ws-psnr", type=float, help="WS-PSNR in dB")
    p.add_argument("--runtime", type=float, help="seconds per 2K frame")
    _add_score_flags(p)

    p = add("leaderboard", _cmd_leaderboard, "rank entries by score Q")
    p.add_argument("--entries", help="leaderboard CSV to rank")
    p.add_argument("--published", type=int, choices=(2, 4),
                   help="use the published challenge rows for this scale")
    p.add_argument("--format", choices=("markdown", "csv"))
    _add_score_flags(p)

    p = add("params", _cmd_params, "parameter count of a model")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--detail", action="store_const", const=True,
                   help="per-parameter rows")

    p = add("flops", _cmd_flops, "G-FLOPs of a model at a resolution")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--height", type=int, help="LR input height")
    p.add_argument("--width", type=int, help="LR input width")

    p = add("surface", _cmd_surface, "score-Q surface grid as CSV")
    _add_score_flags(p)
    p.add_argument("--psnr-lo", type=float)
    p.add_argument("--psnr-hi", type=float)
    p.add_argument("--psnr-steps", type=int)
    p.add_argument("--rt-lo", type=float)
    p.add_argument("--rt-hi", type=float)
    p.add_argument("--rt-steps", type=int)

    p = add("train", _cmd_train, "desk-scale training run")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--frames", help="'synthetic', .y4m, or PPM directory")
    p.add_argument("--synthetic-count", type=int)
    p.add_argument("--frame-seed", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--patch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--loss", choices=trainer.LOSSES)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-seed", type=int)
    p.add_argument("--flip", type=_to_bool, metavar="BOOL")
    p.add_argument("--rot90", type=_to_bool, metavar="BOOL")
    p.add_argument("--mixup", type=_to_bool, metavar="BOOL")
    p.add_argument("--mixup-alpha", type=float)
    p.add_argument("--fft-weight", type=float)
    p.add_argument("--decay-every", type=int)
    p.add_argument("--decay-factor", type=float)
    p.add_argument("--checkpoint", help="starting weights")
    p.add_argument("--checkpoint-out", help="where to save trained weights")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_Options(args))
    except (ValueError, OSError) as exc:
        print(f"odsr: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"odsr: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
