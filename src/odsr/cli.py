"""Command-line front end.

Subcommands: run, metrics, bdrate, score-q, leaderboard, params, flops,
surface, train.  Every subcommand accepts ``--config FILE`` (plain-text
``key = value`` lines, ``#`` comments; keys are the long flag names).  A
line whose key the subcommand declares is parsed by that flag, as if given
before the flags, so it gets the flag's checks and explicit flags override
it; other keys are ignored, so one file can serve several subcommands.
Output goes to stdout, or to ``--out PATH`` when given.  Exit codes: 0
success, 2 bad input, 1 internal error.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import bdrate as bd
from . import harness, media, trainer
from .models import builders, checkpoint, networks
from .score import ScoreParams, published_results, q_score, score_surface_csv

_FIG_DEFAULTS = ScoreParams.for_scale(2)


def load_config(path) -> list[tuple[int, str, str]]:
    """Parse ``key = value`` lines into (line number, key, value) in file
    order; keys are normalized to underscores."""
    out = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value', "
                             f"got {raw!r}")
        key, value = line.split("=", 1)
        out.append((ln, key.strip().replace("-", "_"), value.strip()))
    return out


_BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
               "0": False, "false": False, "off": False, "no": False}


def _to_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _need(args: argparse.Namespace, key: str):
    value = getattr(args, key.replace("-", "_"))
    if value is None:
        raise ValueError(f"missing required option --{key}")
    return value


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _score_params(args: argparse.Namespace) -> ScoreParams:
    base = ScoreParams.for_scale(args.scale) if args.scale else _FIG_DEFAULTS
    return ScoreParams(
        psnr_min=base.psnr_min if args.min is None else args.min,
        psnr_max=base.psnr_max if args.max is None else args.max,
        beta=args.beta, penalty_rate=args.bmax,
        rt_threshold=args.threshold)


def _add_score_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=int, choices=(2, 4),
                   help="pick the published per-scale PSNR span")
    p.add_argument("--min", type=float, help="PSNR floor (0%% quality)")
    p.add_argument("--max", type=float, help="PSNR ceiling (100%% quality)")
    p.add_argument("--beta", type=float, default=ScoreParams.beta,
                   help="quality/runtime blend")
    p.add_argument("--bmax", type=float, default=ScoreParams.penalty_rate,
                   help="runtime penalty rate")
    p.add_argument("--threshold", type=float,
                   default=ScoreParams.rt_threshold,
                   help="real-time threshold in seconds")


# -- subcommand bodies --------------------------------------------------------

def _cmd_run(args: argparse.Namespace) -> int:
    name, scale = _need(args, "model"), _need(args, "scale")
    seq = media.load_sequence(_need(args, "input"))
    out_path = _need(args, "out")
    model = harness.make_model(name, scale, args.checkpoint, seed=args.seed)
    # a PPM directory stores colour as RGB: encode the network's RGB output
    # as such, not through 4:2:0 and back
    to_ppm = Path(out_path).suffix.lower() != ".y4m"
    layout = "rgb8" if to_ppm and seq.layout == "yuv420" else None
    frames = list(harness.run_sequence(model, seq.frames, layout))
    media.save_sequence(out_path, media.VideoSequence(
        frames, seq.fps, seq.extra_header, seq.frame_markers))
    print(f"{name} x{scale}: {len(frames)} frames "
          f"{seq.width}x{seq.height} -> {frames[0].width}x"
          f"{frames[0].height} written to {out_path}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    ref = media.load_sequence(_need(args, "ref"))
    test = media.load_sequence(_need(args, "test"))
    report = harness.evaluate_pair(ref.frames, test.frames, plane=args.plane)
    lines = ["frame,ws_psnr,ws_ssim,psnr,ssim"]
    for i in range(len(report.ws_psnr)):
        lines.append(f"{i},{report.ws_psnr[i]:.6f},{report.ws_ssim[i]:.6f},"
                     f"{report.psnr[i]:.6f},{report.ssim[i]:.6f}")
    lines.append(f"mean,{report.mean_ws_psnr:.6f},{report.mean_ws_ssim:.6f},"
                 f"{report.mean_psnr:.6f},{report.mean_ssim:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bdrate(args: argparse.Namespace) -> int:
    anchor = bd.read_rd_csv(Path(_need(args, "anchor")).read_text())
    test = bd.read_rd_csv(Path(_need(args, "test")).read_text())
    if args.metric == "rate":
        _emit(f"{bd.bd_rate(anchor, test):+.4f}%", args.out)
    else:
        _emit(f"{bd.bd_quality(anchor, test):+.4f} dB", args.out)
    return 0


def _cmd_score_q(args: argparse.Namespace) -> int:
    params = _score_params(args)
    q = q_score(_need(args, "ws-psnr"), _need(args, "runtime"), params)
    _emit(f"{q:.2f}", args.out)
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    if (args.published is None) == (args.entries is None):
        raise ValueError("give exactly one of --entries CSV or "
                         "--published SCALE")
    if args.published is not None:
        entries = published_results(args.published)
        if args.scale is None:
            args.scale = args.published
    else:
        entries = harness.parse_leaderboard_csv(
            Path(args.entries).read_text())
    params = _score_params(args)
    if args.format == "markdown":
        text = harness.emit_leaderboard_markdown(entries, params)
    else:
        text = harness.emit_leaderboard_csv(entries, params)
    _emit(text, args.out)
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    spec = builders.build(_need(args, "model"), _need(args, "scale"))
    lines = []
    if args.detail:
        for ps in networks.param_specs(spec):
            n = int(np.prod(ps.shape))
            lines.append(f"{ps.name},{n},{'x'.join(map(str, ps.shape))}")
    total = networks.count_params(spec)
    lines.append(f"total,{total},{total / 1000.0:.3f}K")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_flops(args: argparse.Namespace) -> int:
    name, scale = _need(args, "model"), _need(args, "scale")
    spec = builders.build(name, scale)
    height = 1080 // scale if args.height is None else args.height
    width = 1920 // scale if args.width is None else args.width
    flops = networks.count_flops(spec, (height, width))
    _emit(f"{name} x{scale} on {height}x{width} LR input: "
          f"{flops / 1e9:.3f} G-FLOPs", args.out)
    return 0


def _cmd_surface(args: argparse.Namespace) -> int:
    params = _score_params(args)
    p0 = params.psnr_min if args.psnr_lo is None else args.psnr_lo
    p1 = params.psnr_max if args.psnr_hi is None else args.psnr_hi
    if args.psnr_steps < 2 or args.rt_steps < 2:
        raise ValueError("surface needs at least a 2x2 grid")
    text = score_surface_csv(params,
                             np.linspace(p0, p1, args.psnr_steps),
                             np.linspace(args.rt_lo, args.rt_hi,
                                         args.rt_steps))
    _emit(text, args.out)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    name, scale = _need(args, "model"), _need(args, "scale")
    if args.frames == "synthetic":
        frames = trainer.synthetic_frames(args.synthetic_count,
                                          seed=args.frame_seed)
    else:
        frames = media.load_sequence(args.frames).frames
    # only the settings given reach TrainConfig, so its defaults apply
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(trainer.TrainConfig)}
    cfg = trainer.TrainConfig(
        **{k: v for k, v in given.items() if v is not None})
    net = harness.make_model(name, scale, args.checkpoint,
                             seed=args.init_seed)
    result = trainer.train(net, frames, cfg)
    ckpt_out = args.checkpoint_out
    if ckpt_out:
        checkpoint.save_checkpoint(ckpt_out, result.network)
    _emit(trainer.loss_trace_csv(result), args.out)
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

def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The ``odsr`` parser and its subcommand parsers by name."""
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
    p.add_argument("--seed", type=int, default=0,
                   help="init seed when no checkpoint")
    p.add_argument("--input", help=".y4m file or directory of PPM frames")

    p = add("metrics", _cmd_metrics, "frame metrics between two sequences")
    p.add_argument("--ref", help="reference sequence path")
    p.add_argument("--test", help="test sequence path")
    p.add_argument("--plane", choices=("y", "rgb-mean"), default="y")

    p = add("bdrate", _cmd_bdrate, "Bjontegaard delta between RD curves")
    p.add_argument("--anchor", help="anchor bitrate,quality CSV")
    p.add_argument("--test", help="test bitrate,quality CSV")
    p.add_argument("--metric", choices=("rate", "quality"), default="rate")

    p = add("score-q", _cmd_score_q, "challenge score Q for one result")
    p.add_argument("--ws-psnr", type=float, help="WS-PSNR in dB")
    p.add_argument("--runtime", type=float, help="seconds per 2K frame")
    _add_score_flags(p)

    p = add("leaderboard", _cmd_leaderboard, "rank entries by score Q")
    p.add_argument("--entries", help="leaderboard CSV to rank")
    p.add_argument("--published", type=int, choices=(2, 4),
                   help="use the published challenge rows for this scale")
    p.add_argument("--format", choices=("markdown", "csv"),
                   default="markdown")
    _add_score_flags(p)

    p = add("params", _cmd_params, "parameter count of a model")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--detail", type=_to_bool, nargs="?", const=True,
                   metavar="BOOL", help="per-parameter rows")

    p = add("flops", _cmd_flops, "G-FLOPs of a model at a resolution")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--height", type=int, help="LR input height")
    p.add_argument("--width", type=int, help="LR input width")

    p = add("surface", _cmd_surface, "score-Q surface grid as CSV")
    _add_score_flags(p)
    p.add_argument("--psnr-lo", type=float)
    p.add_argument("--psnr-hi", type=float)
    p.add_argument("--psnr-steps", type=int, default=23)
    p.add_argument("--rt-lo", type=float, default=0.001)
    p.add_argument("--rt-hi", type=float, default=0.1)
    p.add_argument("--rt-steps", type=int, default=25)

    p = add("train", _cmd_train, "desk-scale training run")
    p.add_argument("--model", choices=sorted(builders.BUILDERS))
    p.add_argument("--scale", type=int, choices=(2, 4))
    p.add_argument("--frames", default="synthetic",
                   help="'synthetic', .y4m, or PPM directory")
    p.add_argument("--synthetic-count", type=int, default=8)
    p.add_argument("--frame-seed", type=int, default=0)
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--patch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--loss", choices=trainer.LOSSES)
    p.add_argument("--seed", type=int)
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--flip", type=_to_bool, metavar="BOOL")
    p.add_argument("--rot90", type=_to_bool, metavar="BOOL")
    p.add_argument("--mixup", type=_to_bool, metavar="BOOL")
    p.add_argument("--mixup-alpha", type=float)
    p.add_argument("--fft-weight", type=float)
    p.add_argument("--decay-every", type=int)
    p.add_argument("--decay-factor", type=float)
    p.add_argument("--checkpoint", help="starting weights")
    p.add_argument("--checkpoint-out", help="where to save trained weights")

    return parser, sub.choices


def _config_flags(subparser: argparse.ArgumentParser, path) -> list[str]:
    """The lines of config ``path`` that ``subparser`` declares, as flags.

    Each is parsed on its own first, so a value its flag rejects raises a
    ValueError that names the file, line and key.
    """
    declared = vars(subparser.parse_args([]))
    probe = copy.copy(subparser)  # same flags, raises ArgumentError
    probe.exit_on_error = False
    flags = []
    for ln, key, value in load_config(path):
        if key in declared and key != "func":
            flags.append(f"--{key.replace('_', '-')}={value}")
            try:
                probe.parse_known_args(flags[-1:])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{ln}: {key}: {exc}") from None
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config lines go before the flags, so the flags win
            args = parser.parse_args(
                [argv[0], *_config_flags(commands[args.command], args.config),
                 *argv[1:]])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"odsr: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"odsr: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
