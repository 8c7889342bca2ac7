"""Command line interface: subcommands, config files, exit codes."""
import hashlib

import numpy as np
import pytest

from odsr import cli, harness, media, trainer
from odsr.engine.tensor import Tensor
from odsr.models import checkpoint


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_clip(path, frames=2, hw=(16, 24), seed=0):
    rng = np.random.default_rng(seed)
    h, w = hw
    seq = media.VideoSequence(
        [media.FrameBuffer.from_rgb(
            rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
         for _ in range(frames)])
    media.save_sequence(path, seq)
    return seq


class TestScoreQ:
    def test_prints_two_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "score-q", "--ws-psnr", "31.0",
                               "--runtime", "0.010")
        assert code == 0
        assert out.strip() == "100.00"

    def test_challenge_sample(self, capsys):
        code, out, _ = run_cli(capsys, "score-q", "--ws-psnr", "29.589",
                               "--runtime", "0.0057")
        assert code == 0
        assert out.strip() == "67.93"

    def test_scale_picks_track_constants(self, capsys):
        _, x2, _ = run_cli(capsys, "score-q", "--ws-psnr", "29.0",
                           "--runtime", "0.01", "--scale", "2")
        _, x4, _ = run_cli(capsys, "score-q", "--ws-psnr", "29.0",
                           "--runtime", "0.01", "--scale", "4")
        assert x2 != x4

    def test_flag_overrides_constants(self, capsys):
        _, out, _ = run_cli(capsys, "score-q", "--ws-psnr", "30.0",
                            "--runtime", "0.001", "--min", "20",
                            "--max", "40")
        assert out.strip() == "75.00"

    def test_missing_required_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "score-q", "--runtime", "0.01")
        assert code == 2
        assert "ws-psnr" in err or "ws_psnr" in err

    @pytest.mark.parametrize("flag", ["--ws-psnr", "--runtime",
                                      "--threshold", "--bmax"])
    def test_nan_is_validation_error(self, capsys, flag):
        args = {"--ws-psnr": "29.0", "--runtime": "0.01", flag: "nan"}
        code, out, err = run_cli(capsys, "score-q", "--scale", "2",
                                 *(a for kv in args.items() for a in kv))
        assert code == 2
        assert out == ""
        assert "nan" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "q.txt"
        code, out, _ = run_cli(capsys, "score-q", "--ws-psnr", "31.0",
                               "--runtime", "0.01", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "100.00"


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "score.cfg"
        cfg.write_text("# challenge constants\nws-psnr = 31.0\n"
                       "runtime = 0.010\n")
        code, out, _ = run_cli(capsys, "score-q", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "100.00"

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "score.cfg"
        cfg.write_text("ws-psnr = 31.0\nruntime = 0.010\n")
        _, out, _ = run_cli(capsys, "score-q", "--config", str(cfg),
                            "--ws-psnr", "29.9")
        assert out.strip() != "100.00"

    def test_malformed_line_reports_number(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ws-psnr = 31.0\nthis is not a pair\n")
        code, _, err = run_cli(capsys, "score-q", "--config", str(cfg))
        assert code == 2
        assert "bad.cfg:2:" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "score-q", "--config",
                               str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_config_value_gets_the_flag_checks(self, capsys, tmp_path):
        src = tmp_path / "in"
        write_clip(src, frames=1, hw=(16, 24))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scale = 3\n")
        dst = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", "--config", str(cfg),
                               "--model", "bicubic", "--input", str(src),
                               "--out", str(dst))
        assert code == 2
        assert "--scale" in err
        assert not dst.exists()

    def test_rejected_config_value_names_file_line_and_key(self, capsys,
                                                             tmp_path):
        cfg = tmp_path / "score.cfg"
        cfg.write_text("ws-psnr = 31.0\n# x4 track\nscale = 3\n")
        code, out, err = run_cli(capsys, "score-q", "--config", str(cfg),
                                 "--runtime", "0.01")
        assert code == 2
        assert out == ""
        assert f"{cfg}:3: scale:" in err
        assert "invalid choice: 3" in err

    def test_other_subcommands_keys_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("iterations = 5\nws-psnr = 31.0\nruntime = 0.010\n")
        code, out, _ = run_cli(capsys, "score-q", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "100.00"


class TestBdrate:
    CURVE_A = "bitrate,quality\n1000,30\n2000,33\n4000,36\n8000,39\n"

    def test_short_row_is_validation_error(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("bitrate,quality\n1000,30\n2000\n4000,36\n8000,39\n")
        code, _, err = run_cli(capsys, "bdrate", "--anchor", str(a),
                               "--test", str(a))
        assert code == 2
        assert "line 3" in err

    def curve_paths(self, tmp_path, factor):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(self.CURVE_A)
        rows = ["bitrate,quality"]
        for line in self.CURVE_A.strip().split("\n")[1:]:
            r, q = line.split(",")
            rows.append(f"{float(r) * factor},{q}")
        b.write_text("\n".join(rows) + "\n")
        return a, b

    def test_rate_delta_percent(self, capsys, tmp_path):
        a, b = self.curve_paths(tmp_path, 0.8)
        code, out, _ = run_cli(capsys, "bdrate", "--anchor", str(a),
                               "--test", str(b))
        assert code == 0
        assert out.strip() == "-20.0000%"

    def test_quality_metric(self, capsys, tmp_path):
        a, _ = self.curve_paths(tmp_path, 1.0)
        code, out, _ = run_cli(capsys, "bdrate", "--anchor", str(a),
                               "--test", str(a), "--metric", "quality")
        assert code == 0
        assert out.strip() == "+0.0000 dB"

    def test_rate_overflow_is_validation_error(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, rate in ((a, "e-300"), (b, "e300")):
            path.write_text("bitrate,quality\n" + "".join(
                f"{i}{rate},{q}\n" for i, q in zip((1, 2, 3, 4),
                                                   (30, 32, 34, 36))))
        code, out, err = run_cli(capsys, "bdrate", "--anchor", str(a),
                                 "--test", str(b))
        assert code == 2
        assert out == ""
        assert "overflow" in err

    def test_bad_curve_is_validation_error(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("bitrate,quality\n1,30\n2,33\n")
        code, _, err = run_cli(capsys, "bdrate", "--anchor", str(a),
                               "--test", str(a))
        assert code == 2


class TestParamsAndFlops:
    def test_params_total_line(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--model", "ffcir",
                               "--scale", "4")
        assert code == 0
        assert out.strip().split("\n")[-1] == "total,394824,394.824K"

    def test_params_detail_rows(self, capsys):
        _, out, _ = run_cli(capsys, "params", "--model", "fsrcnn",
                            "--scale", "2", "--detail")
        lines = out.strip().split("\n")
        assert lines[-1].startswith("total,")
        assert any(line.split(",")[0].startswith("net.") for line in lines)

    def test_detail_takes_a_bool(self, capsys):
        _, plain, _ = run_cli(capsys, "params", "--model", "fsrcnn",
                              "--scale", "2")
        _, no, _ = run_cli(capsys, "params", "--model", "fsrcnn",
                           "--scale", "2", "--detail", "no")
        assert no == plain

    def test_flops_line(self, capsys):
        code, out, _ = run_cli(capsys, "flops", "--model", "athena",
                               "--scale", "4", "--height", "270",
                               "--width", "480")
        assert code == 0
        assert "G-FLOPs" in out

    @pytest.mark.parametrize("model, scale, hw, constraint", [
        ("fsrcnn", 2, (0, 0), "at least 1px"),
        ("fsrcnn", 4, (-5, 8), "at least 1px"),
        ("ffcir", 4, (4, 4), "at least 8px"),
        ("athena", 4, (3, 5), "divisible by 2")])
    def test_flops_rejects_sizes_no_forward_accepts(self, capsys, model,
                                                    scale, hw, constraint):
        code, out, err = run_cli(capsys, "flops", "--model", model,
                                 "--scale", str(scale), "--height",
                                 str(hw[0]), "--width", str(hw[1]))
        assert code == 2
        assert out == ""
        assert constraint in err

    def test_unknown_model_rejected(self, capsys):
        code, _, err = run_cli(capsys, "params", "--model", "resnet",
                               "--scale", "4")
        assert code == 2


class TestLeaderboard:
    # stdout of `odsr leaderboard --published SCALE --format FORMAT`
    PUBLISHED_SHA256 = {
        (2, "csv"): "ca74526937b00969995a6fb09efa01ef"
                    "2671e3cb025e354e9f78c4e302e56e9a",
        (2, "markdown"): "afdfb29f7fe25ec2781ba29ff05b2b1c"
                         "601ecec55ce6c08bc0899e7fbfa5e631",
        (4, "csv"): "06e9493765173f11223b8acd5fca8cc6"
                    "4897d0eb4d4b90458741abbf4a2d0308",
        (4, "markdown"): "e44785de45956ae89849d30b908fd108"
                         "cdf30be6eac3bf87adccf1b9feefa7fc",
    }

    @pytest.mark.parametrize("scale,fmt", sorted(PUBLISHED_SHA256))
    def test_published_output_pinned(self, capsys, scale, fmt):
        code, out, _ = run_cli(capsys, "leaderboard", "--published",
                               str(scale), "--format", fmt)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.PUBLISHED_SHA256[scale, fmt]

    def test_short_row_is_validation_error(self, capsys, tmp_path):
        p = tmp_path / "board.csv"
        p.write_text("team,scale,ws_psnr,ws_ssim,runtime_s,bd_br_pct,"
                     "g_flops,params_k,q\nA,4,29.0\n")
        code, _, err = run_cli(capsys, "leaderboard", "--entries", str(p))
        assert code == 2
        assert "line 2" in err

    def test_non_finite_cell_is_validation_error(self, capsys, tmp_path):
        # the nan rows used to rank A (29.0 dB) as the winner above C
        p = tmp_path / "board.csv"
        p.write_text("team,scale,ws_psnr,ws_ssim,runtime_s,bd_br_pct,"
                     "g_flops,params_k,q\n"
                     "A,4,29.0,,0.01,,,,\nB,4,nan,,0.01,,,,\n"
                     "C,4,29.5,,0.01,,,,\nD,4,29.5,,nan,,,,\n")
        code, out, err = run_cli(capsys, "leaderboard", "--entries", str(p))
        assert code == 2
        assert out == ""
        assert "line 3" in err and "ws_psnr" in err

    def test_published_markdown(self, capsys):
        code, out, _ = run_cli(capsys, "leaderboard", "--published", "4")
        assert code == 0
        assert "(winner)" in out
        order = [t for t in ("FFCIR", "IVCL", "VACV", "ATHENA")]
        pos = [out.index(f" {t} ") if f" {t} " in out else out.index(t)
               for t in order]
        assert pos == sorted(pos)

    def test_csv_roundtrip_through_file(self, capsys, tmp_path):
        out_path = tmp_path / "board.csv"
        code, _, _ = run_cli(capsys, "leaderboard", "--published", "2",
                             "--format", "csv", "--out", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "leaderboard", "--entries",
                               str(out_path), "--scale", "2")
        assert code == 2 if "winner" not in out else True

    def test_entries_and_published_exclusive(self, capsys, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("team,scale\n")
        code, _, err = run_cli(capsys, "leaderboard", "--entries", str(p),
                               "--published", "4")
        assert code == 2


class TestSurface:
    def test_grid_dimensions(self, capsys):
        code, out, _ = run_cli(capsys, "surface", "--psnr-lo", "28",
                               "--psnr-hi", "31", "--psnr-steps", "4",
                               "--rt-lo", "0.001", "--rt-hi", "0.1",
                               "--rt-steps", "5", "--scale", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ws_psnr,runtime_s,q"
        assert len(lines) == 1 + 4 * 5

    def test_degenerate_grid_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "surface", "--psnr-steps", "1")
        assert code == 2


class TestRunAndMetrics:
    def test_run_upscales_directory(self, capsys, tmp_path):
        src = tmp_path / "in"
        write_clip(src, frames=2, hw=(16, 24))
        dst = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "--model", "bicubic",
                               "--scale", "2", "--input", str(src),
                               "--out", str(dst))
        assert code == 0
        up = media.load_sequence(dst)
        assert (up.height, up.width) == (32, 48)
        assert len(up.frames) == 2

    def test_run_keeps_gray_frames_gray(self, capsys, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        rng = np.random.default_rng(3)
        media.save_sequence(src, media.VideoSequence([
            media.FrameBuffer.from_y(np.full((16, 24), 100, np.uint8)),
            media.FrameBuffer.from_y(
                rng.integers(0, 256, (16, 24), dtype=np.uint8))]))
        code, _, _ = run_cli(capsys, "run", "--model", "bicubic",
                             "--scale", "2", "--input", str(src),
                             "--out", str(dst))
        assert code == 0
        assert all(f.read_bytes()[:2] == b"P5" for f in dst.iterdir())
        up = media.load_sequence(dst)
        assert [f.layout for f in up.frames] == ["y8", "y8"]
        assert (up.height, up.width) == (32, 48)
        assert (up.frames[0].y() == 100).all()

    def test_run_y4m_to_ppm_directory(self, capsys, tmp_path):
        clip = tmp_path / "c.y4m"
        write_clip(clip, frames=2, hw=(16, 24))
        outs = {}
        for out in ("up.y4m", "up"):
            code, _, _ = run_cli(capsys, "run", "--model", "bicubic",
                                 "--scale", "2", "--input", str(clip),
                                 "--out", str(tmp_path / out))
            assert code == 0
            outs[out] = media.load_sequence(tmp_path / out).frames
        # the directory holds the network's RGB output, rounded once; the
        # Y4M holds the same RGB frames encoded to 4:2:0
        model = harness.make_model("bicubic", 2, None, seed=0)
        lr = media.load_sequence(clip).frames
        rgb = list(harness.run_sequence(model, lr, "rgb8"))
        assert [f.layout for f in outs["up"]] == ["rgb8", "rgb8"]
        assert outs["up"] == rgb
        assert outs["up.y4m"] == [media.rgb_to_yuv420(f) for f in rgb]
        assert outs["up"] != [media.yuv420_to_rgb(f) for f in outs["up.y4m"]]

    def test_metrics_identical_sequences(self, capsys, tmp_path):
        src = tmp_path / "ref"
        write_clip(src, frames=2, hw=(16, 24))
        code, out, _ = run_cli(capsys, "metrics", "--ref", str(src),
                               "--test", str(src))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("frame,")
        assert lines[-1].startswith("mean,")
        assert "inf" in lines[-1]

    def test_metrics_y4m_input(self, capsys, tmp_path):
        clip = tmp_path / "c.y4m"
        write_clip(clip, frames=1, hw=(16, 24))
        code, out, _ = run_cli(capsys, "metrics", "--ref", str(clip),
                               "--test", str(clip), "--plane", "rgb-mean")
        assert code == 0

    def test_missing_input_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--model", "bicubic",
                               "--scale", "2", "--input",
                               str(tmp_path / "missing"),
                               "--out", str(tmp_path / "o"))
        assert code == 2

    def test_zero_fps_denominator_validation_error(self, capsys, tmp_path):
        clip = tmp_path / "c.y4m"
        clip.write_bytes(b"YUV4MPEG2 W4 H2 F30:0\nFRAME\n" + bytes(12))
        code, _, err = run_cli(capsys, "run", "--model", "bicubic",
                               "--scale", "2", "--input", str(clip),
                               "--out", str(tmp_path / "o.y4m"))
        assert code == 2
        assert "F30:0" in err


class TestTrain:
    def test_synthetic_smoke(self, capsys, tmp_path):
        ckpt = tmp_path / "w.bin"
        code, out, err = run_cli(
            capsys, "train", "--model", "fsrcnn", "--scale", "2",
            "--frames", "synthetic", "--synthetic-count", "2",
            "--iterations", "3", "--batch", "2", "--patch", "8",
            "--checkpoint-out", str(ckpt))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 4
        assert ckpt.exists()
        # summary goes to stderr, keeping stdout machine-readable
        assert "loss" in err

    def test_resume_from_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "w.bin"
        run_cli(capsys, "train", "--model", "fsrcnn", "--scale", "2",
                "--frames", "synthetic", "--synthetic-count", "2",
                "--iterations", "2", "--batch", "2", "--patch", "8",
                "--checkpoint-out", str(ckpt))
        code, out, _ = run_cli(
            capsys, "train", "--model", "fsrcnn", "--scale", "2",
            "--frames", "synthetic", "--synthetic-count", "2",
            "--iterations", "2", "--batch", "2", "--patch", "8",
            "--checkpoint", str(ckpt))
        assert code == 0

    @pytest.mark.parametrize("params", [
        {"w": np.ones((2, 0), np.float32)},
        {"w": np.ones(2, np.float32), "v": np.ones(2, np.float32)}])
    def test_malformed_checkpoint_is_validation_error(self, capsys, tmp_path,
                                                      params):
        blob = checkpoint.dumps_params(
            "fsrcnn", 2, {k: Tensor(v) for k, v in params.items()})
        ckpt = tmp_path / "bad.bin"
        # rename the one-letter name "v" to "w", making a duplicate
        ckpt.write_bytes(blob.replace(b"\x01\x00v", b"\x01\x00w"))
        code, _, err = run_cli(
            capsys, "train", "--model", "fsrcnn", "--scale", "2",
            "--frames", "synthetic", "--synthetic-count", "2",
            "--iterations", "1", "--batch", "2", "--patch", "8",
            "--checkpoint", str(ckpt))
        assert code == 2
        assert "'w'" in err

    def test_unset_flags_leave_train_config_defaults(self, capsys,
                                                     monkeypatch):
        seen = []
        real_train = trainer.train

        def spy(net, frames, cfg):
            seen.append(cfg)
            return real_train(net, frames, cfg)

        monkeypatch.setattr(trainer, "train", spy)
        code, _, _ = run_cli(capsys, "train", "--model", "fsrcnn",
                             "--scale", "2", "--iterations", "1")
        assert code == 0
        assert seen == [trainer.TrainConfig(iterations=1)]

    def test_config_settings_reach_train_config(self, capsys, tmp_path,
                                                monkeypatch):
        seen = []
        real_train = trainer.train

        def spy(net, frames, cfg):
            seen.append(cfg)
            return real_train(net, frames, cfg)

        monkeypatch.setattr(trainer, "train", spy)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("loss = ws-l1\nmixup = yes\n")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg),
                             "--model", "fsrcnn", "--scale", "2",
                             "--synthetic-count", "2", "--iterations", "1",
                             "--batch", "2", "--patch", "8")
        assert code == 0
        assert seen == [trainer.TrainConfig(iterations=1, batch=2, patch=8,
                                            loss="ws-l1", mixup=True)]

    def test_frames_from_y4m(self, capsys, tmp_path, monkeypatch):
        seen = []
        real_train = trainer.train

        def spy(net, frames, cfg):
            seen.append(frames)
            return real_train(net, frames, cfg)

        monkeypatch.setattr(trainer, "train", spy)
        clip = tmp_path / "c.y4m"
        write_clip(clip, frames=2, hw=(32, 32))
        code, out, _ = run_cli(capsys, "train", "--model", "fsrcnn",
                               "--scale", "2", "--frames", str(clip),
                               "--iterations", "1", "--batch", "2",
                               "--patch", "8")
        assert code == 0
        assert len(out.strip().split("\n")) == 2
        assert seen == [media.load_sequence(clip).frames]

    def test_bad_loss_name(self, capsys):
        code, _, err = run_cli(capsys, "train", "--model", "fsrcnn",
                               "--scale", "2", "--frames", "synthetic",
                               "--loss", "l2")
        assert code == 2
