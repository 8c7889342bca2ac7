"""Pinned SHA-256 digests of the `odsr run` and `odsr metrics` outputs.

The HR clip is two synthetic 256x384 frames (seed 7) stored as yuv420 Y4M;
the LR clip takes every s-th pixel of HR.  Each baseline upscales LR back to
HR size, and the metrics stdout compares the result with HR on both planes.
A change to the resamplers, the colour conversion or the metrics that moves
any output byte breaks one of these digests.
"""
import hashlib

import pytest

from odsr import cli, media, trainer

HR_DIGEST = "f3849883719e7bcc9be86244e4b227669d5e059a61f6e6cacde8321899e35177"

# (model, scale) -> (run .y4m, metrics y stdout, metrics rgb-mean stdout)
GOLDEN = {
    ("bicubic", 2): (
        "c6d2a20f6d60c82e5d1ce5a5aa3399c2782d6e56f38abae5e692b4a093605d6d",
        "3c2d90737be9e4503a6ab735448a6c067711380174e142b31f0d675cb8437289",
        "63ec8d518a5799b80f1d3f85e406a5d4bb7bb648fef6363cdc4ddd6d8d95f519"),
    ("lanczos4", 2): (
        "e1c78064007b287de14e83102369be194336ae8e34821ee3016c598d39ada17b",
        "05c14882c2786cc2e1e78671cf76379e7a6297cb9a3f51b9aa2f3ef36105a16a",
        "0115641e12146a68bae88eb95cd01a690549b4f0d50f3710cc63364eaef61fa6"),
    ("bicubic", 4): (
        "e27473661687eea5366c8dc644aae629e85bff6534c2d23eda7f5356d5b0dc47",
        "029df5917091565885a5c609a3017ab06857e5265ed08a4b7ca24743566c5aa0",
        "2631e65205f75a6c462ad75183efdd94a10ce8669472e08ae7afd0ace24280eb"),
    ("lanczos4", 4): (
        "dd8a8d2c4b62972a5e026d3776daa2e83110f8c818111951ad97dd7a5a65ba59",
        "8207307997068990a8b285e86b9d6a3d92a885c978f30b046fc51b13a6408c2f",
        "83b4dfdebc14953982aba5af15e874b8a5fe53abc22ddf9d283ad04e224397cc"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _save(path, arrays):
    media.save_sequence(path, media.VideoSequence(
        [media.rgb_to_yuv420(media.FrameBuffer.from_rgb(a)) for a in arrays]))


@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    hr = trainer.synthetic_frames(2, (256, 384), 7)
    _save(root / "hr.y4m", hr)
    for s in (2, 4):
        _save(root / f"lr{s}.y4m", [a[::s, ::s] for a in hr])
    return root


def test_hr_clip(clips):
    assert _sha((clips / "hr.y4m").read_bytes()) == HR_DIGEST


@pytest.mark.parametrize("model,scale", sorted(GOLDEN))
def test_run_and_metrics_outputs_pinned(clips, capsys, model, scale):
    out = clips / f"{model}_x{scale}.y4m"
    assert cli.main(["run", "--model", model, "--scale", str(scale),
                     "--input", str(clips / f"lr{scale}.y4m"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    run_digest, *metric_digests = GOLDEN[model, scale]
    assert _sha(out.read_bytes()) == run_digest
    for plane, want in zip(("y", "rgb-mean"), metric_digests):
        assert cli.main(["metrics", "--ref", str(clips / "hr.y4m"),
                         "--test", str(out), "--plane", plane]) == 0
        assert _sha(capsys.readouterr().out.encode()) == want, plane
