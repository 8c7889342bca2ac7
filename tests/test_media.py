"""PPM / Y4M container I/O and BT.709 color conversion."""
from fractions import Fraction

import numpy as np
import pytest

from odsr import media


def rand_rgb(rng, h, w):
    return media.FrameBuffer.from_rgb(
        rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


def rand_yuv(rng, h, w):
    return media.FrameBuffer.from_yuv(
        rng.integers(16, 236, (h, w), dtype=np.uint8),
        rng.integers(16, 241, (h // 2, w // 2), dtype=np.uint8),
        rng.integers(16, 241, (h // 2, w // 2), dtype=np.uint8))


class TestPpm:
    def test_bitwise_roundtrip_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            frame = rand_rgb(rng, h, w)
            blob = media.write_ppm(frame)
            back = media.read_ppm(blob)
            assert media.write_ppm(back) == blob
            assert back.payload == frame.payload

    def test_file_roundtrip(self, tmp_path):
        frame = rand_rgb(np.random.default_rng(1), 9, 7)
        p = tmp_path / "f.ppm"
        media.save_ppm(p, frame)
        back = media.load_ppm(p)
        np.testing.assert_array_equal(back.rgb(), frame.rgb())

    def test_grayscale_uses_pgm_magic(self):
        frame = media.FrameBuffer.from_y(
            np.arange(12, dtype=np.uint8).reshape(3, 4))
        blob = media.write_ppm(frame)
        assert blob.startswith(b"P5")
        back = media.read_ppm(blob)
        assert back.layout == "y8"
        np.testing.assert_array_equal(back.y(), frame.y())

    def test_header_comments_skipped(self):
        blob = b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6)
        frame = media.read_ppm(blob)
        assert (frame.width, frame.height) == (2, 1)

    def test_maxval_limited_to_255(self):
        with pytest.raises(ValueError):
            media.read_ppm(b"P6\n2 1\n65535\n" + bytes(12))

    def test_truncated_payload_rejected(self):
        blob = media.write_ppm(rand_rgb(np.random.default_rng(2), 4, 4))
        with pytest.raises(ValueError):
            media.read_ppm(blob[:-1])


class TestY4m:
    def test_minimal_documented_example(self):
        # one 4x2 4:2:0 frame is exactly 4*2*1.5 = 12 payload bytes
        blob = b"YUV4MPEG2 W4 H2 F30:1\nFRAME\n" + bytes(range(12))
        seq = media.read_y4m(blob)
        assert (seq.width, seq.height) == (4, 2)
        assert seq.fps == Fraction(30, 1)
        assert len(seq.frames) == 1
        assert seq.frames[0].payload == bytes(range(12))

    def test_bitwise_roundtrip(self):
        rng = np.random.default_rng(3)
        frames = [rand_yuv(rng, 8, 12) for _ in range(3)]
        seq = media.VideoSequence(frames, fps=Fraction(24000, 1001))
        blob = media.write_y4m(seq)
        back = media.read_y4m(blob)
        assert media.write_y4m(back) == blob
        assert back.fps == Fraction(24000, 1001)
        for a, b in zip(frames, back.frames):
            assert a.payload == b.payload

    def test_unknown_header_tokens_preserved(self):
        rng = np.random.default_rng(4)
        seq = media.VideoSequence([rand_yuv(rng, 4, 4)],
                                  extra_header=("Ip", "A1:1"))
        blob = media.write_y4m(seq)
        assert b" Ip A1:1" in blob.split(b"\n", 1)[0]
        back = media.read_y4m(blob)
        assert back.extra_header == ("Ip", "A1:1")
        assert media.write_y4m(back) == blob

    def test_frame_markers_preserved(self):
        rng = np.random.default_rng(5)
        seq = media.VideoSequence([rand_yuv(rng, 4, 4),
                                   rand_yuv(rng, 4, 4)],
                                  frame_markers=("Xtag", ""))
        blob = media.write_y4m(seq)
        back = media.read_y4m(blob)
        assert back.frame_markers == ("Xtag", "")
        assert media.write_y4m(back) == blob

    def test_truncated_frame_reports_byte_offset(self):
        rng = np.random.default_rng(6)
        blob = media.write_y4m(media.VideoSequence([rand_yuv(rng, 4, 4)]))
        with pytest.raises(ValueError, match="byte|offset"):
            media.read_y4m(blob[:-5])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            media.read_y4m(b"YUV4MPEG3 W4 H2 F30:1\n")

    def test_missing_dims(self):
        with pytest.raises(ValueError):
            media.read_y4m(b"YUV4MPEG2 W4 F30:1\n")

    @pytest.mark.parametrize("tag", ["F30:0", "F30", "Fx:1"])
    def test_bad_frame_rate_names_tag(self, tag):
        with pytest.raises(ValueError, match=f"frame rate tag {tag}"):
            media.read_y4m(f"YUV4MPEG2 W4 H2 {tag}\nFRAME\n".encode()
                           + bytes(12))

    def test_odd_dims_rejected_for_420(self):
        with pytest.raises(ValueError):
            media.read_y4m(b"YUV4MPEG2 W5 H2 F30:1\nFRAME\n" + bytes(15))

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        seq = media.VideoSequence([rand_yuv(rng, 6, 8) for _ in range(2)])
        p = tmp_path / "v.y4m"
        media.save_y4m(p, seq)
        back = media.load_y4m(p)
        assert media.write_y4m(back) == media.write_y4m(seq)


class TestColor:
    def test_gray_has_neutral_chroma(self):
        gray = media.FrameBuffer.from_rgb(
            np.full((4, 4, 3), 128, dtype=np.uint8))
        y, u, v = media.rgb_to_yuv420(gray).yuv_planes()
        assert np.all(u == 128) and np.all(v == 128)
        assert np.all(y == y[0, 0])

    def test_limited_range_anchors(self):
        black = media.rgb_to_y(np.zeros((1, 1, 3), dtype=np.uint8))
        white = media.rgb_to_y(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert black[0, 0] == 16
        assert white[0, 0] == 235

    def test_bt709_luma_weights_order(self):
        # green carries the most luma, blue the least
        r = media.rgb_to_y(np.array([[[255, 0, 0]]], dtype=np.uint8))[0, 0]
        g = media.rgb_to_y(np.array([[[0, 255, 0]]], dtype=np.uint8))[0, 0]
        b = media.rgb_to_y(np.array([[[0, 0, 255]]], dtype=np.uint8))[0, 0]
        assert g > r > b

    def test_rgb_yuv_rgb_close(self):
        rng = np.random.default_rng(8)
        # smooth frame: chroma subsampling loses little
        base = rng.integers(60, 196, (2, 2, 3)).astype(np.float64)
        big = np.repeat(np.repeat(base, 8, axis=0), 8, axis=1)
        frame = media.FrameBuffer.from_rgb(big.astype(np.uint8))
        back = media.yuv420_to_rgb(media.rgb_to_yuv420(frame))
        err = np.abs(back.rgb().astype(int) - frame.rgb().astype(int))
        assert err.max() <= 3

    def test_yuv_to_rgb_output_layout(self):
        rng = np.random.default_rng(9)
        out = media.yuv420_to_rgb(rand_yuv(rng, 8, 8))
        assert out.layout == "rgb8"
        assert out.rgb().shape == (8, 8, 3)


class TestSequenceIo:
    def test_ppm_directory_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        seq = media.VideoSequence([rand_rgb(rng, 6, 6) for _ in range(3)],
                                  fps=Fraction(25, 1))
        d = tmp_path / "frames"
        media.save_sequence(d, seq)
        files = sorted(p.name for p in d.iterdir())
        assert files == ["frame_00000.ppm", "frame_00001.ppm",
                         "frame_00002.ppm"]
        back = media.load_sequence(d)
        assert len(back.frames) == 3
        for a, b in zip(seq.frames, back.frames):
            assert a.payload == b.payload

    def test_y4m_path_dispatch(self, tmp_path):
        rng = np.random.default_rng(11)
        seq = media.VideoSequence([rand_yuv(rng, 4, 6)])
        p = tmp_path / "clip.y4m"
        media.save_sequence(p, seq)
        back = media.load_sequence(p)
        assert back.layout == "yuv420"
        assert media.write_y4m(back) == media.write_y4m(seq)

    def test_rgb_frames_convert_for_y4m(self, tmp_path):
        rng = np.random.default_rng(12)
        seq = media.VideoSequence([rand_rgb(rng, 4, 4)])
        p = tmp_path / "clip.y4m"
        media.save_sequence(p, seq)
        assert media.load_sequence(p).layout == "yuv420"

    def test_empty_directory_rejected(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        with pytest.raises(ValueError):
            media.load_sequence(d)

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            media.VideoSequence([rand_rgb(rng, 4, 4), rand_rgb(rng, 4, 6)])
