"""Bit-exact media I/O: binary PPM/PGM frames, Y4M streams, BT.709 color.

Frames are immutable byte payloads tagged with a layout:

* ``rgb8``   interleaved RGB, 3 bytes per pixel
* ``y8``     a single luma plane
* ``yuv420`` planar limited-range YCbCr 4:2:0 (Y then U then V)

Parsers validate sizes up front and name the byte offset at which a
truncated stream ran out.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

_PAYLOAD = {
    "rgb8": lambda w, h: w * h * 3,
    "y8": lambda w, h: w * h,
    "yuv420": lambda w, h: w * h * 3 // 2,
}


@dataclass(frozen=True)
class FrameBuffer:
    """One frame: layout tag, dimensions, raw payload bytes."""

    layout: str
    width: int
    height: int
    payload: bytes

    def __post_init__(self):
        if self.layout not in _PAYLOAD:
            raise ValueError(f"unknown layout {self.layout!r}; "
                             f"choices: {sorted(_PAYLOAD)}")
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"frame dims must be positive, got "
                f"{self.width}x{self.height}")
        if self.layout == "yuv420" and (self.width % 2 or self.height % 2):
            raise ValueError(
                f"yuv420 needs even dims, got {self.width}x{self.height}")
        want = _PAYLOAD[self.layout](self.width, self.height)
        if len(self.payload) != want:
            raise ValueError(
                f"{self.layout} {self.width}x{self.height} needs {want} "
                f"payload bytes, got {len(self.payload)}")

    # -- array accessors ---------------------------------------------------

    def rgb(self) -> np.ndarray:
        if self.layout != "rgb8":
            raise ValueError(f"frame is {self.layout}, not rgb8")
        return np.frombuffer(self.payload, np.uint8).reshape(
            self.height, self.width, 3)

    def y(self) -> np.ndarray:
        """The luma plane (native for y8/yuv420, BT.709 from rgb8)."""
        if self.layout == "rgb8":
            return rgb_to_y(self.rgb())
        n = self.width * self.height
        return np.frombuffer(self.payload[:n], np.uint8).reshape(
            self.height, self.width)

    def yuv_planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.layout != "yuv420":
            raise ValueError(f"frame is {self.layout}, not yuv420")
        w, h = self.width, self.height
        n = w * h
        c = n // 4
        buf = np.frombuffer(self.payload, np.uint8)
        return (buf[:n].reshape(h, w),
                buf[n:n + c].reshape(h // 2, w // 2),
                buf[n + c:].reshape(h // 2, w // 2))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rgb(cls, arr: np.ndarray) -> "FrameBuffer":
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"expected HxWx3 uint8, got {arr.shape}")
        return cls("rgb8", arr.shape[1], arr.shape[0], arr.tobytes())

    @classmethod
    def from_y(cls, arr: np.ndarray) -> "FrameBuffer":
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected HxW uint8, got {arr.shape}")
        return cls("y8", arr.shape[1], arr.shape[0], arr.tobytes())

    @classmethod
    def from_yuv(cls, y: np.ndarray, u: np.ndarray,
                 v: np.ndarray) -> "FrameBuffer":
        y = np.ascontiguousarray(y, dtype=np.uint8)
        u = np.ascontiguousarray(u, dtype=np.uint8)
        v = np.ascontiguousarray(v, dtype=np.uint8)
        h, w = y.shape
        if u.shape != (h // 2, w // 2) or v.shape != u.shape:
            raise ValueError(
                f"chroma {u.shape}/{v.shape} does not match luma {y.shape}")
        return cls("yuv420", w, h,
                   y.tobytes() + u.tobytes() + v.tobytes())


@dataclass
class VideoSequence:
    """A list of same-format frames plus the stream's rational frame rate."""

    frames: list[FrameBuffer]
    fps: Fraction = Fraction(30, 1)
    extra_header: tuple[str, ...] = ()
    frame_markers: tuple[str, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a sequence needs at least one frame")
        first = self.frames[0]
        for i, f in enumerate(self.frames):
            if (f.layout, f.width, f.height) != \
                    (first.layout, first.width, first.height):
                raise ValueError(
                    f"frame {i} is {f.layout} {f.width}x{f.height}, "
                    f"expected {first.layout} {first.width}x{first.height}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def layout(self) -> str:
        return self.frames[0].layout


# -- PPM / PGM -------------------------------------------------------------

def write_ppm(frame: FrameBuffer) -> bytes:
    """Binary P6 (rgb8) or P5 (y8), maxval 255."""
    if frame.layout == "rgb8":
        magic = b"P6"
    elif frame.layout == "y8":
        magic = b"P5"
    else:
        raise ValueError(f"cannot write {frame.layout} as PPM/PGM")
    header = b"%s\n%d %d\n255\n" % (magic, frame.width, frame.height)
    return header + frame.payload


def _next_token(blob: bytes, pos: int, what: str) -> tuple[bytes, int]:
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ValueError(
            f"truncated PPM: expected {what} at offset {pos}")
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def read_ppm(blob: bytes) -> FrameBuffer:
    """Parse binary P6/P5 with comment-tolerant headers, maxval 255 only."""
    magic, pos = _next_token(blob, 0, "magic")
    if magic not in (b"P6", b"P5"):
        raise ValueError(f"unsupported PPM magic {magic!r} (binary P6/P5 only)")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, pos = _next_token(blob, pos, what)
        if not tok.isdigit():
            raise ValueError(f"bad PPM {what} {tok!r} at offset "
                             f"{pos - len(tok)}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval} (only 255)")
    if pos >= len(blob) or not blob[pos:pos + 1].isspace():
        raise ValueError(
            f"missing whitespace after maxval at offset {pos}")
    pos += 1  # exactly one whitespace byte separates header from payload
    layout = "rgb8" if magic == b"P6" else "y8"
    need = _PAYLOAD[layout](width, height)
    payload = blob[pos:pos + need]
    if len(payload) != need:
        raise ValueError(
            f"truncated PPM payload: needed {need} bytes at offset {pos}, "
            f"got {len(payload)}")
    return FrameBuffer(layout, width, height, payload)


def load_ppm(path) -> FrameBuffer:
    return read_ppm(Path(path).read_bytes())


def save_ppm(path, frame: FrameBuffer) -> None:
    Path(path).write_bytes(write_ppm(frame))


# -- Y4M ---------------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"
_C420_TAGS = {"420", "420jpeg", "420mpeg2", "420paldv"}


def read_y4m(blob: bytes) -> VideoSequence:
    """Parse a YUV4MPEG2 stream (4:2:0 family only)."""
    nl = blob.find(b"\n")
    if nl < 0:
        raise ValueError("truncated Y4M: no newline terminates the header "
                         f"(stream is {len(blob)} bytes)")
    tokens = blob[:nl].split(b" ")
    if tokens[0] != _Y4M_MAGIC:
        raise ValueError(f"bad Y4M magic {tokens[0]!r}")
    width = height = None
    fps = None
    extra: list[str] = []
    for tok in tokens[1:]:
        if not tok:
            continue
        tag, val = tok[:1], tok[1:].decode("ascii", "replace")
        if tag == b"W":
            width = int(val)
        elif tag == b"H":
            height = int(val)
        elif tag == b"F":
            num, _, den = val.partition(":")
            try:
                fps = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad Y4M frame rate tag F{val}") from None
        elif tag == b"C":
            if val not in _C420_TAGS:
                raise ValueError(
                    f"unsupported Y4M colorspace C{val} (4:2:0 family only)")
            extra.append(tok.decode("ascii"))
        else:
            extra.append(tok.decode("ascii"))
    if width is None or height is None or fps is None:
        raise ValueError(
            f"Y4M header missing required W/H/F tags: {blob[:nl]!r}")
    if width % 2 or height % 2:
        raise ValueError(f"yuv420 needs even dims, got {width}x{height}")
    frame_bytes = width * height * 3 // 2
    frames: list[FrameBuffer] = []
    markers: list[str] = []
    pos = nl + 1
    while pos < len(blob):
        fnl = blob.find(b"\n", pos)
        if fnl < 0:
            raise ValueError(
                f"truncated Y4M: unterminated FRAME marker at offset {pos}")
        marker = blob[pos:fnl]
        if marker[:5] != b"FRAME":
            raise ValueError(
                f"bad Y4M frame marker {marker[:16]!r} at offset {pos}")
        markers.append(marker[5:].decode("ascii"))
        pos = fnl + 1
        payload = blob[pos:pos + frame_bytes]
        if len(payload) != frame_bytes:
            raise ValueError(
                f"truncated Y4M frame {len(frames)}: needed {frame_bytes} "
                f"bytes at offset {pos}, got {len(payload)}")
        frames.append(FrameBuffer("yuv420", width, height, payload))
        pos += frame_bytes
    if not frames:
        raise ValueError("Y4M stream contains no frames")
    return VideoSequence(frames, fps, tuple(extra), tuple(markers))


def write_y4m(seq: VideoSequence) -> bytes:
    """Emit a parameter-identical YUV4MPEG2 stream."""
    if seq.layout != "yuv420":
        raise ValueError(f"Y4M requires yuv420 frames, got {seq.layout}")
    head = [b"%s W%d H%d F%d:%d" % (
        _Y4M_MAGIC, seq.width, seq.height,
        seq.fps.numerator, seq.fps.denominator)]
    for tok in seq.extra_header:
        head.append(b" " + tok.encode("ascii"))
    parts = [b"".join(head) + b"\n"]
    markers = seq.frame_markers or ("",) * len(seq.frames)
    if len(markers) != len(seq.frames):
        raise ValueError(
            f"{len(markers)} frame markers for {len(seq.frames)} frames")
    for frame, marker in zip(seq.frames, markers):
        parts.append(b"FRAME" + marker.encode("ascii") + b"\n")
        parts.append(frame.payload)
    return b"".join(parts)


def load_y4m(path) -> VideoSequence:
    return read_y4m(Path(path).read_bytes())


def save_y4m(path, seq: VideoSequence) -> None:
    Path(path).write_bytes(write_y4m(seq))


# -- sequence-level I/O -------------------------------------------------------

def load_sequence(path) -> VideoSequence:
    """One sequence from a .y4m file or a directory of numbered PPM frames.

    PPM frames are taken in sorted filename order (zero-pad the numbers)
    at the default frame rate.
    """
    p = Path(path)
    if p.is_dir():
        ppms = sorted(q for q in p.iterdir()
                      if q.suffix.lower() in (".ppm", ".pgm"))
        if not ppms:
            raise ValueError(f"no .ppm/.pgm frames in directory {p}")
        return VideoSequence([load_ppm(q) for q in ppms])
    if p.suffix.lower() == ".y4m":
        return load_y4m(p)
    raise ValueError(
        f"cannot read sequence from {p}: expected a .y4m file or a "
        f"directory of PPM frames")


def save_sequence(path, seq: VideoSequence) -> None:
    """Write to a .y4m file (4:2:0 only) or a directory of PPM frames."""
    p = Path(path)
    if p.suffix.lower() == ".y4m":
        if seq.layout != "yuv420":
            seq = VideoSequence([rgb_to_yuv420(f) if f.layout == "rgb8"
                                 else f for f in seq.frames], seq.fps,
                                seq.extra_header, seq.frame_markers)
        save_y4m(p, seq)
        return
    p.mkdir(parents=True, exist_ok=True)
    digits = max(5, len(str(len(seq.frames))))
    for i, frame in enumerate(seq.frames):
        if frame.layout == "yuv420":
            frame = yuv420_to_rgb(frame)
        save_ppm(p / f"frame_{i:0{digits}d}.ppm", frame)


# -- BT.709 limited-range color ---------------------------------------------

_KR, _KG, _KB = 0.2126, 0.7152, 0.0722


def round_u8(x: np.ndarray) -> np.ndarray:
    """Round half up and clamp to uint8; ``x`` is scratch and overwritten."""
    x += 0.5
    np.floor(x, out=x)
    return np.clip(x, 0, 255, out=x).astype(np.uint8)


def rgb_to_y(rgb: np.ndarray) -> np.ndarray:
    """BT.709 limited-range luma: Y = 16 + 219 * luma/255."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected HxWx3, got {arr.shape}")
    lum = _KR * arr[..., 0] + _KG * arr[..., 1] + _KB * arr[..., 2]
    return round_u8(16.0 + 219.0 * lum / 255.0)


# float64 elements of one colour-conversion row block's four planes (2 MiB)
_BLOCK = 1 << 18


def block_rows(width: int) -> int:
    """Rows of one colour-conversion block: even, four planes in
    ``_BLOCK``."""
    return max(2, _BLOCK // (4 * width) // 2 * 2)


def rgb_to_yuv420(frame: FrameBuffer) -> FrameBuffer:
    """Convert rgb8 to limited-range BT.709 4:2:0 (2x2 chroma averaging)."""
    rgb = frame.rgb()
    return encode_yuv420(frame.width, frame.height,
                         lambda i, k: rgb[i:i + k].transpose(2, 0, 1))


def encode_yuv420(width: int, height: int, rgb_rows) -> FrameBuffer:
    """Limited-range BT.709 4:2:0 from the r, g, b planes that
    ``rgb_rows(i, k)`` gives for rows ``i`` to ``i + k``, as one (3, k,
    width) array of integers in [0, 255].

    Walks blocks of ``block_rows`` rows, sized to stay in cache, and
    writes Y, U and V straight into one preallocated payload. Each block
    runs the same in-place steps the whole frame once did, so the bytes
    equal the out-of-place reference in ``tests/eval_oracle.py``.
    """
    w, h = width, height
    if w % 2 or h % 2:
        raise ValueError(f"yuv420 needs even dims, got {w}x{h}")
    n, c = w * h, w * h // 4
    payload = np.empty(n + 2 * c, np.uint8)
    y = payload[:n].reshape(h, w)
    u = payload[n:n + c].reshape(h // 2, w // 2)
    v = payload[n + c:].reshape(h // 2, w // 2)
    rows = min(h, block_rows(w))
    planes = np.empty((4, rows, w))
    quarter = np.empty((rows // 2, w // 2))
    for i in range(0, h, rows):
        k = min(rows, h - i)
        r, g, b, lum = planes[:, :k]
        np.copyto(planes[:3, :k], rgb_rows(i, k))
        # in place, in the order of lum = KR r + KG g + KB b, pb = (b - lum)
        # / (2 (1 - KB)), pr alike, and y, u, v = offset + span * (...) / 255
        np.multiply(r, _KR, out=lum)
        lum += np.multiply(g, _KG, out=g)
        lum += np.multiply(b, _KB, out=g)
        b -= lum
        b /= 2.0 * (1.0 - _KB)
        r -= lum
        r /= 2.0 * (1.0 - _KR)
        for p, offset, span in ((lum, 16.0, 219.0), (b, 128.0, 224.0),
                                (r, 128.0, 224.0)):
            p *= span
            p /= 255.0
            p += offset
        y[i:i + k] = round_u8(lum)
        # 2x2 means, summed in the order p00 + p01 + p10 + p11
        q = quarter[:k // 2]
        for p, dst in ((b, u), (r, v)):
            np.add(p[0::2, 0::2], p[0::2, 1::2], out=q)
            q += p[1::2, 0::2]
            q += p[1::2, 1::2]
            q /= 4.0
            dst[i // 2:(i + k) // 2] = round_u8(q)
    return FrameBuffer("yuv420", w, h, payload.tobytes())


def yuv420_to_rgb(frame: FrameBuffer) -> FrameBuffer:
    """Convert 4:2:0 to rgb8 (nearest chroma upsampling).

    Walks blocks of ``block_rows`` rows, as ``encode_yuv420`` does, in the
    operand order of the reference in ``tests/eval_oracle.py``.
    """
    y, u, v = frame.yuv_planes()
    w, h = frame.width, frame.height
    rgb = np.empty((h, w, 3), np.uint8)
    rows = min(h, block_rows(w))
    planes = np.empty((4, rows, w))
    quarter = np.empty((rows // 2, w // 2))
    for i in range(0, h, rows):
        k = min(rows, h - i)
        yf, r, g, b = planes[:, :k]
        np.copyto(yf, y[i:i + k])
        yf -= 16.0
        yf *= 255.0 / 219.0
        # r = vf (2 (1 - KR)) + yf and b = uf (2 (1 - KB)) + yf, with the
        # chroma products taken at quarter size, then added to each of the
        # 2x2 pixels they cover
        q = quarter[:k // 2]
        for c, kc, dst in ((v, _KR, r), (u, _KB, b)):
            np.copyto(q, c[i // 2:(i + k) // 2])
            q -= 128.0
            q *= 255.0 / 224.0
            q *= 2.0 * (1.0 - kc)
            pairs = (k // 2, 2, w // 2, 2)
            np.add(q[:, None, :, None], yf.reshape(pairs),
                   out=dst.reshape(pairs))
        # g = (yf - KR r - KB b) / KG
        np.multiply(r, _KR, out=g)
        np.subtract(yf, g, out=g)
        g -= np.multiply(b, _KB, out=yf)
        g /= _KG
        for ch, p in enumerate((r, g, b)):
            rgb[i:i + k, :, ch] = round_u8(p)
    return FrameBuffer("rgb8", w, h, rgb.tobytes())
