"""Fuzz suites: the text and byte parsers raise only ValueError on any
input, the byte parsers allocate no more than the data backs, and the CLI
exits only 0 or 2 on any config file."""
import contextlib
import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from odsr import bdrate, cli, harness, media
from odsr.engine.tensor import Tensor
from odsr.models import checkpoint

FUZZ = settings(max_examples=200, deadline=None)

# past the csv module's default field size limit (131072 characters)
_HUGE = "9" * 131073
_CELL = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "2", "4", "29.5", "-1", "nan", "inf", "1e999",
                     '"', '"x', 'x"y', "a,b", "\r", "\x00", _HUGE]))


def _csv_text(header: str):
    row = st.lists(_CELL, max_size=11).map(",".join)
    return st.one_of(
        st.text(),
        st.tuples(st.one_of(st.just(header), row),
                  st.lists(row, max_size=5),
                  st.sampled_from(["\n", "\r\n", "\r"])).map(
            lambda parts: parts[2].join([parts[0], *parts[1]])))


class TestCsvParsers:
    @FUZZ
    @given(text=_csv_text(",".join(harness._LB_FIELDS + ("q",))))
    def test_leaderboard_csv_raises_only_value_error(self, text):
        try:
            harness.parse_leaderboard_csv(text)
        except ValueError:
            pass

    @FUZZ
    @given(text=_csv_text("bitrate,quality"))
    def test_rd_csv_raises_only_value_error(self, text):
        try:
            bdrate.read_rd_csv(text)
        except ValueError:
            pass


# no path separators, so an ``out`` line can only name a file in the
# working directory, which the test points at a temporary directory
_SAFE = st.characters(blacklist_characters="/\\",
                      blacklist_categories=("Cs",))
_KEYS = ("ws-psnr", "ws_psnr", "runtime", "scale", "min", "max", "beta",
         "bmax", "threshold", "config", "func", "command", "iterations",
         "model", "detail")
_VALUE = st.one_of(
    st.text(_SAFE, max_size=10),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "2", "3", "4", "yes", "nan", "-inf", "1e999",
                     "0.01", "29.5", "-5"]))
_LINE = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(_KEYS),
              st.sampled_from(["=", " = ", "==", " =# "]), _VALUE),
    st.text(_SAFE, max_size=20))
_CONFIG = st.one_of(
    st.lists(_LINE, max_size=8).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=40).filter(lambda b: b"/" not in b and b"\\" not in b))


class TestConfigFile:
    @FUZZ
    @given(body=_CONFIG)
    def test_cli_exits_0_or_2(self, body):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cfg"
            path.write_bytes(body)
            err = io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["score-q", "--config", str(path)])
            except SystemExit as exc:  # argparse usage errors exit directly
                code = exc.code
            finally:
                os.chdir(cwd)
        assert code in (0, 2), err.getvalue()


# declared sizes far beyond any fuzz input, so an allocation that follows
# the header instead of the data shows up as a peak many times the input
_DIM = st.one_of(st.integers(0, 70),
                 st.sampled_from([255, 256, 2 ** 16, 2 ** 31 - 1, 2 ** 32 - 1,
                                  2 ** 40, 10 ** 30]))
_TAIL = st.binary(max_size=300)


def _parse_within_budget(parse, blob: bytes):
    """Run ``parse``; let only ValueError escape, and bound the traced
    allocation peak by a small multiple of the input size."""
    tracemalloc.start()
    try:
        parse(blob)
    except ValueError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 64 * 1024 + 8 * len(blob), peak


def _ppm(magic, tokens, seps, tail):
    head = magic
    for tok, sep in zip(tokens, seps):
        head += sep + tok
    return head + tail


_PPM = st.one_of(
    st.binary(max_size=200),
    st.builds(
        _ppm,
        st.sampled_from([b"P6", b"P5", b"P3", b"P7", b"", b"#P6"]),
        st.lists(st.one_of(_DIM.map(lambda n: str(n).encode()),
                           st.sampled_from([b"255", b"-3", b"0x10", b"",
                                            b"\xef\xbc\x91", b"9" * 5000])),
                 max_size=4),
        st.lists(st.sampled_from([b"\n", b" ", b"\t", b"\n# c\n", b"#",
                                  b""]), min_size=4, max_size=4),
        st.sampled_from([b"\n", b" ", b""]).flatmap(
            lambda sep: _TAIL.map(lambda t: sep + t))))


def _y4m(tokens, frames):
    return b" ".join([b"YUV4MPEG2", *tokens]) + b"\n" + b"".join(frames)


_Y4M_TOKEN = st.one_of(
    st.builds(lambda tag, n: tag + str(n).encode(),
              st.sampled_from([b"W", b"H"]),
              st.one_of(_DIM, st.integers(-4, 4))),
    st.builds(lambda num, den: b"F%d:%d" % (num, den),
              st.integers(-2, 60), st.integers(-2, 2)),
    st.sampled_from([b"C420", b"C420jpeg", b"C444", b"Ip", b"A1:1", b"X\xff",
                     b"Fx", b"F30", b"W", b"W\xef\xbc\x91", b"",
                     b"W" + b"9" * 5000]),
    st.binary(max_size=6).filter(lambda b: b" " not in b and b"\n" not in b))
# W, H and F in any order, so most headers get past the tag checks
_Y4M_HEADER = st.builds(
    lambda required, extra: required + extra,
    st.tuples(*(st.builds(lambda n, tag=tag: tag + str(n).encode(), _DIM)
                for tag in (b"W", b"H")),
              st.just(b"F30:1")).flatmap(st.permutations),
    st.lists(_Y4M_TOKEN, max_size=3))
_Y4M = st.one_of(
    st.binary(max_size=200),
    st.builds(_y4m, st.one_of(st.lists(_Y4M_TOKEN, max_size=6), _Y4M_HEADER),
              st.lists(st.one_of(
                  st.builds(lambda marker, payload: marker + payload,
                            st.sampled_from([b"FRAME\n", b"FRAME Ixyz\n",
                                             b"FRAME\xff\n", b"FRAM\n",
                                             b"FRAME"]),
                            _TAIL),
                  _TAIL), max_size=3)))


def _entry(name, dims, offset):
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + struct.pack(f"<{len(dims)}I", *dims) + struct.pack("<Q", offset))


_U32 = st.one_of(_DIM.filter(lambda n: n < 2 ** 32),
                 st.integers(0, 2 ** 32 - 1))
# a count of None declares exactly the entries that follow
_CKPT_HEADER = st.builds(
    lambda name, scale, count, entries: (
        checkpoint.MAGIC + struct.pack("<H", len(name)) + name
        + struct.pack("<II", scale,
                      len(entries) if count is None else count)
        + b"".join(entries)),
    st.one_of(st.binary(max_size=8), st.just(b"fsrcnn")),
    st.integers(0, 2 ** 32 - 1), st.one_of(st.none(), _U32),
    st.lists(st.builds(
        _entry, st.one_of(st.binary(max_size=6), st.just(b"\xff\xfe")),
        st.lists(_U32, max_size=5).map(tuple),
        st.one_of(st.integers(0, 64), st.integers(0, 2 ** 64 - 1))),
        max_size=3))


def _valid_checkpoint() -> bytes:
    return checkpoint.dumps_params("fsrcnn", 2, {
        "a": Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)),
        "b": Tensor(np.ones((4,), np.float32))})


def _mutated(blob: bytes, edits, cut):
    data = bytearray(blob)
    for pos, value in edits:
        data[pos % len(data)] = value
    return bytes(data[:cut])


_CKPT = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda head, tail: head + tail, _CKPT_HEADER, _TAIL),
    st.builds(_mutated, st.just(_valid_checkpoint()),
              st.lists(st.tuples(st.integers(0, 10 ** 6),
                                 st.integers(0, 255)), max_size=4),
              st.integers(0, 200)))


class TestByteParsers:
    @FUZZ
    @given(blob=_PPM)
    def test_read_ppm(self, blob):
        _parse_within_budget(media.read_ppm, blob)

    @FUZZ
    @given(blob=_Y4M)
    def test_read_y4m(self, blob):
        _parse_within_budget(media.read_y4m, blob)

    @FUZZ
    @given(blob=_CKPT)
    def test_loads_params(self, blob):
        _parse_within_budget(checkpoint.loads_params, blob)
