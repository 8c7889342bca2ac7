"""Fuzz suites: the text parsers raise only ValueError on any input, and
the CLI exits only 0 or 2 on any config file."""
import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from odsr import bdrate, cli, harness

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
