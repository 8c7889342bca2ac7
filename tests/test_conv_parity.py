"""Parity of the tap-accumulate conv core with the im2col oracle.

Forward, input gradient and weight gradient of ``conv2d`` and
``conv_transpose2d`` over every shape class: 1x1, dense kxk, grouped,
depthwise, strided, and transposed with output padding.  The transposed
directions (conv2d's input gradient, conv_transpose2d's forward) run as one
sub-pixel correlation; the pinned examples hold its edge cases.  The oracle
runs in float64 on the same inputs.  Tolerance, as a max-abs error over the
RMS of the reference: 1e-5 in float32 (the kernels sum taps in another order
than one im2col matmul), 1e-10 in float64.
"""
import numpy as np
from hypothesis import example, given, settings, strategies as st

import conv_oracle as oracle
from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor

CASES = settings(max_examples=120, deadline=None)
RTOL = {np.float32: 1e-5, np.float64: 1e-10}


def check(got, want, dtype):
    assert got.dtype == dtype
    assert got.shape == want.shape
    # a fresh array, not a view that would keep a padded buffer alive
    assert got.flags.c_contiguous
    assert got.base is None or got.base.nbytes == got.nbytes
    rms = np.sqrt(np.mean(want * want))
    err = np.abs(got - want).max()
    assert err <= RTOL[dtype] * max(rms, 1e-30), (err, rms)


def run_with_vjp(fn, x, w, seed):
    """Forward value and the recorded VJP's (input, weight) gradients."""
    leaves = [Tensor(x), Tensor(w)]
    with Tape(wrt=leaves) as tape:
        out = fn(*leaves).data
    gout = np.random.default_rng(seed).standard_normal(out.shape).astype(
        x.dtype)
    gx, gw = tape.nodes[-1].vjp(gout)
    return out, gout, gx, gw


@st.composite
def conv_case(draw, transpose):
    k = draw(st.sampled_from([1, 3, 5, 7, 9]))
    s = draw(st.sampled_from([1, 2, 4]))
    p = draw(st.integers(0, k - 1))  # the oracle's input gradient needs p < k
    if transpose:
        g, cig, co = 1, draw(st.integers(1, 4)), draw(st.integers(1, 4))
        op = draw(st.integers(0, s - 1))
        # the smallest input whose output (h-1)s - 2p + k + op is not empty
        low = 1 - (-max(0, 2 * p + 1 - k - op) // s)
        h = low + draw(st.integers(0, 5))
        w = low + draw(st.integers(0, 5))
    else:
        kind = draw(st.sampled_from(["1", "2", "in_ch"]))
        cig = 1 if kind == "in_ch" else draw(st.integers(1, 3))
        g = {"1": 1, "2": 2, "in_ch": draw(st.integers(1, 4))}[kind]
        co = g * draw(st.integers(1, 3))
        op = 0
        h = max(1, k - 2 * p) + draw(st.integers(0, 8))
        w = max(1, k - 2 * p) + draw(st.integers(0, 8))
    return dict(n=draw(st.sampled_from([1, 2, 8])), ci=g * cig, co=co, k=k,
                s=s, p=p, g=g, op=op, h=h, w=w,
                dtype=draw(st.sampled_from([np.float32, np.float64])),
                seed=draw(st.integers(0, 2**32 - 1)))


def inputs(c, wshape):
    rng = np.random.default_rng(c["seed"])
    x = rng.standard_normal((c["n"], c["ci"], c["h"], c["w"]))
    return x.astype(c["dtype"]), rng.standard_normal(wshape).astype(
        c["dtype"])


def case(ci, co, k, s, p, h, w, g=1, op=0, n=2, dtype=np.float32, seed=7):
    return dict(n=n, ci=ci, co=co, k=k, s=s, p=p, g=g, op=op, h=h, w=w,
                dtype=dtype, seed=seed)


class TestConvParity:
    @CASES
    @given(c=conv_case(transpose=False))
    # kernel smaller than stride: most sub-pixel phases have no taps
    @example(c=case(ci=2, co=3, k=1, s=4, p=0, h=9, w=6))
    # (h + 2p - k) mod s != 0: the last input rows and columns get no gradient
    @example(c=case(ci=3, co=2, k=5, s=4, p=1, h=10, w=9))
    @example(c=case(ci=2, co=4, k=3, s=2, p=1, h=8, w=7, dtype=np.float64))
    # depthwise at stride 2
    @example(c=case(ci=4, co=8, k=3, s=2, p=1, h=9, w=8, g=4))
    # ci = co: the smallest conv whose taps share one stacked GEMM
    @example(c=case(ci=3, co=3, k=3, s=1, p=1, h=6, w=7))
    # stacked per group: g=2, ci/g=2, co/g=3
    @example(c=case(ci=4, co=6, k=3, s=1, p=1, h=7, w=5, g=2))
    # stacked at stride 2, one strided copy per stride phase
    @example(c=case(ci=2, co=5, k=5, s=2, p=2, h=9, w=11))
    # 8 <= ci/g <= co/g: one GEMM per tap accumulating in place, where
    # the strategy's ci/g <= 3 never reaches
    @example(c=case(ci=8, co=8, k=3, s=1, p=1, h=9, w=10))
    @example(c=case(ci=12, co=36, k=3, s=2, p=1, h=11, w=9))
    @example(c=case(ci=16, co=16, k=5, s=1, p=2, h=9, w=8, g=2))
    @example(c=case(ci=16, co=16, k=3, s=1, p=1, h=8, w=9, dtype=np.float64))
    def test_conv2d(self, c):
        k, s, p, g = c["k"], c["s"], c["p"], c["g"]
        x, w = inputs(c, (c["co"], c["ci"] // g, k, k))
        out, gout, gx, gw = run_with_vjp(
            lambda xt, wt: ops.conv2d(xt, ops.ConvParams(
                weight=wt, stride=s, padding=p, groups=g)), x, w, c["seed"])
        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, gout))
        check(out, oracle.corr2d(x64, w64, s, p, g), c["dtype"])
        check(gx, oracle.corr2d_xgrad(g64, w64, s, p, x.shape[2:], g),
              c["dtype"])
        check(gw, oracle.corr2d_wgrad(x64, g64, k, k, s, p, g), c["dtype"])

    @CASES
    @given(c=conv_case(transpose=True))
    @example(c=case(ci=3, co=2, k=1, s=4, p=0, op=3, h=3, w=4))
    # output_padding > padding: the last output row and column see no input
    @example(c=case(ci=2, co=3, k=4, s=2, p=0, op=1, h=4, w=3))
    # fsrcnn's x4 tail
    @example(c=case(ci=56, co=3, k=9, s=4, p=4, op=3, h=3, w=4, n=1))
    # fsrcnn's x2 tail: its input and weight gradients stack 81 taps of a
    # 3-channel side
    @example(c=case(ci=56, co=3, k=9, s=2, p=4, op=1, h=5, w=6))
    # a 16-channel side: the sub-pixel forward (16 -> 4*8) and the input
    # gradient (8 -> 16) each run one GEMM per tap in place
    @example(c=case(ci=16, co=8, k=4, s=2, p=1, op=0, h=6, w=5))
    def test_conv_transpose2d(self, c):
        k, s, p, op = c["k"], c["s"], c["p"], c["op"]
        x, w = inputs(c, (c["ci"], c["co"], k, k))
        out, gout, gx, gw = run_with_vjp(
            lambda xt, wt: ops.conv_transpose2d(xt, wt, None, s, p, op),
            x, w, c["seed"])
        x64, w64, g64 = (a.astype(np.float64) for a in (x, w, gout))
        check(out, oracle.conv_transpose2d(x64, w64, s, p, op), c["dtype"])
        want_gx, want_gw = oracle.conv_transpose2d_grads(x64, w64, g64, s, p)
        check(gx, want_gx, c["dtype"])
        check(gw, want_gw, c["dtype"])
