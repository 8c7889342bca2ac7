"""Forward-path oracles for the tensor ops (numpy/scipy references)."""
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import correlate2d
from scipy.special import erf

import conv_oracle
import safm_oracle
from gelu_oracle import GELU_EDGES, gelu_vjp_oracle, rational_phi
from odsr import parallel
from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward


def rnd(*shape, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(dtype)


class TestElementwise:
    def test_add_broadcast(self):
        a, b = rnd(2, 3, 4, 4, seed=1), rnd(1, 3, 1, 1, seed=2)
        out = ops.add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a + b)

    def test_scalar_operand_keeps_dtype(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        for y in (x + 1.5, 1.5 + x, x * 0.5, x - 0.25, x / 2.0, 2.0 / x):
            assert y.dtype == np.float32

    def test_div(self):
        a, b = rnd(3, 3, seed=3), rnd(3, 3, seed=4) + 3.0
        np.testing.assert_allclose(ops.div(Tensor(a), Tensor(b)).data, a / b)

    def test_neg_abs_square_sqrt_exp(self):
        a = np.abs(rnd(4, 5, seed=5)) + 0.5
        np.testing.assert_allclose(ops.neg(Tensor(a)).data, -a)
        np.testing.assert_allclose(ops.absolute(Tensor(-a)).data, a)
        np.testing.assert_allclose(ops.square(Tensor(a)).data, a * a)
        np.testing.assert_allclose(ops.sqrt(Tensor(a)).data, np.sqrt(a))
        np.testing.assert_allclose(ops.exp(Tensor(a)).data, np.exp(a))

    def test_reductions_axis_keepdims(self):
        a = rnd(2, 3, 4, 5, seed=6)
        np.testing.assert_allclose(ops.tsum(Tensor(a)).data, a.sum())
        np.testing.assert_allclose(
            ops.tsum(Tensor(a), axis=(2, 3), keepdims=True).data,
            a.sum(axis=(2, 3), keepdims=True))
        np.testing.assert_allclose(
            ops.tmean(Tensor(a), axis=1, keepdims=True).data,
            a.mean(axis=1, keepdims=True))

    def test_activations(self):
        a = rnd(3, 7, seed=7)
        np.testing.assert_allclose(ops.relu(Tensor(a)).data,
                                   np.maximum(a, 0.0))
        np.testing.assert_allclose(ops.leaky_relu(Tensor(a)).data,
                                   np.where(a > 0, a, 0.1 * a))
        want = 0.5 * a * (1.0 + erf(a / np.sqrt(2.0)))
        np.testing.assert_allclose(ops.gelu(Tensor(a)).data, want,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_bitwise_at_special_values(self, dtype):
        # max(x, slope * x) and its VJP must match the np.where forms bit
        # for bit, NaN payloads and signed zeros included
        special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                            1e-40, -1e-40, 1.5, -2.5], dtype=dtype)
        a = np.concatenate([special, rnd(40, seed=8, dtype=dtype)])
        g = np.concatenate([special[::-1], rnd(40, seed=9, dtype=dtype)])
        x = Tensor(a)
        with Tape(wrt=[x]) as tape:
            y = ops.leaky_relu(x)
        (gx,) = tape.nodes[0].vjp(g)
        want_y = np.where(a > 0, a, 0.1 * a)
        want_g = g * np.where(a > 0, 1.0, 0.1).astype(dtype)
        assert y.dtype == gx.dtype == dtype
        assert y.data.tobytes() == want_y.tobytes()
        assert gx.tobytes() == want_g.tobytes()
        assert gx.tobytes() == np.where(a > 0, g, g * 0.1).tobytes()

    def test_gelu_float32_stays_float32(self):
        """No op inside GELU or its VJP computes in float64 (NEP 50)."""
        seen = []

        def plain(arrays):
            return [a.view(np.ndarray) if isinstance(a, Spy) else a
                    for a in arrays]

        class Spy(np.ndarray):
            # scratch buffers made with empty_like are Spies too, so every
            # ufunc of the blocked kernel, in-place ones included, comes here
            def __array_ufunc__(self, ufunc, method, *args, **kwargs):
                args = plain(args)
                if "out" in kwargs:
                    kwargs["out"] = tuple(plain(kwargs["out"]))
                res = getattr(ufunc, method)(*args, **kwargs)
                seen.append((ufunc.__name__, [a.dtype for a in args
                                              if hasattr(a, "dtype")],
                             res.dtype))
                return res.view(Spy)

        x = Tensor(np.zeros(1, np.float32))
        x.data = rnd(3, 7, seed=7, dtype=np.float32).view(Spy)
        with Tape(wrt=[x]) as tape:
            y = ops.gelu(x)
        tape.nodes[-1].vjp(np.ones((3, 7), np.float32))
        names = [name for name, _, _ in seen]
        assert "clip" in names and "erf" not in names  # the float32 kernel
        for name, arg_dtypes, res_dtype in seen:
            assert res_dtype == np.float32, (name, arg_dtypes)
            assert all(d == np.float32 for d in arg_dtypes), name
        assert y.dtype == np.float32


# The float32 GELU kernel and its VJP stay within this many times (1 + |x|)
# of the float64 erf oracle; over every float32 with |x| <= 10 the worst is
# 2.4e-7 forward and 1.1e-7 for the VJP.
GELU_F32_TOL = 3e-7

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


class TestGeluFloat32Parity:
    @staticmethod
    def check(x):
        """float32 GELU forward and VJP against the float64 scipy oracle."""
        x64 = x.astype(np.float64)
        with np.errstate(invalid="ignore"):
            phi = 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
            want = x64 * phi
            dwant = phi + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2 * np.pi)
            xt = Tensor(x)
            with Tape(wrt=[xt]) as tape:
                y = ops.gelu(xt)
            (gx,) = tape.nodes[-1].vjp(np.ones_like(x))
        finite = np.isfinite(want)
        bound = GELU_F32_TOL * (1.0 + np.abs(x64[finite]))
        for got, ref in ((y.data, want), (gx, dwant)):
            assert got.dtype == np.float32
            got = got.astype(np.float64)
            # inf and NaN land exactly where the oracle puts them
            np.testing.assert_array_equal(got[~finite], ref[~finite])
            err = np.abs(got[finite] - ref[finite])
            assert (err <= bound).all(), (err / bound).max()

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float32, st.integers(1, 70_000),
                  elements=st.floats(-10, 10, width=32)
                  | st.sampled_from(SPECIAL)))
    def test_forward_and_vjp_match_float64_oracle(self, x):
        self.check(x)

    def test_every_block_matches_oracle(self):
        # five blocks of distinct values: a misplaced block would show
        x = 3 * rnd(3, 5, 97, 467, seed=3, dtype=np.float32)
        assert 5 < x.size / ops._GELU_BLOCK < 6
        self.check(x)

    def test_special_values(self):
        x = np.array(SPECIAL, np.float32)
        with np.errstate(invalid="ignore"):
            y = ops.gelu(Tensor(x)).data
        # -inf * Phi(-inf) is -inf * 0, as in the float64 path
        np.testing.assert_array_equal(y, [0.0, 0.0, np.inf, np.nan, np.nan])
        assert np.signbit(y[1])


class TestGeluVjpBitwise:
    """The blocked float32 GELU VJP against :func:`gelu_vjp_oracle`, bit
    for bit."""

    @staticmethod
    def check(x, g):
        xt = Tensor(x)
        with np.errstate(all="ignore"):
            with Tape(wrt=[xt]) as tape:
                ops.gelu(xt)
            (gx,) = tape.nodes[-1].vjp(g)
            want = gelu_vjp_oracle(x, rational_phi(x), g)
        assert gx.dtype == np.float32 and gx.shape == x.shape
        assert gx.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 70_000).flatmap(lambda n: st.tuples(*(
        arrays(np.float32, n, elements=st.floats(width=32)
               | st.sampled_from(GELU_EDGES)) for _ in range(2)))))
    def test_matches_oracle(self, xg):
        # within one block; test_edges_at_block_ends and
        # tests/test_parallel.py put values at block and span ends
        self.check(*xg)

    @pytest.mark.parametrize("n", [1, ops._GELU_BLOCK - 1, ops._GELU_BLOCK,
                                   2 * ops._GELU_BLOCK + 5])
    def test_edges_at_block_ends(self, monkeypatch, n):
        # one span walks the whole array, so its blocks start at multiples
        # of the block size (tests/test_parallel.py covers span starts)
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        edges = np.array(GELU_EDGES, np.float32)
        assert np.signbit(edges[1]) and np.isnan(edges[1])  # a -NaN
        x = 5 * rnd(n, seed=40, dtype=np.float32)
        g = rnd(n, seed=41, dtype=np.float32)
        # every edge against every other, at the start of each block and
        # at the very end of the array
        pairs = np.array(np.meshgrid(edges, edges)).reshape(2, -1)
        for at in [*range(0, n, ops._GELU_BLOCK), n - pairs.shape[1]]:
            at = max(0, at)
            m = min(pairs.shape[1], n - at)
            x[at:at + m], g[at:at + m] = pairs[:, :m]
        self.check(x, g)

    def test_float64_keeps_the_scipy_path(self, monkeypatch):
        calls = []
        real_erf = ops.erf
        monkeypatch.setattr(ops, "erf",
                            lambda z: calls.append(z.dtype) or real_erf(z))
        x = 3 * rnd(4, 5, seed=42)
        g = rnd(4, 5, seed=43)
        xt = Tensor(x)
        with Tape(wrt=[xt]) as tape:
            ops.gelu(xt)
        (gx,) = tape.nodes[-1].vjp(g)
        # the float64 expression, unchanged
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        dens = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        assert calls == [np.float64] and gx.dtype == np.float64
        assert gx.tobytes() == (g * (phi + x * dens)).tobytes()


class TestConv:
    def test_conv2d_matches_scipy(self):
        x = rnd(1, 1, 9, 11, seed=8)
        w = rnd(1, 1, 3, 3, seed=9)
        p = ops.ConvParams(weight=Tensor(w), bias=None, stride=1,
                           padding=1, groups=1)
        out = ops.conv2d(Tensor(x), p).data[0, 0]
        want = correlate2d(x[0, 0], w[0, 0], mode="same")
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_conv2d_multichannel_direct(self):
        x = rnd(2, 3, 6, 7, seed=10)
        w = rnd(4, 3, 3, 3, seed=11)
        b = rnd(4, seed=12)
        p = ops.ConvParams(weight=Tensor(w), bias=Tensor(b), stride=2,
                           padding=1, groups=1)
        out = ops.conv2d(Tensor(x), p).data
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        oh = (6 + 2 - 3) // 2 + 1
        ow = (7 + 2 - 3) // 2 + 1
        want = np.zeros((2, 4, oh, ow))
        for n in range(2):
            for o in range(4):
                for i in range(oh):
                    for j in range(ow):
                        blk = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                        want[n, o, i, j] = (blk * w[o]).sum() + b[o]
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_conv2d_grouped_equals_split(self):
        x = rnd(1, 6, 8, 8, seed=13)
        w = rnd(6, 3, 3, 3, seed=14)
        p = ops.ConvParams(weight=Tensor(w), bias=None, stride=1,
                           padding=1, groups=2)
        out = ops.conv2d(Tensor(x), p).data
        for g in range(2):
            pg = ops.ConvParams(weight=Tensor(w[3 * g:3 * g + 3]), bias=None,
                                stride=1, padding=1, groups=1)
            part = ops.conv2d(Tensor(x[:, 3 * g:3 * g + 3]), pg).data
            np.testing.assert_allclose(out[:, 3 * g:3 * g + 3], part,
                                       atol=1e-12)

    def test_conv2d_band_chunking_consistent(self, monkeypatch):
        x = rnd(1, 4, 12, 12, seed=15)
        w = rnd(8, 4, 3, 3, seed=16)
        full = conv_oracle.corr2d(x, w, 1, 1, 1)
        monkeypatch.setattr(conv_oracle, "COL_BUDGET", 256)
        banded = conv_oracle.corr2d(x, w, 1, 1, 1)
        np.testing.assert_array_equal(full, banded)
        p = ops.ConvParams(weight=Tensor(w), bias=None, stride=1,
                           padding=1, groups=1)
        np.testing.assert_allclose(ops.conv2d(Tensor(x), p).data, full,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_conv_blocking_consistent(self, monkeypatch, groups):
        """Column blocks only split the work, in every conv direction."""
        x = rnd(2, 4, 9, 10, seed=15)
        w = rnd(8, 4 // groups, 3, 3, seed=16)
        wt = rnd(4, 3, 5, 5, seed=17)
        # a thin input side: 2 -> 8, 5x5 stacks its 25 taps per GEMM
        xs, ws = rnd(2, 2, 9, 10, seed=18), rnd(8, 2, 5, 5, seed=19)
        assert ops._stacking(2, 8, 25, 1)[0]

        def run():
            leaves = [Tensor(a)
                      for a in (x, w, rnd(8, 3, 5, 5), x, wt, xs, ws)]
            tx, tw, tz, tx2, twt, txs, tws = leaves
            with Tape(wrt=leaves) as tape:
                y = ops.conv2d(tx, ops.ConvParams(
                    weight=tw, stride=2, padding=1, groups=groups))
                z = ops.conv_transpose2d(y, tz, None, 2, 2, 1)
                t = ops.conv_transpose2d(tx2, twt, None, 2, 1)
                u = ops.conv2d(txs, ops.ConvParams(
                    weight=tws, stride=1, padding=2, groups=1))
                loss = ops.tsum(z) + ops.tsum(t) + ops.tsum(u)
            grads = backward(tape, loss)
            return [z.data, t.data, u.data, *grads.values()]

        whole = run()
        monkeypatch.setattr(ops, "_BLOCK", 16)
        for a, b in zip(run(), whole):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_corr_memory_stays_block_sized(self, monkeypatch):
        """A thin-input conv stacks its taps one column block at a time: the
        traced peak stays under the output, the padded input and a few
        blocks, where a full im2col buffer alone would take 39 MB.  Five
        workers run no more spans than share those few blocks.  A wider
        input keeps no stacked operand and no per-tap temporary."""
        x = rnd(1, 3, 270, 480, seed=20, dtype=np.float32)
        w = rnd(56, 3, 5, 5, seed=21, dtype=np.float32)
        for count in (1, 5):
            monkeypatch.setattr(parallel, "workers", lambda: count)
            tracemalloc.start()
            try:
                out = ops._corr(x, w, 1, 2, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            padded = 3 * 274 * 484 * x.itemsize
            assert peak < out.nbytes + padded + 4 * ops._BLOCK * x.itemsize
        # A 36 -> 72 conv runs one GEMM per tap into its block's accumulator
        # alone, no stacked operand and no per-tap temporary: one span holds
        # one block, and five share parallel.SCRATCH.
        x = rnd(1, 36, 64, 480, seed=24, dtype=np.float32)
        w = rnd(72, 36, 3, 3, seed=25, dtype=np.float32)
        assert not ops._stacking(36, 72, 9, 1, ops._THIN)[0]
        for count in (1, 5):
            monkeypatch.setattr(parallel, "workers", lambda: count)
            tracemalloc.start()
            try:
                out = ops._corr(x, w, 1, 1, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            padded = 36 * 66 * 482 * x.itemsize
            blocks = ops._BLOCK * x.itemsize if count == 1 \
                else parallel.SCRATCH
            assert peak < out.nbytes + padded + blocks + w.nbytes + (64 << 10)
        # On a plane smaller than a block the buffers hold only the rows the
        # input has: two of them stay under the input's whole im2col.
        for xs, ws, groups in (((8, 9, 4, 4), (9, 1, 3, 3), 9),
                               ((1, 44, 8, 8), (44, 44, 3, 3), 1)):
            x = rnd(*xs, seed=22, dtype=np.float32)
            w = rnd(*ws, seed=23, dtype=np.float32)
            tracemalloc.start()
            try:
                out = ops._corr(x, w, 1, 1, groups)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            n, ci, h, wd = xs
            cols = n * (h + 2) * (wd + 2)
            buffers = 2 * max(ws[0], 9 * ci) * cols * x.itemsize
            assert peak < (out.nbytes + ci * cols * x.itemsize
                           + 2 * w.nbytes + buffers)

    def test_conv_transpose_matches_upsample_identity(self):
        x = rnd(1, 2, 5, 5, seed=17)
        w = rnd(2, 3, 4, 4, seed=18)
        out = ops.conv_transpose2d(Tensor(x), Tensor(w), stride=2,
                                   padding=1, output_padding=0).data
        # brute force: scatter input onto the stride grid, then accumulate
        want = np.zeros((1, 3, 10, 10))
        for i in range(5):
            for j in range(5):
                for ic in range(2):
                    patch = x[0, ic, i, j] * w[ic]
                    oi, oj = 2 * i - 1, 2 * j - 1
                    for ki in range(4):
                        for kj in range(4):
                            y, z = oi + ki, oj + kj
                            if 0 <= y < 10 and 0 <= z < 10:
                                want[0, :, y, z] += patch[:, ki, kj]
        np.testing.assert_allclose(out, want, atol=1e-10)

    @pytest.mark.parametrize("k,s,p,op", [(3, 2, 3, 1), (1, 1, 1, 0),
                                          (5, 2, 6, 1), (9, 4, 9, 3)])
    def test_conv_transpose_padding_beyond_kernel(self, k, s, p, op):
        """With padding >= kernel the transposed conv is still conv2d's
        adjoint: <conv2d(x), y> = <x, conv_transpose2d(y)>."""
        y = rnd(2, 3, 5, 6, seed=24)
        w = rnd(3, 2, k, k, seed=25)
        xt = ops.conv_transpose2d(Tensor(y), Tensor(w), None, s, p, op).data
        assert xt.shape == (2, 2, 4 * s - 2 * p + k + op,
                            5 * s - 2 * p + k + op)
        x = rnd(*xt.shape, seed=26)
        cx = ops.conv2d(Tensor(x), ops.ConvParams(Tensor(w), None, s, p, 1))
        lhs, rhs = np.vdot(cx.data, y), np.vdot(x, xt)
        assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(x), np.abs(xt))

    @pytest.mark.parametrize("k,s,p,h,pad", [
        (9, 2, 4, 5, 2),  # fsrcnn's x2 tail: no padding left to crop
        (9, 4, 4, 5, 1),  # fsrcnn's x4 tail
        (5, 1, 3, 5, 1),  # stride 1: padding k-1-p
        (4, 2, 1, 5, 1),  # p < s, as in vacv's tail: nothing to trim
        (4, 2, 2, 1, 1),  # op = 1 keeps a row past any trimmed output
        (3, 2, 3, 4, 0),  # p >= k: the trim stops at padding 0
        (5, 2, 6, 6, 0),
        (1, 1, 1, 5, 0),
    ])
    def test_conv_transpose_trims_the_padding(self, monkeypatch, k, s, p, h,
                                              pad):
        """The sub-pixel correlation runs at padding ceil(k/s)-1-d for the
        largest trim d that covers the output, for every output_padding,
        and the result matches the im2col oracle (p < k) or is conv2d's
        adjoint (any p)."""
        calls = []
        real = ops._corr
        monkeypatch.setattr(ops, "_corr", lambda *a: calls.append(a[3]) or
                            real(*a))
        x = rnd(2, 3, h, h + 2, seed=27)
        w = rnd(3, 2, k, k, seed=28)
        for op in range(s):
            if (h - 1) * s - 2 * p + k + op < 1:
                continue  # empty output
            del calls[:]
            got = ops.conv_transpose2d(Tensor(x), Tensor(w), None, s, p,
                                       op).data
            assert calls == [pad], op
            assert got.flags.c_contiguous
            if p < k:
                want = conv_oracle.conv_transpose2d(x, w, s, p, op)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            y = rnd(*got.shape, seed=29)
            cy = ops.conv2d(Tensor(y), ops.ConvParams(Tensor(w), None, s, p))
            lhs, rhs = np.vdot(cy.data, x), np.vdot(y, got)
            assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(got))

    @pytest.mark.parametrize("hw,pad", [((6, 6), 0), ((6, 7), 1),
                                        ((7, 6), 1), ((7, 7), 1)])
    def test_strided_input_gradient_trims_by_the_tighter_side(
            self, monkeypatch, hw, pad):
        # k=4, s=2, p=2: an odd side keeps one more input row or column than
        # the trimmed sub-pixel output covers, so either side can stop it
        x = Tensor(rnd(2, 3, *hw, seed=35))
        w = rnd(2, 3, 4, 4, seed=36)
        with Tape(wrt=[x]) as tape:
            out = ops.conv2d(x, ops.ConvParams(Tensor(w), None, 2, 2))
        g = rnd(*out.shape, seed=37)
        calls = []
        real = ops._corr
        monkeypatch.setattr(ops, "_corr", lambda *a: calls.append(a[3]) or
                            real(*a))
        (gx,) = tape.nodes[-1].vjp(g)[:1]
        assert calls == [pad]
        want = conv_oracle.corr2d_xgrad(g, w, 2, 2, hw, 1)
        np.testing.assert_allclose(gx, want, rtol=0, atol=1e-12)

    def test_conv_param_validation(self):
        with pytest.raises(ValueError):
            ops.ConvParams(weight=Tensor(rnd(4, 3, 3, 3)), bias=None,
                           stride=0, padding=1, groups=1)
        with pytest.raises(ValueError):
            ops.ConvParams(weight=Tensor(rnd(4, 3, 3, 3)), bias=None,
                           stride=1, padding=1, groups=5)


class TestUpsampleConv3x3:
    """vacv's tail as one transposed conv against the HR composition it
    replaces."""

    # max |error| / RMS of the reference: float64 only reorders sums; the
    # float32 bound covers the kernel's pre-summed taps (measured under
    # 2e-6).
    BOUND = {np.float64: 1e-12, np.float32: 1e-5}

    @staticmethod
    def composed(x, w, b, skip, s):
        _, _, h, wd = x.shape
        up = ops.pixel_shuffle(ops.repeat_channels(x, s * s), s)
        y = ops.conv2d(up, ops.ConvParams(w, b, 1, 1, 1))
        return ops.add(y, ops.upsample_nearest(skip, (h * s, wd * s)))

    @staticmethod
    def transposed(x, w, b, skip, s):
        return ops.conv_transpose2d(ops.concat_channels([x, skip]),
                                    ops.resize_conv_kernel(w, s), b, s, 1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("s", [2, 4])
    def test_matches_composition(self, s, dtype):
        arrays = [rnd(2, 5, 7, 9, seed=40), rnd(3, 5, 3, 3, seed=41),
                  rnd(3, seed=42), rnd(2, 3, 7, 9, seed=43)]
        arrays = [a.astype(dtype) for a in arrays]
        cot = rnd(2, 3, 7 * s, 9 * s, seed=44, dtype=dtype)
        results = []
        for fn in (self.composed, self.transposed):
            ts = [Tensor(a) for a in arrays]
            with Tape(wrt=ts) as tape:
                y = fn(*ts, s)
                loss = ops.tsum(ops.mul(y, Tensor(cot)))
            grads = backward(tape, loss)
            results.append([y.data] + [grads[t] for t in ts])
        for want, got in zip(*results):
            assert got.dtype == dtype and got.shape == want.shape
            rms = np.sqrt(np.mean(want.astype(np.float64) ** 2))
            assert np.abs(got - want).max() <= self.BOUND[dtype] * rms

    def test_shape_validation(self):
        w = Tensor(rnd(3, 4, 3, 3))
        with pytest.raises(ValueError, match="scale"):
            ops.resize_conv_kernel(w, 0)
        for bad in (rnd(3, 4, 5, 5), rnd(3, 4, 3, 2), rnd(4, 3, 3)):
            with pytest.raises(ValueError, match="weight"):
                ops.resize_conv_kernel(Tensor(bad), 2)


class TestShuffleAndPool:
    def test_pixel_shuffle_reference(self):
        x = rnd(2, 8, 3, 4, seed=19)
        out = ops.pixel_shuffle(Tensor(x), 2).data
        want = x.reshape(2, 2, 2, 2, 3, 4).transpose(0, 1, 4, 2, 5, 3)
        want = want.reshape(2, 2, 6, 8)
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("r", [1, 3, 4, 5, 8])
    def test_shuffle_array_every_factor(self, r):
        """The per-phase copies match the whole-array transposed copy."""
        x = rnd(2, 2 * r * r, 3, 5, seed=19)
        out = ops._shuffle_array(x, r)
        want = x.reshape(2, 2, r, r, 3, 5).transpose(0, 1, 4, 2, 5, 3)
        np.testing.assert_array_equal(out, want.reshape(2, 2, 3 * r, 5 * r))
        assert out.flags.c_contiguous

    def test_pixel_shuffle_by_one_makes_no_copy(self):
        x = rnd(1, 3, 4, 5, seed=19)
        assert np.shares_memory(ops._shuffle_array(x, 1), x)

    def test_shuffle_unshuffle_inverse(self):
        x = rnd(1, 12, 4, 6, seed=20)
        y = ops.pixel_unshuffle(ops.pixel_shuffle(Tensor(x), 2), 2)
        np.testing.assert_array_equal(y.data, x)

    def test_adaptive_max_pool_matches_loops(self):
        x = rnd(2, 3, 7, 10, seed=21)
        oh, ow = 3, 4
        out = ops.adaptive_max_pool(Tensor(x), (oh, ow)).data
        want = np.empty((2, 3, oh, ow))
        for i in range(oh):
            for j in range(ow):
                h0, h1 = (i * 7) // oh, -((-(i + 1) * 7) // oh)
                w0, w1 = (j * 10) // ow, -((-(j + 1) * 10) // ow)
                want[:, :, i, j] = x[:, :, h0:h1, w0:w1].max(axis=(2, 3))
        np.testing.assert_array_equal(out, want)

    def test_upsample_nearest_indexing(self):
        x = rnd(1, 2, 3, 3, seed=22)
        out = ops.upsample_nearest(Tensor(x), (6, 6)).data
        np.testing.assert_array_equal(out, x.repeat(2, axis=2).repeat(2, axis=3))

    def test_channel_ops(self):
        a, b = rnd(1, 2, 3, 3, seed=23), rnd(1, 3, 3, 3, seed=24)
        cat = ops.concat_channels([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(cat.data,
                                      np.concatenate([a, b], axis=1))
        np.testing.assert_array_equal(
            ops.slice_channels(cat, 2, 5).data, b)
        np.testing.assert_array_equal(
            ops.repeat_channels(Tensor(a), 3).data,
            np.repeat(a, 3, axis=1))


def recorded_vjp(op, x, *args, seed=0):
    """(input gradient, upstream gradient) of ``op(x, *args)``'s VJP for a
    random float32 upstream gradient."""
    xt = Tensor(x)
    with Tape(wrt=[xt]) as tape:
        y = op(xt, *args)
    g = np.random.default_rng(seed).standard_normal(y.shape).astype(x.dtype)
    (gx,) = tape.nodes[-1].vjp(g)
    return gx, g


@st.composite
def safm_plane(draw, values):
    """[n, c, h, w] float32 drawn from ``values`` (few values make ties)."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(1, 19)), draw(st.integers(1, 19)))
    return draw(arrays(np.float32, shape, elements=st.sampled_from(values)))


class TestSafmAdjoints:
    """The flat-index scatter-add VJPs are bitwise equal to the 4-D index
    ``np.add.at`` forms of ``tests/safm_oracle.py``."""

    @settings(max_examples=150, deadline=None)
    @given(safm_plane([0.0, 1.0, -2.5, 3.25]), st.integers(1, 41),
           st.integers(1, 41), st.integers(0, 2**32 - 1))
    def test_upsample_nearest_matches_oracle(self, x, th, tw, seed):
        # targets run from smaller than the source (rows skipped) to well
        # past twice its size, divisible or not
        gx, g = recorded_vjp(ops.upsample_nearest, x, (th, tw), seed=seed)
        want = safm_oracle.upsample_nearest_vjp(g, x.shape[2:])
        assert gx.dtype == np.float32 and gx.shape == x.shape
        assert gx.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(safm_plane([0.0, -0.0, 1.0, -2.5, np.nan, np.inf]),
           st.integers(1, 41), st.integers(1, 41))
    def test_upsample_nearest_forward_matches_fancy_index(self, x, th, tw):
        # the per-index repeat counts copy the same values, from targets
        # smaller than the source (zero counts) to non-divisible ones
        got = ops.upsample_nearest(Tensor(x), (th, tw)).data
        want = safm_oracle.upsample_nearest(x, (th, tw))
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    def test_upsample_nearest_skipped_sources_stay_zero(self):
        x = rnd(2, 3, 9, 7, seed=30, dtype=np.float32)
        gx, g = recorded_vjp(ops.upsample_nearest, x, (4, 3))
        read_y, read_x = (np.arange(4) * 9) // 4, (np.arange(3) * 7) // 3
        unread = np.ones(x.shape, bool)
        unread[:, :, read_y[:, None], read_x] = False
        assert unread.any() and not gx[unread].any()
        np.testing.assert_array_equal(gx[:, :, read_y[:, None], read_x], g)

    @settings(max_examples=150, deadline=None)
    @given(safm_plane([0.0, 1.0, 1.0, -1.0, np.nan, np.inf]),
           st.integers(1, 19), st.integers(1, 19), st.integers(0, 2**32 - 1))
    def test_adaptive_max_pool_matches_oracle(self, x, oh, ow, seed):
        # few values make tied maxima; NaN and inf are maxima too
        oh, ow = min(oh, x.shape[2]), min(ow, x.shape[3])
        gx, g = recorded_vjp(ops.adaptive_max_pool, x, (oh, ow), seed=seed)
        want = safm_oracle.adaptive_max_pool_vjp(x, g)
        assert gx.dtype == np.float32 and gx.shape == x.shape
        assert gx.view(np.uint32).tobytes() == want.view(np.uint32).tobytes()

    @pytest.mark.parametrize("shape,out_hw", [
        ((8, 9, 16, 16), (32, 32)), ((8, 9, 4, 4), (32, 32)),
        ((1, 11, 9, 240), (18, 480)), ((1, 9, 4, 120), (18, 480))])
    def test_train_and_band_shapes_match_oracle(self, shape, out_hw):
        # the Safm pyramid's shapes at batch 8 and on the sr band, including
        # its non-divisible 18-row level
        x = rnd(*shape, seed=31, dtype=np.float32)
        up, g = recorded_vjp(ops.upsample_nearest, x, out_hw, seed=32)
        want = safm_oracle.upsample_nearest_vjp(g, shape[2:])
        assert up.tobytes() == want.tobytes()
        big = rnd(*shape[:2], *out_hw, seed=33, dtype=np.float32)
        pool, g = recorded_vjp(ops.adaptive_max_pool, big, shape[2:],
                               seed=34)
        assert pool.tobytes() == safm_oracle.adaptive_max_pool_vjp(
            big, g).tobytes()


class TestSpectral:
    def test_fft2_rc_packing(self):
        x = rnd(2, 3, 4, 6, seed=25)
        out = ops.fft2_rc(Tensor(x)).data
        spec = np.fft.fft2(x, axes=(2, 3))
        np.testing.assert_allclose(out[:, :3], spec.real, atol=1e-12)
        np.testing.assert_allclose(out[:, 3:], spec.imag, atol=1e-12)

    def test_ifft_roundtrip(self):
        x = rnd(1, 2, 8, 8, seed=26)
        back = ops.ifft2_rc(ops.fft2_rc(Tensor(x))).data
        np.testing.assert_allclose(back, x, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_in_equals_dtype_out(self, dtype, recorded):
        x = Tensor(rnd(2, 3, 6, 10, seed=27, dtype=dtype))
        with Tape(wrt=[x]) as tape:
            z = ops.fft2_rc(x)
            back = ops.ifft2_rc(z)
        assert z.dtype == back.dtype == dtype
        assert len(recorded) == len(tape.nodes) == 2
        for node, ([(in_shape, _)], (out_shape, out_dtype)) in zip(
                tape.nodes, recorded):
            assert out_dtype == dtype
            (g,) = node.vjp(np.ones(out_shape, dtype))
            assert g.dtype == dtype and g.shape == in_shape
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(back.data, x.data, atol=tol)


class TestTape:
    def test_tape_requires_leaves(self):
        with pytest.raises(TypeError):
            Tape()
        with pytest.raises(TypeError):
            Tape(wrt=None)

    def test_backward_requires_scalar(self):
        x = Tensor(rnd(2, 2, seed=27))
        with Tape(wrt=[x]) as tape:
            y = ops.square(x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_backward_requires_on_tape_loss(self):
        x = Tensor(rnd(2, 2, seed=28))
        with Tape(wrt=[x]) as tape:
            ops.square(x)
        off = ops.tsum(ops.square(x))  # built outside the tape
        with pytest.raises(ValueError):
            backward(tape, off)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([[2.0, 3.0]]))
        with Tape(wrt=[x]) as tape:
            y = ops.tsum(ops.add(ops.square(x), x))
        g = backward(tape, y)[x]
        np.testing.assert_allclose(g, np.array([[5.0, 7.0]]))

    def test_grads_cover_leaves_only(self):
        x = Tensor(np.array([[2.0, 3.0]]))
        with Tape(wrt=[x]) as tape:
            y = ops.square(x)
            z = ops.tsum(y)
        grads = backward(tape, z)
        assert list(grads) == [x]
        assert type(grads[x]) is np.ndarray and grads[x].dtype == x.dtype
        assert y not in grads and z not in grads

    def test_backward_consumes_the_tape(self):
        x = Tensor(rnd(3, 4, seed=31))
        with Tape(wrt=[x]) as tape:
            y = ops.square(x)
            z = ops.tsum(y)
        y_ref = weakref.ref(y)
        del y
        backward(tape, z)
        assert not tape.nodes
        assert y_ref() is None

    def test_second_backward_raises(self):
        x = Tensor(rnd(2, 2, seed=32))
        with Tape(wrt=[x]) as tape:
            z = ops.tsum(ops.square(x))
        backward(tape, z)
        with pytest.raises(ValueError, match="already used"):
            backward(tape, z)

    def test_nested_tape_raises(self):
        with Tape(wrt=[]):
            with pytest.raises(RuntimeError):
                with Tape(wrt=[]):
                    pass

    def test_new_tape_after_exit(self):
        x = Tensor(np.array([2.0, 3.0]))
        with Tape(wrt=[x]):
            ops.square(x)
        with Tape(wrt=[x]) as tape:
            y = ops.tsum(ops.square(x))
        np.testing.assert_allclose(backward(tape, y)[x], [4.0, 6.0])

    def test_threads_record_on_own_tapes(self):
        # each thread holds its tape open until the other has opened its own
        opened = threading.Barrier(2, timeout=10)
        grads = {}

        def work(scale):
            x = Tensor(np.array([1.0, 2.0]))
            with Tape(wrt=[x]) as tape:
                opened.wait()
                y = ops.tsum(ops.mul(ops.square(x), Tensor(scale)))
                opened.wait()
            grads[scale] = backward(tape, y)[x]

        threads = [threading.Thread(target=work, args=(s,))
                   for s in (1.0, 3.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        np.testing.assert_allclose(grads[1.0], [2.0, 4.0])
        np.testing.assert_allclose(grads[3.0], [6.0, 12.0])

    def test_request_records_only_ops_a_requested_leaf_reaches(self):
        x, w = Tensor(rnd(2, 2, seed=33)), Tensor(rnd(2, 2, seed=34))
        with Tape(wrt=[w]) as tape:
            x2 = ops.square(x)
            x3 = ops.exp(x2)
            assert not tape.nodes
            z = ops.tsum(ops.mul(x3, w))
        assert len(tape.nodes) == 2
        assert tape.needs_grad(w) and not tape.needs_grad(x3)
        grads = backward(tape, z)
        assert list(grads) == [w]
        np.testing.assert_array_equal(grads[w], x3.data)

    def test_request_holds_its_leaves(self):
        # the tape tracks leaves by id, so it must keep them alive
        with Tape(wrt=(Tensor(rnd(2, seed=37)),)) as tape:
            pass
        leaf_ref = weakref.ref(tape.wrt[0])
        assert leaf_ref() is not None and tape.needs_grad(leaf_ref())

    def test_loss_no_requested_leaf_reaches_raises(self):
        x, w = Tensor(rnd(2, seed=38)), Tensor(rnd(2, seed=39))
        with Tape(wrt=[w]) as tape:
            z = ops.tsum(ops.square(x))
        with pytest.raises(ValueError, match="not produced"):
            backward(tape, z)

    def test_no_tape_means_no_recording(self):
        x = Tensor(rnd(2, 2, seed=29))
        y = ops.square(x)  # outside any tape
        with Tape(wrt=[x]) as tape:
            z = ops.tsum(ops.square(x))
        assert len(tape.nodes) == 2  # the square and sum inside the tape
        grads = backward(tape, z)
        assert x in grads and y not in grads

    def test_grn_zero_init_is_identity(self):
        x = rnd(2, 4, 5, 5, seed=30)
        g = np.zeros((1, 4, 1, 1))
        out = ops.grn(Tensor(x), Tensor(g), Tensor(g.copy()))
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_tensor_module_alone_brings_arithmetic(self):
        # a fresh interpreter, so no other test has imported ops already
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import numpy as np\n"
                "from odsr.engine.tensor import Tensor\n"
                "print((Tensor(np.ones(2)) + 1).data.tolist())")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == "[2.0, 2.0]"
