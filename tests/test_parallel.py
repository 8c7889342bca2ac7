"""Row-block spans on several workers: ``parallel.over_blocks`` and its
pool themselves, the SSIM map, the polyphase upscale, the 4:2:0 colour
conversions and the float32 GELU bit for bit against their oracles, and
the conv core with its weight gradient bit for bit against one worker
(and an unstacked weight gradient against one product per tap, a
correlation with ci/g > co/g against the per-tap loop with a temporary),
on blocks that do not depend on the worker count and within their memory
budgets, at any worker count; and the OpenBLAS pin that leaves the spans
the only threads that share out work, as a timing's sample records."""
import ctypes
import ctypes.util
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import conv_oracle
import eval_oracle
import resample_oracle
from gelu_oracle import GELU_EDGES, gelu_vjp_oracle, rational_phi
from odsr import harness, media, metrics, parallel
from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward
from odsr.models import resample


@pytest.fixture(params=[1, 2, 3, 5])
def workers(request, monkeypatch):
    """Force the worker count, on a machine of any size, and switch threads
    often, so spans that shared a block's scratch would interleave."""
    monkeypatch.setattr(parallel, "workers", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _adds_only_the_pool(call) -> None:
    """``call`` leaves at most the pool's ``workers() - 1`` threads (none
    once an earlier call started the pool), and repeated calls add none."""
    before = threading.active_count()
    call()
    after = threading.active_count()
    assert 0 <= after - before <= parallel._the_pool().size
    assert parallel._the_pool().size == parallel._cpus() - 1
    for _ in range(3):
        call()
        assert threading.active_count() == after


class TestOverBlocks:
    @pytest.mark.parametrize("count", [0, 1, 2, 4, 7, 23])
    def test_spans_cover_every_block_once(self, workers, count):
        seen = []
        parallel.over_blocks(count, lambda b0, b1: seen.append((b0, b1)))
        seen.sort()
        assert [b for b0, b1 in seen for b in range(b0, b1)] == \
            list(range(count))
        assert all(b1 > b0 for b0, b1 in seen)
        assert len(seen) == min(count, workers)

    @pytest.mark.parametrize("most", [1, 2])
    def test_most_caps_the_spans(self, workers, most):
        seen = []
        parallel.over_blocks(7, lambda b0, b1: seen.append((b0, b1)), most)
        assert sorted(seen)[0][0] == 0 and sorted(seen)[-1][1] == 7
        assert len(seen) == min(most, workers)

    def test_a_cap_below_one_runs_one_span(self, workers):
        seen = []
        parallel.over_blocks(7, lambda b0, b1: seen.append((b0, b1)), 0)
        assert seen == [(0, 7)]

    def test_affinity_or_every_cpu(self, monkeypatch):
        # a taskset mask counts; platforms without the call use every CPU
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {2, 5}, raising=False)
        assert parallel.workers() == 2
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 6)
        assert parallel.workers() == 6
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel.workers() == 1

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        threads = []
        parallel.over_blocks(9, lambda b0, b1: threads.append(
            (threading.get_ident(), b0, b1)))
        assert threads == [(threading.get_ident(), 0, 9)]

    @pytest.mark.parametrize("bad", [0, 2])
    def test_exception_surfaces_after_every_span(self, monkeypatch, bad):
        monkeypatch.setattr(parallel, "workers", lambda: 3)
        done = []

        def run(b0, b1):
            if b0 == bad:
                raise KeyError(b0)
            done.append(b0)

        def call():
            done.clear()
            with pytest.raises(KeyError):
                parallel.over_blocks(3, run)
            assert sorted(done) == [b for b in range(3) if b != bad]

        _adds_only_the_pool(call)

    def test_nested_calls_finish_on_a_one_thread_pool(self, monkeypatch):
        """Calls nested three deep, each asking for 4 workers, finish on a
        pool of one thread and run every block once: a caller runs every
        span no thread has started, so it waits only on running spans."""
        monkeypatch.setattr(parallel, "workers", lambda: 4)
        monkeypatch.setattr(parallel, "_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_pool", None)
        seen = []

        def level(depth, path):
            def run(b0, b1):
                for b in range(b0, b1):
                    if depth == 2:
                        seen.append((*path, b))
                    else:
                        parallel.over_blocks(5, level(depth + 1, (*path, b)))
            return run

        outer = threading.Thread(
            target=parallel.over_blocks, args=(5, level(0, ())), daemon=True)
        outer.start()
        outer.join(60)
        assert not outer.is_alive()
        assert parallel._pool.size == 1
        assert sorted(seen) == [(i, j, k) for i in range(5)
                                for j in range(5) for k in range(5)]

    def test_spans_run_in_the_callers_context(self, monkeypatch):
        """numpy's error state lives in a context variable, which threads do
        not inherit: a span on a pool thread sees the caller's state, and a
        state a span sets stays in that span."""
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        monkeypatch.setattr(parallel, "_cpus", lambda: 2)
        monkeypatch.setattr(parallel, "_pool", None)
        pool_ran = threading.Event()
        seen = {}

        def run(b0, b1):
            if b0:
                pool_ran.set()
            else:  # the caller holds span 0 until the pool thread runs 1
                assert pool_ran.wait(60)
            seen[b0] = threading.current_thread().name, np.geterr()
            np.seterr(all="warn")

        with np.errstate(invalid="ignore", over="raise"):
            state = np.geterr()
            parallel.over_blocks(2, run)
            assert np.geterr() == state
        assert seen[1][0] == "odsr-span-0"
        assert seen[0][1] == seen[1][1] == state


class TestBitwiseAtAnyWorkerCount:
    """Each output row runs the same steps in the same order whichever
    span holds it; small ``_BLOCK`` values give many blocks, fewer blocks
    than workers, and short last blocks."""

    @pytest.mark.parametrize("h", [11, 14, 250, 600])
    def test_ssim_map(self, workers, monkeypatch, h):
        # two output rows per block, and one span per 96 output rows at
        # most, so 600 rows run on every worker
        monkeypatch.setattr(metrics, "_BLOCK", 5 * 60 * 16)
        rng = np.random.default_rng(h)
        ref = rng.integers(0, 256, (h, 60), dtype=np.uint8)
        test = rng.integers(0, 256, (h, 60), dtype=np.uint8)
        np.testing.assert_array_equal(
            _bits(metrics.ssim_map(ref, test)),
            _bits(eval_oracle.ssim_map(ref, test)))

    @pytest.mark.parametrize("kernel", ["cubic", "lanczos4"])
    @pytest.mark.parametrize("s", [2, 4])
    @pytest.mark.parametrize("h", [1, 7, 23, 101])
    def test_resize_plane(self, workers, monkeypatch, kernel, s, h):
        # blocks of 4 rows at x2 and 2 at x4, no deeper than lanczos4's
        # halo (4 rows): up to 51 at h=101
        monkeypatch.setattr(resample, "_BLOCK", 240)
        x = np.random.default_rng(h * s).random((3, h, 10)) * 1.2 - 0.1
        for out_hw in ((h * s, 10 * s), (h * s, 15)):
            want = resample_oracle.polyphase_resize_plane(x, out_hw, kernel)
            got = resample.resize_plane(x, out_hw, kernel)
            np.testing.assert_array_equal(_bits(got), _bits(want))
            out = np.empty(want.shape, np.float32)
            resample.resize_plane(x, out_hw, kernel, out=out)
            np.testing.assert_array_equal(
                out.view(np.int32), want.astype(np.float32).view(np.int32))

    @pytest.mark.parametrize("h", [2, 6, 22, 90])
    def test_colour_conversions(self, workers, monkeypatch, h):
        # 8-row blocks: one to twelve, the last one short at h=22 and 90
        monkeypatch.setattr(media, "_BLOCK", 4 * 16 * 8)
        rng = np.random.default_rng(h)
        rgb = rng.integers(0, 256, (h, 16, 3), dtype=np.uint8)
        want = eval_oracle.rgb_to_yuv420(rgb)
        assert media.rgb_to_yuv420(
            media.FrameBuffer.from_rgb(rgb)).payload == want.payload
        t = Tensor((rng.random((1, 3, h, 16)) * 1.2 - 0.1).astype(np.float32))
        assert harness.tensor_to_frame(t, "yuv420") == \
            eval_oracle.tensor_to_frame(t, "yuv420")
        assert media.yuv420_to_rgb(want).payload == \
            eval_oracle.yuv420_to_rgb(want).payload


def _conv_and_vjps(op, x, w, b):
    """``op``'s output and the gradients of ``sum(op(x)^2)`` for x, w, b."""
    ts = [Tensor(a) for a in (x, w, b)]
    with Tape(wrt=ts) as tape:
        y = op(*ts)
        loss = ops.tsum(ops.square(y))
    grads = backward(tape, loss)
    return [y.data, *(grads[t] for t in ts)]


class TestConvAtAnyWorkerCount:
    """The conv core's spans take whole blocks of the one-worker partition,
    and a 1x1 product's pieces do not depend on the worker count, so every
    output and VJP is bitwise against one worker.  A small ``_BLOCK`` gives
    a batch-8 32x32 plane several blocks, more than the workers or fewer."""

    @pytest.mark.parametrize("transpose, xs, ws, s, p, g", [
        (False, (8, 12, 32, 32), (12, 12, 3, 3), 1, 1, 1),  # stacked taps
        (False, (8, 3, 32, 32), (16, 3, 5, 5), 1, 2, 1),  # thin input
        (False, (8, 24, 32, 32), (8, 24, 3, 3), 1, 1, 1),  # tap accumulation
        (False, (8, 12, 32, 32), (12, 6, 3, 3), 2, 1, 2),  # strided, grouped
        (False, (8, 12, 32, 32), (12, 1, 3, 3), 1, 1, 12),  # depthwise
        (False, (2, 48, 76, 110), (48, 48, 1, 1), 1, 0, 1),  # 1x1, tail
        (True, (8, 12, 32, 32), (12, 12, 3, 3), 1, 1, 1),
        (True, (8, 12, 16, 16), (12, 6, 4, 4), 2, 1, 1),
        (True, (2, 48, 76, 110), (48, 48, 1, 1), 1, 0, 1)])
    def test_conv_and_vjps(self, workers, monkeypatch, transpose, xs, ws,
                           s, p, g):
        monkeypatch.setattr(ops, "_BLOCK", 1 << 13)
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x = rng.standard_normal(xs, dtype=np.float32)
        w = rng.standard_normal(ws, dtype=np.float32) * 0.1
        b = rng.standard_normal(ws[transpose], dtype=np.float32)

        def op(tx, tw, tb):
            if transpose:
                return ops.conv_transpose2d(tx, tw, tb, s, p, s - 1)
            return ops.conv2d(tx, ops.ConvParams(tw, tb, s, p, g))

        got = _conv_and_vjps(op, x, w, b)
        with monkeypatch.context() as m:
            m.setattr(parallel, "workers", lambda: 1)
            want = _conv_and_vjps(op, x, w, b)
        for a, e in zip(got, want):
            np.testing.assert_array_equal(a.view(np.int32), e.view(np.int32))
        if ws[2:] == (1, 1):
            # pieces of 512 columns and a last one of 680 sum as one
            # product over each image does
            whole = np.matmul(w.reshape(ws[:2]), x.reshape(*xs[:2], -1))
            np.testing.assert_array_equal(
                ops._corr(x, w, 1, 0, 1).reshape(whole.shape), whole)

    @pytest.mark.parametrize("xs, ws, s, p, g", [
        ((8, 12, 32, 32), (12, 12, 3, 3), 1, 1, 1),  # stacked taps
        ((8, 24, 32, 32), (8, 24, 3, 3), 1, 1, 1),  # one product per tap
        ((8, 12, 32, 32), (12, 1, 3, 3), 1, 1, 12),  # depthwise
        ((2, 48, 76, 110), (48, 48, 1, 1), 1, 0, 1),  # 1x1
        ((8, 12, 32, 32), (12, 6, 3, 3), 2, 1, 2),  # strided, grouped
        ((8, 3, 32, 32), (12, 3, 4, 4), 2, 1, 1)])  # a transpose's, thin
    def test_corr_wgrad(self, workers, monkeypatch, xs, ws, s, p, g):
        # the stacked cases run 123 blocks in rounds of 17, the last one
        # short, and 31 and 14 blocks in one round, on up to three spans;
        # the other three run one block of all columns on the calling thread
        monkeypatch.setattr(ops, "_BLOCK", 1 << 13)
        monkeypatch.setattr(parallel, "SCRATCH", 3 << 16)
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x = rng.standard_normal(xs, dtype=np.float32)
        oh, ow = ops._geometry(*xs[2:], *ws[2:], s, p)[:2]
        gout = rng.standard_normal((xs[0], ws[0], oh, ow), dtype=np.float32)
        got = ops._corr_wgrad(x, gout, *ws[2:], s, p, g)
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        want = ops._corr_wgrad(x, gout, *ws[2:], s, p, g)
        assert got.shape == ws
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("xs, ws, s, p, g", [
        ((2, 48, 76, 110), (48, 48, 1, 1), 1, 0, 1),  # 1x1
        ((8, 24, 32, 32), (8, 24, 3, 3), 1, 1, 1),  # ci/g > co/g
        ((8, 12, 32, 32), (12, 1, 3, 3), 1, 1, 12),  # depthwise
        ((8, 16, 32, 30), (8, 8, 3, 3), 2, 1, 2)])  # strided, grouped
    def test_unstacked_wgrad_is_one_product_per_tap(self, monkeypatch, count,
                                                    xs, ws, s, p, g):
        # the taps of these layouts do not stack, so each one is one product
        # over all columns, as in the oracle, whatever the block size
        monkeypatch.setattr(parallel, "workers", lambda: count)
        monkeypatch.setattr(ops, "_BLOCK", 1 << 13)
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x = rng.standard_normal(xs, dtype=np.float32)
        oh, ow = ops._geometry(*xs[2:], *ws[2:], s, p)[:2]
        gout = rng.standard_normal((xs[0], ws[0], oh, ow), dtype=np.float32)
        got = ops._corr_wgrad(x, gout, *ws[2:], s, p, g)
        want = conv_oracle.corr2d_wgrad_per_tap(x, gout, *ws[2:], s, p, g)
        assert got.shape == want.shape == ws
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))

    @pytest.mark.parametrize("count, cblas", [(1, True), (3, True),
                                              (3, False)],
                             ids=["1 worker", "3 workers", "no cblas"])
    @pytest.mark.parametrize("xs, ws, s, p, g", [
        ((2, 72, 17, 30), (36, 72, 3, 3), 1, 1, 1),
        ((2, 64, 17, 30), (48, 64, 3, 3), 1, 1, 1),
        ((2, 88, 17, 30), (44, 88, 3, 3), 1, 1, 1),
        ((2, 72, 17, 30), (36, 72, 3, 3), 2, 1, 1),  # strided
        ((2, 32, 17, 30), (16, 16, 3, 3), 1, 1, 2),  # ci/g 16 > co/g 8
        ((2, 144, 17, 30), (2, 72, 3, 3), 1, 1, 2)])  # one-row products
    def test_wide_input_corr_is_the_per_tap_loop(self, monkeypatch, count,
                                                 cblas, xs, ws, s, p, g):
        # with ci/g > co/g each tap's GEMM adds into the block in place,
        # bit for bit the product through a temporary and an add, and so
        # does the np.matmul fallback where numpy exports no cblas
        monkeypatch.setattr(parallel, "workers", lambda: count)
        monkeypatch.setattr(ops, "_BLOCK", 1 << 13)
        if not cblas:
            monkeypatch.setattr(ops, "_GEMMS", ops._bind_gemms(None))
        rng = np.random.default_rng(sum(xs) + sum(ws))
        x = rng.standard_normal(xs, dtype=np.float32)
        w = rng.standard_normal(ws, dtype=np.float32) * 0.1
        got = ops._corr(x, w, s, p, g)
        want = conv_oracle.corr2d_per_tap(x, w, s, p, g, ops._BLOCK // ws[0])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int32), want.view(np.int32))


class TestGeluAtAnyWorkerCount:
    """The float32 GELU's spans take equal shares of the flat array and walk
    them in blocks, so the forward and its VJP stay bit for bit against the
    full-size oracles, with edge values at the start of every span and of
    every block in it, at any worker count."""

    @pytest.mark.parametrize("keep_d", [False, True])
    @pytest.mark.parametrize("n", [999, 2001, 5007, 12_345])
    def test_forward_and_vjp(self, workers, monkeypatch, keep_d, n):
        block = 1000
        monkeypatch.setattr(ops, "_GELU_BLOCK", block)
        rng = np.random.default_rng(n)
        x = 5 * rng.standard_normal(n, dtype=np.float32)
        g = rng.standard_normal(n, dtype=np.float32)
        edges = np.array(GELU_EDGES, np.float32)
        pairs = np.array(np.meshgrid(edges, edges)).reshape(2, -1)
        for spans in range(1, 6):  # every span start of one to five spans
            cuts = [n * i // spans for i in range(spans + 1)]
            for at in (a for e0, e1 in zip(cuts, cuts[1:])
                       for a in range(e0, e1, block)):
                m = min(pairs.shape[1], n - at)
                x[at:at + m], g[at:at + m] = pairs[:, :m]
        over_blocks, seen = parallel.over_blocks, []
        monkeypatch.setattr(parallel, "over_blocks", lambda count, run, most:
                            over_blocks(count, lambda e0, e1: (
                                seen.append(e0), run(e0, e1)), most))
        with np.errstate(all="ignore"):
            val, d = ops._gelu_f32(x, keep_d)
            phi = rational_phi(x)
            want = x * phi
            want_g = gelu_vjp_oracle(x, phi, g)
            got_g = None if d is None else d * g
        assert len(seen) == max(1, min(workers, n // block))
        assert val.view(np.int32).tobytes() == want.view(np.int32).tobytes()
        if keep_d:
            assert got_g.view(np.int32).tobytes() == \
                want_g.view(np.int32).tobytes()
        else:
            assert d is None


@pytest.mark.parametrize("count", [1, 5])
def test_span_scratch_shares_one_budget(monkeypatch, count):
    """The spans of a thin-input correlation, a band-sized GELU and a
    training step's stacked weight gradient keep their block buffers,
    scratch rows, operands and per-block products within
    ``parallel.SCRATCH`` at any worker count, on top of what one call holds
    anyway.  A pool sized for ``count`` CPUs runs each span on a thread of
    its own, and each span, once its scratch is made, waits for all the
    others, so every span's scratch is held at once."""
    monkeypatch.setattr(parallel, "workers", lambda: count)
    monkeypatch.setattr(parallel, "_cpus", lambda: count)
    monkeypatch.setattr(parallel, "_pool", None)
    over_blocks, waits = parallel.over_blocks, {}

    def all_at_once(n, run, most=None):
        barrier = threading.Barrier(
            min(n, count, n if most is None else max(1, most)), timeout=60)

        def span(b0, b1):
            waits[threading.get_ident()] = barrier
            run(b0, b1)

        over_blocks(n, span, most)

    def after_scratch(f):  # the first call a span makes past its scratch
        def wait_then(*args):
            barrier = waits.pop(threading.get_ident(), None)
            if barrier is not None:
                barrier.wait()
            return f(*args)
        return wait_then

    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(parallel, "over_blocks", all_at_once)
    monkeypatch.setattr(ops, "_horner", after_scratch(ops._horner))
    monkeypatch.setattr(ops, "_operands", after_scratch(ops._operands))
    # and 64 KiB for the calls' own objects
    budget = parallel.SCRATCH + (64 << 10)
    rng = np.random.default_rng(count)
    x = rng.standard_normal((1, 3, 270, 480), dtype=np.float32)
    w = rng.standard_normal((56, 3, 5, 5), dtype=np.float32)
    # the output and the padded input
    assert peak(ops._corr, x, w, 1, 2, 1) < \
        (56 * 270 * 480 + 3 * 274 * 484) * 4 + budget
    x = rng.standard_normal((1, 72, 18, 480), dtype=np.float32)
    for keep_d in (False, True):
        assert peak(ops._gelu_f32, x, keep_d) < \
            (1 + keep_d) * x.nbytes + budget
    x = rng.standard_normal((8, 36, 32, 32), dtype=np.float32)
    gout = rng.standard_normal((8, 72, 32, 32), dtype=np.float32)
    # the padded input's phase buffer and the padded gradient
    assert peak(ops._corr_wgrad, x, gout, 3, 3, 1, 1, 1) < \
        (36 + 72) * 8 * 34 * 34 * 4 + budget


@pytest.mark.parametrize("bad", [0, 16])
def test_encode_raises_a_block_error_unchanged(monkeypatch, bad):
    """A ``ValueError`` from one block's rows leaves ``encode_yuv420`` as
    itself, so the CLI still exits 2, and the spans ran on the pool's
    threads and started no others."""
    # three spans of one 8-row block: rows 0 on the calling thread, 16 on
    # the pool
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    monkeypatch.setattr(media, "_BLOCK", 4 * 16 * 8)
    assert media.block_rows(16) == 8

    def rgb_rows(i, k):
        if i == bad:
            raise ValueError(f"bad rows at {i}")
        return np.zeros((3, k, 16))

    def call():
        with pytest.raises(ValueError, match=f"bad rows at {bad}"):
            media.encode_yuv420(16, 24, rgb_rows)

    _adds_only_the_pool(call)



@pytest.mark.parametrize("count, kernel", [(4, "cubic"), (64, "cubic"),
                                           (64, "lanczos4")])
def test_upscale_workers_share_one_block_budget(monkeypatch, count, kernel):
    """The spans' row buffers stay within ``parallel.SCRATCH``: a 2K x2
    upscale into a given ``out`` holds about one budget of row buffers
    plus each span's halo rows, where a span per worker would hold four
    blocks at four workers and all 25 at 64."""
    monkeypatch.setattr(parallel, "workers", lambda: count)
    x = np.random.default_rng(3).random((1, 3, 540, 960), dtype=np.float32)
    out = np.empty((1, 3, 1080, 1920), np.float32)
    resample.resize_plane(x, (1080, 1920), kernel, out=out)  # warm caches
    tracemalloc.start()
    try:
        resample.resize_plane(x, (1080, 1920), kernel, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * parallel.SCRATCH


def test_ssim_spans_stay_within_the_map(monkeypatch):
    """On 64 workers a 2K map runs at most as many cache-sized blocks as
    fit in its own size, so the traced peak stays under two float64
    planes, as on one worker."""
    monkeypatch.setattr(parallel, "workers", lambda: 64)
    rng = np.random.default_rng(16)
    ref = rng.integers(0, 256, (1080, 1920), dtype=np.uint8)
    test = rng.integers(0, 256, (1080, 1920), dtype=np.uint8)
    tracemalloc.start()
    try:
        metrics.ssim_map(ref, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1080 * 1920 * 8


class _RowReads(np.ndarray):
    """A plane that notes the first row of every row slice taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.starts.append(key.start)
        return super().__getitem__(key).view(np.ndarray)


def _noting_rows(plane: np.ndarray, starts: list) -> _RowReads:
    noted = plane.view(_RowReads)
    noted.starts = starts
    return noted


def _encode(m, starts):
    media.encode_yuv420(1920, 120, lambda i, k: (
        starts.append(i), np.zeros((3, k, 1920)))[1])


def _decode(m, starts):
    planes = media.FrameBuffer.yuv_planes
    m.setattr(media.FrameBuffer, "yuv_planes", lambda frame: (
        _noting_rows(planes(frame)[0], starts), *planes(frame)[1:]))
    media.yuv420_to_rgb(
        media.FrameBuffer("yuv420", 1920, 120, bytes(1920 * 180)))


def _tensor_to_frame(m, starts):
    encode = harness.encode_yuv420
    m.setattr(harness, "encode_yuv420", lambda w, h, rgb_rows: encode(
        w, h, lambda i, k: (starts.append(i), rgb_rows(i, k))[1]))
    harness.tensor_to_frame(
        Tensor(np.zeros((1, 3, 120, 1920), np.float32)), "yuv420")


def _resize_plane(m, starts):
    out = np.empty((3, 200, 1920), np.float32)
    polyphase = resample._polyphase

    def note(x, phases, axis, dst):
        if axis == -1:  # the column pass writes the block's output rows
            starts.append((dst.ctypes.data - out.ctypes.data)
                          // out.strides[1])
        polyphase(x, phases, axis, dst)

    m.setattr(resample, "_polyphase", note)
    resample.resize_plane(np.zeros((3, 100, 960)), (200, 1920), "lanczos4",
                          out=out)


def _ssim_map(m, starts):
    as_planes = metrics._as_planes
    m.setattr(metrics, "_as_planes", lambda ref, test: (
        _noting_rows(as_planes(ref, test)[0], starts), test))
    plane = np.zeros((200, 1920))
    metrics.ssim_map(plane, plane)


def _corr(m, starts):
    operands = ops._operands

    def note(flat, col, kh, kw, s, wq, c0, c1):
        starts.append(c0)
        return operands(flat, col, kh, kw, s, wq, c0, c1)

    m.setattr(ops, "_operands", note)
    ops._corr(np.zeros((1, 36, 64, 480), np.float32),
              np.zeros((36, 36, 3, 3), np.float32), 1, 1, 1)


@pytest.mark.parametrize("walk", [_encode, _decode, _tensor_to_frame,
                                  _resize_plane, _ssim_map, _corr],
                         ids=lambda walk: walk.__name__.lstrip("_"))
def test_blocks_do_not_depend_on_the_worker_count(monkeypatch, walk):
    """Every blocked loop walks the same blocks at 1, 2, 3 and 5 workers:
    the first rows (columns, in the conv core) of the blocks it reads or
    writes are equal, and only the spans that run them change."""
    walks = []
    for count in (1, 2, 3, 5):
        monkeypatch.setattr(parallel, "workers", lambda: count)
        starts = []
        with monkeypatch.context() as m:
            walk(m, starts)
        walks.append(sorted(starts))
    assert len(walks[0]) > 2
    assert walks == [walks[0]] * 4


@pytest.fixture
def openblas_threads():
    """The getter and setter of the OpenBLAS thread count that numpy links."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get is None:
        pytest.skip("numpy links no scipy-openblas64")
    get.argtypes, get.restype = [], ctypes.c_int
    put = lib.scipy_openblas_set_num_threads64_
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _two_blas_threads(code: str) -> str:
    """``code``'s output in a fresh interpreter whose environment asks
    OpenBLAS for two threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


class TestBlasPin:
    def test_import_pins_openblas_to_one_thread(self, openblas_threads):
        assert _two_blas_threads(
            "import ctypes, numpy as np\n"
            "from odsr import parallel\n"
            "lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)\n"
            "print(lib.scipy_openblas_get_num_threads64_())") == "1"

    def test_runtime_sample_records_one_blas_thread(self, openblas_threads):
        assert _two_blas_threads(
            "import odsr\n"
            "from odsr import harness\n"
            "sample = harness.measure_runtime(lambda x: x, (4, 4), reps=3)\n"
            "print(sample.blas_threads)") == "1"

    @pytest.mark.parametrize("lib", ["no-such-library.so",
                                     ctypes.util.find_library("c")],
                             ids=["no library", "no setter"])
    def test_a_missing_library_or_setter_changes_nothing(
            self, openblas_threads, lib):
        get, put = openblas_threads
        put(2)
        try:
            parallel._pin_blas(lib)
            assert get() == 2
        finally:
            put(1)

    def test_float64_pointwise_pieces_sum_as_one_product(self):
        """Under OpenBLAS's own threads a float64 56x432x9642 1x1 product
        in column pieces differed from one product in its last columns;
        with the pin the pieces sum as one product in every environment."""
        assert _two_blas_threads(
            "import numpy as np\n"
            "from odsr.engine import ops\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.standard_normal((1, 432, 1, 9642))\n"
            "w = rng.standard_normal((56, 432))\n"
            "out = np.empty((1, 56, 1, 9642))\n"
            "ops._pointwise(x, w, out)\n"
            "whole = w @ x.reshape(432, -1)\n"
            "print(np.flatnonzero((out.reshape(56, -1) != whole).any(0)))"
        ) == "[]"
