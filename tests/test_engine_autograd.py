"""Finite-difference validation of every differentiable op and full nets."""
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import check_gradients, numeric_grad, rel_err

from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward
from odsr.models import blocks, builders
from odsr.models.networks import Network


def rnd(*shape, seed=0, lo=-1.0, hi=1.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def away_from_kinks(*shape, seed=0, margin=0.1):
    """Uniform samples with |x| >= margin (keeps relu/abs differentiable)."""
    x = rnd(*shape, seed=seed)
    return np.where(np.abs(x) < margin, np.sign(x) * margin + x, x)


class TestElementwiseGrads:
    def test_add_sub_broadcast(self):
        a, b = rnd(2, 3, 2, 2, seed=1), rnd(1, 3, 1, 1, seed=2)
        check_gradients(lambda x, y: ops.add(x, y), [a, b])
        check_gradients(lambda x, y: ops.sub(x, y), [a, b])

    def test_mul_div(self):
        a = rnd(3, 4, seed=3)
        b = rnd(3, 4, seed=4) + 2.0
        check_gradients(lambda x, y: ops.mul(x, y), [a, b])
        check_gradients(lambda x, y: ops.div(x, y), [a, b])
        check_gradients(lambda x: ops.div(1.0, x), [b])

    def test_unary(self):
        a = np.abs(rnd(3, 5, seed=5)) + 0.3
        check_gradients(ops.neg, [a])
        check_gradients(ops.square, [a])
        check_gradients(ops.sqrt, [a])
        check_gradients(ops.exp, [a])
        check_gradients(ops.absolute, [away_from_kinks(3, 5, seed=6)])

    def test_reductions(self):
        a = rnd(2, 3, 4, 4, seed=7)
        check_gradients(lambda x: ops.tsum(x, axis=(2, 3)), [a])
        check_gradients(lambda x: ops.tmean(x, axis=1, keepdims=True), [a])
        check_gradients(ops.tmean, [a])

    def test_activations(self):
        a = away_from_kinks(4, 6, seed=8)
        check_gradients(ops.relu, [a])
        check_gradients(ops.leaky_relu, [a])
        check_gradients(ops.gelu, [rnd(4, 6, seed=9)])


class TestConvGrads:
    def test_conv2d_all_inputs(self):
        x = rnd(2, 3, 5, 6, seed=10)
        w = rnd(4, 3, 3, 3, seed=11)
        b = rnd(4, seed=12)

        def fn(xt, wt, bt):
            p = ops.ConvParams(weight=wt, bias=bt, stride=1, padding=1,
                               groups=1)
            return ops.conv2d(xt, p)

        check_gradients(fn, [x, w, b])

    def test_conv2d_strided_grouped(self):
        x = rnd(1, 4, 6, 6, seed=13)
        w = rnd(4, 2, 3, 3, seed=14)

        def fn(xt, wt):
            p = ops.ConvParams(weight=wt, bias=None, stride=2, padding=1,
                               groups=2)
            return ops.conv2d(xt, p)

        check_gradients(fn, [x, w])

    def test_conv2d_depthwise(self):
        x = rnd(1, 3, 5, 5, seed=15)
        w = rnd(3, 1, 3, 3, seed=16)

        def fn(xt, wt):
            p = ops.ConvParams(weight=wt, bias=None, stride=1, padding=1,
                               groups=3)
            return ops.conv2d(xt, p)

        check_gradients(fn, [x, w])

    def test_upsample_conv3x3_all_inputs(self):
        for s, seed in ((2, 33), (3, 37)):
            x = rnd(2, 2, 3, 4, seed=seed)
            w = rnd(3, 2, 3, 3, seed=seed + 1)
            b = rnd(3, seed=seed + 2)
            skip = rnd(2, 3, 3, 4, seed=seed + 3)
            check_gradients(
                lambda xt, wt, bt, st: ops.conv_transpose2d(
                    ops.concat_channels([xt, st]),
                    ops.resize_conv_kernel(wt, s), bt, s, 1),
                [x, w, b, skip])

    def test_conv_transpose_all_inputs(self):
        x = rnd(1, 2, 4, 4, seed=17)
        w = rnd(2, 3, 4, 4, seed=18)
        b = rnd(3, seed=19)

        def fn(xt, wt, bt):
            return ops.conv_transpose2d(xt, wt, bt, stride=2, padding=1,
                                        output_padding=1)

        check_gradients(fn, [x, w, b])


    @pytest.mark.parametrize("k,s,p,op", [(3, 2, 3, 1), (5, 2, 6, 1)])
    def test_conv_transpose_padding_beyond_kernel(self, k, s, p, op):
        x = rnd(1, 2, 6, 7, seed=20)
        w = rnd(2, 3, k, k, seed=21)
        b = rnd(3, seed=22)
        check_gradients(
            lambda xt, wt, bt: ops.conv_transpose2d(xt, wt, bt, s, p, op),
            [x, w, b])


class TestGradientRequest:
    """A tape told which leaves to differentiate computes only what they
    need, and gives them the same gradients as a request for more leaves."""

    def test_conv_weight_and_bias_only(self):
        x = rnd(2, 3, 5, 6, seed=40)
        w = rnd(4, 3, 3, 3, seed=41)
        b = rnd(4, seed=42)

        def fn(xt, wt, bt):
            return ops.conv2d(xt, ops.ConvParams(wt, bt, stride=2,
                                                 padding=1))

        xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
        with Tape(wrt=[wt, bt]) as tape:
            loss = ops.tsum(fn(xt, wt, bt))
        grads = backward(tape, loss)
        assert set(grads) == {wt, bt}
        for i, t in ((1, wt), (2, bt)):
            assert rel_err(grads[t], numeric_grad(fn, [x, w, b], i)) < 1e-6

    @pytest.mark.parametrize("transpose", [False, True])
    def test_unrequested_conv_input_runs_no_input_gradient(self, monkeypatch,
                                                           transpose):
        # conv2d's input gradient is _corr_transpose, conv_transpose2d's is
        # _corr; neither runs in backward when only the weights are asked
        kernel = "_corr" if transpose else "_corr_transpose"
        x = Tensor(rnd(1, 2, 5, 5, seed=43))
        b = Tensor(rnd(3, seed=45))
        if transpose:
            w = Tensor(rnd(2, 3, 3, 3, seed=44))
            op = lambda: ops.conv_transpose2d(x, w, b, stride=2, padding=1)
        else:
            w = Tensor(rnd(3, 2, 3, 3, seed=44))
            op = lambda: ops.conv2d(x, ops.ConvParams(w, b, 2, 1))
        with Tape(wrt=[w, b]) as tape:
            loss = ops.tsum(ops.square(op()))
        calls = []
        real = getattr(ops, kernel)
        monkeypatch.setattr(ops, kernel,
                            lambda *a: calls.append(a) or real(*a))
        grads = backward(tape, loss)
        assert calls == [] and set(grads) == {w, b}
        # asking for the input too does call it
        with Tape(wrt=[x, w, b]) as tape:
            loss = ops.tsum(ops.square(op()))
        del calls[:]
        grads = backward(tape, loss)
        assert len(calls) == 1 and set(grads) == {x, w, b}

    @pytest.mark.parametrize("k,p,groups", [(1, 0, 1), (3, 0, 1), (3, 1, 1),
                                            (3, 2, 1), (5, 2, 2), (5, 4, 1),
                                            (3, 1, 4)])
    def test_stride1_input_gradient_is_one_trimmed_corr(self, monkeypatch,
                                                        k, p, groups):
        # the sub-pixel correlation computes only the rows the input has:
        # one _corr at padding k-1-p, returned as is
        x = Tensor(rnd(2, 4, 6, 7, seed=46))
        w = Tensor(rnd(4, 4 // groups, k, k, seed=47))
        with Tape(wrt=[x, w]) as tape:
            loss = ops.tsum(ops.square(ops.conv2d(
                x, ops.ConvParams(w, None, 1, p, groups))))
        calls = []
        real = ops._corr

        def spy(*args):
            out = real(*args)
            calls.append((args[2:], out.shape))
            return out

        monkeypatch.setattr(ops, "_corr", spy)
        grads = backward(tape, loss)
        assert calls == [((1, k - 1 - p, groups), x.shape)]
        assert grads[x].shape == x.shape

    @pytest.mark.parametrize("scale", [2, 4])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_parameter_gradients_bitwise_equal_to_full(self, name, scale):
        # asking for the data too records every op and runs every input
        # gradient; the parameter gradients must not change by a bit
        net = Network.init(builders.build(name, scale), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((2, 3, 8, 8), dtype=np.float32))
        target = Tensor(rng.random((2, 3, 8 * scale, 8 * scale),
                                   dtype=np.float32))
        runs = []
        for wrt in ([x, target, *net.params.values()], net.params.values()):
            with Tape(wrt=wrt) as tape:
                loss = ops.tmean(ops.absolute(ops.sub(net(x), target)))
            runs.append(backward(tape, loss))
        full, part = runs
        assert x in full and target in full
        assert set(part) == set(net.params.values())
        for pname, t in net.params.items():
            assert part[t].tobytes() == full[t].tobytes(), pname


class TestTapeKeys:
    """Nodes name tensors by keys the tape hands out, never by ``id()``."""

    def test_reused_id_of_freed_output_is_not_on_the_tape(self):
        x = Tensor(rnd(3, 4, seed=60))
        with Tape(wrt=[x]) as tape:
            y = ops.square(x)
            freed = id(y)
            del y  # its node keeps only x: the id is free for reuse
            arr = rnd(3, 4, seed=61)
            made = [Tensor(arr)]
            while id(made[-1]) != freed and len(made) < 10_000:
                made.append(Tensor(arr))
            off = made[-1]
            assert id(off) == freed
            assert not tape.needs_grad(off)
            loss = ops.tsum(ops.mul(off, x))
        grads = backward(tape, loss)
        assert list(grads) == [x]
        # had ``off`` been taken for y, square's VJP would add 2x·x
        assert grads[x].tobytes() == arr.tobytes()

    def test_output_of_one_tape_is_a_leaf_on_the_next(self):
        x = Tensor(rnd(3, 4, seed=62))
        with Tape(wrt=[x]) as first:
            y = ops.tsum(ops.square(x))
        with Tape(wrt=[y]) as second:
            z = ops.mul(y, 3.0)
        assert second.needs_grad(y) and second._key_of(y) == 0
        assert backward(second, z) == {y: 3.0}
        np.testing.assert_array_equal(backward(first, y)[x], 2.0 * x.data)

    def test_fan_out_sums_both_vjps(self):
        x = Tensor(rnd(3, 4, seed=63))
        with Tape(wrt=[x]) as tape:
            y = ops.exp(x)
            loss = ops.tsum(ops.mul(ops.mul(x, x), y))
        g = backward(tape, loss)[x]
        # d/dx x²eˣ = 2x·eˣ + x²·eˣ, from both sides of each mul
        np.testing.assert_allclose(g, (2 * x.data + x.data ** 2)
                                   * np.exp(x.data), rtol=1e-12)
        with Tape(wrt=[x]) as tape:
            loss = ops.tsum(ops.mul(x, x))
        assert backward(tape, loss)[x].tobytes() == (2 * x.data).tobytes()


class TestTapeKeepsOnlyWhatVjpsRead:
    """The tape holds no tensor, and each VJP closure only what it reads."""

    @staticmethod
    def chain(x, w):
        """conv -> residual add -> upsample -> fft -> ifft -> GELU -> sum,
        with every intermediate returned."""
        conv = ops.conv2d(x, ops.ConvParams(w, None, 1, 1))
        res = ops.add(conv, x)
        up = ops.upsample_nearest(res, (8, 10))
        inv = ops.ifft2_rc(ops.fft2_rc(up))
        return conv, res, up, inv, ops.tsum(ops.gelu(inv))

    def test_dropped_arrays_die_under_the_tape(self):
        x = Tensor(rnd(2, 3, 4, 5, seed=64).astype(np.float32))
        w = Tensor(rnd(3, 3, 3, 3, seed=65).astype(np.float32))
        with Tape(wrt=[w]) as tape:
            conv, res, up, inv, loss = self.chain(x, w)
        assert inv.data.base.dtype == np.complex64  # a view of the buffer
        refs = {name: weakref.ref(a) for name, a in (
            ("conv output", conv.data), ("add output", res.data),
            ("upsample output", up.data), ("ifft buffer", inv.data.base),
            ("GELU input", inv.data))}
        del conv, res, up, inv
        alive = [name for name, ref in refs.items() if ref() is not None]
        assert alive == []
        got = backward(tape, loss)[w]
        with Tape(wrt=[w]) as tape:
            *kept, loss = self.chain(x, w)
        assert got.tobytes() == backward(tape, loss)[w].tobytes()

    def test_ffcir_block_pair_keeps_what_its_vjps_read(self):
        n, c, h, w = 2, 36, 16, 16
        f32, idx = 4, np.dtype(np.intp).itemsize
        plane = n * c * h * w * f32  # one c-channel float32 map
        g = c // 4  # channels per Safm level
        pooled = sum(n * g * (h >> i) * (w >> i) for i in (1, 2, 3))
        saved = (
            # Safm: the level-0 depthwise conv's input, each pooled level's
            # argmax index and conv input, the 1x1 aggregation's input,
            # GELU's derivative and the GELU output the gate multiplies
            n * g * h * w * f32 + pooled * (idx + f32) + 3 * plane
            # Ffc: the 2c-channel spectrum (the 1x1 conv's input) and
            # GELU's derivative
            + 2 * 2 * plane
            # the 2c-channel concat the fusing 1x1 conv reads
            + 2 * plane
            # Ccm: the expand conv's input, then GELU's derivative and its
            # output (the project conv's input) at 2c channels
            + plane + 2 * 2 * plane
            # the pair's output, held by the caller
            + plane)
        # nodes, closures, key tuples and the upsample index vectors: less
        # than one c-channel map, so a closure that keeps any map alive fails
        slack = 48 * 1024
        spec = builders.build("ffcir", 2)
        params = Network.init(spec, seed=0).params
        pair = spec.layers[2].body[:2]
        x = Tensor(rnd(n, c, h, w, seed=66).astype(np.float32))

        def forward():
            with Tape(wrt=[x, *params.values()]) as tape:
                out = blocks.run_layers(pair, x, params, "net.2")
            return tape, out

        forward()  # first-call caches (FFT plans) stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape, out = forward()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.shape == (n, c, h, w) and len(tape.nodes) > 20
        assert kept <= saved + slack, (kept, saved)


class TestShapeGrads:
    def test_pixel_shuffle_unshuffle(self):
        x = rnd(1, 8, 3, 4, seed=20)
        check_gradients(lambda t: ops.pixel_shuffle(t, 2), [x])
        y = rnd(1, 2, 6, 8, seed=21)
        check_gradients(lambda t: ops.pixel_unshuffle(t, 2), [y])

    def test_adaptive_max_pool(self):
        # distinct values keep the argmax stable under FD nudges
        rng = np.random.default_rng(22)
        x = rng.permutation(7 * 9 * 2).reshape(1, 2, 7, 9) * 0.01
        check_gradients(lambda t: ops.adaptive_max_pool(t, (3, 4)), [x])

    def test_upsample_nearest(self):
        x = rnd(1, 2, 3, 4, seed=23)
        check_gradients(lambda t: ops.upsample_nearest(t, (7, 9)), [x])

    def test_channel_ops(self):
        a, b = rnd(1, 2, 3, 3, seed=24), rnd(1, 3, 3, 3, seed=25)
        check_gradients(lambda x, y: ops.concat_channels([x, y]), [a, b])
        check_gradients(lambda x: ops.slice_channels(x, 1, 3), [b])
        check_gradients(lambda x: ops.repeat_channels(x, 3), [a])


class TestSpectralGrads:
    def test_fft2_rc(self):
        x = rnd(1, 2, 4, 4, seed=26)
        check_gradients(ops.fft2_rc, [x])

    def test_ifft2_rc(self):
        z = rnd(1, 4, 4, 4, seed=27)
        check_gradients(ops.ifft2_rc, [z])

    def test_fft_weighted_composition(self):
        x = rnd(1, 1, 4, 4, seed=28)
        r = rnd(1, 2, 4, 4, seed=29)

        def fn(t):
            return ops.mul(ops.fft2_rc(t), Tensor(r))

        check_gradients(fn, [x])

    def test_grn(self):
        x = rnd(2, 3, 4, 4, seed=30)
        gamma = rnd(1, 3, 1, 1, seed=31)
        beta = rnd(1, 3, 1, 1, seed=32)
        check_gradients(lambda a, g, b: ops.grn(a, g, b), [x, gamma, beta])


class TestFullNetworks:
    """Sampled finite differences through each complete architecture."""

    NAMES = ("ffcir", "cspsr", "vacv", "athena", "fsrcnn")

    @pytest.mark.parametrize("name", NAMES)
    def test_sampled_fd(self, name):
        scale = 2
        net = Network.init(builders.build(name, scale), seed=0,
                           dtype=np.float64)
        rng = np.random.default_rng(41)
        x = rng.uniform(0.0, 1.0, size=(1, 3, 16, 16))
        cot = rng.standard_normal((1, 3, 32, 32))

        def loss_value():
            y = net(Tensor(x))
            return float((y.data * cot).sum())

        with Tape(wrt=net.params.values()) as tape:
            y = net(Tensor(x))
            loss = ops.tsum(ops.mul(y, Tensor(cot)))
        grads = backward(tape, loss)

        def central_diff(flat, k, step):
            orig = flat[k]
            flat[k] = orig + step
            hi = loss_value()
            flat[k] = orig - step
            lo = loss_value()
            flat[k] = orig
            return (hi - lo) / (2.0 * step)

        names = sorted(net.params)
        picks = [names[int(i)] for i in
                 np.linspace(0, len(names) - 1, 6).round()]
        for pname in picks:
            t = net.params[pname]
            flat = t.data.reshape(-1)
            gflat = grads[t].reshape(-1)
            # floor the relative error by the parameter's gradient scale so
            # FD roundoff on a near-zero coordinate cannot dominate
            floor = max(1e-3 * float(np.abs(gflat).max()), 1e-8)
            for k in (int(np.abs(gflat).argmax()),
                      int(rng.integers(flat.size))):
                ad = float(gflat[k])
                # walk the step ladder: large steps beat roundoff on
                # tiny-gradient coordinates, small steps clear relu kinks;
                # a wrong VJP disagrees at every step
                best = np.inf
                for step in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                    fd = central_diff(flat, k, step)
                    best = min(best,
                               abs(fd - ad) / max(abs(fd), abs(ad), floor))
                    if best < 1e-4:
                        break
                assert best < 1e-4, (
                    f"{name}.{pname}[{k}]: autograd {ad:.8g} never matched "
                    f"FD (best rel {best:.3g})")

    def test_input_gradient_full_net(self):
        net = Network.init(builders.build("athena", 2), seed=1,
                           dtype=np.float64)
        rng = np.random.default_rng(42)
        x = rng.uniform(0.2, 0.8, size=(1, 3, 8, 8))
        xt = Tensor(x.copy())
        with Tape(wrt=[xt]) as tape:
            loss = ops.tsum(ops.square(net(xt)))
        g = backward(tape, loss)[xt]
        for _ in range(4):
            i = tuple(int(v) for v in (0, rng.integers(3),
                                       rng.integers(8), rng.integers(8)))
            orig = x[i]
            x[i] = orig + 1e-6
            hi = float(np.sum(net(Tensor(x)).data ** 2))
            x[i] = orig - 1e-6
            lo = float(np.sum(net(Tensor(x)).data ** 2))
            x[i] = orig
            fd = (hi - lo) / 2e-6
            err = abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-6)
            assert err < 1e-4

    def test_no_dead_parameters_any_architecture(self):
        for name in self.NAMES:
            net = Network.init(builders.build(name, 2), seed=3,
                               dtype=np.float64)
            rng = np.random.default_rng(7)
            x = Tensor(rng.uniform(0.0, 1.0, size=(1, 3, 12, 12)))
            with Tape(wrt=net.params.values()) as tape:
                loss = ops.tsum(ops.square(net(x)))
            grads = backward(tape, loss)
            for pname, t in net.params.items():
                assert t in grads, f"{name}.{pname} missing from grads"
                assert float(np.abs(grads[t]).max()) > 0.0, \
                    f"{name}.{pname} gradient identically zero"
