"""Architecture structure, parameter anchors, checkpoints, resampling."""
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resample_oracle
from odsr import trainer
from odsr.engine.tensor import Tape, Tensor, backward
from odsr.models import builders, checkpoint, networks, resample

ANCHORS = (
    # name, scale, published count, tolerance
    ("ffcir", 4, 394_824, 0.10),
    ("ffcir", 2, 383_124, 0.10),
    ("cspsr", 4, 232_128, 0.15),
    ("vacv", 4, 315_120, 0.15),
    ("athena", 4, 188_160, 0.15),
    ("fsrcnn", 4, 24_683, 0.20),
)


class TestParameterAnchors:
    @pytest.mark.parametrize("name,scale,want,tol", ANCHORS)
    def test_anchor(self, name, scale, want, tol):
        got = networks.count_params(builders.build(name, scale))
        assert abs(got - want) / want <= tol, (
            f"{name} x{scale}: {got} vs published {want}")

    def test_ffcir_exact(self):
        assert networks.count_params(builders.build("ffcir", 4)) == 394_824
        assert networks.count_params(builders.build("ffcir", 2)) == 383_124


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    @pytest.mark.parametrize("scale", (2, 4))
    def test_forward_shape(self, name, scale):
        net = networks.Network.init(builders.build(name, scale), seed=0)
        y = net(Tensor(np.random.default_rng(0).random(
            (1, 3, 8, 12), dtype=np.float32)))
        assert y.shape == (1, 3, 8 * scale, 12 * scale)
        assert y.dtype == np.float32

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builders.build("nonexistent", 2)

    def test_unsupported_scale(self):
        with pytest.raises(ValueError):
            builders.build("ffcir", 3)

    def test_forward_deterministic(self):
        net = networks.Network.init(builders.build("vacv", 2), seed=5)
        x = Tensor(np.random.default_rng(1).random((1, 3, 10, 10),
                                                   dtype=np.float32))
        np.testing.assert_array_equal(net(x).data, net(x).data)

    def test_init_seed_controls_weights(self):
        spec = builders.build("fsrcnn", 2)
        a = networks.init_params(spec, seed=0)
        b = networks.init_params(spec, seed=0)
        c = networks.init_params(spec, seed=1)
        name = next(iter(a))
        np.testing.assert_array_equal(a[name].data, b[name].data)
        assert np.abs(a[name].data - c[name].data).max() > 0

    def test_zero_fan_in_params_init_to_zero(self):
        spec = builders.build("ffcir", 2)
        params = networks.init_params(spec, seed=0)
        for ps in networks.param_specs(spec):
            if ps.fan_in is None:
                assert np.all(params[ps.name].data == 0.0), ps.name

    def test_param_table_validation(self):
        spec = builders.build("fsrcnn", 2)
        params = networks.init_params(spec, seed=0)
        bad = dict(params)
        bad.popitem()
        with pytest.raises(ValueError):
            networks.Network(spec, bad)

    def test_input_contract(self):
        net = networks.Network.init(builders.build("athena", 2), seed=0)
        with pytest.raises(ValueError):
            net(Tensor(np.zeros((3, 8, 8), dtype=np.float32)))
        with pytest.raises(ValueError):
            net(Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32)))


class TestFlops:
    def test_positive_and_resolution_scaling(self):
        spec = builders.build("cspsr", 2)
        f1 = networks.count_flops(spec, (16, 16))
        f2 = networks.count_flops(spec, (32, 32))
        assert f1 > 0
        # conv-dominated cost grows ~4x with 4x the pixels
        assert 3.5 < f2 / f1 < 4.5

    def test_same_output_resolution_favors_larger_scale(self):
        # both produce 256x256; the x2 model pushes 4x the pixels
        # through its body, so it costs more per output frame
        f2 = networks.count_flops(builders.build("athena", 2), (128, 128))
        f4 = networks.count_flops(builders.build("athena", 4), (64, 64))
        assert f2 > f4


class TestFloat32Audit:
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_forward_and_backward_stay_float32(self, name):
        """Every tape node's output and every VJP gradient is float32."""
        spec = builders.build(name, 2)
        net = networks.Network.init(spec, seed=0)
        hw = -(-max(spec.min_hw, 8) // spec.hw_multiple) * spec.hw_multiple
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, hw, hw), dtype=np.float32))
        target = Tensor(rng.random((2, 3, 2 * hw, 2 * hw), dtype=np.float32))
        loss_fn = trainer.make_loss(
            trainer.TrainConfig(loss="charbonnier+fft"))
        with Tape() as tape:
            loss = loss_fn(net(x), target, None)
        grads = []

        def spying(vjp):
            def wrapped(g):
                out = vjp(g)
                grads.extend((g,) + tuple(out))
                return out
            return wrapped

        for node in tape.nodes:
            assert node.out.dtype == np.float32
            node.vjp = spying(node.vjp)
        backward(tape, loss)
        assert len(grads) > len(tape.nodes)
        dtypes = {a.dtype for a in grads if a is not None}
        assert dtypes == {np.dtype(np.float32)}


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net = networks.Network.init(builders.build("athena", 2), seed=3)
        path = tmp_path / "w.bin"
        checkpoint.save_checkpoint(path, net)
        back = checkpoint.load_checkpoint(path)
        assert back.name == "athena" and back.scale == 2
        for k, t in net.params.items():
            np.testing.assert_array_equal(back.params[k].data, t.data)

    def test_magic_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"NOTRIGHT" + b"\0" * 64)
        with pytest.raises(ValueError):
            checkpoint.load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        net = networks.Network.init(builders.build("fsrcnn", 2), seed=0)
        blob = checkpoint.dumps_params(net.spec.name, net.scale,
                                       {k: v.data for k, v
                                        in net.params.items()})
        path = tmp_path / "t.bin"
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="offset|byte"):
            checkpoint.load_checkpoint(path)

    def test_spec_mismatch_rejected(self, tmp_path):
        net = networks.Network.init(builders.build("fsrcnn", 2), seed=0)
        path = tmp_path / "w.bin"
        checkpoint.save_checkpoint(path, net)
        with pytest.raises(ValueError):
            checkpoint.load_checkpoint(path, builders.build("fsrcnn", 4))

    def test_duplicate_name_rejected(self):
        w = Tensor(np.ones((2, 3), np.float32))
        blob = checkpoint.dumps_params("fsrcnn", 2, {"a": w, "b": w})
        blob = blob.replace(b"\x01\x00b", b"\x01\x00a")  # rename b -> a
        with pytest.raises(ValueError, match="duplicate.*'a'"):
            checkpoint.loads_params(blob)

    def test_zero_size_dim_rejected(self):
        blob = checkpoint.dumps_params(
            "fsrcnn", 2, {"head.w": Tensor(np.ones((4, 0, 3), np.float32))})
        with pytest.raises(ValueError, match="'head.w'.*zero-size"):
            checkpoint.loads_params(blob)


class TestResample:
    @pytest.mark.parametrize("src,dst,kernel", [
        (960, 1920, "cubic"), (1920, 960, "cubic"), (480, 1920, "lanczos4"),
        (540, 1080, "lanczos4"), (64, 16, "cubic"), (1, 7, "cubic")])
    def test_matrix_matches_row_oracle_bitwise(self, src, dst, kernel):
        for antialias in (True, False):
            got = resample.resize_matrix(src, dst, kernel, antialias)
            want = resample_oracle.resize_matrix(src, dst, kernel, antialias)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300),
           st.sampled_from(["cubic", "lanczos4"]), st.booleans())
    def test_matrix_matches_row_oracle_bitwise_any_size(self, src, dst,
                                                        kernel, antialias):
        got = resample.resize_matrix(src, dst, kernel, antialias)
        want = resample_oracle.resize_matrix(src, dst, kernel, antialias)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_cubic_interpolates_linear_ramp(self):
        # Catmull-Rom reproduces degree-1 polynomials away from borders
        src = np.arange(16, dtype=np.float64)[None, :].repeat(4, axis=0)
        out = resample.resize_plane(src, (4, 32))
        inner = out[:, 4:-4]
        xs = (np.arange(32) + 0.5) / 2.0 - 0.5
        np.testing.assert_allclose(inner, np.broadcast_to(xs[4:-4],
                                                          inner.shape),
                                   atol=1e-9)

    def test_constant_preserved(self):
        src = np.full((6, 9), 3.25)
        for kernel in ("cubic", "lanczos4"):
            up = resample.resize_plane(src, (13, 21), kernel)
            np.testing.assert_allclose(up, 3.25, atol=1e-9)

    def test_downscale_divisibility(self):
        with pytest.raises(ValueError):
            resample.bicubic_downscale(np.zeros((7, 8)), 2)

    def test_uint8_roundtrip_types(self):
        img = np.random.default_rng(0).integers(0, 256, (8, 10, 3),
                                                dtype=np.uint8)
        up = resample.resize_image(img, (16, 20))
        assert up.dtype == np.uint8 and up.shape == (16, 20, 3)

    def test_upscale_then_downscale_near_identity_on_smooth_input(self):
        # antialiasing removes detail above the target Nyquist, so the
        # roundtrip is only close for band-limited content
        yy, xx = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 14),
                             indexing="ij")
        img = 0.5 + 0.3 * yy - 0.2 * xx + 0.05 * np.cos(2 * np.pi * xx)
        back = resample.bicubic_downscale(resample.bicubic_upscale(img, 2), 2)
        assert np.abs(back - img).max() < 0.02

    def test_lanczos_kernel_taps(self):
        # 4-tap kernel: zero at integers >= 1, support ends at 4
        assert resample.lanczos_kernel(np.array([0.0]))[0] == 1.0
        for t in (1.0, 2.0, 3.0):
            assert abs(resample.lanczos_kernel(np.array([t]))[0]) < 1e-12
        assert resample.lanczos_kernel(np.array([4.2]))[0] == 0.0
