"""Architecture structure, parameter anchors, checkpoints, resampling."""
import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resample_oracle
from odsr import trainer
from odsr.engine.tensor import Tape, Tensor, backward
from odsr.models import blocks, builders, checkpoint, networks, resample

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

    def test_vacv_forward_builds_no_hr_feature_map(self):
        """vacv's upsampling tail runs at LR: an x4 forward peaks below the
        size of one 44-channel map at the output resolution."""
        net = networks.Network.init(builders.build("vacv", 4), seed=0)
        h, w = 32, 48
        x = Tensor(np.random.default_rng(0).random((1, 3, h, w),
                                                   dtype=np.float32))
        tracemalloc.start()
        try:
            net(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 44 * (4 * h) * (4 * w) * x.data.itemsize

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


# SHA-256 over the "name|shape|fan_in" rows of each parameter table.
# Names, order and fan-in fix checkpoint layout and seeded init weights.
PARAM_TABLE_SHA256 = {
    ("athena", 2): "8097e234cd22acda0fa8f0b8c5b6a6fcba5078d82f8dded046733f32af8aef75",
    ("athena", 4): "6fc1b508beb1691e76a34b6464886167fe7ef36e8b8275bee2456d6d9a531d01",
    ("cspsr", 2): "031cee2ace73bea58c8084e27696b9fda2aa7cabf9638852fc724804e6d8bfd1",
    ("cspsr", 4): "5f4b8ccda99b773b56e6c4b2722ba18752fbd518ad992da69d5ea34fc1a0e861",
    ("ffcir", 2): "9e44493fee9c35438ae6d4b7e16a178e673f8152c4432bd94fef6b46336cdd15",
    ("ffcir", 4): "6198966c05b2715f2888e9fef91eb43c620781cf76cc8f5e74087b49fbb308cf",
    ("fsrcnn", 2): "4f68a6e6ec8827411e0f541d930b2d10e5034aaa4773414f803445305675e3bc",
    ("fsrcnn", 4): "4f68a6e6ec8827411e0f541d930b2d10e5034aaa4773414f803445305675e3bc",
    ("vacv", 2): "0dd1048e4f5f0a4976f6bdd5991cab8b4e2d29e8dc5b89488cb6e01988a41273",
    ("vacv", 4): "0dd1048e4f5f0a4976f6bdd5991cab8b4e2d29e8dc5b89488cb6e01988a41273",
}

MISWIRED = {
    "conv": ((blocks.Conv(36, 3, 3),), "Conv expects 36 channels, got 3"),
    "conv_transpose": ((blocks.ConvTranspose(4, 3, 3),),
                       "ConvTranspose expects 4 channels, got 3"),
    "grn": ((blocks.Grn(4),), "Grn expects 4 channels, got 3"),
    "safm": ((blocks.Safm(4),), "Safm expects 4 channels, got 3"),
    "ccm": ((blocks.Ccm(4),), "Ccm expects 4 channels, got 3"),
    "ffc": ((blocks.Ffc(4),), "Ffc expects 4 channels, got 3"),
    "csp": ((blocks.CspBlock(4),), "CspBlock expects 4 channels, got 3"),
    "downscale_head": ((blocks.DownscaleHead(4, 1),),
                       "DownscaleHead expects 4 channels, got 3"),
    "pixel_shuffle": ((blocks.PixelShuffle(2),),
                      "PixelShuffle(2) needs channels divisible by 4, got 3"),
    "residual": ((blocks.Residual((blocks.Conv(3, 4, 1),)),),
                 "Residual body maps 3 -> 4 channels"),
    "upsample_add_skip": (
        (blocks.UpsampleAddSkip(2, (blocks.Conv(3, 4, 1),)),),
        "UpsampleAddSkip body maps 3 -> 4 channels"),
    "upsample_add_skip_tail": (
        (blocks.UpsampleAddSkip(2, (blocks.Conv(3, 3, 3, padding=1),)),),
        "UpsampleAddSkip body must end in RepeatChannels(4), PixelShuffle(2), "
        "Conv(c, 3, 3, padding=1)"),
    "upsample_add_skip_scale": (
        (blocks.UpsampleAddSkip(2, (blocks.RepeatChannels(16),
                                    blocks.PixelShuffle(4),
                                    blocks.Conv(3, 3, 3, padding=1))),),
        "UpsampleAddSkip body must end in RepeatChannels(4), PixelShuffle(2), "
        "Conv(c, 3, 3, padding=1)"),
    "upsample_add_skip_kernel": (
        (blocks.UpsampleAddSkip(2, (blocks.RepeatChannels(4),
                                    blocks.PixelShuffle(2),
                                    blocks.Conv(3, 3, 1))),),
        "UpsampleAddSkip body must end in RepeatChannels(4), PixelShuffle(2), "
        "Conv(c, 3, 3, padding=1)"),
    "network_tail": ((blocks.Conv(3, 4, 1),),
                     "network must end with 3 channels, got 4"),
    "parallel_branch": ((blocks.ParallelConcat(((blocks.Conv(3, 3, 1),),
                                                (blocks.Conv(4, 3, 1),))),
                         blocks.Conv(6, 3, 1)),
                        "Conv expects 4 channels, got 3"),
}


class TestSpecWalk:
    @pytest.mark.parametrize("name,scale", sorted(PARAM_TABLE_SHA256))
    def test_param_table_golden(self, name, scale):
        rows = "".join(
            f"{ps.name}|{ps.shape}|{ps.fan_in}\n"
            for ps in networks.param_specs(builders.build(name, scale)))
        digest = hashlib.sha256(rows.encode()).hexdigest()
        assert digest == PARAM_TABLE_SHA256[name, scale]

    @pytest.mark.parametrize("case", sorted(MISWIRED))
    def test_miswired_spec_rejected(self, case):
        layers, message = MISWIRED[case]
        with pytest.raises(ValueError) as err:
            networks.NetworkSpec("miswired", 2, layers)
        assert str(err.value) == message


class TestDescriptorWalk:
    @pytest.mark.parametrize("scale", [2, 4])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_walk_paths_are_forward_paths(self, name, scale, monkeypatch):
        """``iter_descriptors`` yields each descriptor with the path its
        ``forward`` receives, in the order forwards start."""
        spec = builders.build(name, scale)
        walked = list(blocks.iter_descriptors(spec.layers))
        ran = []
        for kind in {type(layer) for _, layer in walked}:
            def forward(self, x, P, path, _real=kind.forward):
                ran.append((path, self))
                return _real(self, x, P, path)
            monkeypatch.setattr(kind, "forward", forward)
        side = max(spec.min_hw, spec.hw_multiple)
        networks.Network.init(spec)(
            Tensor(np.zeros((1, 3, side, side), np.float32)))
        # UpsampleAddSkip runs its declared RepeatChannels, PixelShuffle,
        # Conv tail as one transposed conv, so those three never run
        tails = {f"{path}.{i}" for path, layer in walked
                 if isinstance(layer, blocks.UpsampleAddSkip)
                 for i in range(len(layer.body) - 3, len(layer.body))}
        assert bool(tails) == (name == "vacv")
        want = [(path, layer) for path, layer in walked if path not in tails]
        assert [path for path, _ in ran] == [path for path, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(ran, want))


def test_ffc_frees_the_spectrum_before_its_gelu(monkeypatch):
    """Without a tape, an Ffc forward on an x4 2K band holds the spatial
    conv's c-channel output and the frequency conv's 2c-channel output when
    its GELU starts, and no longer the 2c-channel packed spectrum."""
    c, h, w = 36, 18, 480
    plane = c * h * w * 4  # one c-channel float32 map
    ffc = blocks.Ffc(c)
    rng = np.random.default_rng(5)
    params = {p.name: Tensor(0.1 * rng.standard_normal(
        p.shape, dtype=np.float32)) for p in ffc.specs(c, "ffc")[0]}
    x = Tensor(rng.standard_normal((1, c, h, w), dtype=np.float32))
    held, gelu = [], blocks.ops.gelu

    def traced_gelu(a):
        held.append(tracemalloc.get_traced_memory()[0])
        return gelu(a)

    monkeypatch.setattr(blocks.ops, "gelu", traced_gelu)
    ffc.forward(x, params, "ffc")  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        ffc.forward(x, params, "ffc")
    finally:
        tracemalloc.stop()
    assert 3 * plane <= held[-1] < 4 * plane, held[-1] / plane


# count_flops at the 2K LR size (540x960 at x2, 270x480 at x4)
FLOPS_2K = {
    ("athena", 2): 26968334400, ("athena", 4): 12032874000,
    ("cspsr", 2): 196643635200, ("cspsr", 4): 54535680000,
    ("ffcir", 2): 422836998592, ("ffcir", 4): 107985939328,
    ("fsrcnn", 2): 25320729600, ("fsrcnn", 4): 6330182400,
    ("vacv", 2): 345725330880, ("vacv", 4): 90135668640,
}


class TestFlops:
    @pytest.mark.parametrize("name, scale", sorted(FLOPS_2K))
    def test_2k_counts_pinned(self, name, scale):
        spec = builders.build(name, scale)
        flops = networks.count_flops(spec, (1080 // scale, 1920 // scale))
        assert flops == FLOPS_2K[name, scale]

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
    def test_forward_and_backward_stay_float32(self, name, recorded):
        """Every tape node's output and every VJP gradient is float32."""
        spec = builders.build(name, 2)
        net = networks.Network.init(spec, seed=0)
        hw = -(-max(spec.min_hw, 8) // spec.hw_multiple) * spec.hw_multiple
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 3, hw, hw), dtype=np.float32))
        target = Tensor(rng.random((2, 3, 2 * hw, 2 * hw), dtype=np.float32))
        loss_fn = trainer.make_loss(
            trainer.TrainConfig(loss="charbonnier+fft"))
        with Tape(wrt=[x, target, *net.params.values()]) as tape:
            loss = loss_fn(net(x), target, None)
        grads = []

        def spying(vjp):
            def wrapped(g):
                out = vjp(g)
                grads.extend((g,) + tuple(out))
                return out
            return wrapped

        assert len(recorded) == len(tape.nodes)
        for _, (_, out_dtype) in recorded:
            assert out_dtype == np.float32
        for node in tape.nodes:
            node.vjp = spying(node.vjp)
        backward(tape, loss)
        assert len(grads) > len(recorded)
        assert not tape.nodes
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

    def test_overflowing_dims_report_truncation(self):
        # 65536**4 float32s: a fixed-width product would wrap to 0
        blob = checkpoint.dumps_params(
            "fsrcnn", 2, {"w": Tensor(np.ones((1, 1, 1, 1), np.float32))})
        blob = blob.replace(struct.pack("<4I", 1, 1, 1, 1),
                            struct.pack("<4I", *(65536,) * 4))
        with pytest.raises(ValueError, match="truncated.*payload of w"):
            checkpoint.loads_params(blob)


class TestResample:
    @pytest.mark.parametrize("src,dst,kernel", [
        (960, 1920, "cubic"), (1920, 960, "cubic"), (480, 1920, "lanczos4"),
        (540, 1080, "lanczos4"), (64, 16, "cubic"), (1, 7, "cubic")])
    def test_matrix_matches_row_oracle_bitwise(self, src, dst, kernel):
        got = resample.resize_matrix(src, dst, kernel)
        want = resample_oracle.resize_matrix(src, dst, kernel)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300),
           st.sampled_from(["cubic", "lanczos4"]))
    def test_matrix_matches_row_oracle_bitwise_any_size(self, src, dst,
                                                        kernel):
        got = resample.resize_matrix(src, dst, kernel)
        want = resample_oracle.resize_matrix(src, dst, kernel)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_matrix_is_memoized_read_only(self):
        # a training run degrades every patch with the same matrices
        mat = resample.resize_matrix(64, 32)
        assert resample.resize_matrix(64, 32) is mat
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] = 1.0

    def test_cubic_interpolates_linear_ramp(self):
        # Catmull-Rom reproduces degree-1 polynomials away from borders
        src = np.arange(16, dtype=np.float64)[None, :].repeat(4, axis=0)
        out = resample.resize_plane(src, (4, 32))
        inner = out[:, 4:-4]
        xs = (np.arange(32) + 0.5) / 2.0 - 0.5
        np.testing.assert_allclose(inner, np.broadcast_to(xs[4:-4],
                                                          inner.shape),
                                   atol=1e-9)

    @pytest.mark.parametrize("hw,out_hw", [
        ((64, 64), (32, 32)), ((37, 53), (74, 106)), ((33, 17), (11, 5))])
    def test_plane_stack_matches_per_plane_bitwise(self, hw, out_hw):
        rng = np.random.default_rng(3)
        # channel-last memory seen through a channel-first view, the layout
        # trainer.as_chw returns
        stack = rng.random(hw + (3,), dtype=np.float32).transpose(2, 0, 1)
        for kernel in ("cubic", "lanczos4"):
            got = resample.resize_plane(stack, out_hw, kernel)
            want = np.stack([resample.resize_plane(p, out_hw, kernel)
                             for p in stack])
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))
        with pytest.raises(ValueError):
            resample.resize_plane(np.zeros(5), out_hw)

    def test_constant_preserved(self):
        src = np.full((6, 9), 3.25)
        for kernel in ("cubic", "lanczos4"):
            up = resample.resize_plane(src, (13, 21), kernel)
            np.testing.assert_allclose(up, 3.25, atol=1e-9)

    def test_upscale_then_downscale_near_identity_on_smooth_input(self):
        # antialiasing removes detail above the target Nyquist, so the
        # roundtrip is only close for band-limited content
        yy, xx = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 14),
                             indexing="ij")
        img = 0.5 + 0.3 * yy - 0.2 * xx + 0.05 * np.cos(2 * np.pi * xx)
        up = resample.resize_plane(img, (24, 28))
        back = resample.resize_plane(up, (12, 14))
        assert np.abs(back - img).max() < 0.02

    def test_lanczos_kernel_taps(self):
        # 4-tap kernel: zero at integers >= 1, support ends at 4
        assert resample.lanczos_kernel(np.array([0.0]))[0] == 1.0
        for t in (1.0, 2.0, 3.0):
            assert abs(resample.lanczos_kernel(np.array([t]))[0]) < 1e-12
        assert resample.lanczos_kernel(np.array([4.2]))[0] == 0.0
