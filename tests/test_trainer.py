"""Optimizer, patch pipeline, augmentation, and the training loop."""
import numpy as np
import pytest
from scipy import stats

from odsr import trainer
from odsr.engine.tensor import Tensor
from odsr.models import builders, networks


def tiny_net(seed=0):
    return networks.Network.init(builders.build("fsrcnn", 2), seed=seed)


def param_dict(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return {k: Tensor(rng.normal(0, 1, s).astype(np.float64))
            for k, s in shapes.items()}


class TestAdam:
    SHAPES = {"w": (3, 4), "b": (4,)}

    def test_first_step_is_signed_lr(self):
        params = param_dict(self.SHAPES)
        grads = {k: np.random.default_rng(1).normal(0, 5, t.shape)
                 for k, t in params.items()}
        state = trainer.AdamState.for_params(params)
        new = trainer.adam_step(params, grads, state, lr=0.01)
        for k in params:
            step = new[k].data - params[k].data
            # bias-corrected first step: -lr * g/|g| up to eps rounding
            np.testing.assert_allclose(step, -0.01 * np.sign(grads[k]),
                                       rtol=1e-3)

    def test_zero_gradients_change_nothing(self):
        params = param_dict(self.SHAPES)
        grads = {k: np.zeros(t.shape) for k, t in params.items()}
        state = trainer.AdamState.for_params(params)
        new = trainer.adam_step(params, grads, state, lr=0.5)
        for k in params:
            np.testing.assert_array_equal(new[k].data, params[k].data)

    def test_step_magnitude_bounded_by_lr(self):
        rng = np.random.default_rng(2)
        params = param_dict(self.SHAPES)
        state = trainer.AdamState.for_params(params)
        lr = 0.01
        for _ in range(25):
            grads = {k: rng.normal(0, 3, t.shape)
                     for k, t in params.items()}
            new = trainer.adam_step(params, grads, state, lr)
            for k in params:
                step = np.abs(new[k].data - params[k].data).max()
                assert step <= lr * 1.10, f"step {step} exceeds lr bound"
            params = new

    def test_descends_a_quadratic(self):
        # f(w) = 0.5 ||w||^2, gradient w
        params = {"w": Tensor(np.full((8,), 5.0))}
        state = trainer.AdamState.for_params(params)
        values = []
        for _ in range(400):
            grads = {"w": params["w"].data.copy()}
            values.append(0.5 * float((params["w"].data ** 2).sum()))
            params = trainer.adam_step(params, grads, state, lr=0.05)
        assert values[-1] < 1e-2 * values[0]

    def test_missing_gradient_rejected(self):
        params = param_dict(self.SHAPES)
        state = trainer.AdamState.for_params(params)
        with pytest.raises(ValueError, match="missing"):
            trainer.adam_step(params, {"w": np.zeros((3, 4))}, state, 0.01)


class TestSchedule:
    def test_constant_without_decay(self):
        cfg = trainer.TrainConfig(iterations=10, lr=1e-3, decay_every=0)
        assert [trainer.lr_at(cfg, s) for s in range(10)] == [1e-3] * 10

    def test_step_decay(self):
        cfg = trainer.TrainConfig(iterations=10, lr=1.0, decay_every=4,
                                  decay_factor=0.1)
        lrs = [trainer.lr_at(cfg, s) for s in range(10)]
        assert lrs[:4] == [1.0] * 4
        assert lrs[4:8] == pytest.approx([0.1] * 4)
        assert lrs[8:] == pytest.approx([0.01] * 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            trainer.TrainConfig(loss="l2")
        with pytest.raises(ValueError):
            trainer.TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(batch=0)
        with pytest.raises(ValueError):
            trainer.TrainConfig(mixup_alpha=0.0, mixup=True)


class TestPatchPipeline:
    def test_alignment_contract(self):
        rng = np.random.default_rng(3)
        hr = rng.random((3, 64, 48)).astype(np.float32)
        for _ in range(20):
            pair = trainer.sample_patch(hr, 2, 16, rng)
            assert pair.lr.shape == (3, 16, 16)
            assert pair.hr.shape == (3, 32, 32)
            crop = hr[:, 2 * pair.top:2 * pair.top + 32,
                      2 * pair.left:2 * pair.left + 32]
            np.testing.assert_array_equal(pair.hr, crop)

    def test_lr_is_bicubic_degrade_of_hr_frame(self):
        rng = np.random.default_rng(4)
        hr = rng.random((3, 32, 32)).astype(np.float32)
        pair = trainer.sample_patch(hr, 2, 16, rng)
        lr_full = trainer.degrade(hr, 2)
        np.testing.assert_array_equal(
            pair.lr, lr_full[:, pair.top:pair.top + 16,
                             pair.left:pair.left + 16])

    def test_offsets_cover_the_frame_uniformly(self):
        rng = np.random.default_rng(6)
        hr = np.zeros((1, 40, 40), dtype=np.float32)
        positions = 20 - 8 + 1  # valid tops for an 8px patch in 20px
        counts = np.zeros(positions)
        n = 4000
        for _ in range(n):
            pair = trainer.sample_patch(hr, 2, 8, rng)
            counts[pair.top] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01, f"offset distribution non-uniform, p={p:.4f}"

    def test_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            trainer.sample_patch(np.zeros((3, 30, 30), dtype=np.float32),
                                 4, 8, rng)  # 30 not divisible by 4
        with pytest.raises(ValueError):
            trainer.sample_patch(np.zeros((3, 32, 32), dtype=np.float32),
                                 2, 20, rng)  # patch exceeds LR frame

    def test_degrade_shape_and_range(self):
        rng = np.random.default_rng(8)
        hr = rng.random((3, 24, 36)).astype(np.float32)
        lr = trainer.degrade(hr, 4)
        assert lr.shape == (3, 6, 9)
        assert lr.dtype == np.float32
        assert lr.min() >= 0.0 and lr.max() <= 1.0


class TestAugmentation:
    def pair(self, seed=9, patch=8, scale=2):
        rng = np.random.default_rng(seed)
        hr = rng.random((3, 32, 32)).astype(np.float32)
        return trainer.sample_patch(hr, scale, patch, rng)

    def test_identity_when_disabled(self):
        rng = np.random.default_rng(0)
        pair = self.pair()
        out = trainer.augment_pair(pair, rng, flip=False, rot90=False)
        np.testing.assert_array_equal(out.lr, pair.lr)
        np.testing.assert_array_equal(out.hr, pair.hr)

    def test_same_transform_applied_to_both(self):
        # upsample the LR patch by nearest; any flip/rotation must commute
        pair0 = self.pair(seed=10)
        for trial in range(30):
            rng = np.random.default_rng(trial)
            out = trainer.augment_pair(pair0, rng)
            up = out.lr.repeat(2, axis=1).repeat(2, axis=2)
            ref = pair0.lr.repeat(2, axis=1).repeat(2, axis=2)
            # recover the transform from the HR pair and check it maps
            # the upsampled LR the same way
            found = False
            for flip in (False, True):
                for k in range(4):
                    cand = pair0.hr[:, ::-1] if flip else pair0.hr
                    cand = np.rot90(cand, k, axes=(1, 2))
                    if np.array_equal(cand, out.hr):
                        c2 = ref[:, ::-1] if flip else ref
                        c2 = np.rot90(c2, k, axes=(1, 2))
                        np.testing.assert_array_equal(c2, up)
                        found = True
            assert found, "HR output is not a flip/rot90 of the input"

    def test_dims_preserved(self):
        pair = self.pair()
        for trial in range(10):
            out = trainer.augment_pair(pair, np.random.default_rng(trial))
            assert out.lr.shape == pair.lr.shape
            assert out.hr.shape == pair.hr.shape
            assert out.hr.shape[1] == 2 * out.lr.shape[1]

    def test_all_eight_orientations_reachable(self):
        pair = self.pair(seed=11, patch=4)
        seen = set()
        for trial in range(300):
            out = trainer.augment_pair(pair, np.random.default_rng(trial))
            seen.add(out.hr.tobytes())
        assert len(seen) == 8


class TestMixup:
    def test_convex_combination_with_shared_lambda(self):
        rng = np.random.default_rng(12)
        lr_b = rng.random((4, 3, 8, 8)).astype(np.float32)
        hr_b = rng.random((4, 3, 16, 16)).astype(np.float32)
        mlr, mhr = trainer.mixup_batch(lr_b, hr_b,
                                       np.random.default_rng(0))
        for i in range(4):
            # solve lambda from the LR mix against every candidate partner
            matched = False
            for j in range(4):
                denom = lr_b[i] - lr_b[j]
                mask = np.abs(denom) > 1e-6
                if not mask.any():
                    continue
                lam = np.median(((mlr[i] - lr_b[j])[mask] / denom[mask]))
                if not 0.0 <= lam <= 1.0:
                    continue
                ok_lr = np.allclose(mlr[i],
                                    lam * lr_b[i] + (1 - lam) * lr_b[j],
                                    atol=1e-6)
                ok_hr = np.allclose(mhr[i],
                                    lam * hr_b[i] + (1 - lam) * hr_b[j],
                                    atol=1e-6)
                if ok_lr and ok_hr:
                    matched = True
                    break
            assert matched, f"sample {i} is not a consistent LR/HR mix"

    def test_preserves_shapes_and_range(self):
        rng = np.random.default_rng(13)
        lr_b = rng.random((6, 3, 4, 4)).astype(np.float32)
        hr_b = rng.random((6, 3, 8, 8)).astype(np.float32)
        mlr, mhr = trainer.mixup_batch(lr_b, hr_b, np.random.default_rng(1))
        assert mlr.shape == lr_b.shape and mhr.shape == hr_b.shape
        assert mlr.min() >= 0.0 and mlr.max() <= 1.0


class TestPatchWeights:
    def test_rows_come_from_source_frame_latitude(self):
        from odsr.metrics import WeightMap
        rng = np.random.default_rng(14)
        hr = rng.random((3, 64, 64)).astype(np.float32)
        pair = trainer.sample_patch(hr, 2, 16, rng)
        w = trainer.patch_weights(pair)
        assert w.shape == (32, 32)
        full = WeightMap.for_frame(64, 64).rows
        np.testing.assert_allclose(
            w[:, 0], full[2 * pair.top:2 * pair.top + 32], rtol=1e-12)
        # constant along rows
        assert np.all(w == w[:, :1])


class TestTrainLoop:
    FRAMES = trainer.synthetic_frames(2, hw=(64, 64), seed=1)

    def small_cfg(self, **kw):
        base = dict(iterations=4, batch=2, patch=8, lr=1e-3, seed=0)
        base.update(kw)
        return trainer.TrainConfig(**base)

    def test_bitwise_reproducible(self):
        r1 = trainer.train(tiny_net(), self.FRAMES, self.small_cfg())
        r2 = trainer.train(tiny_net(), self.FRAMES, self.small_cfg())
        assert r1.losses == r2.losses
        for k, t in r1.network.params.items():
            np.testing.assert_array_equal(t.data, r2.network.params[k].data)

    def test_records_every_step(self):
        cfg = self.small_cfg(iterations=5, decay_every=2, decay_factor=0.5)
        result = trainer.train(tiny_net(), self.FRAMES, cfg)
        assert len(result.losses) == 5
        assert result.lr_schedule == tuple(
            trainer.lr_at(cfg, s) for s in range(5))
        assert all(np.isfinite(v) for v in result.losses)
        assert result.seconds > 0

    def test_input_network_not_mutated(self):
        net = tiny_net()
        before = {k: t.data.copy() for k, t in net.params.items()}
        trainer.train(net, self.FRAMES, self.small_cfg())
        for k, t in net.params.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_parameter_without_gradient_raises(self):
        # the tape asks for every parameter; one the loss never reaches
        # gets no gradient, and training stops instead of skipping it
        net = tiny_net()
        net.params["net.unused"] = Tensor(np.zeros(3, dtype=np.float32))
        with pytest.raises(RuntimeError, match="net.unused"):
            trainer.train(net, self.FRAMES, self.small_cfg(iterations=1))

    def test_zero_lr_rejected_up_front(self):
        with pytest.raises(ValueError):
            self.small_cfg(lr=0.0)

    def test_progress_callback_sees_each_step(self):
        seen = []
        trainer.train(tiny_net(), self.FRAMES, self.small_cfg(),
                      progress=lambda s, v: seen.append((s, v)))
        assert [s for s, _ in seen] == [0, 1, 2, 3]

    @pytest.mark.parametrize("loss", trainer.LOSSES)
    def test_all_losses_run(self, loss):
        result = trainer.train(tiny_net(), self.FRAMES,
                               self.small_cfg(loss=loss, iterations=2))
        assert len(result.losses) == 2

    def test_ws_l1_suppresses_rotation(self):
        # rotating an ERP patch would misalign latitude weights, so the
        # rot90 flag is ignored under ws-l1; the rng stream then matches
        # an explicit rot90=False run exactly
        a = trainer.train(tiny_net(), self.FRAMES,
                          self.small_cfg(loss="ws-l1", rot90=True))
        b = trainer.train(tiny_net(), self.FRAMES,
                          self.small_cfg(loss="ws-l1", rot90=False))
        assert a.losses == b.losses

    def test_mixup_path_runs(self):
        result = trainer.train(tiny_net(), self.FRAMES,
                               self.small_cfg(mixup=True, iterations=2))
        assert len(result.losses) == 2

    def test_trace_csv_format(self):
        result = trainer.train(tiny_net(), self.FRAMES,
                               self.small_cfg(iterations=3))
        lines = trainer.loss_trace_csv(result).strip().split("\n")
        assert lines[0] == "step,lr,loss"
        assert len(lines) == 4
        step, lr, loss = lines[1].split(",")
        assert step == "0" and float(lr) == 1e-3
        assert float(loss) == result.losses[0]


class TestSyntheticFrames:
    def test_shapes_and_dtype(self):
        frames = trainer.synthetic_frames(3, hw=(64, 96), seed=2)
        assert len(frames) == 3
        for f in frames:
            assert f.shape == (64, 96, 3) and f.dtype == np.uint8

    def test_structure_lives_on_even_grid(self):
        # nearest-upsampled from half resolution: 2x2 cells are constant
        for f in trainer.synthetic_frames(2, hw=(64, 64), seed=3):
            np.testing.assert_array_equal(f[0::2, 0::2], f[1::2, 1::2])
            np.testing.assert_array_equal(f[0::2, 0::2], f[0::2, 1::2])

    def test_frames_differ_and_seed_reproduces(self):
        a = trainer.synthetic_frames(2, hw=(64, 64), seed=4)
        b = trainer.synthetic_frames(2, hw=(64, 64), seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], a[1])

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            trainer.synthetic_frames(1, hw=(65, 64))
        with pytest.raises(ValueError):
            trainer.synthetic_frames(1, hw=(64, 32))


class TestEvalHelpers:
    def test_perfect_prediction_caps_at_100(self):
        rng = np.random.default_rng(15)
        hr = rng.random((3, 32, 32)).astype(np.float32)
        pairs = [trainer.sample_patch(hr, 2, 8, rng) for _ in range(3)]
        by_input = {p.lr.tobytes(): p.hr for p in pairs}

        def oracle(x):
            return Tensor(by_input[x.data[0].tobytes()][None])

        got = trainer.eval_patch_ws_psnr(oracle, pairs)
        assert got == 100.0

    def test_worse_prediction_scores_lower(self):
        rng = np.random.default_rng(16)
        hr = rng.random((3, 32, 32)).astype(np.float32)
        pairs = [trainer.sample_patch(hr, 2, 8, rng)]

        def near(x):
            return Tensor(np.stack(
                [np.clip(p.hr + 0.01, 0, 1) for p in pairs]))

        def far(x):
            return Tensor(np.stack(
                [np.clip(p.hr + 0.10, 0, 1) for p in pairs]))

        assert trainer.eval_patch_ws_psnr(near, pairs) > \
            trainer.eval_patch_ws_psnr(far, pairs)

    def test_as_chw_accepts_common_forms(self):
        rng = np.random.default_rng(17)
        hwc = rng.integers(0, 256, (8, 6, 3), dtype=np.uint8)
        from odsr import media
        frame = media.FrameBuffer.from_rgb(hwc)
        for src in (hwc, frame, hwc.astype(np.float32) / 255.0):
            chw = trainer.as_chw(src)
            assert chw.shape == (3, 8, 6)
            assert chw.dtype == np.float32
            assert chw.min() >= 0.0 and chw.max() <= 1.0
        # every frame layout: uint8 RGB over 255 as float32, channel-first
        # view of channel-last memory; y8 replicates its plane
        gray = media.FrameBuffer.from_y(hwc[..., 0])
        yuv = media.rgb_to_yuv420(frame)
        for fb, rgb in ((frame, hwc),
                        (gray, np.repeat(hwc[..., :1], 3, axis=2)),
                        (yuv, media.yuv420_to_rgb(yuv).rgb())):
            chw = trainer.as_chw(fb)
            want = (rgb.astype(np.float32) / np.float32(255)).transpose(
                2, 0, 1)
            assert chw.dtype == want.dtype and chw.strides == want.strides
            np.testing.assert_array_equal(chw, want)
