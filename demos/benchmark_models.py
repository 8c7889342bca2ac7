"""Time every registered model on one small frame and print a leaderboard.

Uses a reduced input (120x160) so the demo finishes in seconds; the CLI
`run`/`metrics` pipeline applies the same models to real sequences.

Run: python3 demos/benchmark_models.py
"""
import numpy as np

from odsr import harness, media, metrics, score, trainer


def main():
    scale = 2
    hr_arr = trainer.synthetic_frames(1, hw=(128, 128), seed=7)[0]
    hr = media.FrameBuffer.from_rgb(hr_arr)
    lr_chw = trainer.degrade(trainer.as_chw(hr_arr), scale)
    lr = media.FrameBuffer.from_rgb(np.clip(
        np.floor(np.moveaxis(lr_chw, 0, -1) * 255.0 + 0.5),
        0, 255).astype(np.uint8))

    entries = []
    for name in harness.model_names():
        model = harness.make_model(name, scale)
        sample = harness.measure_runtime(model, lr, warmup=2, reps=7)
        out = harness.tensor_to_frame(model(harness.frame_to_tensor(lr)),
                                      "rgb8")
        db = np.mean([metrics.ws_mse(hr.rgb()[..., c].astype(float),
                                     out.rgb()[..., c].astype(float))
                      for c in range(3)])
        entries.append(score.LeaderboardEntry(
            team=name, scale=scale,
            ws_psnr=metrics.mse_to_db(float(db)),
            ws_ssim=metrics.ws_ssim(hr.y().astype(float),
                                    out.y().astype(float)),
            runtime_s=sample.median, bd_br_pct=None, g_flops=None,
            params_k=None))
        print(f"timed {name:10s} median {sample.median * 1e3:8.2f} ms  "
              f"cv {sample.cv:.3f}")

    print("\nNote: these nets carry random weights (no released "
          "checkpoints), so the interpolators win on quality here; "
          "the table demonstrates the harness, not the architectures.\n")
    params = score.ScoreParams.for_scale(scale)
    print(harness.emit_leaderboard_markdown(entries, params))


if __name__ == "__main__":
    main()
