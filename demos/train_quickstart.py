"""Desk-scale training: a x2 net learns what bicubic cannot represent.

The synthetic frames hide 2-pixel checkerboards whose antialiased
downscale is flat gray; a short Adam run teaches the pixel-shuffle tail
to re-synthesize them, beating bicubic upscaling on held patches.

Run: python3 demos/train_quickstart.py    (about half a minute on a CPU)
"""
import numpy as np

from odsr import trainer
from odsr.engine.tensor import Tensor
from odsr.models import builders, networks, resample


def main():
    frames = trainer.synthetic_frames(8, hw=(128, 128), seed=0)
    net = networks.Network.init(builders.build("athena", 2), seed=0)
    cfg = trainer.TrainConfig(iterations=200, batch=8, patch=32, lr=2e-3,
                              loss="charbonnier", seed=0,
                              flip=False, rot90=False)
    print(f"training athena x2 ({networks.count_params(net.spec):,} "
          f"params) for {cfg.iterations} iterations ...")

    def progress(step, loss):
        if step % 25 == 0 or step == cfg.iterations - 1:
            print(f"  step {step:3d}  charbonnier {loss:.5f}")

    result = trainer.train(net, frames, cfg, progress=progress)
    first = np.mean(result.losses[:10])
    last = np.mean(result.losses[-10:])
    print(f"loss mean, first 10 steps: {first:.5f}")
    print(f"loss mean, last 10 steps:  {last:.5f}  "
          f"({last / first:.2%} of start)\n")

    rng = np.random.default_rng(123)
    chw = [trainer.as_chw(f) for f in frames]
    pairs = [trainer.sample_patch(chw[i % 8], 2, 32, rng)
             for i in range(24)]

    def bicubic_up(x):
        up = resample.resize_plane(x.data[0], (64, 64))
        return Tensor(np.clip(up, 0.0, 1.0).astype(np.float32)[None])

    net_db = trainer.eval_patch_ws_psnr(result.network, pairs)
    cubic_db = trainer.eval_patch_ws_psnr(bicubic_up, pairs)
    print(f"WS-PSNR on 24 training patches (peak 1.0):")
    print(f"  trained net : {net_db:6.2f} dB")
    print(f"  bicubic     : {cubic_db:6.2f} dB")
    print(f"  margin      : {net_db - cubic_db:+6.2f} dB")


if __name__ == "__main__":
    main()
