"""The tensor engine under the hood: tape, VJPs, and a hand-rolled fit.

Run: python3 demos/autodiff_engine.py
"""
import numpy as np

from odsr.engine import ops
from odsr.engine.tensor import Tape, Tensor, backward


def main():
    # d/dx sum(x^2 + x) = 2x + 1
    x = Tensor(np.array([2.0, 3.0]))
    with Tape(wrt=[x]) as tape:
        loss = ops.tsum(ops.add(ops.square(x), x))
    print("grad of sum(x^2 + x) at [2, 3]:",
          backward(tape, loss)[x], "(expect [5, 7])")

    # fit y = 3x - 1 with a single conv1x1 acting as an affine map
    rng = np.random.default_rng(0)
    xs = rng.normal(0, 1, (64, 1, 4, 4)).astype(np.float64)
    ys = 3.0 * xs - 1.0
    w = Tensor(np.zeros((1, 1, 1, 1)))
    b = Tensor(np.zeros(1))
    for step in range(200):
        # ask for the parameters only: the data needs no gradient, so the
        # conv skips its input gradient and backward returns {w, b}
        with Tape(wrt=[w, b]) as tape:
            pred = ops.conv2d(Tensor(xs), ops.ConvParams(w, b))
            loss = ops.tmean(ops.square(ops.sub(pred, Tensor(ys))))
        grads = backward(tape, loss)
        w = Tensor(w.data - 0.5 * grads[w])
        b = Tensor(b.data - 0.5 * grads[b])
        if step % 50 == 0:
            print(f"  step {step:3d}  mse {loss.data:.6f}")
    print(f"fitted scale {w.data.ravel()[0]:+.4f} (expect +3), "
          f"bias {b.data[0]:+.4f} (expect -1)")

    # FFT ops are differentiable too: Parseval in one line
    z = Tensor(rng.normal(0, 1, (1, 1, 8, 8)))
    spec = ops.fft2_rc(z)
    lhs = float((spec.data ** 2).sum()) / 64.0
    rhs = float((z.data ** 2).sum())
    print(f"Parseval check: {lhs:.9f} == {rhs:.9f}")


if __name__ == "__main__":
    main()
