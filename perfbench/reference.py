"""A fixed numpy workload that times the machine, not the program.

On a shared VM the whole machine speeds up and slows down by 20-30% over
tens of seconds (compute and memory bandwidth together), longer than one
benchmark run, so raw seconds from two runs of the same code differ by
that much.  Timing this kernel right before and after every work unit and
dividing by it cancels the machine's speed: the ratio moves only when the
program's own work changes.  The kernel uses no odsr code and allocates
nothing while timed, so no change to the program can move it.
"""
from __future__ import annotations

import time

import numpy as np


GEMMS, PASSES = 8, 2


class Reference:
    """One call: 8 BLAS sgemms of im2col shape, then 2 elementwise passes
    over a 32 MB array, about 0.06 s in all on a 2-vCPU Xeon VM."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cols = rng.random((4096, 576), dtype=np.float32)
        self.w = rng.random((576, 64), dtype=np.float32)
        self.prod = np.empty((4096, 64), dtype=np.float32)
        self.plane = rng.random(8 << 20, dtype=np.float32)
        self.tmp = np.empty_like(self.plane)

    def __call__(self) -> float:
        """Run the kernel once; return its seconds."""
        t0 = time.perf_counter()
        for _ in range(GEMMS):
            np.matmul(self.cols, self.w, out=self.prod)
        for _ in range(PASSES):
            np.multiply(self.plane, np.float32(0.5), out=self.tmp)
            np.add(self.tmp, self.plane, out=self.tmp)
        return time.perf_counter() - t0
