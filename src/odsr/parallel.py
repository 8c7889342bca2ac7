"""Independent row blocks run on the CPUs this process may use.

One pool of ``workers() - 1`` daemon threads starts on the first call that
has more than one span and serves every later call.  A call queues a claim
per pool thread, runs spans on the calling thread too, and takes any span
no thread has started yet, so it waits only on spans that are running:
nested calls cannot deadlock, whatever the pool's size, and no more spans
run at once than the pool has threads plus the callers.  The work must
release the GIL to gain (numpy on large blocks, BLAS, ``scipy.ndimage``).

Every blocked loop follows one rule.  It walks fixed, cache-sized blocks
whose size does not depend on the worker count, so every output is
bitwise at any worker count, and ``over_blocks`` runs them in at most one
span per worker, each span with its own block scratch.  The caller caps
the spans (``most``) so that their scratch stays within ``SCRATCH``, and
memory does not grow with the CPU count.  The SSIM map's halo-bound
blocks fill that budget alone; it caps its spans by the map's size.

Spans run the SSIM map, the polyphase upscale, the 4:2:0 conversions,
scoring over frames, and in the engine the conv core's GEMM blocks, the
rounds of a stacked weight gradient and the float32 GELU; the FFTs stay on
the calling thread.
Each span runs in its own copy of the caller's ``contextvars`` context,
since threads do not inherit it: numpy keeps ``np.errstate`` there, so
every span warns, raises or ignores as the caller asked.

Importing this module sets numpy's bundled OpenBLAS to one thread, so the
spans are the only threads that share out work, and no output or speed
depends on ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.  The setting is
process-wide: other numpy code in the process gets one BLAS thread too.
It is made at import, not when the pool starts, so that products run
before the first multi-span call sum as every later one does, whatever the
call history.  Hosts with more CPUs than a loop's spans (``SCRATCH`` caps
most conv loops at about two) are not measured; BLAS threads used to fill
the rest.  The library is opened once: its handle (``BLAS``) also serves
the conv core's GEMM and ``blas_threads``.
"""
from __future__ import annotations

import contextvars
import ctypes
import os
import queue
import threading

import numpy as np


def _pin_blas(lib: str) -> ctypes.CDLL | None:
    """Set the scipy-openblas64 library that ``lib`` links to one thread;
    where ``lib`` or that library's setter is missing, change nothing.
    Returns the handle of ``lib``, or None where it cannot be loaded."""
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        return None
    setter = getattr(handle, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)
    return handle


# numpy's linear algebra extension links the OpenBLAS that numpy bundles,
# in numpy 1.x and 2.x alike; the engine's GEMM binds through this handle
BLAS = _pin_blas(np.linalg._umath_linalg.__file__)


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None where its getter is
    missing."""
    getter = getattr(BLAS, "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


# Bytes of block scratch that the spans of one blocked loop share (2 MiB):
# two spans of a cache-sized block each.
SCRATCH = 1 << 21


def _cpus() -> int:
    """The process's affinity set (a ``taskset`` mask counts), or every CPU
    where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def workers() -> int:
    """CPUs the spans may use: every CPU of the process (``_cpus``)."""
    return _cpus()


class _Pool:
    """``size`` daemon threads, each running the claims queued to it."""

    def __init__(self, size: int):
        self.size = size
        self.claims = queue.SimpleQueue()
        for i in range(size):
            threading.Thread(target=self._serve, name=f"odsr-span-{i}",
                             daemon=True).start()

    def _serve(self) -> None:
        while True:
            self.claims.get()()


_pool: _Pool | None = None
_pool_lock = threading.Lock()


def _the_pool() -> _Pool:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _Pool(_cpus() - 1)
        return _pool


class _Call:
    """One ``over_blocks`` call's spans, each run by whichever thread
    claims it first."""

    def __init__(self, run, cuts: list[int]):
        self.run, self.cuts = run, cuts
        self.context = contextvars.copy_context()
        self.n = len(cuts) - 1
        self.untaken = iter(range(1, self.n))  # span 0 is the caller's
        self.errors = [None] * self.n
        self.left = self.n
        self.lock = threading.Lock()
        self.done = threading.Event()

    def span(self, i: int) -> None:
        try:
            # a context runs on one thread at a time: a copy per span
            self.context.copy().run(self.run, self.cuts[i], self.cuts[i + 1])
        except BaseException as e:  # re-raised on the calling thread
            self.errors[i] = e
        finally:
            with self.lock:
                self.left -= 1
                if not self.left:
                    self.done.set()

    def claim(self) -> None:
        """Run spans no thread has started until none is left."""
        while True:
            with self.lock:
                i = next(self.untaken, None)
            if i is None:
                return
            self.span(i)


def over_blocks(count: int, run, most: int | None = None) -> None:
    """Call ``run(b0, b1)`` on contiguous spans that cover ``range(count)``,
    at most one span per worker and at most ``most`` (at least one), and
    return when every span is done.

    The first span runs on the calling thread, which then takes every span
    the pool has not started.  An exception from any span is re-raised
    after all spans have finished (the first span's that failed).  With
    one span, ``run(0, count)`` runs inline and no thread starts.
    """
    n = min(count, workers(), count if most is None else max(1, most))
    if n <= 1:
        if count:
            run(0, count)
        return
    call = _Call(run, [count * i // n for i in range(n + 1)])
    pool = _the_pool()
    for _ in range(min(n - 1, pool.size)):
        pool.claims.put(call.claim)
    call.span(0)
    call.claim()
    call.done.wait()
    call.run = None  # a claim still queued keeps no arrays alive
    for e in call.errors:
        if e is not None:
            raise e
