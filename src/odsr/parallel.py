"""Independent row blocks run on the CPUs this process may use.

One pool of ``workers() - 1`` daemon threads starts on the first call that
has more than one span and serves every later call.  A call queues a claim
per pool thread, runs spans on the calling thread too, and takes any span
no thread has started yet, so it waits only on spans that are running:
nested calls cannot deadlock, whatever the pool's size.  A span hands its
share of the workers down to the calls nested in it, so a span of frames
that each score in row blocks asks for no more spans than there are CPUs.
A blocked loop's scratch is one budget per call, which its spans split
(``over_rows``), so memory does not grow with the CPU count.  The work must
release the GIL to gain (numpy on large blocks, BLAS, ``scipy.ndimage``).

Spans run the SSIM map, the polyphase upscale, the 4:2:0 conversions,
scoring over frames, and in the engine the conv core's GEMM blocks, the
weight gradient and the float32 GELU; the FFTs stay on the calling thread.
Each span runs in its own copy of the caller's ``contextvars`` context,
since threads do not inherit it: numpy keeps ``np.errstate`` there, so
every span warns, raises or ignores as the caller asked.
"""
from __future__ import annotations

import contextvars
import os
import queue
import threading

_share = threading.local()


def _cpus() -> int:
    """The process's affinity set (a ``taskset`` mask counts), or every CPU
    where the platform has no affinity call."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def workers() -> int:
    """CPUs this thread may use: its span's share inside a span, else every
    CPU of the process (``_cpus``)."""
    return getattr(_share, "workers", 0) or _cpus()


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

    def __init__(self, run, cuts: list[int], w: int):
        self.run, self.cuts, self.w = run, cuts, w
        self.context = contextvars.copy_context()
        self.n = len(cuts) - 1
        self.untaken = iter(range(1, self.n))  # span 0 is the caller's
        self.errors = [None] * self.n
        self.left = self.n
        self.lock = threading.Lock()
        self.done = threading.Event()

    def span(self, i: int) -> None:
        outer = getattr(_share, "workers", 0)
        _share.workers = self.w // self.n + (i < self.w % self.n)
        try:
            # a context runs on one thread at a time: a copy per span
            self.context.copy().run(self.run, self.cuts[i], self.cuts[i + 1])
        except BaseException as e:  # re-raised on the calling thread
            self.errors[i] = e
        finally:
            _share.workers = outer
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
    at most one span per worker and at most ``most``, and return when
    every span is done.

    The first span runs on the calling thread, which then takes every span
    the pool has not started.  An exception from any span is re-raised
    after all spans have finished (the first span's that failed).  With
    one span, ``run(0, count)`` runs inline and no thread starts.
    """
    w = workers()
    n = min(count, w, most or count)
    if n <= 1:
        if count:
            run(0, count)
        return
    call = _Call(run, [count * i // n for i in range(n + 1)], w)
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


def shares(rows: int, least: int) -> tuple[int, int]:
    """How the workers split a call's budget of ``rows`` block rows: the
    number of spans and each span's block rows.  There are no more spans
    than leave each ``least`` rows, so a block's halo or per-call overhead
    never outweighs it; one span keeps the whole budget."""
    spans = max(1, min(workers(), rows // least))
    return spans, rows // spans


def over_rows(n: int, rows: int, least: int, run) -> None:
    """Call ``run(r0, r1, step)`` on contiguous spans that cover
    ``range(n)``, each walking its rows in blocks of ``step`` from ``r0``,
    with the spans sharing a budget of ``rows`` block rows as ``shares``
    splits it (``over_blocks`` runs them)."""
    spans, step = shares(rows, least)
    over_blocks(-(-n // step),
                lambda b0, b1: run(b0 * step, min(n, b1 * step), step), spans)
