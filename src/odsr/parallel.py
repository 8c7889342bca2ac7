"""Independent row blocks run on the CPUs this process may use.

Each call starts its own threads and joins them before it returns, so no
thread outlives it and nested calls cannot wait on each other.  A span
hands its share of the workers down to the calls nested in it, so a span
of frames that each score in row blocks starts no more threads than there
are CPUs.  A blocked loop's scratch is one budget per call, which its
spans split (``over_rows``), so memory does not grow with the CPU count.
The work must release the GIL to gain (numpy on large blocks,
``scipy.ndimage``).
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_share = threading.local()


def workers() -> int:
    """CPUs this thread may use: its span's share inside a span, else the
    process's affinity set (a ``taskset`` mask counts), or every CPU where
    the platform has no affinity call."""
    share = getattr(_share, "workers", 0)
    if share:
        return share
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def over_blocks(count: int, run, most: int | None = None) -> None:
    """Call ``run(b0, b1)`` on contiguous spans that cover ``range(count)``,
    at most one span per worker and at most ``most``, and return when
    every span is done.

    The first span runs on the calling thread.  An exception from any span
    is re-raised after all spans have finished.  With one span,
    ``run(0, count)`` runs inline and no thread starts.
    """
    w = workers()
    n = min(count, w, most or count)
    if n <= 1:
        if count:
            run(0, count)
        return
    cuts = [count * i // n for i in range(n + 1)]

    def span(i):
        outer = getattr(_share, "workers", 0)
        _share.workers = w // n + (i < w % n)
        try:
            run(cuts[i], cuts[i + 1])
        finally:
            _share.workers = outer

    with ThreadPoolExecutor(n - 1) as pool:
        rest = [pool.submit(span, i) for i in range(1, n)]
        span(0)
    for future in rest:
        future.result()


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
