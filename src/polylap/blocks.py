"""Block loops: one pass over n items in spans of at most BLOCK, shared by
one thread per CPU this process may run on.

Uniform sampling (`geometry.sample_cloud`), the `IntervalLaplacian`
construction and apply, `FourierFunction.evaluate_with` and
`FourierFunction.squared_errors` all run through `run_blocks`.  Every span
writes only its own slices and no item's arithmetic depends on its span, so
each result is bitwise that of the serial loop for any worker count.  This module imports nothing from the
rest of the package, so the lowest of them, geometry, can use it too.
"""

from __future__ import annotations

import contextvars
import os
import threading

# items per block of the loops above; each worker takes spans of
# BLOCK // WORKERS of them
BLOCK = 1 << 16


def available_cpus():
    """CPUs this process may run on: its affinity mask, or os.cpu_count()
    where the platform reports no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# threads that share a block loop over more than one BLOCK of items
WORKERS = available_cpus()
_pool = None  # (pid, executor) of the block loops, made on first use


def _block_pool():
    """The block loops' thread pool, made on first use and again in a forked
    child, which inherits the executor but none of its threads."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        # imported here: a cold import costs about 10 ms, which every run
        # that never leaves one block would pay
        from concurrent.futures import ThreadPoolExecutor

        _pool = os.getpid(), ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="polylap-block")
    return _pool[1]


def run_blocks(n, task, make_work):
    """task(a, b, work) over consecutive spans [a, b) that cover range(n).

    Up to one BLOCK of items, or with one worker, the spans are blocks of
    BLOCK run inline with one make_work(size) buffer set.  Otherwise WORKERS
    threads, this one and WORKERS - 1 of the pool, each with its own buffer
    set, take spans of BLOCK // WORKERS items from one shared counter until
    none is left, so all buffer sets together are the size of the serial
    one.  A pool thread runs in a copy of the caller's context, which
    carries NumPy's error state.
    """
    workers = WORKERS if n > BLOCK else 1
    span = BLOCK // workers
    starts, lock = iter(range(0, n, span)), threading.Lock()

    def drain(work):
        while True:
            with lock:
                a = next(starts, None)
            if a is None:
                return
            task(a, min(a + span, n), work)

    if workers == 1:
        drain(make_work(min(n, span)))
        return
    pool = _block_pool()
    futures = [
        pool.submit(contextvars.copy_context().run, drain, make_work(span))
        for _ in range(workers - 1)
    ]
    try:
        drain(make_work(span))
    finally:
        for future in futures:
            future.result()
