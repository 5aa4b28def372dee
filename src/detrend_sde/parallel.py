"""Optional thread-chunking over the path axis.

Work is embarrassingly parallel across paths; results are written into
preallocated slices indexed by chunk, so the assembled output does not
depend on completion order.  DETREND_SDE_THREADS caps the worker count
(default 1, serial).  No library code uses the module any more; it
stays only for the benchmark and goes with its next change.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "DETREND_SDE_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS, "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def path_chunks(n_items: int, workers: int) -> list[slice]:
    workers = min(max(1, workers), n_items) if n_items else 1
    bounds = [round(i * n_items / workers) for i in range(workers + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def fixed_chunks(n_items: int, block: int) -> list[slice]:
    """Block-sized slices whose boundaries do not depend on the worker
    count, so batched numerics give the same bits serial or threaded."""
    block = max(1, block)
    return [slice(a, min(a + block, n_items)) for a in range(0, n_items, block)]


def run_chunked(fn, n_items: int, workers: int | None = None,
                block: int | None = None) -> None:
    """Call fn(slice) for each path chunk, threaded when workers > 1.

    With block set, chunk boundaries are fixed at multiples of block and
    threads only affect scheduling, never the slices themselves.
    """
    workers = worker_count() if workers is None else workers
    chunks = (fixed_chunks(n_items, block) if block is not None
              else path_chunks(n_items, workers))
    if workers <= 1 or len(chunks) <= 1:
        for sl in chunks:
            fn(sl)
        return
    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        for fut in [pool.submit(fn, sl) for sl in chunks]:
            fut.result()
