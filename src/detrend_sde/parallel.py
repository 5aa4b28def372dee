"""Names the benchmark still imports; no library code uses them.

The library runs serially: it starts no thread and reads no
environment variable.  ENV_THREADS is the variable the benchmark sets,
and run_chunked is the serial block loop it wraps.  Both go with the
benchmark's next change.
"""

from __future__ import annotations

ENV_THREADS = "DETREND_SDE_THREADS"


def run_chunked(fn, n_items: int, workers: int | None = None,
                block: int | None = None) -> None:
    """Call fn(slice) on consecutive slices of block items (one slice of
    all items without block), in order; workers is ignored."""
    step = max(1, block or n_items)
    for lo in range(0, n_items, step):
        fn(slice(lo, min(lo + step, n_items)))
