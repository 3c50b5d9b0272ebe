"""Small shared helpers."""

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def thread_count():
    """Worker count for parallel maps, capped by PTBANDS_THREADS.

    Defaults to 1 (sequential) when unset; any other value must be a
    positive integer (ConfigError otherwise).  The heavy kernels are
    LAPACK/BLAS calls which release the GIL, so raising the cap
    parallelizes independent eigenproblems without oversubscribing when
    left at 1.
    """
    raw = os.environ.get("PTBANDS_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"PTBANDS_THREADS must be a positive integer, got {raw!r}")
    return n


def parallel_map(fn, items):
    """Map preserving input order; threads when PTBANDS_THREADS > 1."""
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as ex:
        return list(ex.map(fn, items))
