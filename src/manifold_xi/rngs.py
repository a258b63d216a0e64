"""Deterministic random substreams and the thread fan-out that relies on them.

Every stochastic routine in this package derives its generator through
:func:`substream`, so results are reproducible bit-for-bit and independent
of thread scheduling: a worker responsible for task ``(seed, i, j)`` always
receives the same stream regardless of how many workers run beside it.
Work items fan out through :func:`parallel_map`, which returns results in
item order, so aggregation never depends on which worker finished first.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np


def substream(seed, *path: int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and an optional index path.

    ``seed`` may be a plain integer or a tuple ``(root, i, j, ...)``; extra
    positional indices are appended to the path.  Distinct paths yield
    statistically independent streams (``np.random.SeedSequence`` spawn
    keys), and the same key always yields the same stream.

    >>> substream(7, 0).random() == substream(7, 0).random()
    True
    >>> substream(7, 0).random() != substream(7, 1).random()
    True
    """
    if isinstance(seed, tuple):
        root, key = seed[0], tuple(seed[1:]) + tuple(path)
    else:
        root, key = int(seed), tuple(path)
    if root < 0:
        raise ValueError(f"seed must be non-negative, got {root}")
    return np.random.default_rng(np.random.SeedSequence(entropy=root, spawn_key=key))


def parallel_map(fn, items, threads: int | None = None) -> list:
    """Return ``[fn(item) for item in items]``, computed on a thread pool.

    ``threads`` defaults to the CPU count, capped at 32.  With one worker
    or at most one item the calls run inline on the calling thread.

    >>> parallel_map(lambda i: i * i, range(5), threads=2)
    [0, 1, 4, 9, 16]
    """
    items = list(items)
    workers = threads or min(32, os.cpu_count() or 1)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
