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

from .errors import check_int


def substream(seed, *path: int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and an optional index path.

    ``seed`` may be a plain integer or a tuple ``(root, i, j, ...)``; extra
    positional indices are appended to the path.  The root must be an
    integer ``>= 0``.  Distinct paths yield statistically independent
    streams (``np.random.SeedSequence`` spawn keys), and the same key
    always yields the same stream.

    >>> substream(7, 0).random() == substream(7, 0).random()
    True
    >>> substream(7, 0).random() != substream(7, 1).random()
    True
    """
    if isinstance(seed, tuple):
        seed, path = seed[0], seed[1:] + path
    root = check_int("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(entropy=root, spawn_key=path))


def parallel_map(fn, items, threads: int | None = None) -> list:
    """Return ``[fn(item) for item in items]``, computed on a thread pool.

    ``threads`` is ``None`` (the CPU count, capped at 32) or an integer
    ``>= 1``.  With one worker or at most one item the calls run inline on
    the calling thread.

    >>> parallel_map(lambda i: i * i, range(5), threads=2)
    [0, 1, 4, 9, 16]
    """
    workers = (min(32, os.cpu_count() or 1) if threads is None
               else check_int("threads", threads, 1))
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
