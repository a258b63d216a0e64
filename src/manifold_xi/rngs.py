"""Deterministic random substreams and the thread fan-out that relies on them.

Every stochastic routine in this package derives its generator through
:func:`substream`, so results are reproducible bit-for-bit and independent
of thread scheduling: a worker responsible for task ``(seed, i, j)`` always
receives the same stream regardless of how many workers run beside it.
Work items fan out through :func:`parallel_map`, which returns results in
item order, so aggregation never depends on which worker finished first.
It is the package's one fan-out: a call nested in another runs inline, so
the outer call's ``threads`` caps all the work beneath it.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading

import numpy as np

from .errors import check_int

_NESTED = threading.local()  # ``active`` while a parallel_map item runs


def check_seed(seed):
    """``seed`` if it is a :func:`substream` seed: an integer ``>= 0``, or a
    non-empty tuple of them."""
    for entry in seed if isinstance(seed, tuple) and seed else (seed,):
        check_int("seed", entry, 0)
    return seed


def substream(seed, *path: int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and an optional index path.

    ``seed`` may be a plain integer or a tuple ``(root, i, j, ...)``; extra
    positional indices are appended to the path.  The seed's entries
    must be integers ``>= 0`` (:func:`check_seed`).  Distinct paths yield
    statistically independent streams (``np.random.SeedSequence`` spawn
    keys), and the same key always yields the same stream.

    >>> substream(7, 0).random() == substream(7, 0).random()
    True
    >>> substream(7, 0).random() != substream(7, 1).random()
    True
    """
    check_seed(seed)
    if isinstance(seed, tuple):
        seed, path = seed[0], seed[1:] + path
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def worker_count(threads: int | None) -> int:
    """The number of workers for ``threads``: ``None`` means the CPUs this
    process may run on (its affinity set where the platform reports one),
    capped at 32; otherwise ``threads`` must be an integer ``>= 1``."""
    if threads is not None:
        return check_int("threads", threads, 1)
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return min(32, usable or 1)


def parallel_map(fn, items, threads: int | None = None) -> list:
    """Return ``[fn(item) for item in items]``, computed on a thread pool.

    ``threads`` is ``None`` (the usable CPUs, capped at 32) or an integer
    ``>= 1`` (:func:`worker_count`).  With one worker, at most one item, or
    inside an item of another ``parallel_map`` call (inline or pooled), the
    calls run inline on the calling thread.

    >>> parallel_map(lambda i: i * i, range(5), threads=2)
    [0, 1, 4, 9, 16]
    """
    workers = worker_count(threads)
    items = list(items)

    def nested(item):
        outer, _NESTED.active = getattr(_NESTED, "active", False), True
        try:
            return fn(item)
        finally:
            _NESTED.active = outer

    if workers <= 1 or len(items) <= 1 or getattr(_NESTED, "active", False):
        return [nested(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(nested, items))
