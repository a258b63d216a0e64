import concurrent.futures
import os
import threading

import pytest

from manifold_xi import rngs
from manifold_xi.rngs import parallel_map, worker_count


class TestWorkerCount:
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        # a process pinned to one CPU of a larger machine gets one worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert worker_count(None) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(48)),
                            raising=False)
        assert worker_count(None) == 32  # the cap


class TestParallelMap:
    def test_nested_calls_run_on_their_callers_thread(self, monkeypatch):
        def inner(_):
            caller = threading.get_ident()
            return parallel_map(lambda i: threading.get_ident() == caller, range(4), 4)

        # an inline outer call and a pooled one; neither inner call pools
        inline = parallel_map(inner, range(3), threads=1)
        pooled_outer = parallel_map(inner, range(3), threads=3)
        assert inline == pooled_outer == [[True] * 4] * 3

        def refuse(*args, **kwargs):
            raise AssertionError("a nested call started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        assert parallel_map(inner, range(3), threads=1) == [[True] * 4] * 3

    def test_nesting_ends_with_the_call(self):
        assert parallel_map(abs, [1, -2], threads=1) == [1, 2]
        assert not getattr(rngs._NESTED, "active", False)
        with pytest.raises(ZeroDivisionError):
            parallel_map(lambda i: 1 // i, [1, 0], threads=1)
        assert not getattr(rngs._NESTED, "active", False)
