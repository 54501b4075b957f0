"""Unit tests for the fork-based ordered item map."""

import os
import threading

import pytest

from repro.exceptions import ParallelError
from repro.parallel import cpu_count, parallel_map, resolve_jobs


class LockedError(Exception):
    """An exception that cannot be pickled: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TwoPartError(Exception):
    """An exception that pickles but cannot be unpickled: its
    constructor needs two arguments and ``args`` holds one."""

    def __init__(self, head, tail):
        super().__init__(f"{head} {tail}")


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        assert resolve_jobs(None) == cpu_count()

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_invalid(self):
        with pytest.raises(ParallelError):
            resolve_jobs(0)


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(37))
        assert parallel_map(lambda x: x * 3, items, n_jobs=3) == [
            x * 3 for x in items
        ]

    def test_exception_propagates_as_original_type(self):
        def pick(x):
            if x == 5:
                raise KeyError("five")
            return x

        with pytest.raises(KeyError, match="five"):
            parallel_map(pick, list(range(10)), n_jobs=2)

    @pytest.mark.parametrize(
        "exc",
        [LockedError("five is locked"), TwoPartError("five is", "locked")],
        ids=["dumps-fails", "loads-fails"],
    )
    def test_unpicklable_exception_keeps_type_and_message(self, exc):
        def pick(x):
            if x == 5:
                raise exc
            return x

        with pytest.raises(
            ParallelError,
            match=f"unpicklable {type(exc).__name__}: five is locked",
        ):
            parallel_map(pick, list(range(10)), n_jobs=2)

    def test_worker_hard_death_raises_parallel_error(self):
        def die(x):
            if x == 3:
                os._exit(3)
            return x

        with pytest.raises(ParallelError):
            parallel_map(die, list(range(8)), n_jobs=2)

    def test_sequential_fallback(self):
        assert parallel_map(lambda x: -x, [1, 2, 3], n_jobs=1) == [-1, -2, -3]
