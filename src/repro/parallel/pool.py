"""Fork-based ordered item map.

``parallel_map`` fans ``fn(item)`` out over forked workers with
dynamic work-stealing (items can be heterogeneous — simulation
replications vary in length) and returns the results in item order
through a queue.  Results are pre-pickled *inside* the worker so an
unpicklable return value surfaces as an error instead of a silent
feeder-thread death (and a hung parent); an exception that cannot
cross the process boundary arrives as a :class:`ParallelError` naming
its type and message.

Fork start method only: inherited memory makes closures, compiled
models, and lambdas all work without pickling the *work*.  Where fork
is unavailable (Windows, some embedded interpreters) it degrades to
sequential execution with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
from typing import Any, Callable, List, Optional, Sequence

from repro import obs
from repro.exceptions import ParallelError


def cpu_count() -> int:
    """Usable CPU count (scheduler affinity when the OS exposes it)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return multiprocessing.cpu_count()


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request: ``None`` means all CPUs."""
    if n_jobs is None:
        return cpu_count()
    jobs = int(n_jobs)
    if jobs < 1:
        raise ParallelError(f"n_jobs must be >= 1 or None, got {n_jobs}")
    return jobs


def _fork_context() -> Optional[Any]:
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, OSError):  # pragma: no cover - platform
        pass
    return None  # pragma: no cover - non-fork platform


def _dumps_exception(exc: BaseException) -> bytes:
    """``exc`` pickled, or a :class:`ParallelError` naming it when it
    cannot make the round trip (e.g. it holds a lock)."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
        return payload
    except Exception:  # noqa: BLE001 - any pickling failure
        fallback = ParallelError(
            f"worker raised unpicklable {type(exc).__name__}: {exc}"
        )
        return pickle.dumps(fallback)


def _item_worker(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    task_queue: Any,
    result_queue: Any,
) -> None:
    while True:
        index = task_queue.get()
        if index is None:
            return
        try:
            payload = pickle.dumps((index, True, fn(items[index])))
        except BaseException as exc:  # noqa: BLE001 - forwarded
            result_queue.put(
                pickle.dumps((index, False, _dumps_exception(exc)))
            )
            return
        result_queue.put(payload)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    n_jobs: Optional[int] = 1,
) -> List[Any]:
    """``[fn(item) for item in items]`` across forked workers, in order.

    ``fn`` and the items need not be picklable (fork inheritance); the
    *results* must be.  Worker exceptions re-raise in the parent as
    themselves, or as :class:`ParallelError` naming their type and
    message when they cannot be pickled; a worker that dies without
    reporting raises :class:`ParallelError`.
    """
    items = list(items)
    jobs = resolve_jobs(n_jobs)
    context = _fork_context()
    n_workers = min(jobs, len(items))
    if n_workers <= 1 or context is None:
        return [fn(item) for item in items]

    with obs.span("parallel.map", n_items=len(items), n_jobs=n_workers):
        # Queue (not SimpleQueue) for tasks: its feeder thread gives an
        # unbounded buffer, so preloading every index never blocks on
        # pipe capacity.
        task_queue = context.Queue()
        result_queue = context.Queue()
        for index in range(len(items)):
            task_queue.put(index)
        for _ in range(n_workers):
            task_queue.put(None)
        processes = [
            context.Process(
                target=_item_worker,
                args=(fn, items, task_queue, result_queue),
                daemon=True,
            )
            for _ in range(n_workers)
        ]
        for process in processes:
            process.start()
        results: List[Any] = [None] * len(items)
        received = 0
        failure: Optional[BaseException] = None
        try:
            while received < len(items) and failure is None:
                try:
                    payload = result_queue.get(timeout=0.5)
                except queue_module.Empty:
                    # A worker killed mid-item can die holding the result
                    # queue's shared write lock, and then no other worker
                    # can exit: fail on the first non-zero exit too.
                    if all(not p.is_alive() for p in processes) or any(
                        p.exitcode not in (None, 0) for p in processes
                    ):
                        try:
                            payload = result_queue.get_nowait()
                        except queue_module.Empty:
                            obs.counter(
                                "parallel_worker_deaths_total"
                            ).inc()
                            failure = ParallelError(
                                "a parallel_map worker died without "
                                "reporting a result"
                            )
                            break
                    else:
                        continue
                index, ok, value = pickle.loads(payload)
                if not ok:
                    failure = pickle.loads(value)
                    break
                results[index] = value
                received += 1
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            for process in processes:
                process.join(5.0)
            task_queue.cancel_join_thread()
            result_queue.cancel_join_thread()
        if failure is not None:
            raise failure
        return results
