"""Fork-based worker pool with shared-memory result transport.

Two execution engines, both deliberately boring:

``map_chunked``
    Splits ``range(n_samples)`` into fixed-size chunks, forks
    ``n_jobs`` workers, statically assigns chunk ``c`` to worker
    ``c % n_jobs``, and lets each worker write its ``(stop - start,)``
    float result slices directly into a
    :class:`multiprocessing.shared_memory` buffer — results never
    travel through a pickle pipe.  Chunk bounds are a pure function of
    ``(n_samples, chunk_size)``, so the set of evaluated ranges — and
    therefore the bits of the result — is independent of the worker
    count.  Static assignment is deadlock-free by construction and
    load-balances well because chunks are homogeneous solver batches.

``parallel_map``
    Ordered ``fn(item)`` fan-out over forked workers with dynamic
    work-stealing (items can be heterogeneous — simulation
    replications vary in length) and results returned through a
    queue.  Results are pre-pickled *inside* the worker so an
    unpicklable return value surfaces as an error instead of a silent
    feeder-thread death (and a hung parent).

Fork start method only: inherited memory makes closures, compiled
models, and lambdas all work without pickling the *work*.  Where fork
is unavailable (Windows, some embedded interpreters) both functions
degrade to sequential execution with identical results.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
from multiprocessing import shared_memory
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.exceptions import ParallelError

#: Samples per scheduling chunk.  Fixed — never derived from the worker
#: count — so chunk boundaries (and the result bits) are the same for
#: every ``n_jobs``.
DEFAULT_CHUNK = 256

#: ``evaluate_range(start, stop)`` returns ``(stop - start,)`` floats.
RangeEvaluator = Callable[[int, int], Sequence[float]]

_JOIN_TIMEOUT = 120.0


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


def chunk_bounds(
    n_samples: int, chunk_size: int = DEFAULT_CHUNK
) -> List[Tuple[int, int]]:
    """``[(start, stop), ...]`` covering ``range(n_samples)``.

    Depends only on its arguments — never on worker count — which is
    the load-bearing fact behind ``n_jobs``-independent determinism.
    """
    if n_samples < 0:
        raise ParallelError(f"n_samples must be >= 0, got {n_samples}")
    if chunk_size < 1:
        raise ParallelError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n_samples))
        for start in range(0, n_samples, chunk_size)
    ]


def _fork_context() -> Optional[Any]:
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, OSError):  # pragma: no cover - platform
        pass
    return None  # pragma: no cover - non-fork platform


def _dumps_exception(exc: BaseException) -> bytes:
    try:
        return pickle.dumps(exc)
    except Exception:  # noqa: BLE001 - any pickling failure
        fallback = ParallelError(
            f"worker raised unpicklable {type(exc).__name__}: {exc}"
        )
        return pickle.dumps(fallback)


# Chunked shared-memory map ------------------------------------------------


def _evaluate_into(
    evaluate_range: RangeEvaluator,
    out: np.ndarray,
    start: int,
    stop: int,
) -> None:
    values = np.asarray(evaluate_range(start, stop), dtype=np.float64)
    if values.shape != (stop - start,):
        raise ParallelError(
            f"evaluate_range({start}, {stop}) returned shape "
            f"{values.shape}; expected ({stop - start},)"
        )
    out[start:stop] = values


def _chunk_worker(
    evaluate_range: RangeEvaluator,
    bounds: Sequence[Tuple[int, int]],
    worker_index: int,
    n_workers: int,
    error_queue: Any,
    shm_name: str,
    n_samples: int,
) -> None:
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        out = np.ndarray((n_samples,), dtype=np.float64, buffer=shm.buf)
        for index in range(worker_index, len(bounds), n_workers):
            start, stop = bounds[index]
            try:
                _evaluate_into(evaluate_range, out, start, stop)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                error_queue.put((index, _dumps_exception(exc)))
                return
    finally:
        shm.close()


def map_chunked(
    evaluate_range: RangeEvaluator,
    n_samples: int,
    n_jobs: Optional[int] = 1,
    chunk_size: int = DEFAULT_CHUNK,
) -> np.ndarray:
    """Evaluate ``evaluate_range`` over ``range(n_samples)`` in chunks.

    Args:
        evaluate_range: ``(start, stop) -> (stop - start,)`` floats.
            Must be per-sample independent: the value at ``i`` may not
            depend on which chunk contains ``i``.
        n_samples: Total number of samples.
        n_jobs: Worker processes (``None`` = all CPUs).  Does not
            affect results, only wall-clock.
        chunk_size: Samples per scheduling unit.  Affects neither
            results (given per-sample independence) nor correctness —
            only load balance.

    Returns:
        ``(n_samples,)`` float64 array.

    Raises:
        ParallelError: bad arguments, a worker died, or
            ``evaluate_range`` returned the wrong shape.  Exceptions
            raised *by* ``evaluate_range`` inside a worker re-raise
            as themselves in the parent.
    """
    jobs = resolve_jobs(n_jobs)
    bounds = chunk_bounds(n_samples, chunk_size)
    if n_samples == 0:
        return np.empty(0, dtype=np.float64)
    context = _fork_context()
    n_workers = min(jobs, len(bounds))
    if n_workers <= 1 or context is None:
        out = np.empty(n_samples, dtype=np.float64)
        for start, stop in bounds:
            _evaluate_into(evaluate_range, out, start, stop)
        return out

    with obs.span(
        "parallel.map_chunked",
        n_samples=n_samples,
        n_jobs=n_workers,
        n_chunks=len(bounds),
        chunk_size=chunk_size,
    ):
        obs.counter("parallel_chunks_total").inc(len(bounds))
        shm = shared_memory.SharedMemory(create=True, size=8 * n_samples)
        processes: List[Any] = []
        try:
            error_queue = context.SimpleQueue()
            processes = [
                context.Process(
                    target=_chunk_worker,
                    args=(
                        evaluate_range,
                        bounds,
                        worker_index,
                        n_workers,
                        error_queue,
                        shm.name,
                        n_samples,
                    ),
                    daemon=True,
                )
                for worker_index in range(n_workers)
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join(_JOIN_TIMEOUT)
            if not error_queue.empty():
                _index, payload = error_queue.get()
                raise pickle.loads(payload)
            for process in processes:
                if process.is_alive() or process.exitcode != 0:
                    obs.counter("parallel_worker_deaths_total").inc()
                    raise ParallelError(
                        "a map_chunked worker died without reporting an "
                        f"error (exitcode={process.exitcode})"
                    )
            view = np.ndarray(
                (n_samples,), dtype=np.float64, buffer=shm.buf
            )
            return np.array(view)  # copy out before unlink
        finally:
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(5.0)
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - unlink race
                pass


# Ordered item map ---------------------------------------------------------


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
            result_queue.put(pickle.dumps((index, False, exc)))
            return
        result_queue.put(payload)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    n_jobs: Optional[int] = 1,
) -> List[Any]:
    """``[fn(item) for item in items]`` across forked workers, in order.

    ``fn`` and the items need not be picklable (fork inheritance); the
    *results* must be.  Worker exceptions re-raise in the parent; a
    worker that dies without reporting raises :class:`ParallelError`.
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
                    failure = value
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
