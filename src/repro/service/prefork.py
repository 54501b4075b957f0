"""Pre-forked solver workers for the availability service.

The micro-batcher's dispatch threads are enough while solves are cheap,
but one Python process tops out at one core of linear algebra.  With
``ServiceConfig(worker_processes=N)`` the service forks ``N`` solver
processes at boot; every coalesced ``/v1/solve`` batch is dispatched
round-robin over a *per-worker duplex pipe*, solved there, and the
JSON-able *result cores* travel back over the same pipe.  Compiled
models and the loaded C kernel live in each worker (inherited from the
parent by fork, then warmed per group on first use).

Two design rules make the pool robust to workers dying at arbitrary
instants (the recovery test SIGKILLs them mid-flight):

* **Lock-free transport.**  Each worker talks over its own
  :func:`multiprocessing.Pipe`, so every pipe direction has exactly one
  writer and one reader and no cross-process lock exists to poison.
  (``multiprocessing.Queue`` is unusable here — a worker killed at the
  wrong instant dies holding the queue's shared read or write
  semaphore and every sibling blocks forever.)
* **Single-owner I/O.**  One manager thread owns every pipe end:
  it dispatches jobs, collects results via
  :func:`multiprocessing.connection.wait`, detects EOF from dead
  workers, respawns them and resubmits their in-flight jobs.  Request
  threads never touch a pipe — :meth:`SolverPool.execute` enqueues the
  job, pokes the manager through a self-pipe, and waits on an event —
  so there is no close-during-wait or fd-reuse race between threads.

Properties the tests pin down:

* **Bit parity** — workers run exactly the in-process
  ``_SolveGroup.solve_cores`` code and pickled ``float`` round-trips
  preserve bits, so payloads are identical to ``worker_processes=0``.
* **Crash recovery** — solves are idempotent and content-addressed, so
  when a worker dies the pool respawns it and resubmits its pending
  jobs (bounded attempts), and the request completes instead of
  hanging.
* **Isolation** — a worker that OOMs or segfaults takes its process
  down, not the server.

Error transport is by exception *name*: workers send
``(type_name, message)`` and the parent re-raises the matching class
from :mod:`repro.exceptions` / :mod:`repro.service.errors`, so the
HTTP error mapping in ``AvailabilityService.handle`` behaves the same
with and without the pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
from collections import deque
from multiprocessing import connection
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.service.errors import ServiceError

#: Give up on a job after this many worker deaths mid-solve.
MAX_ATTEMPTS = 3

_WAIT_SECONDS = 0.25


def fork_available() -> bool:
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except (ValueError, OSError):  # pragma: no cover - platform
        return False


def _group_from_spec(spec: Tuple) -> Any:
    """Rebuild a ``_SolveGroup`` from its ``key()`` tuple (worker side)."""
    # Imported lazily so worker processes pay the import once, after
    # fork, and the module graph stays acyclic (server imports prefork).
    from repro.models.jsas import JsasConfiguration
    from repro.service.server import _SolveGroup

    n_instances, n_pairs, n_spares, repair_policy = spec[:4]
    method, abstraction, names = spec[4:]
    config = JsasConfiguration(
        n_instances=n_instances,
        n_pairs=n_pairs,
        n_spares=n_spares,
        repair_policy=repair_policy,
    )
    return _SolveGroup(config, method, abstraction, tuple(names))


def _worker_main(
    conn: Any,
    trace_dir: Optional[str] = None,
    label: str = "service",
    index: int = 0,
    parent_pid: Optional[int] = None,
) -> None:
    from repro.obs import tracecontext
    from repro.obs.recorder import NULL_RECORDER, Recorder

    # The fork inherited the parent's recorder — including any open
    # sink fd, which two processes must never share.  Reset FIRST, then
    # (when tracing) install this worker's own per-process sink.
    obs.set_recorder(NULL_RECORDER)
    worker_label = f"{label}.worker{index}"
    if trace_dir is not None:
        from repro.obs.sinks import process_trace_sink

        obs.set_process_label(worker_label)
        sink = process_trace_sink(trace_dir, worker_label)
        obs.set_recorder(Recorder(sinks=(sink,), keep_records=False))
    groups: Dict[Tuple, Any] = {}
    if parent_pid is None:  # pre-fork callers always pass it
        parent_pid = os.getppid()
    while True:
        try:
            # Pipe EOF alone cannot be trusted for orphan detection: a
            # sibling fork may hold an inherited copy of the parent-side
            # fd, and a SIGKILLed parent (chaos ``shard.death``) closes
            # nothing.  Poll with a timeout and exit once re-parented.
            # parent_pid comes from the parent *before* the fork — a
            # getppid() taken here would read 1 if the parent died
            # during the fork window, disabling the check forever.
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
                continue
            task = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        if task is None:
            return
        job_id, spec, values_list, trace = task
        try:
            group = groups.get(spec)
            if group is None:
                group = groups[spec] = _group_from_spec(spec)
            with tracecontext.trace_scope(trace):
                with obs.span(
                    "worker.solve",
                    index=index,
                    batch_size=len(values_list),
                ):
                    cores = group.solve_cores(values_list)
            conn.send((job_id, True, cores))
        except BaseException as exc:  # noqa: BLE001 - forwarded by name
            try:
                conn.send((job_id, False, (type(exc).__name__, str(exc))))
            except (BrokenPipeError, OSError):  # pragma: no cover
                return


def _rebuild_exception(type_name: str, message: str) -> BaseException:
    import builtins

    from repro import exceptions as repro_exceptions
    from repro.service import errors as service_errors

    for module in (service_errors, repro_exceptions, builtins):
        cls = getattr(module, type_name, None)
        if (
            isinstance(cls, type)
            and issubclass(cls, BaseException)
            and cls is not BaseException
        ):
            try:
                return cls(message)
            except TypeError:  # pragma: no cover - odd signatures
                break
    return ServiceError(f"{type_name}: {message}")


class _PendingJob:
    __slots__ = (
        "spec", "values_list", "event", "ok", "payload", "attempts",
        "worker_index", "trace",
    )

    def __init__(
        self,
        spec: Tuple,
        values_list: Sequence[Any],
        trace: Any = None,
    ) -> None:
        self.spec = spec
        self.values_list = values_list
        self.event = threading.Event()
        self.ok = False
        self.payload: Any = None
        self.attempts = 0
        self.worker_index = -1
        self.trace = trace


class _Worker:
    """One solver process plus the parent end of its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn


class SolverPool:
    """N forked solver processes, one lock-free duplex pipe each."""

    def __init__(
        self,
        n_workers: int,
        trace_dir: Optional[str] = None,
        label: str = "service",
    ) -> None:
        if n_workers < 1:
            raise ServiceError(
                f"solver pool needs at least one worker, got {n_workers}"
            )
        if not fork_available():
            raise ServiceError(
                "pre-forked solver workers need the 'fork' start method"
            )
        self.n_workers = n_workers
        self.trace_dir = trace_dir
        self.label = label
        self._context = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._pending: Dict[int, _PendingJob] = {}
        self._inbox: Deque[int] = deque()
        self._job_ids = itertools.count()
        self._round_robin = itertools.count()
        self._closed = False
        self._wake_r, self._wake_w = os.pipe()
        # Workers are spawned by the manager thread itself, so every
        # pipe end is born and dies on one thread.
        self._workers: List[_Worker] = []
        self._ready = threading.Event()
        self._manager = threading.Thread(
            target=self._manage, name="repro-solver-pool-manager",
            daemon=True,
        )
        self._manager.start()
        self._ready.wait(30.0)
        obs.event("service.prefork.started", n_workers=n_workers)

    # Worker lifecycle (manager thread only) ------------------------------

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn, self.trace_dir, self.label, index,
                os.getpid(),
            ),
            daemon=True,
        )
        process.start()
        # The parent keeps only its end; the child's end must be closed
        # here so worker death surfaces as EOF on parent_conn.
        child_conn.close()
        return _Worker(process, parent_conn)

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.process.is_alive())

    # Manager loop --------------------------------------------------------

    def _manage(self) -> None:
        self._workers.extend(
            self._spawn(index) for index in range(self.n_workers)
        )
        self._ready.set()
        while True:
            if self._closed:
                self._shutdown_workers()
                return
            try:
                ready = connection.wait(
                    [w.conn for w in self._workers] + [self._wake_r],
                    timeout=_WAIT_SECONDS,
                )
            except OSError:  # pragma: no cover - wake pipe closed
                continue
            for item in ready:
                if item == self._wake_r:
                    os.read(self._wake_r, 4096)
                    continue
                try:
                    entry = item.recv()
                except (EOFError, OSError):
                    continue  # dead worker; reaped below
                self._deliver(entry)
            self._reap_and_respawn()
            self._drain_inbox()

    def _deliver(self, entry: Tuple[int, bool, Any]) -> None:
        job_id, ok, payload = entry
        with self._lock:
            job = self._pending.get(job_id)
            if job is None or job.event.is_set():
                return  # duplicate completion after a resubmit
            job.ok = ok
            job.payload = payload
            job.event.set()

    def _reap_and_respawn(self) -> None:
        """Replace dead workers and requeue their unfinished jobs.

        Solves are pure functions of their request, so re-executing one
        on another worker is wasted work at worst, never a wrong
        answer; a duplicate completion (worker answered, then died
        before we noticed) is ignored by :meth:`_deliver`.
        """
        dead = [
            i for i, w in enumerate(self._workers)
            if not w.process.is_alive()
        ]
        if not dead:
            return
        for index in dead:
            obs.counter("service_prefork_worker_deaths_total").inc()
            try:
                self._workers[index].conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._workers[index].process.join(0.1)
            self._workers[index] = self._spawn(index)
            obs.counter("service_prefork_worker_respawns_total").inc()
        dead_set = set(dead)
        with self._lock:
            for job_id, job in self._pending.items():
                if job.event.is_set() or job.worker_index not in dead_set:
                    continue
                if job.attempts >= MAX_ATTEMPTS:
                    job.ok = False
                    job.payload = (
                        "ServiceError",
                        f"solve failed after {MAX_ATTEMPTS} worker deaths",
                    )
                    job.event.set()
                else:
                    job.worker_index = -1
                    self._inbox.append(job_id)

    def _drain_inbox(self) -> None:
        while True:
            with self._lock:
                if not self._inbox:
                    return
                job_id = self._inbox.popleft()
                job = self._pending.get(job_id)
            if job is None or job.event.is_set():
                continue
            index = 0
            for _ in range(len(self._workers)):
                index = next(self._round_robin) % len(self._workers)
                if self._workers[index].process.is_alive():
                    break
            job.worker_index = index
            job.attempts += 1
            try:
                self._workers[index].conn.send(
                    (job_id, job.spec, job.values_list, job.trace)
                )
            except (BrokenPipeError, OSError):
                # Died between the liveness check and the send; the
                # next loop iteration reaps it and requeues this job.
                pass

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    # Public API (any thread) ---------------------------------------------

    def terminate(self) -> None:
        """SIGKILL every worker process immediately.

        Signal-handler safe: no locks, no joins, no pipe traffic —
        shard processes call this from their SIGTERM handler right
        before ``os._exit`` so a terminated shard never leaves solver
        processes behind.  :meth:`close` remains the graceful path.
        """
        for worker in list(self._workers):
            try:
                worker.process.kill()
            except Exception:  # noqa: BLE001 - already dead / never started
                pass

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except (BlockingIOError, OSError):  # pragma: no cover - full pipe
            pass

    def execute(
        self,
        spec: Tuple,
        values_list: Sequence[Any],
        trace: Any = None,
    ) -> Sequence[Dict[str, Any]]:
        """Solve one batch in a worker; blocks until done.

        Matches the micro-batcher's ``BatchExecutor`` protocol when
        curried with a group key: ``lambda batch: pool.execute(key,
        batch)``.  ``trace`` (a picklable
        :class:`~repro.obs.tracecontext.TraceContext` or ``None``) rides
        the pipe so the worker's ``worker.solve`` span joins the
        request's distributed trace.
        """
        if self._closed:
            raise ServiceError("solver pool is closed")
        job = _PendingJob(spec, list(values_list), trace=trace)
        with self._lock:
            job_id = next(self._job_ids)
            self._pending[job_id] = job
            self._inbox.append(job_id)
        obs.counter("service_prefork_batches_total").inc()
        self._wake()
        try:
            job.event.wait()
        finally:
            with self._lock:
                self._pending.pop(job_id, None)
        if not job.ok:
            type_name, message = job.payload
            raise _rebuild_exception(type_name, message)
        return job.payload

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._inbox.clear()
            for job in self._pending.values():
                if not job.event.is_set():
                    job.ok = False
                    job.payload = ("ServiceError", "solver pool closed")
                    job.event.set()
        self._wake()
        self._manager.join(15.0)
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:  # pragma: no cover - double close
            pass
        obs.event("service.prefork.stopped", n_workers=self.n_workers)
