"""Pre-forked solver workers for the availability service.

The micro-batcher's dispatch threads are enough while solves are cheap,
but one Python process tops out at one core of linear algebra.  With
``ServiceConfig(worker_processes=N)`` the service forks ``N`` solver
processes at boot; every coalesced ``/v1/solve`` batch is solved in one
of them, sent over that worker's own duplex pipe, and the JSON-able
*result cores* travel back over the same pipe.  Compiled models and the
loaded C kernel live in each worker (inherited from the parent by fork,
then warmed per group on first use).

Two design rules make the pool robust to workers dying at arbitrary
instants (the recovery tests SIGKILL them mid-flight):

* **Lock-free transport.**  Each worker talks over its own
  :func:`multiprocessing.Pipe`, so no cross-process lock exists to
  poison.  (``multiprocessing.Queue`` is unusable here — a worker
  killed at the wrong instant dies holding the queue's shared read or
  write semaphore and every sibling blocks forever.)
* **Checkout.**  The dispatch thread that calls
  :meth:`SolverPool.execute` takes an idle worker and owns its pipe for
  one batch: it sends the batch, waits for the reply or for the worker
  to die, and returns the worker to the idle set.  Each pipe has one
  user at a time, so there is no close-during-wait or fd-reuse race
  between threads.  At most ``N`` batches solve at once; a caller that
  finds no idle worker waits for one.

Properties the tests pin down:

* **Bit parity** — workers run exactly the in-process
  ``_SolveGroup.solve_cores`` code and pickled ``float`` round-trips
  preserve bits, so payloads are identical to ``worker_processes=0``.
* **Crash recovery** — solves are idempotent and content-addressed, so
  when a worker dies mid-batch its caller replaces it and resends the
  batch (bounded attempts), and the request completes instead of
  hanging.  An idle worker that died is replaced at the next checkout.
* **Isolation** — a worker that OOMs or segfaults takes its process
  down, not the server.

Error transport is by exception *name*: workers send
``(type_name, message)`` and the parent re-raises the matching class
from :mod:`repro.exceptions` / :mod:`repro.service.errors`, so the
HTTP error mapping in ``AvailabilityService.handle`` behaves the same
with and without the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.service.errors import ServiceError

#: Give up on a batch after this many worker deaths mid-solve.
MAX_ATTEMPTS = 3

#: How often a caller waiting for a reply checks for a dead worker or a
#: closed pool.
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
        spec, values_list, trace = task
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
            conn.send((True, cores))
        except BaseException as exc:  # noqa: BLE001 - forwarded by name
            try:
                conn.send((False, (type(exc).__name__, str(exc))))
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


class _Worker:
    """One solver process plus the parent end of its duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn


class SolverPool:
    """N forked solver processes, each checked out for one batch at a time."""

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
        # One lock guards the idle set and every fork, so each worker's
        # child pipe end is closed before a sibling can inherit it (an
        # inherited copy would hold the pipe open after the worker dies).
        self._cond = threading.Condition()
        self._closed = False
        with self._cond:
            self._workers: List[_Worker] = [
                self._spawn(index) for index in range(n_workers)
            ]
        self._idle: List[int] = list(range(n_workers))
        obs.event("service.prefork.started", n_workers=n_workers)

    # Worker lifecycle (hold self._cond) ----------------------------------

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

    def _replace(self, index: int) -> None:
        """Swap the dead worker at ``index`` for a fresh one."""
        obs.counter("service_prefork_worker_deaths_total").inc()
        dead = self._workers[index]
        dead.conn.close()
        dead.process.join(0.1)
        self._workers[index] = self._spawn(index)
        obs.counter("service_prefork_worker_respawns_total").inc()

    def alive_count(self) -> int:
        return sum(1 for w in self._workers if w.process.is_alive())

    # Checkout ------------------------------------------------------------

    def _checkout(self) -> int:
        """Take an idle worker, first replacing every idle one that died."""
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            if self._closed:
                raise ServiceError("solver pool is closed")
            for index in self._idle:
                if not self._workers[index].process.is_alive():
                    self._replace(index)
            return self._idle.pop(0)

    def _round_trip(
        self, worker: _Worker, task: Tuple
    ) -> Optional[Tuple[bool, Any]]:
        """Send a batch and wait for its reply; ``None`` if the worker died."""
        try:
            worker.conn.send(task)
            while not worker.conn.poll(_WAIT_SECONDS):
                if self._closed:
                    raise ServiceError("solver pool is closed")
                if not worker.process.is_alive():
                    return None
            return worker.conn.recv()
        except (EOFError, OSError):
            return None

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
        task = (spec, list(values_list), trace)
        index = self._checkout()
        obs.counter("service_prefork_batches_total").inc()
        try:
            for _ in range(MAX_ATTEMPTS):
                reply = self._round_trip(self._workers[index], task)
                if reply is not None:
                    break
                # Solves are pure functions of their request, so
                # resending one to a fresh worker is safe.
                with self._cond:
                    self._replace(index)
            else:
                raise ServiceError(
                    f"solve failed after {MAX_ATTEMPTS} worker deaths"
                )
        finally:
            with self._cond:
                self._idle.append(index)
                self._cond.notify_all()
        ok, payload = reply
        if not ok:
            raise _rebuild_exception(*payload)
        return payload

    def close(self) -> None:
        """Stop every worker; idempotent.

        Callers waiting for a worker raise at once and a caller mid-batch
        raises within ``_WAIT_SECONDS``, so every worker is back in the
        idle set before the shutdown below.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            self._cond.wait_for(lambda: len(self._idle) == self.n_workers)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:  # already dead
                pass
        for worker in self._workers:
            worker.process.join(5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(2.0)
            worker.conn.close()
        obs.event("service.prefork.stopped", n_workers=self.n_workers)
