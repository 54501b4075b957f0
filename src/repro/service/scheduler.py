"""Work-conserving request-coalescing micro-batcher.

The compiled batch engine (:mod:`repro.ctmc.batch`) solves *k* parameter
points against one model for barely more than the cost of one point.  A
serving layer should therefore never solve *queued* requests one by
one: this scheduler collects requests that target the same *batch group*
(same hierarchy shape, same method/abstraction, same parameter-name set)
and dispatches them as a single ``solve_batch`` call.

Mechanics:

* :meth:`MicroBatcher.submit` enqueues a request and returns a ticket;
  the caller blocks on :meth:`Ticket.result`.  When the queue already
  holds ``queue_limit`` pending requests, ``submit`` raises
  :class:`~repro.service.errors.Overloaded` instead of queueing — the
  HTTP layer turns that into 429 + ``Retry-After`` (load shedding, not
  unbounded buffering).
* A dispatcher thread that finds work takes the oldest pending request
  plus every queued request of the same group (up to ``max_batch``) and
  dispatches the set at once through the group's executor.  It never
  holds a request back waiting for companions: batches form only from
  requests that queued while every dispatcher was busy, which is when
  batching pays, and an isolated request is dispatched alone at once.
* Results (or the batch's exception) are delivered per-ticket.

Per-sample results from a coalesced batch are bit-identical to solving
each request alone — guaranteed by the batch engine for the direct
method and enforced end-to-end by ``tests/service/test_server.py``.

Chaos surface (all no-ops unless a live injector is installed — see
:mod:`repro.chaos`): ``worker.death`` kills a dispatcher thread after it
takes a batch (the batch is re-queued and the worker respawned),
``scheduler.stall`` delays one dispatch, and ``solver.exception`` fails
exactly one request of a batch while the rest still solve.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro import chaos, obs
from repro.chaos.injector import InjectedFault
from repro.obs import tracecontext
from repro.service.errors import Overloaded, SchedulerStopped

#: ``solve_many`` signature: a list of request values in, one result per
#: request out, in order.
BatchExecutor = Callable[[Sequence[Any]], Sequence[Any]]


class Ticket:
    """Handle for one submitted request."""

    __slots__ = ("group_key", "values", "trace", "span", "submitted",
                 "_done", "_result", "_error", "batch_size")

    def __init__(self, group_key: Hashable, values: Any) -> None:
        self.group_key = group_key
        self.values = values
        #: ``perf_counter`` at submit; the take observes the queue wait.
        self.submitted = time.perf_counter()
        #: Trace context of the submitting thread.  Executors are
        #: registered once per group ("first writer wins"), so a trace
        #: baked into the executor closure would leak the first
        #: request's context into every later batch; the dispatch loop
        #: instead re-activates the lead ticket's context per batch.
        self.trace = tracecontext.current()
        #: The submitting thread's open span, which parents the
        #: dispatch span in a single-process trace.
        self.span = obs.current_span()
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        #: Size of the batch handed to the executor with this request
        #: (set on completion; lets the server report coalescing per
        #: response).  ``0`` for a request that never reached it.
        self.batch_size = 0

    def _resolve(self, result: Any, batch_size: int) -> None:
        self._result = result
        self.batch_size = batch_size
        self._done.set()

    def _reject(self, error: BaseException, batch_size: int) -> None:
        self._error = error
        self.batch_size = batch_size
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the batch containing this request completes."""
        if not self._done.wait(timeout):
            raise TimeoutError("batched solve did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


class MicroBatcher:
    """Coalesces queued same-group requests into batched dispatches.

    Executors are registered lazily via :meth:`submit`'s ``executor``
    argument (first writer wins per group key).

    Args:
        max_batch: Largest batch one dispatch may carry.
        queue_limit: Pending-request bound; exceeding it sheds load.
        workers: Dispatcher threads.  More workers overlap dispatches of
            *different* groups; one worker is enough for a single shape.
        retry_after_seconds: Advertised backoff when shedding.
    """

    def __init__(
        self,
        max_batch: int = 32,
        queue_limit: int = 256,
        workers: int = 1,
        retry_after_seconds: float = 1.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.max_batch = int(max_batch)
        self.queue_limit = int(queue_limit)
        self.retry_after_seconds = float(retry_after_seconds)
        self._executors: Dict[Hashable, BatchExecutor] = {}
        self._queue: List[Ticket] = []
        self._lock = threading.Lock()
        # One condition for every queue transition: workers wait on it
        # for work, and wait_for_queue observers wait on it for state.
        # Every mutation (submit, take, re-queue) notifies it.
        self._wakeup = threading.Condition(self._lock)
        self._stopped = False
        self._spawned = 0
        self._threads: List[threading.Thread] = []
        for _ in range(int(workers)):
            self._spawn_worker_locked()

    # Submission ----------------------------------------------------------

    def submit(
        self,
        group_key: Hashable,
        values: Any,
        executor: Optional[BatchExecutor] = None,
    ) -> Ticket:
        """Enqueue one request; raises :class:`Overloaded` past the bound."""
        ticket = Ticket(group_key, values)
        with self._lock:
            if self._stopped:
                raise SchedulerStopped("scheduler has been shut down")
            if group_key not in self._executors:
                if executor is None:
                    raise ValueError(
                        f"no executor registered for group {group_key!r}"
                    )
                self._executors[group_key] = executor
            if len(self._queue) >= self.queue_limit:
                obs.counter("service_shed_total").inc()
                raise Overloaded(
                    f"work queue is full ({self.queue_limit} pending)",
                    retry_after_seconds=self.retry_after_seconds,
                )
            self._queue.append(ticket)
            obs.gauge("service_queue_depth").set(len(self._queue))
            self._wakeup.notify_all()
        return ticket

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def worker_count(self) -> int:
        """Live dispatcher threads (respawns replace chaos casualties)."""
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    def wait_for_queue(
        self,
        predicate: Callable[[int], bool],
        timeout: float = 5.0,
    ) -> bool:
        """Block until ``predicate(queue_depth)`` holds; False on timeout.

        Event-driven synchronization for tests and embedding code:
        every queue transition (submit, worker take, chaos re-queue)
        notifies the underlying condition, so callers never poll the
        depth on a wall-clock loop.
        """
        deadline = time.monotonic() + timeout
        with self._wakeup:
            while not predicate(len(self._queue)):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wakeup.wait(remaining)
            return True

    # Dispatch loop -------------------------------------------------------

    def _spawn_worker_locked(self) -> threading.Thread:
        """Start one dispatcher thread (init is single-threaded; later
        callers hold the lock)."""
        thread = threading.Thread(
            target=self._run,
            name=f"repro-batcher-{self._spawned}",
            daemon=True,
        )
        self._spawned += 1
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()
        return thread

    def _take_locked(self) -> List[Ticket]:
        """Move the oldest ticket and its queued group-mates (to the
        cap) out of the queue."""
        group_key = self._queue[0].group_key
        batch: List[Ticket] = []
        remaining: List[Ticket] = []
        for ticket in self._queue:
            if (
                len(batch) < self.max_batch
                and ticket.group_key == group_key
            ):
                batch.append(ticket)
            else:
                remaining.append(ticket)
        self._queue[:] = remaining
        return batch

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._stopped:
                    self._wakeup.wait()
                if self._stopped and not self._queue:
                    return
                batch = self._take_locked()
                obs.gauge("service_queue_depth").set(len(self._queue))
                self._wakeup.notify_all()
                if chaos.enabled() and not self._stopped:
                    injection = chaos.fire(chaos.POINT_WORKER_DEATH)
                    if injection is not None:
                        self._die_locked(batch)
                        return  # this thread is the casualty
                # Past the death check, so a re-queued ticket is observed
                # once, at the take that dispatches it.
                taken = time.perf_counter()
                waits = obs.histogram("service_queue_wait_seconds")
                for ticket in batch:
                    waits.observe(taken - ticket.submitted)
                executor = self._executors[batch[0].group_key]
            self._dispatch(executor, batch)

    def _die_locked(self, batch: List[Ticket]) -> None:
        """Injected worker death: re-queue the batch, respawn a worker.

        No ticket is lost and no caller notices beyond latency — the
        recovery contract the chaos campaign scores.  The replacement
        thread blocks on the lock we still hold and picks the work back
        up as soon as we release it by returning.
        """
        self._queue[:0] = batch
        obs.gauge("service_queue_depth").set(len(self._queue))
        obs.counter("service_worker_deaths_total").inc()
        self._spawn_worker_locked()
        obs.counter("service_worker_respawns_total").inc()
        obs.event("chaos.worker_death", requeued=len(batch))
        self._wakeup.notify_all()

    def _dispatch(self, executor: BatchExecutor, batch: List[Ticket]) -> None:
        if chaos.enabled():
            stall = chaos.fire(chaos.POINT_SCHEDULER_STALL)
            if stall is not None:
                obs.event(
                    "chaos.scheduler_stall",
                    delay_seconds=stall.delay_seconds,
                    batch_size=len(batch),
                )
                time.sleep(stall.delay_seconds)
            # Graceful degradation under a poisoned request: the
            # injected failure is delivered to exactly one ticket and
            # the remaining requests still ride a (smaller) dispatch.
            healthy: List[Ticket] = []
            for ticket in batch:
                poison = chaos.fire(chaos.POINT_SOLVER_EXCEPTION)
                if poison is None:
                    healthy.append(ticket)
                else:
                    obs.counter("service_faults_injected_total").inc()
                    ticket._reject(
                        InjectedFault(chaos.POINT_SOLVER_EXCEPTION), 0
                    )
            if not healthy:
                return
            batch = healthy
        # Counted after poisoning: the size is what the executor gets.
        size = len(batch)
        obs.counter("service_batches_total").inc()
        if size > 1:
            obs.counter("service_coalesced_batches_total").inc()
            obs.counter("service_coalesced_requests_total").inc(size)
        obs.histogram("service_batch_size").observe(size)
        # A coalesced batch serves several traces but one dispatch; the
        # lead ticket's context and span parent the dispatch span
        # (batch_size records the coalescing for the other riders).
        lead = batch[0]
        with tracecontext.trace_scope(lead.trace), obs.parent_scope(
            lead.span
        ):
            with obs.span("service.dispatch", batch_size=size):
                try:
                    results = executor(
                        [ticket.values for ticket in batch]
                    )
                except BaseException as exc:  # delivered per-ticket
                    for ticket in batch:
                        ticket._reject(exc, size)
                    return
        if len(results) != len(batch):
            error = RuntimeError(
                f"batch executor returned {len(results)} results "
                f"for {len(batch)} requests"
            )
            for ticket in batch:
                ticket._reject(error, size)
            return
        for ticket, result in zip(batch, results):
            ticket._resolve(result, size)

    # Lifecycle -----------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting work, drain the queue, join the workers."""
        with self._lock:
            self._stopped = True
            self._wakeup.notify_all()
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout)
