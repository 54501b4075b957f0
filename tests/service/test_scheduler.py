"""Micro-batcher behavior: coalescing, bounds, shedding, errors.

Synchronization discipline: tests never poll on wall-clock sleeps;
they block on :meth:`MicroBatcher.wait_for_queue` (every queue
transition notifies the underlying condition) or on explicit events.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.obs.recorder import Recorder
from repro.service.errors import Overloaded, SchedulerStopped
from repro.service.scheduler import MicroBatcher


def _echo_executor(log):
    def execute(batch):
        log.append(list(batch))
        return [value * 2 for value in batch]
    return execute


class TestDispatch:
    def test_single_request_round_trip(self):
        batcher = MicroBatcher()
        try:
            log = []
            ticket = batcher.submit("g", 21, executor=_echo_executor(log))
            assert ticket.result(timeout=5) == 42
            assert ticket.batch_size == 1
        finally:
            batcher.shutdown()

    def test_concurrent_same_group_coalesce(self):
        """Requests stalled behind a slow first dispatch ride one batch."""
        log = []
        entered = threading.Event()
        release = threading.Event()

        def execute(batch):
            log.append(list(batch))
            if len(log) == 1:
                entered.set()
                release.wait(5)  # first dispatch blocks the worker...
            return list(batch)

        batcher = MicroBatcher(max_batch=8, workers=1)
        try:
            first = batcher.submit("g", 0, executor=execute)
            assert entered.wait(5)  # worker is now inside the executor
            with ThreadPoolExecutor(6) as pool:
                futures = [
                    pool.submit(batcher.submit, "g", i, executor=execute)
                    for i in range(1, 7)
                ]
                tickets = [future.result() for future in futures]
                # ...while the rest pile up behind the stalled worker.
                assert batcher.wait_for_queue(lambda depth: depth >= 6)
                release.set()
                for i, ticket in enumerate(tickets, start=1):
                    assert ticket.result(timeout=5) == i
            assert first.result(timeout=5) == 0
            # Submission order inside the pile-up is a race between the
            # six submitting threads; batch membership is not.
            assert [sorted(batch) for batch in log] == [
                [0], [1, 2, 3, 4, 5, 6],
            ]
        finally:
            batcher.shutdown()

    def test_idle_batcher_dispatches_alone(self):
        """An idle dispatcher holds nothing open: a request that arrives
        after the take rides its own batch."""
        log = []
        batcher = MicroBatcher(max_batch=8, workers=1)
        try:
            r1 = batcher.submit("g", 1, executor=_echo_executor(log))
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            r2 = batcher.submit("g", 2)
            assert r1.result(timeout=5) == 2
            assert r2.result(timeout=5) == 4
            assert log == [[1], [2]]
        finally:
            batcher.shutdown()

    def test_max_batch_respected(self):
        log = []
        release = threading.Event()

        def execute(batch):
            log.append(list(batch))
            if len(log) == 1:
                release.wait(5)
            return list(batch)

        batcher = MicroBatcher(max_batch=3, workers=1)
        try:
            tickets = [batcher.submit("g", 0, executor=execute)]
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            tickets += [
                batcher.submit("g", i, executor=execute)
                for i in range(1, 8)
            ]
            release.set()
            for ticket in tickets:
                ticket.result(timeout=5)
            assert all(len(batch) <= 3 for batch in log)
        finally:
            batcher.shutdown()

    def test_different_groups_never_mix(self):
        log = []
        batcher = MicroBatcher(max_batch=8)
        try:
            tickets = [
                batcher.submit(f"g{i % 2}", i, executor=_echo_executor(log))
                for i in range(8)
            ]
            for i, ticket in enumerate(tickets):
                assert ticket.result(timeout=5) == i * 2
            for batch in log:
                parities = {value % 2 for value in batch}
                assert len(parities) == 1
        finally:
            batcher.shutdown()

    def test_stress_every_request_rides_exactly_one_batch(self):
        """More dispatchers and submitters than cores, with a short
        switch interval: each request rides one batch of its own group
        and its queue wait is observed once."""
        n_requests = 400
        dispatched = []

        def execute(batch):
            dispatched.append(list(batch))
            return list(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with obs.observe(Recorder()) as recorder:
                batcher = MicroBatcher(
                    max_batch=4, queue_limit=n_requests, workers=4
                )
                try:
                    with ThreadPoolExecutor(8) as pool:
                        tickets = list(pool.map(
                            lambda i: batcher.submit(
                                f"g{i % 3}", i, executor=execute
                            ),
                            range(n_requests),
                        ))
                    assert [t.result(timeout=10) for t in tickets] == list(
                        range(n_requests)
                    )
                finally:
                    batcher.shutdown()
        finally:
            sys.setswitchinterval(interval)
        riders = sorted(value for batch in dispatched for value in batch)
        assert riders == list(range(n_requests))
        assert all(
            len(batch) <= 4 and len({value % 3 for value in batch}) == 1
            for batch in dispatched
        )
        waits = recorder.metrics.snapshot()["service_queue_wait_seconds"]
        assert waits["count"] == n_requests


class TestBounds:
    def test_queue_limit_sheds_with_retry_after(self):
        stall = threading.Event()

        def execute(batch):
            stall.wait(5)
            return list(batch)

        batcher = MicroBatcher(
            max_batch=1, queue_limit=2, workers=1,
            retry_after_seconds=3.0,
        )
        try:
            held = [batcher.submit("g", 0, executor=execute)]
            # Worker is now stalled holding request 0.
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            held += [batcher.submit("g", i, executor=execute)
                     for i in (1, 2)]
            # Worker holds one; queue holds two -> the bound is reached.
            with pytest.raises(Overloaded) as excinfo:
                for _ in range(10):
                    batcher.submit("g", 99, executor=execute)
            assert excinfo.value.retry_after_seconds == 3.0
            stall.set()
            for ticket in held:
                ticket.result(timeout=5)
        finally:
            stall.set()
            batcher.shutdown()

    def test_submit_after_shutdown_rejected(self):
        batcher = MicroBatcher()
        batcher.shutdown()
        with pytest.raises(SchedulerStopped):
            batcher.submit("g", 1, executor=lambda batch: batch)

    def test_missing_executor_rejected(self):
        batcher = MicroBatcher()
        try:
            with pytest.raises(ValueError):
                batcher.submit("unregistered", 1)
        finally:
            batcher.shutdown()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"queue_limit": 0},
            {"workers": 0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(**kwargs)


class TestErrors:
    def test_executor_exception_delivered_to_every_ticket(self):
        def execute(batch):
            raise RuntimeError("batch solver exploded")

        batcher = MicroBatcher()
        try:
            tickets = [
                batcher.submit("g", i, executor=execute) for i in range(3)
            ]
            for ticket in tickets:
                with pytest.raises(RuntimeError, match="exploded"):
                    ticket.result(timeout=5)
        finally:
            batcher.shutdown()

    def test_wrong_result_count_is_an_error(self):
        def execute(batch):
            return [1]  # always one result, whatever the batch size

        batcher = MicroBatcher(max_batch=4)
        try:
            ticket = batcher.submit("g", 1, executor=execute)
            assert ticket.result(timeout=5) == 1  # size-1 batch is fine
            stall = threading.Event()

            def slow_execute(batch):
                if len(batch) == 1:
                    stall.wait(5)
                    return [0]
                return [1]

            blocker = batcher.submit("g2", 0, executor=slow_execute)
            # Worker is stalled inside the size-1 batch.
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            pair = [batcher.submit("g2", i, executor=slow_execute)
                    for i in (1, 2)]
            stall.set()
            assert blocker.result(timeout=5) == 0
            with pytest.raises(RuntimeError, match="returned 1 results"):
                pair[0].result(timeout=5)
        finally:
            batcher.shutdown()

    def test_result_timeout(self):
        stall = threading.Event()

        def execute(batch):
            stall.wait(5)
            return list(batch)

        batcher = MicroBatcher()
        try:
            ticket = batcher.submit("g", 1, executor=execute)
            with pytest.raises(TimeoutError):
                ticket.result(timeout=0.05)
            stall.set()
            assert ticket.result(timeout=5) == 1
        finally:
            stall.set()
            batcher.shutdown()


class TestDispatchTracing:
    def test_dispatch_activates_lead_tickets_trace(self):
        """Executors are cached per group key ("first writer wins"), so
        the submitter's trace context must ride the ticket, not the
        executor closure — otherwise the first request's trace leaks
        into every later batch of that group."""
        from repro.obs import tracecontext

        seen = []

        def execute(batch):
            seen.append(tracecontext.current())
            return list(batch)

        batcher = MicroBatcher(workers=1)
        try:
            first = tracecontext.TraceContext("aa" * 16, "bb" * 8)
            second = tracecontext.TraceContext("cc" * 16, "dd" * 8)
            with tracecontext.trace_scope(first):
                batcher.submit("g", 1, executor=execute).result(timeout=5)
            with tracecontext.trace_scope(second):
                batcher.submit("g", 2, executor=execute).result(timeout=5)
            batcher.submit("g", 3, executor=execute).result(timeout=5)
        finally:
            batcher.shutdown()
        assert [ctx.trace_id if ctx else None for ctx in seen] == [
            "aa" * 16, "cc" * 16, None,
        ]
