"""Queue-shedding edge cases through the real MicroBatcher.

Every test drives a live batcher with gated executors and synchronizes
on events (:meth:`MicroBatcher.wait_for_queue`, per-dispatch
``threading.Event``) — no wall-clock sleeps, so a loaded CI box cannot
flake them.  The cases pin the exact boundary behaviour the metastable
campaign's orbit model assumes of the shed/admit surface:

* the queue admits exactly ``queue_limit`` requests — the off-by-one
  either way would shift every regime boundary;
* coalescing moves tickets out of the queue *before* they solve, so a
  burst can be admitted into a batch while a later request is shed —
  and the shed caller's retry lands once the batch drains;
* a shed carries the configured ``Retry-After`` through the scheduler
  and HTTP layers (where sub-second values round up to a whole second,
  never down to an immediate-retry license of ``0``).
"""

import threading

import pytest

from repro.service.errors import Overloaded
from repro.service.scheduler import MicroBatcher


class _GatedExecutor:
    """Batch executor that blocks until released, recording batches."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = threading.Event()
        self.batches = []

    def __call__(self, values):
        self.entered.set()
        assert self.release.wait(timeout=5.0), "executor never released"
        self.batches.append(list(values))
        return [v * 2 for v in values]


@pytest.fixture
def gate():
    return _GatedExecutor()


@pytest.fixture
def head():
    return _GatedExecutor()


def _drain(batcher, *gates):
    for gate in gates:
        gate.release.set()
    batcher.shutdown()


class TestQueueBoundary:
    def test_admits_exactly_queue_limit_then_sheds(self, gate):
        limit = 3
        batcher = MicroBatcher(
            max_batch=1, queue_limit=limit, workers=1
        )
        try:
            # Occupy the single worker: its ticket leaves the queue
            # immediately, so the bound applies to what queues *behind*
            # the in-flight dispatch.
            head = batcher.submit("g", 0, executor=gate)
            assert gate.entered.wait(timeout=5.0)
            assert batcher.wait_for_queue(lambda depth: depth == 0)

            admitted = [
                batcher.submit("g", i + 1) for i in range(limit)
            ]
            assert batcher.queue_depth == limit
            # Request limit + 1 is the first to shed — not limit.
            with pytest.raises(Overloaded):
                batcher.submit("g", 99)

            gate.release.set()
            assert head.result(timeout=5.0) == 0
            assert [t.result(timeout=5.0) for t in admitted] == [
                2, 4, 6,
            ]
        finally:
            _drain(batcher, gate)

    def test_slot_freed_by_dispatch_readmits(self, gate):
        batcher = MicroBatcher(
            max_batch=1, queue_limit=1, workers=1
        )
        try:
            head = batcher.submit("g", 0, executor=gate)
            assert gate.entered.wait(timeout=5.0)
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            queued = batcher.submit("g", 1)
            with pytest.raises(Overloaded):
                batcher.submit("g", 2)

            # Release the head; the worker takes the queued ticket,
            # freeing the slot — the retried request must now land.
            gate.release.set()
            assert head.result(timeout=5.0) == 0
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            retried = batcher.submit("g", 2)
            assert queued.result(timeout=5.0) == 2
            assert retried.result(timeout=5.0) == 4
        finally:
            _drain(batcher, gate)


class TestCoalescingVsShedding:
    # A batch forms only from requests that queue while the dispatcher
    # is busy, so each test builds its batch behind a gated head
    # dispatch of another group: r1 and r2 queue behind the head and
    # the worker takes them together once the head is released.

    def test_burst_admitted_into_batch_then_next_shed(self, head, gate):
        # r1/r2 leave the queue as one batch; r3/r4 then fill the 2-slot
        # queue behind the blocked dispatch, and r5 is shed even though
        # the batch holding r1/r2 has not solved yet — admitted-then-shed.
        batcher = MicroBatcher(max_batch=2, queue_limit=2, workers=1)
        try:
            lead = batcher.submit("h", 0, executor=head)
            assert head.entered.wait(timeout=5.0)
            r1 = batcher.submit("g", 1, executor=gate)
            r2 = batcher.submit("g", 2)
            head.release.set()
            assert gate.entered.wait(timeout=5.0)
            assert batcher.wait_for_queue(lambda depth: depth == 0)

            r3 = batcher.submit("g", 3)
            r4 = batcher.submit("g", 4)
            with pytest.raises(Overloaded):
                batcher.submit("g", 5)

            gate.release.set()
            assert lead.result(timeout=5.0) == 0
            assert r1.result(timeout=5.0) == 2
            assert r2.result(timeout=5.0) == 4
            assert r1.batch_size == 2 and r2.batch_size == 2
            assert r3.result(timeout=5.0) == 6
            assert r4.result(timeout=5.0) == 8
            assert gate.batches[0] == [1, 2]
        finally:
            _drain(batcher, head, gate)

    def test_shed_caller_succeeds_after_batch_drains(self, head, gate):
        batcher = MicroBatcher(max_batch=2, queue_limit=2, workers=1)
        try:
            batcher.submit("h", 0, executor=head)
            assert head.entered.wait(timeout=5.0)
            r1 = batcher.submit("g", 1, executor=gate)
            r2 = batcher.submit("g", 2)
            with pytest.raises(Overloaded):
                batcher.submit("g", 3)

            # The take moves r1/r2 into one dispatch and drains the
            # queue: the shed caller's retry now lands, and queues with
            # r4 behind the blocked batch — the shed was transient, not
            # a permanent rejection.
            head.release.set()
            assert gate.entered.wait(timeout=5.0)
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            retried = batcher.submit("g", 3)
            r4 = batcher.submit("g", 4)

            gate.release.set()
            assert r1.result(timeout=5.0) == 2
            assert r2.result(timeout=5.0) == 4
            assert retried.result(timeout=5.0) == 6
            assert r4.result(timeout=5.0) == 8
            assert retried.batch_size == 2
            assert gate.batches == [[1, 2], [3, 4]]
        finally:
            _drain(batcher, head, gate)


class TestRetryAfterPropagation:
    def test_shed_carries_configured_retry_after(self, gate):
        batcher = MicroBatcher(
            max_batch=1,
            queue_limit=1,
            workers=1,
            retry_after_seconds=0.25,
        )
        try:
            batcher.submit("g", 0, executor=gate)
            assert gate.entered.wait(timeout=5.0)
            assert batcher.wait_for_queue(lambda depth: depth == 0)
            batcher.submit("g", 1)
            with pytest.raises(Overloaded) as excinfo:
                batcher.submit("g", 2)
            assert excinfo.value.retry_after_seconds == 0.25
        finally:
            _drain(batcher, gate)

    @pytest.mark.parametrize(
        "configured,advertised",
        [(0.04, "1"), (0.25, "1"), (1.0, "1"), (1.6, "2"), (30.0, "30")],
    )
    def test_http_header_rounds_up_to_whole_seconds(
        self, monkeypatch, configured, advertised
    ):
        # The HTTP layer's Retry-After is integral and floored at 1: a
        # sub-second shed cap must never surface as "Retry-After: 0",
        # which a spec-conformant client reads as "retry immediately" —
        # the exact amplifier the metastable orbit model warns about.
        from repro.service.config import ServiceConfig
        from repro.service.server import AvailabilityService

        service = AvailabilityService(
            ServiceConfig(port=0, retry_after_seconds=configured)
        )
        try:
            def overloaded(document):
                raise Overloaded("full", retry_after_seconds=configured)

            monkeypatch.setattr(
                service, "_handle_solve", overloaded
            )
            status, payload, headers = service.handle("/v1/solve", {})
            assert status == 429
            assert headers["Retry-After"] == advertised
            assert payload["retry_after_seconds"] == int(advertised)
        finally:
            service.close()
