"""The injection points threaded through cache and scheduler.

Each test arms one fault against the real component and asserts the
documented recovery contract: corrupted cache entries are quarantined
and recomputed, a poisoned request fails alone while its batch
survives, a dead worker's batch is re-queued and a replacement thread
spawned.  Everything is event-synchronized — no wall-clock polling.
"""

import threading

import pytest

from repro import chaos, obs
from repro.chaos.injector import (
    POINT_CACHE_CORRUPT,
    POINT_SCHEDULER_STALL,
    POINT_SOLVER_EXCEPTION,
    POINT_WORKER_DEATH,
    InjectedFault,
)
from repro.obs.recorder import Recorder
from repro.service.cache import CORRUPTED_PAYLOAD, SolveCache
from repro.service.scheduler import MicroBatcher


def _schema_validator(payload):
    return isinstance(payload, dict) and payload.get("schema") == 1


class TestCacheCorruption:
    def test_corrupted_entry_dropped_and_reported_as_miss(self):
        cache = SolveCache(max_entries=4, validator=_schema_validator)
        cache.put("fp", {"schema": 1, "value": 42})
        with chaos.inject() as injector:
            injector.arm(POINT_CACHE_CORRUPT)
            with obs.observe(Recorder()) as recorder:
                assert cache.get("fp") is None  # quarantined, not served
        snapshot = recorder.metrics.snapshot()
        assert (
            snapshot["service_cache_invalid_dropped_total"]["value"] == 1.0
        )
        assert injector.fired(POINT_CACHE_CORRUPT) == 1
        # The poisoned entry is gone: the key genuinely misses now.
        assert cache.get("fp") is None
        assert "fp" not in cache.keys()

    def test_corruption_then_recompute_round_trip(self):
        cache = SolveCache(max_entries=4, validator=_schema_validator)
        cache.put("fp", {"schema": 1, "value": 1})
        with chaos.inject() as injector:
            injector.arm(POINT_CACHE_CORRUPT)
            payload, source = cache.get_or_compute(
                "fp", lambda: {"schema": 1, "value": 2}
            )
        assert source == "miss"  # recomputed, not served corrupted
        assert payload == {"schema": 1, "value": 2}
        # The fresh entry is cached again and valid.
        assert cache.get("fp") == {"schema": 1, "value": 2}

    def test_validator_rejects_stored_garbage_without_chaos(self):
        """The validator guards real bit-rot too, not just injections."""
        cache = SolveCache(max_entries=4, validator=_schema_validator)
        cache.put("fp", CORRUPTED_PAYLOAD)
        assert cache.get("fp") is None

    def test_no_validator_serves_whatever_is_stored(self):
        cache = SolveCache(max_entries=4)
        cache.put("fp", CORRUPTED_PAYLOAD)
        with chaos.inject() as injector:
            injector.arm(POINT_CACHE_CORRUPT)
            assert cache.get("fp") == CORRUPTED_PAYLOAD

    def test_corruption_never_fires_on_a_true_miss(self):
        cache = SolveCache(max_entries=4, validator=_schema_validator)
        with chaos.inject() as injector:
            injector.arm(POINT_CACHE_CORRUPT)
            assert cache.get("absent") is None
            # The armed fault is still pending: misses have no entry to
            # corrupt.
            assert injector.fired(POINT_CACHE_CORRUPT) == 0


class TestSchedulerFaults:
    def test_stall_delays_but_still_solves(self):
        with chaos.inject() as injector:
            injector.arm(POINT_SCHEDULER_STALL, delay_seconds=0.01)
            batcher = MicroBatcher()
            try:
                ticket = batcher.submit(
                    "g", 21, executor=lambda batch: [v * 2 for v in batch]
                )
                assert ticket.result(timeout=5) == 42
                assert injector.fired(POINT_SCHEDULER_STALL) == 1
            finally:
                batcher.shutdown()

    def test_poisoned_request_fails_alone_batch_survives(self):
        release = threading.Event()
        entered = threading.Event()

        def execute(batch):
            if len(batch) == 1:
                entered.set()
                release.wait(5)
            return [v * 2 for v in batch]

        with chaos.inject() as injector:
            batcher = MicroBatcher(max_batch=8, workers=1)
            try:
                # Stall the single worker on a decoy batch so three
                # same-group requests pile up into one dispatch. Wait
                # for the decoy to be *in* the executor — past the
                # injection point — before arming, so the fault can
                # only hit the piled-up batch.
                decoy = batcher.submit("warm", 0, executor=execute)
                assert entered.wait(timeout=5)
                tickets = [
                    batcher.submit("g", i, executor=execute)
                    for i in (1, 2, 3)
                ]
                assert batcher.wait_for_queue(lambda depth: depth >= 3)
                injector.arm(POINT_SOLVER_EXCEPTION)
                release.set()
                assert decoy.result(timeout=5) == 0
                outcomes = []
                for ticket in tickets:
                    try:
                        outcomes.append(ticket.result(timeout=5))
                    except InjectedFault as fault:
                        outcomes.append(fault)
                faults = [o for o in outcomes if isinstance(o, InjectedFault)]
                values = [o for o in outcomes if not isinstance(o, InjectedFault)]
                assert len(faults) == 1  # exactly one request poisoned
                assert faults[0].point == POINT_SOLVER_EXCEPTION
                assert sorted(values) in ([2, 4], [2, 6], [4, 6])
                # Survivors report the batch the executor received, not
                # the one that included the poisoned request.
                survivors = [
                    t for t, o in zip(tickets, outcomes)
                    if not isinstance(o, InjectedFault)
                ]
                assert [t.batch_size for t in survivors] == [2, 2]
            finally:
                release.set()
                batcher.shutdown()

    def test_worker_death_requeues_batch_and_respawns(self):
        with chaos.inject() as injector:
            with obs.observe(Recorder()) as recorder:
                batcher = MicroBatcher(workers=1)
                try:
                    injector.arm(POINT_WORKER_DEATH)
                    ticket = batcher.submit(
                        "g", 5, executor=lambda batch: list(batch)
                    )
                    # The caller still gets its result: the replacement
                    # worker picked the re-queued batch back up.
                    assert ticket.result(timeout=5) == 5
                    assert injector.fired(POINT_WORKER_DEATH) == 1
                    assert batcher.worker_count == 1
                finally:
                    batcher.shutdown()
        snapshot = recorder.metrics.snapshot()
        assert snapshot["service_worker_deaths_total"]["value"] == 1.0
        assert snapshot["service_worker_respawns_total"]["value"] == 1.0
        # The re-queued ticket's wait is observed once, at the final take.
        assert snapshot["service_queue_wait_seconds"]["count"] == 1

    def test_consecutive_worker_deaths_all_recover(self):
        with chaos.inject() as injector:
            batcher = MicroBatcher(workers=2)
            try:
                injector.arm(POINT_WORKER_DEATH, count=3)
                tickets = [
                    batcher.submit(
                        "g", i, executor=lambda batch: list(batch)
                    )
                    for i in range(6)
                ]
                assert [t.result(timeout=5) for t in tickets] == list(range(6))
                assert injector.fired(POINT_WORKER_DEATH) == 3
                assert batcher.worker_count == 2
            finally:
                batcher.shutdown()


class TestChaosOffFastPath:
    def test_cache_and_scheduler_behave_normally(self):
        """With the null injector every component works untouched."""
        assert not chaos.enabled()
        cache = SolveCache(max_entries=4, validator=_schema_validator)
        cache.put("fp", {"schema": 1, "value": 9})
        assert cache.get("fp") == {"schema": 1, "value": 9}
        batcher = MicroBatcher()
        try:
            ticket = batcher.submit(
                "g", 3, executor=lambda batch: [v + 1 for v in batch]
            )
            assert ticket.result(timeout=5) == 4
        finally:
            batcher.shutdown()
