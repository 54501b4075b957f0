"""Pre-forked solver pool: parity, health reporting, crash recovery."""

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.errors import ServiceError
from repro.service.prefork import (
    MAX_ATTEMPTS,
    SolverPool,
    _rebuild_exception,
    fork_available,
)
from repro.service.server import AvailabilityService, ServiceConfig

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


def _strip_serving(payload):
    clean = dict(payload)
    clean.pop("serving", None)
    return clean


@pytest.fixture()
def inprocess_service():
    service = AvailabilityService(ServiceConfig(port=0))
    yield service
    service.close()


@pytest.fixture()
def prefork_service():
    service = AvailabilityService(
        ServiceConfig(port=0, worker_processes=2)
    )
    yield service
    service.close()


class TestParity:
    def test_solve_payload_bit_identical_to_in_process(
        self, inprocess_service, prefork_service
    ):
        requests = [
            {},
            {"method": "gth"},
            {"parameters": {"La_as": 30.0}},
            {"parameters": {"Acc": 0.95}, "n_instances": 4},
        ]
        for body in requests:
            status_a, payload_a, _ = inprocess_service.handle(
                "/v1/solve", dict(body)
            )
            status_b, payload_b, _ = prefork_service.handle(
                "/v1/solve", dict(body)
            )
            assert status_a == status_b == 200
            # Identical floats, not just close: workers run the same
            # solve code and pickling round-trips bits.
            assert json.dumps(
                _strip_serving(payload_a), sort_keys=True
            ) == json.dumps(_strip_serving(payload_b), sort_keys=True)

    def test_solver_errors_keep_http_mapping(
        self, inprocess_service, prefork_service
    ):
        body = {"parameters": {"La_as": -1.0}}
        status_a, payload_a, _ = inprocess_service.handle(
            "/v1/solve", dict(body)
        )
        status_b, payload_b, _ = prefork_service.handle(
            "/v1/solve", dict(body)
        )
        # The worker forwards the exception by name, so the HTTP status
        # and message match the in-process mapping exactly.
        assert status_b == status_a
        assert payload_b["error"] == payload_a["error"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("method", "cholesky"),
            ("method", "direct"),
            ("abstraction", "bogus"),
        ],
    )
    def test_unknown_method_or_abstraction_is_a_bad_request(
        self, inprocess_service, prefork_service, field, value
    ):
        """A client mistake: 400 on every endpoint, not a solver 500."""
        for service in (inprocess_service, prefork_service):
            for endpoint in ("/v1/solve", "/v1/sweep", "/v1/uncertainty"):
                status, payload, _ = service.handle(endpoint, {field: value})
                assert status == 400, (endpoint, payload)
                assert f"unknown {field} {value!r}" in payload["error"]

    @pytest.mark.parametrize("sampler", ["latin_hypercube", "bogus"])
    def test_sampler_is_an_unknown_field(
        self, inprocess_service, prefork_service, sampler
    ):
        """``/v1/uncertainty`` draws Monte Carlo samples only: a
        ``sampler`` field is refused, never answered as Monte Carlo."""
        body = {"samples": 64, "seed": 5, "sampler": sampler}
        for service in (inprocess_service, prefork_service):
            status, payload, _ = service.handle("/v1/uncertainty", dict(body))
            assert status == 400, payload
            assert "unknown field(s) ['sampler']" in payload["error"]


class TestHealth:
    def test_healthz_reports_pool(self, prefork_service):
        status, payload, _ = prefork_service.handle("/healthz", {})
        assert status == 200
        assert payload["worker_processes"] == 2
        assert payload["solver_workers_alive"] == 2
        assert payload["kernel_backend"]

    def test_healthz_without_pool(self, inprocess_service):
        status, payload, _ = inprocess_service.handle("/healthz", {})
        assert status == 200
        assert payload["worker_processes"] == 0
        assert payload["solver_workers_alive"] == 0


class TestRecovery:
    def test_sigkill_all_workers_then_solve(self, prefork_service):
        pool = prefork_service.pool
        status, first, _ = prefork_service.handle("/v1/solve", {})
        assert status == 200
        for worker in list(pool._workers):
            os.kill(worker.process.pid, 9)
        time.sleep(0.2)
        status, again, _ = prefork_service.handle(
            "/v1/solve", {"parameters": {"La_as": 26.5}}
        )
        assert status == 200
        deadline = time.time() + 10.0
        while pool.alive_count() < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert pool.alive_count() == 2

    def test_respawn_accounting_after_sigkill(self, prefork_service):
        """A SIGKILL'd worker shows up in the death/respawn counters and
        /healthz returns to full worker strength."""
        from repro import obs

        pool = prefork_service.pool
        deaths_before = obs.counter(
            "service_prefork_worker_deaths_total"
        ).value
        respawns_before = obs.counter(
            "service_prefork_worker_respawns_total"
        ).value
        os.kill(pool._workers[0].process.pid, 9)
        # A job gives the manager a reason to notice and reap.
        status, _, _ = prefork_service.handle(
            "/v1/solve", {"parameters": {"La_as": 27.25}}
        )
        assert status == 200
        deadline = time.time() + 10.0
        while pool.alive_count() < 2 and time.time() < deadline:
            time.sleep(0.05)
        assert pool.alive_count() == 2
        assert (
            obs.counter("service_prefork_worker_deaths_total").value
            >= deaths_before + 1
        )
        assert (
            obs.counter("service_prefork_worker_respawns_total").value
            >= respawns_before + 1
        )
        status, health, _ = prefork_service.handle("/healthz", {})
        assert status == 200
        assert health["worker_processes"] == 2
        assert health["solver_workers_alive"] == 2

    def test_exhaustion_surfaces_service_error_by_name(self, monkeypatch):
        """When every attempt dies, the caller gets a typed ServiceError
        naming the attempt bound — not a hang or a bare Exception."""
        import repro.service.prefork as prefork_mod

        monkeypatch.setattr(
            prefork_mod, "_group_from_spec", lambda spec: os._exit(5)
        )
        pool = SolverPool(1)
        try:
            with pytest.raises(ServiceError) as excinfo:
                pool.execute(("whatever",), [{}])
            assert type(excinfo.value) is ServiceError
            assert str(MAX_ATTEMPTS) in str(excinfo.value)
        finally:
            pool.close()

    def test_worker_exit_mid_job_is_retried(self, monkeypatch):
        # Forked workers inherit the patched module, so every attempt
        # kills its worker mid-job: the pool must respawn and fail the
        # job after MAX_ATTEMPTS, not hang.
        import repro.service.prefork as prefork_mod

        monkeypatch.setattr(
            prefork_mod, "_group_from_spec", lambda spec: os._exit(5)
        )
        pool = SolverPool(1)
        try:
            with pytest.raises(ServiceError, match="worker deaths"):
                pool.execute(("whatever",), [{}])
        finally:
            pool.close()

    def test_bad_spec_is_an_error_not_a_hang(self):
        pool = SolverPool(1)
        try:
            with pytest.raises(Exception):
                pool.execute((1, 2), [{}])
        finally:
            pool.close()


class _SlowGroup:
    """Stands in for a solve group: marks that a batch started, sleeps,
    then echoes each request's ``x``."""

    def __init__(self, marker, seconds):
        self.marker = marker
        self.seconds = seconds

    def solve_cores(self, values_list):
        with open(self.marker, "a"):
            pass
        time.sleep(self.seconds)
        return [{"x": values["x"]} for values in values_list]


def _slow_pool(monkeypatch, marker, seconds):
    """A one-worker pool whose every batch is a :class:`_SlowGroup`."""
    import repro.service.prefork as prefork_mod

    # Forked workers inherit the patched module.
    monkeypatch.setattr(
        prefork_mod,
        "_group_from_spec",
        lambda spec: _SlowGroup(str(marker), seconds),
    )
    return SolverPool(1)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestCheckout:
    def test_concurrent_callers_bit_identical_to_in_process(self):
        from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS
        from repro.service.server import _SolveGroup

        base = CONFIG_1.merged_values(PAPER_PARAMETERS.to_dict())
        group = _SolveGroup(CONFIG_1, "auto", "mttf", tuple(sorted(base)))
        # 8 callers x 4 batches of 1-4 points each, all distinct.
        batches = [
            [
                dict(base, La_as=20.0 + caller + step / 10.0 + k / 100.0)
                for k in range(1 + step)
            ]
            for caller in range(8)
            for step in range(4)
        ]
        expected = [
            json.dumps(group.solve_cores(batch), sort_keys=True)
            for batch in batches
        ]
        pool = SolverPool(2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def caller(index):
                return [
                    json.dumps(
                        pool.execute(group.key(), batches[index * 4 + step]),
                        sort_keys=True,
                    )
                    for step in range(4)
                ]

            with ThreadPoolExecutor(max_workers=8) as threads:
                served = [
                    payload
                    for payloads in threads.map(caller, range(8))
                    for payload in payloads
                ]
            # Every worker came back exactly once.
            assert sorted(pool._idle) == [0, 1]
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert served == expected

    def test_sigkill_mid_batch_while_a_caller_waits(
        self, monkeypatch, tmp_path
    ):
        from repro import obs

        marker = tmp_path / "started"
        with obs.observe() as recorder:
            pool = _slow_pool(monkeypatch, marker, seconds=0.5)
            try:
                with ThreadPoolExecutor(max_workers=2) as threads:
                    busy = threads.submit(pool.execute, ("s",), [{"x": 1.0}])
                    _wait_for(marker.exists)
                    waiting = threads.submit(
                        pool.execute, ("s",), [{"x": 2.0}]
                    )
                    time.sleep(0.1)
                    assert not waiting.done()
                    os.kill(pool._workers[0].process.pid, 9)
                    assert busy.result(timeout=10.0) == [{"x": 1.0}]
                    assert waiting.result(timeout=10.0) == [{"x": 2.0}]
            finally:
                pool.close()
        respawns = recorder.metrics.counter(
            "service_prefork_worker_respawns_total"
        )
        assert respawns.value == 1

    def test_close_with_callers_mid_batch_and_waiting(
        self, monkeypatch, tmp_path
    ):
        marker = tmp_path / "started"
        pool = _slow_pool(monkeypatch, marker, seconds=1.0)
        with ThreadPoolExecutor(max_workers=2) as threads:
            busy = threads.submit(pool.execute, ("s",), [{"x": 1.0}])
            _wait_for(marker.exists)
            waiting = threads.submit(pool.execute, ("s",), [{"x": 2.0}])
            time.sleep(0.1)
            started = time.monotonic()
            pool.close()
            for future in (busy, waiting):
                try:
                    future.result(timeout=10.0)
                except ServiceError as exc:
                    assert "closed" in str(exc)
            assert time.monotonic() - started < 10.0
        assert pool.alive_count() == 0


class TestPoolLifecycle:
    def test_execute_after_close_raises(self):
        pool = SolverPool(1)
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.execute(("spec",), [])

    def test_close_is_idempotent(self):
        pool = SolverPool(1)
        pool.close()
        pool.close()

    def test_invalid_worker_count(self):
        with pytest.raises(ServiceError):
            SolverPool(0)

    def test_max_attempts_bounded(self):
        assert 1 <= MAX_ATTEMPTS <= 10


class TestErrorRebuild:
    def test_known_service_error(self):
        exc = _rebuild_exception("BadRequest", "nope")
        from repro.service.errors import BadRequest

        assert isinstance(exc, BadRequest)
        assert "nope" in str(exc)

    def test_builtin(self):
        exc = _rebuild_exception("ValueError", "v")
        assert isinstance(exc, ValueError)

    def test_unknown_type_wraps(self):
        exc = _rebuild_exception("NoSuchError", "detail")
        assert isinstance(exc, ServiceError)
        assert "NoSuchError" in str(exc)
