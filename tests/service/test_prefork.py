"""Pre-forked solver pool: parity, health reporting, crash recovery."""

import json
import os
import time

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
