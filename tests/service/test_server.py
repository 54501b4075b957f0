"""Server tests: bit-identical parity, caching, shedding, HTTP edges.

The acceptance oracle is the paper's fig7 Config 1 stack: every numeric
field the service returns must be **bit-identical** to a direct
:meth:`HierarchicalModel.solve` call — JSON float round-tripping is
exact (``repr`` -> parse), so exact equality is the right assertion.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS
from repro.sensitivity import parametric_sweep
from repro.service import (
    AvailabilityServer,
    AvailabilityService,
    ServiceClient,
    ServiceConfig,
    ServiceClientError,
    ServiceUnavailable,
)


@pytest.fixture(scope="module")
def server():
    with AvailabilityServer(ServiceConfig(port=0)) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url, timeout=60.0)


class TestSolveParity:
    def test_bit_identical_to_direct_solve(self, client):
        """fig7 Config 1 oracle: the service *is* the library."""
        response = client.solve(n_instances=2, n_pairs=2)
        direct = CONFIG_1.solve(PAPER_PARAMETERS)
        assert response["availability"] == direct.availability
        assert (
            response["yearly_downtime_minutes"]
            == direct.yearly_downtime_minutes
        )
        assert response["mtbf_hours"] == direct.mtbf_hours
        assert response["mttr_hours"] == direct.system.mttr_hours
        assert response["failure_rate"] == direct.system.failure_rate
        assert response["recovery_rate"] == direct.system.recovery_rate
        assert (
            response["state_probabilities"]
            == direct.system.state_probabilities
        )
        assert response["downtime_by_state"] == direct.system.downtime_by_state
        assert response["bound_parameters"] == direct.bound_parameters
        for name, report in direct.submodels.items():
            sub = response["submodels"][name]
            assert sub["failure_rate"] == report.interface.failure_rate
            assert sub["recovery_rate"] == report.interface.recovery_rate
            assert sub["downtime_minutes"] == report.downtime_minutes
            assert sub["downtime_fraction"] == report.downtime_fraction

    def test_parameter_overrides_applied(self, client):
        values = PAPER_PARAMETERS.to_dict()
        values["Tstart_long_as"] = 2.5
        response = client.solve(parameters={"Tstart_long_as": 2.5})
        direct = CONFIG_1.solve(values)
        assert response["availability"] == direct.availability

    def test_identical_request_hits_cache(self, client):
        parameters = {"Tstart_long_as": 1.25}
        first = client.solve(parameters=parameters)
        second = client.solve(parameters=parameters)
        assert first["serving"]["cache"] in ("miss", "shared", "hit")
        assert second["serving"]["cache"] == "hit"
        assert second["fingerprint"] == first["fingerprint"]
        assert second["availability"] == first["availability"]

    def test_sweep_matches_library(self, client):
        from repro.models.jsas.configs import HierarchicalConfigMetric

        grid = [0.5, 1.0, 2.0]
        response = client.sweep(grid=grid, metric="availability")
        direct = parametric_sweep(
            HierarchicalConfigMetric(CONFIG_1, metric="availability"),
            "Tstart_long_as",
            grid,
            PAPER_PARAMETERS.to_dict(),
            metric_name="availability",
        )
        assert [
            point["availability"] for point in response["points"]
        ] == list(direct.values)
        assert [
            point["Tstart_long_as"] for point in response["points"]
        ] == list(direct.grid)

    def test_uncertainty_matches_library(self, client):
        from repro.models.jsas.configs import build_uncertainty_analysis

        response = client.uncertainty(samples=64, seed=2004)
        direct = build_uncertainty_analysis(CONFIG_1).run(
            n_samples=64, seed=2004
        )
        assert response["mean"] == direct.mean
        assert response["std"] == direct.std
        assert response["median"] == direct.percentile(50)
        # Seeded runs are cacheable; a repeat must hit.
        repeat = client.uncertainty(samples=64, seed=2004)
        assert repeat["serving"]["cache"] == "hit"
        assert repeat["mean"] == response["mean"]

    def test_unseeded_uncertainty_never_cached(self, client):
        first = client.uncertainty(samples=16)
        second = client.uncertainty(samples=16)
        assert first["serving"]["cache"] == "uncached"
        assert second["serving"]["cache"] == "uncached"


class TestOperationalEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0
        assert health["queue_limit"] == 256

    def test_metrics_exposition(self, client):
        client.solve()  # ensure at least one request was counted
        text = client.metrics()
        assert "# TYPE service_requests_total counter" in text
        assert "service_cache_hits_total" in text
        assert "service_batch_size" in text
        assert "# TYPE service_queue_wait_seconds histogram" in text


class TestValidation:
    def test_unknown_field_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("/v1/solve", {"instances": 2})
        assert excinfo.value.status == 400
        assert "unknown field" in str(excinfo.value)

    def test_bad_configuration_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.solve(n_instances=0)
        assert excinfo.value.status == 400

    def test_non_numeric_parameter_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.solve(parameters={"La_as": "fast"})
        assert excinfo.value.status == 400

    def test_unknown_metric_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.sweep(metric="latency_p99")
        assert excinfo.value.status == 400

    def test_bad_samples_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.uncertainty(samples=1, seed=1)
        assert excinfo.value.status == 400


class TestShedding:
    def test_queue_bound_sheds_429_with_retry_after(self):
        """Past the queue bound, requests shed instead of queueing."""
        config = ServiceConfig(
            port=0, workers=1, max_batch=1,
            queue_limit=1, cache_size=0, retry_after_seconds=2.0,
        )
        with AvailabilityServer(config) as srv:
            client = ServiceClient(srv.url, timeout=60.0)

            def fire(i):
                try:
                    return client.solve(
                        parameters={"Tstart_long_as": 0.9 + 0.01 * i}
                    )
                except ServiceUnavailable as exc:
                    return exc

            with ThreadPoolExecutor(12) as pool:
                outcomes = list(pool.map(fire, range(12)))
            shed = [o for o in outcomes if isinstance(o, ServiceUnavailable)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert shed, "queue bound never shed load"
            assert served, "shedding dropped every request"
            assert all(o.retry_after_seconds == 2.0 for o in shed)
            assert all(o.status == 429 for o in shed)

    def test_heavy_slots_shed(self):
        config = ServiceConfig(port=0, heavy_slots=1, cache_size=0)
        with AvailabilityServer(config) as srv:
            client = ServiceClient(srv.url, timeout=60.0)

            def fire(i):
                try:
                    return client.uncertainty(samples=400, seed=i)
                except ServiceUnavailable as exc:
                    return exc

            with ThreadPoolExecutor(6) as pool:
                outcomes = list(pool.map(fire, range(6)))
            shed = [o for o in outcomes if isinstance(o, ServiceUnavailable)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert served, "no heavy request was served"
            assert shed, "heavy slots never shed"


class TestServiceCore:
    """Direct AvailabilityService.handle coverage (no sockets)."""

    @pytest.fixture()
    def service(self):
        service = AvailabilityService(ServiceConfig(port=0))
        yield service
        service.close()

    def test_handle_unknown_endpoint(self, service):
        status, payload, headers = service.handle("/v2/solve", {})
        assert status == 404 and "error" in payload

    def test_handle_solve(self, service):
        status, payload, _ = service.handle("/v1/solve", {})
        assert status == 200
        assert payload["kind"] == "solve"
        assert payload["serving"]["cache"] == "miss"
        assert payload["serving"]["duration_ms"] > 0

    def test_handle_non_object_body(self, service):
        status, payload, _ = service.handle("/v1/solve", [1, 2])
        assert status == 400

    def test_internal_errors_become_500(self, service, monkeypatch):
        def boom(document):
            raise ZeroDivisionError("numerical surprise")

        monkeypatch.setattr(service, "_handle_solve", boom)
        status, payload, _ = service.handle("/v1/solve", {})
        assert status == 500
        assert "ZeroDivisionError" in payload["error"]

    def test_concurrent_handles_leave_no_open_span(self, service):
        """Request threads and dispatch threads open spans at once; once
        the storm is over, a new span on any thread is a root span."""
        from repro import obs

        def solve_then_open_span(offset):
            for step in range(25):
                status, _, _ = service.handle(
                    "/v1/solve",
                    {"parameters": {"La_as": 20.0 + offset + step / 100.0}},
                )
                assert status == 200
            with obs.span("after") as span:
                pass
            return span.parent_id

        with ThreadPoolExecutor(max_workers=8) as pool:
            parents = list(pool.map(solve_then_open_span, range(8)))
        assert parents == [None] * 8
        with obs.span("after") as span:
            pass
        assert span.parent_id is None
        assert service._recorder._stack.ids == []

    def test_close_restores_recorder(self):
        from repro import obs
        from repro.obs.recorder import NULL_RECORDER

        previous = obs.set_recorder(NULL_RECORDER)
        try:
            service = AvailabilityService(ServiceConfig(port=0))
            assert obs.get_recorder() is not NULL_RECORDER
            service.close()
            assert obs.get_recorder() is NULL_RECORDER
        finally:
            obs.set_recorder(previous)


class TestWarmStartIntegration:
    def test_server_warm_starts_from_spill_file(self, tmp_path):
        spill = str(tmp_path / "solves.jsonl")
        config = ServiceConfig(port=0, cache_file=spill)
        with AvailabilityServer(config) as srv:
            first = ServiceClient(srv.url, timeout=60.0).solve()
            assert first["serving"]["cache"] == "miss"
        with AvailabilityServer(config) as srv:
            warmed = ServiceClient(srv.url, timeout=60.0).solve()
        assert warmed["serving"]["cache"] == "hit"
        assert warmed["availability"] == first["availability"]
