"""Server tests: bit-identical parity, caching, shedding, HTTP edges.

The acceptance oracle is the paper's fig7 Config 1 stack: every numeric
field the service returns must be **bit-identical** to a direct
:meth:`HierarchicalModel.solve` call — JSON float round-tripping is
exact (``repr`` -> parse), so exact equality is the right assertion.
"""

import json
import os
import subprocess
import sys
import textwrap
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


class TestConfigurationNames:
    """Names the configuration sets itself (its bound rates and
    ``N_pair``) are refused with a 400 that names them, before the
    cache and the batcher see the request."""

    @pytest.fixture()
    def service(self):
        service = AvailabilityService(ServiceConfig(port=0))
        yield service
        service.close()

    @pytest.mark.parametrize(
        "endpoint,document,names",
        [
            ("/v1/solve", {"parameters": {"La_appl": 1e-4}}, "['La_appl']"),
            ("/v1/solve", {"parameters": {"N_pair": 5.0}}, "['N_pair']"),
            (
                "/v1/solve",
                {"parameters": {"Mu_hadb_pair": 1.0, "La_appl": 1e-4}},
                "['La_appl', 'Mu_hadb_pair']",
            ),
            ("/v1/sweep", {"parameters": {"La_appl": 1e-4}}, "['La_appl']"),
            ("/v1/sweep", {"parameter": "La_appl"}, "'La_appl'"),
            ("/v1/sweep", {"parameter": "N_pair"}, "'N_pair'"),
            (
                "/v1/uncertainty",
                {"parameters": {"La_hadb_pair": 1e-4}, "seed": 1},
                "['La_hadb_pair']",
            ),
        ],
        ids=[
            "solve-bound", "solve-N_pair", "solve-two", "sweep-values",
            "sweep-bound", "sweep-N_pair", "uncertainty",
        ],
    )
    def test_refused_before_cache_and_batcher(
        self, service, endpoint, document, names
    ):
        batches = service._recorder.metrics.counter("service_batches_total")
        dispatched = batches.value
        status, payload, _ = service.handle(endpoint, document)
        assert status == 400
        assert names in payload["error"]
        assert "set by the configuration" in payload["error"]
        assert batches.value == dispatched
        assert len(service.cache) == 0

    def test_unknown_names_still_reach_the_solver(self, service):
        """A name no model reads passes (the metastable campaign uses
        one to bust the cache), and so does ``N_pair`` on a shape
        without an HADB tier, which does not set it."""
        status, payload, _ = service.handle(
            "/v1/solve", {"parameters": {"lambda_as": 1.0}}
        )
        assert status == 200, payload
        status, payload, _ = service.handle(
            "/v1/solve",
            {"n_instances": 1, "n_pairs": 0, "parameters": {"N_pair": 5.0}},
        )
        assert status == 200, payload

    def test_over_http(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.solve(parameters={"La_appl": 1e-4})
        assert excinfo.value.status == 400
        assert "['La_appl']" in str(excinfo.value)


class TestImportGraph:
    """Serving never loads ``scipy.stats`` or ``scipy.special``: they
    are over half of a cold ``import repro.service``, and only the
    confidence-bound estimators and transient solves call them.  At the
    Table 3 shapes serving loads no scipy at all: dense chains are
    classified without ``csgraph``."""

    def test_serving_loads_neither_scipy_stats_nor_special(self):
        script = textwrap.dedent(
            """
            import sys

            import repro.cli
            import repro.service
            from repro.service import AvailabilityService, ServiceConfig

            service = AvailabilityService(ServiceConfig(port=0))
            try:
                for endpoint, document in [
                    ("/v1/solve", {}),
                    ("/v1/solve", {"n_instances": 11, "n_pairs": 2}),
                    ("/v1/sweep", {"points": 3}),
                    ("/v1/uncertainty", {"samples": 16, "seed": 1}),
                ]:
                    status, payload, _ = service.handle(endpoint, document)
                    assert status == 200, (endpoint, payload)
            finally:
                service.close()
            print(sorted(
                name for name in sys.modules
                if name.split(".")[:2] in (
                    ["scipy", "stats"], ["scipy", "special"]
                )
            ))
            """
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src if not path else os.pathsep.join([src, path]),
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_serving_table3_shapes_loads_no_scipy(self):
        """``import repro.service`` loads numpy and the solve path only:
        no scipy and none of the analysis stack.  Solving every Table 3
        shape, a sweep and a seeded uncertainty run load no scipy
        either, and no ``repro.parallel``: a sampled run solves in one
        batch and never forks.  Where the C kernel loads, neither do the
        banded AS submodels of 11/2 and parallel 16/2, whose MTTF comes
        from the banded kernel (the LAPACK route loads ``dgbsv``)."""
        script = textwrap.dedent(
            """
            import json
            import sys

            import repro.service
            from repro.kernels import cext
            from repro.models.jsas import TABLE3_CONFIGURATIONS
            from repro.service import AvailabilityService, ServiceConfig

            ANALYSIS = (
                "uncertainty", "analysis", "simulation", "sensitivity",
                "estimation", "parallel",
            )

            def loaded(packages):
                # Loaded scipy modules, and modules of repro.<packages>.
                return sorted(
                    name for name in sys.modules
                    if name.split(".")[0] == "scipy"
                    or name.split(".")[:2] in [
                        ["repro", package] for package in packages
                    ]
                )

            at_import = loaded(ANALYSIS)
            service = AvailabilityService(ServiceConfig(port=0))
            try:
                requests = [
                    ("/v1/solve", {"n_instances": n, "n_pairs": p})
                    for n, p in TABLE3_CONFIGURATIONS
                ] + [
                    ("/v1/sweep", {"points": 3}),
                    ("/v1/uncertainty", {"samples": 16, "seed": 1}),
                ]
                if cext.load() is not None:
                    requests += [
                        ("/v1/solve", {"n_instances": 11, "n_pairs": 2}),
                        ("/v1/solve", {
                            "n_instances": 16, "n_pairs": 2,
                            "repair_policy": "parallel",
                        }),
                    ]
                for endpoint, document in requests:
                    status, payload, _ = service.handle(endpoint, document)
                    assert status == 200, (endpoint, payload)
            finally:
                service.close()
            print(json.dumps([at_import, loaded(("parallel",))]))
            """
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(
            os.environ,
            PYTHONPATH=src if not path else os.pathsep.join([src, path]),
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        at_import, after_requests = json.loads(
            result.stdout.strip().splitlines()[-1]
        )
        assert at_import == []
        assert after_requests == []


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

    def test_uncertainty_at_10_10_seed_0_answers(self, service):
        """The paper's Section 7 protocol on Table 3's largest shape:
        stacked LU lost sample 250's AS down mass and this answered
        500 (ModelError on 'Mu_appl')."""
        document = {
            "n_instances": 10, "n_pairs": 10, "samples": 1000, "seed": 0,
        }
        status, payload, _ = service.handle("/v1/uncertainty", document)
        assert status == 200, payload
        assert payload["kind"] == "uncertainty"

    def test_dispatch_span_is_child_of_request_span(self):
        """In a single-process trace the batcher thread's dispatch span
        hangs under the request span that submitted the lead ticket."""
        from repro import obs

        with obs.observe() as recorder:
            service = AvailabilityService(ServiceConfig(port=0))
            try:
                status, _, _ = service.handle("/v1/solve", {})
            finally:
                service.close()
        assert status == 200
        spans = {
            record["span_id"]: record
            for record in recorder.records
            if record["kind"] == "span"
        }
        (dispatch,) = [
            s for s in spans.values() if s["name"] == "service.dispatch"
        ]
        assert dispatch["parent_id"] is not None
        assert spans[dispatch["parent_id"]]["name"] == "service.request"
        assert "parent_ref" not in dispatch

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
