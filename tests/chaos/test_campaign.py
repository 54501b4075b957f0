"""Campaign runner and the /chaos HTTP surface.

The slow acceptance test at the bottom is the ISSUE's bar: a
200-injection seeded campaign completes with zero server crashes, every
fault classified, and the Eq. 1 coverage bound bit-for-bit reproducible
from the seed.
"""

import pytest

from repro.artifacts import SCHEMAS
from repro.chaos.campaign import run_campaign
from repro.chaos.injector import (
    ALL_INJECTION_POINTS,
    INJECTION_POINTS,
    POINT_SOLVER_EXCEPTION,
)
from repro.estimation.coverage import estimate_coverage
from repro.service import (
    AvailabilityServer,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
)


@pytest.fixture
def chaos_server():
    with AvailabilityServer(
        ServiceConfig(port=0, chaos=True, chaos_seed=99)
    ) as server:
        yield server


@pytest.fixture
def plain_server():
    with AvailabilityServer(ServiceConfig(port=0)) as server:
        yield server


class TestChaosEndpoints:
    def test_endpoints_absent_without_chaos(self, plain_server):
        """A production server has no chaos surface at all."""
        client = ServiceClient(plain_server.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client.chaos_status()
        assert excinfo.value.status == 404
        with pytest.raises(ServiceClientError) as excinfo:
            client.chaos_arm(POINT_SOLVER_EXCEPTION)
        assert excinfo.value.status == 404

    def test_status_reports_enabled_injector(self, chaos_server):
        status = ServiceClient(chaos_server.url).chaos_status()
        assert status["enabled"] is True
        assert set(status["points"]) == set(ALL_INJECTION_POINTS)

    def test_arm_then_fire_counted_in_status(self, chaos_server):
        client = ServiceClient(chaos_server.url)
        armed = client.chaos_arm(POINT_SOLVER_EXCEPTION, tag="t0")
        assert armed["armed"] == POINT_SOLVER_EXCEPTION
        assert (
            armed["points"][POINT_SOLVER_EXCEPTION]["armed"] == 1
        )
        # The armed fault 500s the next solve...
        with pytest.raises(ServiceClientError) as excinfo:
            client.solve(parameters={"Tstart_long_as": 1.25})
        assert excinfo.value.status == 500
        assert "injected fault" in str(excinfo.value)
        # ...and the server is alive and correct afterwards.
        assert client.healthz()["status"] == "ok"
        response = client.solve(parameters={"Tstart_long_as": 1.25})
        assert 0.0 < response["availability"] < 1.0
        status = client.chaos_status()
        assert status["points"][POINT_SOLVER_EXCEPTION]["fired"] == 1

    @pytest.mark.parametrize(
        "document",
        [
            {"point": "not.a.point"},
            {"point": POINT_SOLVER_EXCEPTION, "count": 0},
            {"point": POINT_SOLVER_EXCEPTION, "delay_seconds": -0.5},
            {"point": POINT_SOLVER_EXCEPTION, "tag": 7},
            {"point": POINT_SOLVER_EXCEPTION, "bogus": 1},
            {},
        ],
    )
    def test_arm_validation(self, chaos_server, document):
        client = ServiceClient(chaos_server.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("/chaos/arm", document)
        assert excinfo.value.status == 400


class TestCampaign:
    def test_small_campaign_recovers_everything(self):
        report = run_campaign(injections=12, seed=31)
        assert report.injections == 12
        assert report.recovered == 12
        assert len(report.trials) == 12
        assert all(trial.activated for trial in report.trials)
        assert all(trial.detail == "ok" for trial in report.trials)
        document = report.to_dict()
        assert document["schema"] == SCHEMAS["chaos-campaign"]
        assert document["kind"] == "chaos-campaign"
        assert document["injections"] == 12
        assert len(document["trials"]) == 12

    def test_bound_matches_eq1_exactly(self):
        report = run_campaign(injections=10, seed=5)
        expected = estimate_coverage(
            report.injections, report.recovered, 0.95
        )
        assert report.overall.lower == expected.lower  # bit-for-bit

    def test_same_seed_reproduces_bit_for_bit(self):
        first = run_campaign(injections=10, seed=17)
        second = run_campaign(injections=10, seed=17)
        assert first.deterministic_dict() == second.deterministic_dict()
        assert [t.point for t in first.trials] == [
            t.point for t in second.trials
        ]

    def test_different_seed_differs(self):
        first = run_campaign(injections=10, seed=17)
        second = run_campaign(injections=10, seed=18)
        assert [t.point for t in first.trials] != [
            t.point for t in second.trials
        ]

    def test_campaign_against_external_server(self, chaos_server):
        report = run_campaign(
            injections=6, seed=3, url=chaos_server.url
        )
        assert report.recovered == 6
        assert report.url == chaos_server.url

    def test_campaign_refuses_chaos_less_server(self, plain_server):
        from repro.service.errors import ServiceError

        with pytest.raises(ServiceError):
            run_campaign(injections=2, seed=1, url=plain_server.url)

    def test_faults_surface_in_metrics(self, chaos_server):
        run_campaign(injections=8, seed=12, url=chaos_server.url)
        metrics = ServiceClient(chaos_server.url).metrics()
        assert "chaos_injections_total" in metrics


@pytest.mark.slow
def test_acceptance_200_injection_campaign():
    """ISSUE acceptance: 200 seeded injections, zero crashes, every
    fault classified, Eq. 1 bound reproducible from the seed."""
    report = run_campaign(injections=200, seed=2004)
    assert report.injections == 200
    assert len(report.trials) == 200
    # Every fault classified: activated and assigned an outcome.
    assert all(trial.activated for trial in report.trials)
    assert all(trial.detail for trial in report.trials)
    # Zero server crashes -> every trial recovered correct service.
    assert report.recovered == 200
    # Every injection point was exercised by the seeded draw.
    assert {trial.point for trial in report.trials} == set(INJECTION_POINTS)
    # The bound is exactly Eq. 1 over the tallies (and the tallies are
    # seed-determined, so the bound reproduces bit-for-bit).
    assert report.overall.lower == estimate_coverage(200, 200, 0.95).lower
    assert report.overall.fir_upper < 0.02  # < 2% FIR at 200/200
