"""Cluster router: parity, sticky routing, aggregation, failover."""

import time

import pytest

from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS
from repro.service import (
    ClusterConfig,
    ClusterServer,
    ServiceClient,
    ServiceConfig,
    idempotency_key,
)
from repro.service.errors import BadRequest, ServiceClientError


N_SHARDS = 2


@pytest.fixture(scope="module")
def router():
    config = ClusterConfig(
        port=0,
        n_shards=N_SHARDS,
        shard=ServiceConfig(port=0, workers=1, cache_size=64),
        health_interval_seconds=0.1,
    )
    with ClusterServer(config) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(router):
    return ServiceClient(router.url, timeout=60.0)


def wait_for_full_ring(router, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = router.cluster.cluster_status()
        if len(status["ring"]) == N_SHARDS and all(
            shard["alive"] for shard in status["shards"].values()
        ):
            return status
        time.sleep(0.1)
    raise AssertionError(f"ring never recovered: {status}")


class TestParity:
    def test_cluster_response_bit_identical_to_direct_solve(self, client):
        """Acceptance oracle: a routed response is byte-for-byte the
        library's fig7 Config 1 answer."""
        response = client.solve(n_instances=2, n_pairs=2)
        direct = CONFIG_1.solve(PAPER_PARAMETERS)
        assert response["availability"] == direct.availability
        assert (
            response["yearly_downtime_minutes"]
            == direct.yearly_downtime_minutes
        )
        assert response["mtbf_hours"] == direct.mtbf_hours
        assert (
            response["state_probabilities"]
            == direct.system.state_probabilities
        )
        assert response["bound_parameters"] == direct.bound_parameters


class TestRouting:
    def test_repeat_request_is_a_shard_local_cache_hit(self, client):
        """Consistent hashing sends the identical request back to the
        same shard, so the second call hits that shard's cache."""
        parameters = {"Tstart_long_as": 1.31}
        first = client.solve(parameters=parameters)
        second = client.solve(parameters=parameters)
        assert second["serving"]["cache"] == "hit"
        assert second["fingerprint"] == first["fingerprint"]

    def test_distinct_keys_spread_across_shards(self, router):
        documents = [
            {
                "path": "/v1/solve",
                "body": {"parameters": {"Tstart_long_as": 0.5 + 0.01 * i}},
            }
            for i in range(200)
        ]
        owners = {
            router.cluster.route(
                idempotency_key(doc["path"], doc["body"])
            )
            for doc in documents
        }
        assert len(owners) == N_SHARDS

    def test_router_key_matches_client_header(self, router, client):
        """The router hashes the client's Idempotency-Key verbatim, so
        client-side and router-side routing agree."""
        document = {"n_instances": 2, "n_pairs": 2}
        key = idempotency_key("/v1/solve", document)
        assert router.cluster.routing_key(
            "/v1/solve", document, key
        ) == key
        assert router.cluster.routing_key(
            "/v1/solve", document, None
        ) == key


class TestAggregation:
    def test_healthz_aggregates_every_shard(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["n_shards"] == N_SHARDS
        assert health["shards_healthy"] == N_SHARDS
        assert set(health["shards"]) == {
            f"shard-{i}" for i in range(N_SHARDS)
        }
        for shard_health in health["shards"].values():
            assert shard_health["status"] == "ok"
            assert "cache_entries" in shard_health

    def test_metrics_carry_per_shard_labels(self, client):
        client.solve(parameters={"Tstart_long_as": 1.41})
        text = client.metrics()
        for i in range(N_SHARDS):
            assert f'shard="shard-{i}"' in text
        assert 'shard="router"' in text
        assert "cluster_requests_total" in text
        assert "service_requests_total" in text

    def test_cluster_status_reports_ring_and_lifecycle(self, client):
        status = client.cluster_status()
        assert status["n_shards"] == N_SHARDS
        assert sorted(status["ring"]) == [
            f"shard-{i}" for i in range(N_SHARDS)
        ]
        for shard in status["shards"].values():
            assert shard["alive"] is True
            assert shard["pid"] is not None
            assert shard["generation"] >= 1


class TestClose:
    def test_close_does_not_wait_out_the_health_interval(self):
        """The health monitor waits on an event that ``close()`` sets,
        so a router closed right after ``start()`` does not sleep out
        its 2 s poll interval first."""
        server = ClusterServer(
            ClusterConfig(port=0, n_shards=1, health_interval_seconds=2.0)
        )
        server.start()
        started = time.perf_counter()
        server.close()
        assert time.perf_counter() - started < 0.5


class TestHttpEdges:
    def test_chaos_disabled_by_default(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.chaos_status()
        assert excinfo.value.status == 404

    def test_kill_unknown_shard_rejected(self, router):
        with pytest.raises(BadRequest, match="unknown shard"):
            router.cluster.kill_shard("shard-99")


class TestFailover:
    def test_owner_death_fails_over_and_readmits(self, router, client):
        """Kill the owning shard mid-traffic: the request must still
        return the bit-correct answer (routed to the ring successor)
        and the victim must be respawned and re-admitted."""
        wait_for_full_ring(router)
        parameters = {"Tstart_long_as": 2.17}
        document = {
            "n_instances": 2,
            "n_pairs": 2,
            "method": "auto",
            "abstraction": "mttf",
            "parameters": parameters,
        }
        owner = router.cluster.route(
            idempotency_key("/v1/solve", document)
        )
        before = router.cluster.cluster_status()["shards"][owner]
        router.cluster.kill_shard(owner)
        response = client.solve(parameters=parameters)
        values = PAPER_PARAMETERS.to_dict()
        values.update(parameters)
        assert response["availability"] == CONFIG_1.solve(
            values
        ).availability
        status = wait_for_full_ring(router)
        after = status["shards"][owner]
        assert after["respawns"] == before["respawns"] + 1
        assert after["generation"] == before["generation"] + 1
        assert after["pid"] != before["pid"]

    def test_survivor_keeps_serving_during_failover(self, router, client):
        """While one shard is down, keys owned by the survivor still
        answer normally."""
        wait_for_full_ring(router)
        # Find two parameter points owned by different shards.
        by_owner = {}
        for i in range(200):
            parameters = {"Tstart_long_as": 3.0 + 0.01 * i}
            document = {
                "n_instances": 2,
                "n_pairs": 2,
                "method": "auto",
                "abstraction": "mttf",
                "parameters": parameters,
            }
            owner = router.cluster.route(
                idempotency_key("/v1/solve", document)
            )
            by_owner.setdefault(owner, parameters)
            if len(by_owner) == N_SHARDS:
                break
        assert len(by_owner) == N_SHARDS
        victim, survivor = "shard-0", "shard-1"
        router.cluster.kill_shard(victim)
        response = client.solve(parameters=by_owner[survivor])
        assert isinstance(response["availability"], float)
        wait_for_full_ring(router)
