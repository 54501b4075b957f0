"""End-to-end smoke: ~200 concurrent solves through the real HTTP stack.

Mirrors the CI ``service-smoke`` job: boot a server, hammer ``/v1/solve``
from many client threads over a small set of distinct parameter points,
then assert the serving machinery actually engaged — at least one
coalesced batch, a non-zero cache-hit rate, and every response
bit-identical to the direct library solve for its parameter point.

If ``SERVICE_SMOKE_METRICS`` is set, the final ``/metrics`` scrape is
written there so CI can upload it as an artifact.
"""

import os
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.models.jsas import CONFIG_1, PAPER_PARAMETERS
from repro.service import AvailabilityServer, ServiceClient, ServiceConfig

N_REQUESTS = 200
N_THREADS = 32
# Few distinct points + many requests -> both coalescing (concurrent
# misses for different points share a batch) and cache hits (repeats).
POINTS = [round(0.5 + 0.25 * i, 2) for i in range(8)]


def _metric_value(text, name):
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


@pytest.mark.slow
def test_concurrent_solve_smoke(tmp_path):
    config = ServiceConfig(
        port=0, workers=2, cache_size=64, max_batch=16,
        queue_limit=512,
    )
    with AvailabilityServer(config) as srv:
        client = ServiceClient(srv.url, timeout=120.0)

        def fire(i):
            point = POINTS[i % len(POINTS)]
            response = client.solve(parameters={"Tstart_long_as": point})
            return point, response

        with ThreadPoolExecutor(N_THREADS) as pool:
            outcomes = list(pool.map(fire, range(N_REQUESTS)))

        text = client.metrics()
        scrape_path = os.environ.get("SERVICE_SMOKE_METRICS")
        if scrape_path:
            with open(scrape_path, "w", encoding="ascii") as handle:
                handle.write(text)
        else:
            (tmp_path / "metrics.prom").write_text(text)

    assert len(outcomes) == N_REQUESTS

    # Every response is bit-identical to the direct library solve.
    direct = {}
    for point, response in outcomes:
        if point not in direct:
            values = PAPER_PARAMETERS.to_dict()
            values["Tstart_long_as"] = point
            direct[point] = CONFIG_1.solve(values)
        assert response["availability"] == direct[point].availability
        assert (
            response["yearly_downtime_minutes"]
            == direct[point].yearly_downtime_minutes
        )

    sources = [response["serving"]["cache"] for _, response in outcomes]
    hits = sources.count("hit") + sources.count("shared")
    misses = sources.count("miss")
    assert misses <= len(POINTS), f"more misses than points: {misses}"
    assert hits >= N_REQUESTS // 2, f"cache barely engaged: {sources}"

    batch_sizes = [
        response["serving"]["batch_size"] for _, response in outcomes
        if response["serving"]["cache"] == "miss"
    ]
    coalesced = _metric_value(text, "service_coalesced_batches_total")
    assert coalesced >= 1 or any(size > 1 for size in batch_sizes), (
        f"no coalesced batch: counter={coalesced} sizes={batch_sizes}"
    )

    # The scrape itself is a valid Prometheus exposition of the run.
    assert _metric_value(text, "service_cache_hits_total") >= 1
    assert _metric_value(text, "service_requests_total") >= N_REQUESTS
    assert re.search(
        r'service_requests_total\{endpoint="/v1/solve"\} \d+', text
    )
