"""The shared HTTP front: one set of transport edges, shard and router.

Every case runs against both servers built on
:mod:`repro.service.http` — a single :class:`AvailabilityServer` shard
and a :class:`ClusterServer` router — so each transport edge is pinned
to behave the same on both.
"""

import http.client
import socket
import struct
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AvailabilityServer,
    ClusterConfig,
    ClusterServer,
    HttpConnectionPool,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def shard():
    with AvailabilityServer(ServiceConfig(port=0)) as srv:
        yield srv


@pytest.fixture(scope="module")
def router():
    config = ClusterConfig(
        port=0,
        n_shards=1,
        shard=ServiceConfig(port=0, workers=1),
        health_interval_seconds=0.1,
    )
    with ClusterServer(config) as srv:
        yield srv


@pytest.fixture(params=["shard", "router"])
def front(request):
    """The shard server, then the cluster router."""
    return request.getfixturevalue(request.param)


def _post_status(url, body):
    request = urllib.request.Request(
        f"{url}/v1/solve",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    excinfo.value.close()
    return excinfo.value.code


class TestTransportEdges:
    def test_invalid_json_body_400(self, front):
        assert _post_status(front.url, b"{not json") == 400

    def test_non_object_body_400(self, front):
        assert _post_status(front.url, b"[1, 2]") == 400

    def test_oversized_body_413(self, front):
        # 2 MiB against the default 1 MiB limit: the front drains the
        # upload before answering, so the client sees the 413.
        assert _post_status(front.url, b"x" * (2 << 20)) == 413

    def test_unknown_post_404(self, front):
        with ServiceClient(front.url) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("/v1/nope", {})
        assert excinfo.value.status == 404

    def test_unknown_get_404(self, front):
        with ServiceClient(front.url) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("/nope")
        assert excinfo.value.status == 404


def _reset_count(client, router):
    """``service_connections_reset_total`` of the scraped server's own
    front (on the router, its ``component="router"`` sample)."""
    total = 0.0
    for line in client.metrics().splitlines():
        if line.startswith("service_connections_reset_total") and (
            not router or 'component="router"' in line
        ):
            total += float(line.rsplit(" ", 1)[1])
    return total


class TestConnectionReset:
    def test_reset_mid_body_is_counted_not_printed(self, front, capfd):
        """A client that resets its connection halfway through a POST
        body is counted on /metrics; no traceback reaches stderr."""
        router = isinstance(front, ClusterServer)
        client = ServiceClient(front.url)
        before = _reset_count(client, router)
        sock = socket.create_connection(front.address, timeout=10)
        sock.sendall(
            b"POST /v1/solve HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 64\r\n\r\n"
            b'{"n_instances": '
        )
        # Linger on with a zero timeout: close() sends RST, not FIN.
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        deadline = time.monotonic() + 10.0
        while (
            _reset_count(client, router) <= before
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        counted = _reset_count(client, router) > before
        client.close()
        stderr = capfd.readouterr().err
        assert counted and "Traceback" not in stderr, stderr


class TestRelay:
    def test_routed_solve_body_is_the_shards_bytes(self, router, monkeypatch):
        relayed = []
        exchange = HttpConnectionPool.exchange

        def recording(pool, *args, **kwargs):
            reply = exchange(pool, *args, **kwargs)
            relayed.append(reply[2])
            return reply

        monkeypatch.setattr(HttpConnectionPool, "exchange", recording)
        conn = http.client.HTTPConnection(*router.address, timeout=60)
        try:
            conn.request(
                "POST",
                "/v1/solve",
                body=b'{"n_instances": 2, "n_pairs": 2}',
                headers={"Content-Type": "application/json"},
            )
            reply = conn.getresponse()
            body = reply.read()
        finally:
            conn.close()
        assert reply.status == 200
        assert body == relayed[-1]
