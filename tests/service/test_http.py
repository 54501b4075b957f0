"""The shared HTTP front: one set of transport edges, shard and router.

Every case runs against both servers built on
:mod:`repro.service.http` — a single :class:`AvailabilityServer` shard
and a :class:`ClusterServer` router — so each transport edge is pinned
to behave the same on both.
"""

import http.client
import json
import multiprocessing
import os
import signal
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import http as front_http
from repro.service import (
    AvailabilityServer,
    ClusterConfig,
    ClusterServer,
    HttpConnectionPool,
    RetryPolicy,
    ServiceClient,
    ServiceClientError,
    ServiceConfig,
    ServiceConnectionError,
)
from repro.service.http import MAX_HEADERS, MAX_LINE


@pytest.fixture(scope="module")
def shard():
    with AvailabilityServer(ServiceConfig(port=0)) as srv:
        yield srv


def _router_config():
    return ClusterConfig(
        port=0,
        n_shards=1,
        shard=ServiceConfig(port=0, workers=1),
        health_interval_seconds=0.1,
    )


@pytest.fixture(scope="module")
def router():
    with ClusterServer(_router_config()) as srv:
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


def _exchange_until_eof(front, data, half_close=False):
    """Send raw bytes on a fresh socket and return every response the
    front writes before it closes the connection."""
    with socket.create_connection(front.address, timeout=30) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return _split_responses(b"".join(chunks))


def _split_responses(stream):
    """``[(status, headers, body)]`` of a Content-Length-framed stream."""
    responses = []
    while stream:
        head, _, stream = stream.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append(
            (int(lines[0].split()[1]), headers, stream[:length])
        )
        stream = stream[length:]
    return responses


def _one_json_answer(responses, status):
    """The stream held exactly one answer, ``status`` with a JSON error."""
    assert [r[0] for r in responses] == [status], responses
    _, headers, body = responses[0]
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    return json.loads(body)["error"]


_SOLVE_HEAD = (
    b"POST /v1/solve HTTP/1.1\r\n"
    b"Host: test\r\n"
    b"Content-Type: application/json\r\n"
)


class TestRequestFraming:
    """Content-Length is the only body framing the front speaks; a
    request it cannot frame gets one JSON answer and a closed socket."""

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_400(self, front, capfd, length):
        responses = _exchange_until_eof(
            front, _SOLVE_HEAD + b"Content-Length: " + length + b"\r\n\r\n{}"
        )
        assert "Content-Length" in _one_json_answer(responses, 400)
        assert "Traceback" not in capfd.readouterr().err

    def test_conflicting_content_lengths_400(self, front):
        responses = _exchange_until_eof(
            front,
            _SOLVE_HEAD
            + b"Content-Length: 2\r\nContent-Length: 5\r\n\r\n{}",
        )
        assert "Content-Length" in _one_json_answer(responses, 400)

    def test_chunked_body_411_and_no_desync(self, front):
        # Read as an empty body, this would solve the default
        # configuration (200) and parse the chunk bytes as a request.
        responses = _exchange_until_eof(
            front,
            _SOLVE_HEAD
            + b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        assert "Transfer-Encoding" in _one_json_answer(responses, 411)

    def test_body_cut_short_by_half_close_400(self, front):
        responses = _exchange_until_eof(
            front,
            _SOLVE_HEAD + b"Content-Length: 10\r\n\r\n{}",
            half_close=True,
        )
        assert "2 of 10 bytes" in _one_json_answer(responses, 400)

    @pytest.mark.parametrize(
        "request_line,status",
        [
            (b"GET /healthz HTTP/2.0", 505),
            (b"GET /healthz", 400),
            (b"GET /healthz FTP/1.1", 400),
        ],
    )
    def test_malformed_request_line(self, front, request_line, status):
        responses = _exchange_until_eof(front, request_line + b"\r\n\r\n")
        _one_json_answer(responses, status)


class TestJsonAnswers:
    """Every answer of the front is JSON, its refusals included."""

    @pytest.mark.parametrize("method", ["PUT", "DELETE"])
    def test_unsupported_method_501(self, front, method):
        conn = http.client.HTTPConnection(*front.address, timeout=30)
        try:
            conn.request(method, "/v1/solve", body=b"{}")
            reply = conn.getresponse()
            body = reply.read()
        finally:
            conn.close()
        assert reply.status == 501
        assert reply.getheader("Content-Type") == "application/json"
        assert method in json.loads(body)["error"]

    def test_request_line_too_long_414(self, front):
        # Exactly one byte over the limit, and nothing after it: the
        # front reads all of it, so its close is a FIN, not a reset.
        line = b"GET /" + b"x" * (MAX_LINE - 4)
        responses = _exchange_until_eof(front, line)
        assert str(MAX_LINE) in _one_json_answer(responses, 414)

    def test_too_many_headers_431(self, front):
        fields = b"".join(
            b"X-Field-%d: v\r\n" % i for i in range(MAX_HEADERS)
        )
        responses = _exchange_until_eof(
            front, b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + fields + b"\r\n"
        )
        assert str(MAX_HEADERS) in _one_json_answer(responses, 431)

    def test_header_limit_is_inclusive(self, front):
        # Host, Connection and these fields: exactly MAX_HEADERS lines.
        fields = b"".join(
            b"X-Field-%d: v\r\n" % i for i in range(MAX_HEADERS - 2)
        )
        responses = _exchange_until_eof(
            front,
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + fields
            + b"Connection: close\r\n\r\n",
        )
        assert [r[0] for r in responses] == [200]

    def test_client_error_carries_the_servers_message(self, front):
        with ServiceClient(front.url) as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("/" + "x" * MAX_LINE)
        assert excinfo.value.status == 414
        assert str(excinfo.value) == (
            f"request line longer than {MAX_LINE} bytes"
        )


class TestKeepAliveEdges:
    def test_half_closed_client_is_answered_then_closed(self, front, capfd):
        responses = _exchange_until_eof(
            front,
            _SOLVE_HEAD + b"Content-Length: 2\r\n\r\n{}",
            half_close=True,
        )
        assert [r[0] for r in responses] == [200]
        assert "availability" in json.loads(responses[0][2])
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close"],
    )
    def test_answer_then_eof(self, front, request_head):
        responses = _exchange_until_eof(front, request_head)
        assert [r[0] for r in responses] == [200]
        assert json.loads(responses[0][2])["status"] == "ok"

    def test_expect_100_continue(self, front):
        body = b'{"n_instances": 2, "n_pairs": 2}'
        with socket.create_connection(front.address, timeout=30) as sock:
            sock.sendall(
                _SOLVE_HEAD
                + b"Expect: 100-continue\r\nConnection: close\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(body)
            )
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            stream = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                stream += chunk
        responses = _split_responses(stream)
        assert [r[0] for r in responses] == [200]

    def test_stdlib_client_reuses_one_socket(self, front):
        conn = http.client.HTTPConnection(*front.address, timeout=60)
        try:
            conn.request(
                "POST",
                "/v1/solve",
                body=b'{"n_instances": 2, "n_pairs": 2}',
                headers={"Content-Type": "application/json"},
            )
            solved = conn.getresponse()
            assert "availability" in json.loads(solved.read())
            sock = conn.sock
            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200 and json.loads(health.read())
            conn.request("GET", "/metrics")
            metrics = conn.getresponse()
            assert b"service_requests_total" in metrics.read()
            assert metrics.getheader("Content-Type").startswith("text/plain")
            assert sock is not None and conn.sock is sock
        finally:
            conn.close()


_KEEP_ALIVE_200 = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\n\r\n{}"
)


class _AnswerOnceThenClose:
    """A stub origin that answers each connection's first request with
    ``reply`` (by default a keep-alive ``200 {}``) and then closes it,
    so the socket the client pooled is stale by its next request."""

    def __init__(self, connections, reply=_KEEP_ALIVE_200):
        self._reply = reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._closed = threading.Semaphore(0)
        self._thread = threading.Thread(
            target=self._serve, args=(connections,), daemon=True
        )
        self._thread.start()
        self.url = "http://127.0.0.1:%d" % self._listener.getsockname()[1]

    def _serve(self, connections):
        for _ in range(connections):
            conn, _ = self._listener.accept()
            with conn:
                head = b""
                while b"\r\n\r\n" not in head:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    head += chunk
                conn.sendall(self._reply)
            self._closed.release()

    def wait_closed(self):
        assert self._closed.acquire(timeout=10)

    def close(self):
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self._listener.close()


class TestStalePooledSocket:
    def test_pool_discards_and_redials(self):
        stub = _AnswerOnceThenClose(connections=2)
        client = ServiceClient(stub.url, timeout=10)
        client._sleep = lambda seconds: None
        assert client.healthz() == {}
        stub.wait_closed()
        assert client.healthz() == {}
        assert client.last_attempts == 2
        assert client.connections_opened == 2
        client.close()
        stub.close()

    def test_single_attempt_raises_one_connection_error(self):
        stub = _AnswerOnceThenClose(connections=2)
        client = ServiceClient(
            stub.url, timeout=10, retry=RetryPolicy(max_attempts=1)
        )
        assert client.healthz() == {}
        stub.wait_closed()
        with pytest.raises(ServiceConnectionError):
            client.healthz()
        assert client.last_attempts == 1
        assert client.connections_opened == 1
        assert client.healthz() == {}
        assert client.connections_opened == 2
        client.close()
        stub.close()


    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
            b"SMTP ready\r\n\r\n",
        ],
        ids=["chunked", "bad-length", "short-body", "not-http"],
    )
    def test_unframeable_response_is_a_connection_error(self, reply):
        stub = _AnswerOnceThenClose(connections=1, reply=reply)
        client = ServiceClient(
            stub.url, timeout=10, retry=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(ServiceConnectionError):
            client.healthz()
        assert client._pool._idle == []
        client.close()
        stub.close()


class TestRequestHead:
    @pytest.mark.parametrize(
        "method,path,headers",
        [
            ("GET", "/healthz\r\nX-Smuggled: 1", {}),
            ("GET", "/health z", {}),
            ("G\x01T", "/healthz", {}),
            ("POST", "/v1/solve", {"Idempotency-Key": "k\r\nX-Smuggled: 1"}),
            ("POST", "/v1/solve", {"Idempotency-Key": "k\x00"}),
            ("POST", "/v1/solve", {"Bad Name": "v"}),
        ],
    )
    def test_control_characters_rejected_before_dialing(
        self, method, path, headers
    ):
        pool = HttpConnectionPool("127.0.0.1", 1, timeout=1.0)
        with pytest.raises(ValueError):
            pool.exchange(method, path, b"{}", headers)
        assert pool.opened == 0


def _threads_started_since(before, timeout=0.0):
    """Threads alive now that were not in ``before``, waiting up to
    ``timeout`` seconds for them to end."""
    deadline = time.monotonic() + timeout
    while True:
        started = [t for t in threading.enumerate() if t not in before]
        if not started or time.monotonic() >= deadline:
            return started
        time.sleep(0.05)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


class TestClose:
    """``close()`` ends the connections the front still holds, so no
    handler keeps serving a closed core."""

    @pytest.mark.parametrize("kind", ["shard", "router"])
    def test_keep_alive_client_sees_the_close(self, kind):
        before = set(threading.enumerate())
        server = (
            AvailabilityServer(ServiceConfig(port=0))
            if kind == "shard"
            else ClusterServer(_router_config())
        ).start()
        client = ServiceClient(
            server.url, timeout=10, retry=RetryPolicy(max_attempts=1)
        )
        client.solve()
        server.close()
        with pytest.raises(ServiceConnectionError):
            client.solve(parameters={"Tstart_long_as": 1.7})
        assert client.last_attempts == 1
        client.close()
        assert _threads_started_since(before) == []

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="elsewhere the accept loop ends at its 0.5 s poll",
    )
    def test_idle_close_does_not_wait_for_the_accept_poll(self):
        """``close()`` wakes the accept loop instead of waiting out its
        0.5 s poll."""
        server = AvailabilityServer(ServiceConfig(port=0)).start()
        with ServiceClient(server.url) as client:
            client.solve()
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 0.1

    def _stalled_solve(self, stall_seconds):
        """A server, and a solve held in dispatch by a chaos stall."""
        server = AvailabilityServer(ServiceConfig(port=0, chaos=True))
        server.start()
        server.service.injector.arm(
            "scheduler.stall", delay_seconds=stall_seconds
        )
        client = ServiceClient(
            server.url, timeout=30, retry=RetryPolicy(max_attempts=1)
        )
        pool = ThreadPoolExecutor(1)
        answer = pool.submit(client.solve)
        _wait_until(
            lambda: server.service.injector.fired("scheduler.stall") == 1
        )
        pool.shutdown(wait=False)
        return server, client, answer

    def test_request_inside_the_core_is_answered(self):
        before = set(threading.enumerate())
        server, client, answer = self._stalled_solve(0.5)
        server.close()
        assert answer.result(timeout=10)["serving"]["cache"] == "miss"
        client.close()
        assert _threads_started_since(before, timeout=5.0) == []

    def test_request_past_the_timeout_is_a_connection_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(front_http, "CLOSE_TIMEOUT_SECONDS", 0.2)
        before = set(threading.enumerate())
        server, client, answer = self._stalled_solve(3.0)
        server.close()
        with pytest.raises(ServiceConnectionError):
            answer.result(timeout=30)
        assert client.last_attempts == 1
        client.close()
        # The handler ends, without writing, once the core returns the
        # stalled request.
        assert _threads_started_since(before, timeout=10.0) == []


def _serve_until_terminated(conn):
    """Spawned-process entry: a server with one solver worker and the
    default SIGTERM disposition."""
    server = AvailabilityServer(
        ServiceConfig(port=0, worker_processes=1, chaos=True)
    )
    conn.send((server.url, server.service.pool._workers[0].process.pid))
    conn.close()
    server.serve_forever()


def _process_gone(pid):
    """No such process, or only its zombie is left."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state in ("Z", "X")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="checks processes in /proc"
)
class TestSigterm:
    #: Seconds the server and its solver worker get to be gone.
    EXIT_TIMEOUT = 10.0

    def test_sigterm_mid_request(self):
        """SIGTERM while a solve is held in dispatch: the client gets
        exactly one typed connection error, and neither the server nor
        its solver worker outlives ``EXIT_TIMEOUT``."""
        context = multiprocessing.get_context("spawn")
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_serve_until_terminated, args=(child_conn,)
        )
        process.start()
        child_conn.close()
        try:
            assert parent_conn.poll(120), "server did not boot"
            url, worker_pid = parent_conn.recv()
            control = ServiceClient(url, timeout=30)
            control.chaos_arm("scheduler.stall", delay_seconds=60.0)
            client = ServiceClient(
                url, timeout=60, retry=RetryPolicy(max_attempts=1)
            )
            with ThreadPoolExecutor(1) as pool:
                answer = pool.submit(client.solve)
                _wait_until(
                    lambda: control.chaos_status()["points"][
                        "scheduler.stall"
                    ]["fired"] == 1,
                    timeout=30.0,
                )
                control.close()
                os.kill(process.pid, signal.SIGTERM)
                with pytest.raises(ServiceConnectionError):
                    answer.result(timeout=30)
            assert client.last_attempts == 1
            client.close()
            process.join(self.EXIT_TIMEOUT)
            assert process.exitcode == -signal.SIGTERM
            _wait_until(
                lambda: _process_gone(worker_pid), timeout=self.EXIT_TIMEOUT
            )
        finally:
            if process.is_alive():
                process.kill()
                process.join()
            parent_conn.close()
