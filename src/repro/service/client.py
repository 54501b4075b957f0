"""Client for the evaluation server.

A small keep-alive HTTP/1.1 client — it speaks the codec of
:mod:`repro.service.http`, the one the servers speak — so tests, the
CLI and scripts can talk to a running server (or cluster router)
without extra dependencies::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    response = client.solve(n_instances=4, n_pairs=4)
    print(response["availability"], response["serving"]["cache"])

Transport: connections are **kept alive and pooled** per client.  The
server speaks HTTP/1.1 with ``Content-Length`` framing, so sequential
requests reuse one socket instead of paying a TCP handshake each time,
and concurrent callers draw from a small free-connection stack (the
pool grows to the concurrency actually used, never beyond
``max_idle`` idle sockets).  ``connections_opened`` counts the sockets
a client ever created — the socket-reuse regression test pins it to 1
for a sequential workload.

Robustness (the client half of the chaos-recovery contract):

* every transport-level failure is wrapped in the typed
  :class:`~repro.service.errors.ServiceConnectionError` /
  :class:`~repro.service.errors.ServiceTimeout` hierarchy instead of
  leaking the raw ``socket`` exception zoo;
* a failed *reused* connection is indistinguishable from a server that
  died mid-request, so it is discarded and the request retried per
  policy — safe because every POST is idempotent (content-addressed
  solves plus the ``Idempotency-Key`` header);
* connection errors are retried up to :class:`RetryPolicy.max_attempts`
  with exponential backoff and **full jitter**
  (``uniform(0, min(cap, base * 2**attempt))`` — the AWS-recommended
  variant that decorrelates synchronized retry storms);
* HTTP statuses are *not* retried by default (a 429 carries deliberate
  load-shedding semantics the caller should see); opt in per status via
  ``RetryPolicy(retry_statuses=(500, 503))``;
* every POST carries an ``Idempotency-Key`` header — the SHA-256 of the
  canonical request content — computed once per logical request, so the
  server can tell a retry from a new request even when the original
  response was lost on the wire.  The cluster router consistent-hashes
  this same digest, so retries re-route to the key's current home
  shard after a failover.

Error mapping: 429 raises
:class:`~repro.service.errors.ServiceUnavailable` carrying the server's
``Retry-After`` hint; every other non-2xx status raises
:class:`~repro.service.errors.ServiceClientError` with the decoded error
document attached.  Any status may carry a usable ``Retry-After``
hint (the cluster router sends one on 503); when a retried error has
one, it floors the jittered backoff, capped at ``backoff_cap``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.serialize import canonical_json
from repro.obs import tracecontext
from repro.service.errors import (
    ServiceClientError,
    ServiceConnectionError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.http import (
    MAX_LINE,
    FramingError,
    Headers,
    body_length,
    encode_request,
    read_headers,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry behavior for one :class:`ServiceClient`.

    Attributes:
        max_attempts: Total tries per logical request (1 = no retries).
        backoff_base: First-retry backoff ceiling in seconds; attempt
            *k* draws its sleep from ``uniform(0, min(backoff_cap,
            backoff_base * 2**k))`` (full jitter).
        backoff_cap: Upper bound on any single backoff sleep.
        retry_statuses: HTTP statuses that are retried like connection
            errors.  Empty by default: a status line means the server is
            alive and answered deliberately.  429 additionally honors
            the server's ``Retry-After`` hint (capped by
            ``backoff_cap``) when listed here.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    retry_statuses: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(f"negative backoff_base {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ValueError(f"negative backoff_cap {self.backoff_cap}")

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Full-jitter sleep before retry number ``attempt`` (0-based)."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return rng.uniform(0.0, ceiling)


#: One retry policy instance shared by clients that don't pass their own.
DEFAULT_RETRY_POLICY = RetryPolicy()


def idempotency_key(path: str, document: Mapping[str, Any]) -> str:
    """Content-addressed key identifying one logical POST request.

    The canonical-JSON digest of ``(path, body)`` — identical across
    retries of the same request, different for any semantic change, and
    stable across processes (same canonical encoding the solve cache
    fingerprints use).  The cluster router uses this digest as its
    consistent-hash routing key, so it doubles as the request's shard
    address.
    """
    return hashlib.sha256(
        canonical_json({"path": path, "body": dict(document)}).encode("ascii")
    ).hexdigest()


class _Connection:
    """One keep-alive socket to ``host:port``, speaking the codec of
    :mod:`repro.service.http`.

    Dialing is lazy (first :meth:`exchange`), so dial errors surface
    inside the pool's transport-error handling.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.address = (host, port)
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self.rfile: Optional[IO[bytes]] = None

    def exchange(self, request: bytes) -> Tuple[int, Headers, bytes, bool]:
        """Send one request message; returns ``(status, headers, body,
        close)``, where ``close`` means the server will not reuse the
        socket."""
        if self.sock is None:
            sock = socket.create_connection(self.address, self.timeout)
            # Nagle batching interacts with the peer's delayed ACK and
            # can stall a keep-alive round trip by ~40 ms — fatal when
            # the exchange itself is sub-millisecond (cache hits).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock, self.rfile = sock, sock.makefile("rb")
        self.sock.sendall(request)
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionError("server closed the connection unanswered")
        parts = line.split(None, 2)
        if (
            len(line) > MAX_LINE
            or len(parts) < 2
            or parts[0] not in (b"HTTP/1.0", b"HTTP/1.1")
            or not parts[1].isdigit()
        ):
            raise ConnectionError(f"bad status line {line[:64]!r}")
        headers = read_headers(self.rfile)
        length = body_length(headers)
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (
            parts[0] == b"HTTP/1.0" and connection != "keep-alive"
        )
        if length is None:
            return int(parts[1]), headers, self.rfile.read(), True
        body = self.rfile.read(length)
        if len(body) < length:
            raise ConnectionError(
                f"response body ended after {len(body)} of {length} bytes"
            )
        return int(parts[1]), headers, body, close

    def close(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = self.rfile = None


class HttpConnectionPool:
    """Keep-alive connection pool for one ``http://host:port`` origin.

    A bounded LIFO stack of idle connections.  :meth:`exchange` pops an
    idle connection (or dials a new one — counted in :attr:`opened`),
    runs exactly one request/response exchange on it, then either
    releases it for reuse or discards it after any transport error,
    since a connection that failed mid-exchange has undefined framing
    state.

    LIFO keeps the hottest socket busiest, so a sequential caller uses
    exactly one connection and a burst of *k* concurrent callers
    settles on *k*.  The cluster router holds one pool per shard.
    """

    def __init__(
        self, host: str, port: int, timeout: float, max_idle: int = 8
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_idle = int(max_idle)
        self.opened = 0
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    def acquire(self) -> _Connection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            self.opened += 1
        return _Connection(self.host, self.port, self.timeout)

    def exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Tuple[int, Headers, bytes]:
        """One request/response on a pooled connection.

        Returns ``(status, headers, body)``; header lookups ignore case.
        Raises :class:`ValueError` before any socket is touched when the
        request head holds a CR, LF or other control character, the
        stdlib :class:`TimeoutError` when the socket times out, and
        :class:`ConnectionError` on any other transport failure (e.g.
        the server closed the socket mid-response: the ``response.drop``
        chaos point, a killed shard), chaining the original exception as
        ``__cause__``; either way the connection is discarded, never
        returned to the pool.
        """
        request = encode_request(
            method, path, f"{self.host}:{self.port}", headers or {}, body
        )
        conn = self.acquire()
        try:
            status, reply_headers, payload, close = conn.exchange(request)
        except (socket.timeout, TimeoutError) as exc:
            self.discard(conn)
            raise TimeoutError(str(exc)) from exc
        except (OSError, FramingError) as exc:
            self.discard(conn)
            raise ConnectionError(str(exc)) from exc
        if close:
            self.discard(conn)
        else:
            self.release(conn)
        return status, reply_headers, payload

    def release(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.max_idle:
                self._idle.append(conn)
                return
        conn.close()

    def discard(self, conn: _Connection) -> None:
        conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class ServiceClient:
    """HTTP client for one :class:`~repro.service.server.AvailabilityServer`
    (or one :class:`~repro.service.cluster.ClusterServer` router — the
    API is identical).

    Args:
        base_url: Server root, e.g. ``http://127.0.0.1:8080``.
        timeout: Per-request socket timeout in seconds.
        retry: Retry policy; defaults to :data:`DEFAULT_RETRY_POLICY`
            (3 attempts, connection errors only).
        rng: RNG for backoff jitter (inject a seeded
            ``random.Random`` for deterministic tests).

    Attributes:
        last_attempts: How many attempts the most recent request used
            (1 means it succeeded first try).
        connections_opened: Sockets this client has dialed so far; stays
            at 1 for a sequential workload thanks to keep-alive reuse.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = float(timeout)
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._rng = rng if rng is not None else random.Random()
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"base_url must be http://host[:port], got {base_url!r}"
            )
        self._pool = HttpConnectionPool(
            parts.hostname, parts.port or 80, self.timeout
        )
        # Seam for tests: patch to observe/skip backoff sleeps.
        self._sleep = time.sleep
        self.last_attempts = 0

    @property
    def connections_opened(self) -> int:
        return self._pool.opened

    def close(self) -> None:
        """Drop the pooled keep-alive connections."""
        self._pool.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # Transport -----------------------------------------------------------

    def _request(
        self,
        path: str,
        document: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        """One logical request: retries per policy, typed errors out.

        With a live recorder, POSTs are wrapped in a ``client.request``
        span whose ref rides out in the ``Traceparent`` header — under
        an already-active trace scope (the probe loop opens its own,
        deterministic one) the span joins that trace; otherwise a fresh
        random trace is rooted here.
        """
        if document is None or not obs.enabled():
            return self._request_with_retry(path, document)
        root = (
            tracecontext.trace_scope(
                tracecontext.TraceContext(tracecontext.new_trace_id())
            )
            if tracecontext.active() is None
            else contextlib.nullcontext()
        )
        with root:
            with obs.span("client.request", endpoint=path) as current_span:
                result = self._request_with_retry(path, document)
                current_span.set(attempts=self.last_attempts)
                return result

    def _request_with_retry(
        self,
        path: str,
        document: Optional[Mapping[str, Any]] = None,
    ) -> Any:
        key = idempotency_key(path, document) if document is not None else None
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            self.last_attempts = attempt + 1
            try:
                return self._request_once(path, document, key)
            except ServiceConnectionError as exc:
                # Transport never delivered a status — always retryable.
                last_error = exc
            except ServiceClientError as exc:
                if exc.status not in self.retry.retry_statuses:
                    raise
                last_error = exc
            if attempt + 1 >= self.retry.max_attempts:
                break
            delay = self.retry.backoff_seconds(attempt, self._rng)
            # Honor a server-provided Retry-After hint on any retried
            # error that carried one (429 shed, router 503, ...) as a
            # floor under the jittered backoff.  Without the floor, a
            # shed response paired with an unusable hint retried after
            # pure jitter — uniform(0, base * 2**attempt), near zero on
            # the first retry — which is exactly the storm amplifier
            # the metastable orbit model predicts.
            hint = getattr(last_error, "retry_after_seconds", None)
            if hint is not None:
                delay = max(delay, min(hint, self.retry.backoff_cap))
            if delay > 0:
                self._sleep(delay)
        assert last_error is not None
        raise last_error

    def _request_once(
        self,
        path: str,
        document: Optional[Mapping[str, Any]],
        key: Optional[str],
    ) -> Any:
        url = f"{self.base_url}{path}"
        if document is None:
            method, body, headers = "GET", None, {}
        else:
            method = "POST"
            body = json.dumps(dict(document)).encode("utf-8")
            headers = {"Content-Type": "application/json"}
            if key is not None:
                headers["Idempotency-Key"] = key
            context = tracecontext.current()
            if context is not None and context.span_ref is not None:
                headers[tracecontext.TRACEPARENT_HEADER] = (
                    tracecontext.format_traceparent(context)
                )
        try:
            status, reply_headers, payload = self._pool.exchange(
                method, path, body, headers
            )
        except TimeoutError as exc:
            raise ServiceTimeout(
                f"request to {url} timed out after {self.timeout}s",
                cause=exc.__cause__,
            ) from exc.__cause__
        except ConnectionError as exc:
            raise ServiceConnectionError(
                f"connection to {url} failed: {exc}", cause=exc.__cause__
            ) from exc.__cause__
        content_type = reply_headers.get("Content-Type", "")
        if status >= 400:
            raise self._error_from(status, reply_headers, payload)
        if content_type.startswith("application/json"):
            return json.loads(payload.decode("utf-8"))
        return payload.decode("utf-8")

    @staticmethod
    def _parse_retry_after(value: Optional[str]) -> Optional[float]:
        """A usable Retry-After hint in seconds, else None.

        Absent, malformed, and non-positive headers all count as "no
        hint": a ``Retry-After: 0`` must not license an immediate
        retry against a server that is actively shedding.
        """
        if value is None:
            return None
        try:
            seconds = float(value)
        except ValueError:
            return None
        return seconds if seconds > 0 else None

    @staticmethod
    def _error_from(
        status: int, headers: Mapping[str, str], body: bytes
    ) -> ServiceClientError:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = None
        message = (
            payload.get("error")
            if isinstance(payload, dict) and "error" in payload
            else f"HTTP {status}"
        )
        retry_after = ServiceClient._parse_retry_after(
            headers.get("Retry-After")
        )
        if status == 429:
            # A shed without a usable hint still backs off a full
            # second — the server is overloaded even when it failed to
            # say for how long.
            return ServiceUnavailable(
                str(message),
                retry_after_seconds=(
                    retry_after if retry_after is not None else 1.0
                ),
                payload=payload if isinstance(payload, dict) else None,
            )
        return ServiceClientError(
            str(message),
            status=status,
            payload=payload if isinstance(payload, dict) else None,
            retry_after_seconds=retry_after,
        )

    # Endpoints -----------------------------------------------------------

    def solve(
        self,
        parameters: Optional[Mapping[str, float]] = None,
        n_instances: int = 2,
        n_pairs: int = 2,
        method: str = "auto",
        abstraction: str = "mttf",
        **config_fields: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/solve`` — availability of one parameter point."""
        document: Dict[str, Any] = {
            "n_instances": n_instances,
            "n_pairs": n_pairs,
            "method": method,
            "abstraction": abstraction,
            **config_fields,
        }
        if parameters:
            document["parameters"] = dict(parameters)
        return self._request("/v1/solve", document)

    def sweep(
        self,
        parameter: str = "Tstart_long_as",
        grid: Optional[Sequence[float]] = None,
        start: float = 0.5,
        stop: float = 3.0,
        points: int = 11,
        metric: str = "availability",
        parameters: Optional[Mapping[str, float]] = None,
        n_instances: int = 2,
        n_pairs: int = 2,
        **config_fields: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/sweep`` — one metric over a parameter grid."""
        document: Dict[str, Any] = {
            "n_instances": n_instances,
            "n_pairs": n_pairs,
            "parameter": parameter,
            "metric": metric,
            **config_fields,
        }
        if grid is not None:
            document["grid"] = [float(x) for x in grid]
        else:
            document.update(start=start, stop=stop, points=points)
        if parameters:
            document["parameters"] = dict(parameters)
        return self._request("/v1/sweep", document)

    def uncertainty(
        self,
        samples: int = 1000,
        seed: Optional[int] = None,
        metric: str = "yearly_downtime_minutes",
        parameters: Optional[Mapping[str, float]] = None,
        n_instances: int = 2,
        n_pairs: int = 2,
        **config_fields: Any,
    ) -> Dict[str, Any]:
        """``POST /v1/uncertainty`` — the Figs. 7/8 sampling analysis."""
        document: Dict[str, Any] = {
            "n_instances": n_instances,
            "n_pairs": n_pairs,
            "samples": samples,
            "metric": metric,
            **config_fields,
        }
        if seed is not None:
            document["seed"] = seed
        if parameters:
            document["parameters"] = dict(parameters)
        return self._request("/v1/uncertainty", document)

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness and queue/cache occupancy.

        Against a cluster router this is the aggregated cluster health
        document (per-shard health under ``"shards"``).
        """
        return self._request("/healthz")

    def metrics(self) -> str:
        """``GET /metrics`` — Prometheus text exposition.

        Against a cluster router, shard metrics carry a ``shard`` label.
        """
        return self._request("/metrics")

    def cluster_status(self) -> Dict[str, Any]:
        """``GET /cluster/status`` — ring membership and shard lifecycle
        (cluster router only)."""
        return self._request("/cluster/status")

    # Chaos surface (server must run with ``ServiceConfig(chaos=True)``) --

    def chaos_arm(
        self,
        point: str,
        count: int = 1,
        delay_seconds: Optional[float] = None,
        tag: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /chaos/arm`` — arm one injection point (chaos only)."""
        document: Dict[str, Any] = {"point": point, "count": count}
        if delay_seconds is not None:
            document["delay_seconds"] = delay_seconds
        if tag is not None:
            document["tag"] = tag
        return self._request("/chaos/arm", document)

    def chaos_status(self) -> Dict[str, Any]:
        """``GET /chaos/status`` — armed/fired tallies (chaos only)."""
        return self._request("/chaos/status")
