"""The HTTP/1.1 JSON front end shared by the shard server and the router.

:class:`~repro.service.server.AvailabilityServer` (one shard) and
:class:`~repro.service.cluster.ClusterServer` (the router in front of N
shards) speak the same protocol, so both run on this one front:

* :class:`RouteHandler` — reads the body under the core's size limit
  (413 after draining an oversized upload), decodes JSON (400 on
  failure), serves ``GET /metrics``, opens the ``Traceparent`` trace
  scope, and dispatches through the core's ``(method, path)`` route
  table (404 for anything else);
* :class:`FrontServer` — a ``ThreadingHTTPServer`` that counts reset
  connections instead of printing their tracebacks;
* :class:`HttpFront` — the socket lifecycle both servers inherit.

A *core* is the HTTP-agnostic object a server wraps
(:class:`~repro.service.server.AvailabilityService` or
:class:`~repro.service.cluster.ClusterService`).  The front needs four
things from it: ``routes()``, called once, returning the route table;
``metrics_text()``; ``close()``; and the body limit, passed to
:class:`HttpFront`.  A route is called as ``route(path, document,
headers)`` — ``document`` is the decoded JSON body (``None`` for a
GET) — and returns ``(status, payload, headers)``, where ``payload`` is
a JSON-able dict or already-encoded JSON bytes, or ``None`` to close
the connection without answering.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro import obs
from repro.obs import tracecontext

#: A JSON-able document, or JSON the server already holds as bytes.
Payload = Union[Dict[str, Any], bytes]
#: ``(status, payload, extra response headers)``.
Response = Tuple[int, Payload, Dict[str, str]]
#: ``route(path, document, request_headers)``; ``None`` drops the answer.
Route = Callable[[str, Any, Mapping[str, str]], Optional[Response]]


class RouteHandler(BaseHTTPRequestHandler):
    """One JSON request/response exchange against the route table."""

    server: "FrontServer"
    server_version = "repro-avail/1"
    protocol_version = "HTTP/1.1"
    # Keep-alive clients pipeline request/response exchanges on one
    # socket; without TCP_NODELAY the kernel holds the response body
    # segment until the peer's delayed ACK (~40 ms) arrives, which
    # would dominate sub-millisecond cache-hit latencies.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        # Route access logs through obs instead of bare stderr writes.
        obs.event("service.http", message=format % args)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client abandoned the socket — typically a deadline
            # timeout on a request that was still queued (the batcher
            # cannot cancel it, so the orphan was processed anyway).
            # Nobody is listening; drop the response without letting
            # socketserver splat a traceback per zombie request.
            obs.counter("service_responses_orphaned_total").inc()
            self.close_connection = True

    def _send_json(
        self,
        status: int,
        payload: Payload,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        self._send(status, body, "application/json", headers)

    def do_GET(self) -> None:
        if self.path == "/metrics":
            self._send(
                200,
                self.server.core.metrics_text().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        self._dispatch(None)

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        limit = self.server.max_body_bytes
        if length > limit:
            # Drain the oversized body in bounded chunks before
            # answering: responding mid-upload makes the client see a
            # reset instead of the 413, and leaving bytes unread would
            # poison connection reuse.
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 65536))
                if not chunk:
                    break
                remaining -= len(chunk)
            self._send_json(
                413, {"error": f"request body exceeds {limit} bytes"}
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return
        self._dispatch(document)

    def _dispatch(self, document: Any) -> None:
        route = self.server.routes.get((self.command, self.path))
        if route is None:
            self._send_json(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        trace_context = tracecontext.parse_traceparent(
            self.headers.get(tracecontext.TRACEPARENT_HEADER)
        )
        with tracecontext.trace_scope(trace_context):
            response = route(self.path, document, self.headers)
        if response is None:
            self.close_connection = True
            return
        self._send_json(*response)


class FrontServer(ThreadingHTTPServer):
    """Thread-per-connection server carrying the core and its routes."""

    daemon_threads = True
    # The default listen backlog (5) drops connections under bursts of
    # short-lived clients; load shedding belongs to the work queue, not
    # the accept queue.
    request_queue_size = 128

    def __init__(
        self, address: Tuple[str, int], core: Any, max_body_bytes: int
    ) -> None:
        super().__init__(address, RouteHandler)
        self.core = core
        self.max_body_bytes = max_body_bytes
        self.routes: Dict[Tuple[str, str], Route] = core.routes()

    def handle_error(self, request: Any, client_address: Any) -> None:
        # A client that hit its deadline tears the socket down while the
        # handler thread is still parked in readline(); stdlib
        # socketserver would print a full traceback per abandoned
        # keep-alive connection.  Count it instead — under deliberate
        # overload (chaos campaigns) these arrive by the hundreds.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            obs.counter("service_connections_reset_total").inc()
            return
        super().handle_error(request, client_address)


class HttpFront:
    """Socket lifecycle around one core: background or blocking serve,
    context manager.  The core is closed with the server, and also when
    the port cannot be bound."""

    def __init__(
        self, core: Any, host: str, port: int, max_body_bytes: int
    ) -> None:
        try:
            self._httpd = FrontServer((host, port), core, max_body_bytes)
        except OSError:
            core.close()
            raise
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HttpFront":
        """Serve on a background thread (returns immediately)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            self.close()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.core.close()

    def __enter__(self) -> "HttpFront":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
