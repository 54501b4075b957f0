"""The HTTP/1.1 codec and JSON front end shared by every hop.

:class:`~repro.service.server.AvailabilityServer` (one shard) and
:class:`~repro.service.cluster.ClusterServer` (the router in front of N
shards) serve the same protocol, and every
:class:`~repro.service.client.HttpConnectionPool` (each
``ServiceClient``, and the router's forwards to its shards) speaks it
back, so all of them run on one small codec:

* :func:`read_headers` — the header-block reader: names lower-cased
  into a :class:`Headers` map whose lookups ignore case, at most
  :data:`MAX_LINE` bytes a line and :data:`MAX_HEADERS` lines, control
  characters (bar HTAB) rejected;
* :func:`body_length` — ``Content-Length`` is the only body framing
  spoken: ``Transfer-Encoding`` is refused (411), a malformed or
  conflicting length is a 400;
* the one-buffer writers — :func:`encode_request` and
  :meth:`RouteHandler._send` put the start line, the headers and the
  body of a message into one buffer for one ``sendall``.

The server half:

* :class:`RouteHandler` — serves one connection, one request at a
  time: reads the body under the core's size limit (413 after draining
  an oversized upload), decodes JSON (400 on failure), serves ``GET
  /metrics``, opens the ``Traceparent`` trace scope, and dispatches
  through the core's ``(method, path)`` route table (404 for anything
  else, 501 for a method other than GET and POST).  Every answer is
  JSON, framing errors included, and a framing error closes the
  connection.  Keep-alive is the HTTP/1.1 default; ``Connection:
  close`` and HTTP/1.0 (without ``Connection: keep-alive``) close after
  the answer, and ``Expect: 100-continue`` is answered with ``100
  Continue`` before the body is read;
* :class:`FrontServer` — a thread-per-connection TCP server that counts
  reset connections instead of printing their tracebacks and keeps
  every open connection, so closing it can end them;
* :class:`HttpFront` — the socket lifecycle both servers inherit; its
  :meth:`~HttpFront.close` ends every open connection before it closes
  the core.

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

import email.utils
import json
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro import obs
from repro.obs import tracecontext

#: A JSON-able document, or JSON the server already holds as bytes.
Payload = Union[Dict[str, Any], bytes]
#: ``(status, payload, extra response headers)``.
Response = Tuple[int, Payload, Dict[str, str]]
#: ``route(path, document, request_headers)``; ``None`` drops the answer.
Route = Callable[[str, Any, Mapping[str, str]], Optional[Response]]

#: Longest start or header line read, in bytes (as the stdlib reader).
MAX_LINE = 65536
#: Most header lines in one message (as the stdlib reader).
MAX_HEADERS = 100
#: How long :meth:`HttpFront.close` waits for requests already inside
#: the core to be answered before it shuts their sockets.
CLOSE_TIMEOUT_SECONDS = 5.0
_SERVER = "repro-avail/1"
_JSON_TYPE = "application/json"
_METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_TOKEN = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
_TARGET = re.compile(r"[^\x00-\x20\x7f]+")
_FIELD_VALUE = re.compile(r"[^\x00-\x08\x0a-\x1f\x7f]*")
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}"
    for status in HTTPStatus
}


class FramingError(ValueError):
    """A message the codec cannot frame; ``status`` is the answer a
    server gives it (the client treats it as a transport failure)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Headers(dict):
    """A header block keyed by lower-cased name; lookups ignore case."""

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def __contains__(self, name: str) -> bool:
        return super().__contains__(name.lower())

    def get(self, name: str, default: Any = None) -> Any:
        return super().get(name.lower(), default)


def read_headers(rfile: BinaryIO) -> Headers:
    """Read one header block, through its blank line or EOF.

    The first of repeated fields wins, except that two different
    ``Content-Length`` values are a framing error.
    """
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(
                431, f"header line longer than {MAX_LINE} bytes"
            )
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        value = value.strip(" \t\r\n")
        if not (
            colon and _TOKEN.fullmatch(name) and _FIELD_VALUE.fullmatch(value)
        ):
            raise FramingError(400, f"malformed header line {line[:64]!r}")
        name = name.lower()
        if name not in headers:
            headers[name] = value
        elif name == "content-length" and headers[name] != value:
            raise FramingError(400, "conflicting Content-Length headers")
    raise FramingError(431, f"more than {MAX_HEADERS} headers")


def body_length(headers: Headers) -> Optional[int]:
    """The ``Content-Length`` of a message, ``None`` when absent."""
    if "transfer-encoding" in headers:
        raise FramingError(
            411, "Transfer-Encoding is not supported; send Content-Length"
        )
    value = headers.get("content-length")
    if value is None:
        return None
    # 18 digits hold any int64 and keep int() far from its digit limit.
    if not (value.isascii() and value.isdigit() and len(value) <= 18):
        raise FramingError(400, f"invalid Content-Length {value[:32]!r}")
    return int(value)


def _encode(
    start: str, fields: Iterable[Tuple[str, str]], body: bytes
) -> bytes:
    lines = [start]
    lines.extend(f"{name}: {value}" for name, value in fields)
    lines.append("\r\n")
    return "\r\n".join(lines).encode("latin-1") + body


def encode_request(
    method: str,
    target: str,
    host: str,
    headers: Mapping[str, str],
    body: Optional[bytes],
) -> bytes:
    """One request message, ready for one ``sendall``.

    Raises :class:`ValueError` — before anything is sent — when the
    method or a header name is not a token, the target holds a space or
    a control character, or a header value holds a control character
    other than HTAB (a CR/LF there would smuggle in a second header or
    request).
    """
    if not _TOKEN.fullmatch(method) or not _TARGET.fullmatch(target):
        raise ValueError(f"invalid request line {method!r} {target!r}")
    for name, value in headers.items():
        if not _TOKEN.fullmatch(name) or not _FIELD_VALUE.fullmatch(value):
            raise ValueError(f"invalid header {name!r}: {value!r}")
    fields = [("Host", host)]
    if body is not None:
        fields.append(("Content-Length", str(len(body))))
    fields.extend(headers.items())
    return _encode(f"{method} {target} HTTP/1.1", fields, body or b"")


class RouteHandler(socketserver.StreamRequestHandler):
    """One connection: Content-Length-framed JSON requests against the
    route table, answered one at a time."""

    server: "FrontServer"
    # Keep-alive clients pipeline request/response exchanges on one
    # socket; without TCP_NODELAY the kernel holds a response segment
    # until the peer's delayed ACK (~40 ms) arrives, which would
    # dominate sub-millisecond cache-hit latencies.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        while self._serve_one():
            pass

    def _serve_one(self) -> bool:
        """Read and answer one request; ``False`` closes the connection."""
        self._request_line = ""
        self._keep_alive = False
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        if len(line) > MAX_LINE:
            return self._fail(
                414, f"request line longer than {MAX_LINE} bytes"
            )
        self._request_line = line.decode("latin-1").rstrip("\r\n")
        words = self._request_line.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return self._fail(400, f"bad request line {self._request_line!r}")
        method, path, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            return self._fail(505, f"unsupported protocol version {version!r}")
        try:
            headers = read_headers(self.rfile)
            length = body_length(headers) or 0
        except FramingError as exc:
            return self._fail(exc.status, str(exc))
        connection = headers.get("connection", "").lower()
        self._keep_alive = connection == "keep-alive" or (
            version == "HTTP/1.1" and connection != "close"
        )
        if (
            version == "HTTP/1.1"
            and headers.get("expect", "").lower() == "100-continue"
        ):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
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
            return self._send_json(
                413, {"error": f"request body exceeds {limit} bytes"}
            )
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            return self._fail(
                400, f"request body ended after {len(raw)} of {length} bytes"
            )
        return self._dispatch(method, path, headers, raw)

    def _dispatch(
        self, method: str, path: str, headers: Headers, raw: bytes
    ) -> bool:
        if method == "GET":
            if path == "/metrics":
                return self._send(
                    200,
                    self.server.core.metrics_text().encode("utf-8"),
                    _METRICS_TYPE,
                )
            document = None
        elif method == "POST":
            try:
                document = json.loads(raw.decode("utf-8")) if raw else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return self._send_json(
                    400, {"error": f"invalid JSON body: {exc}"}
                )
        else:
            return self._fail(501, f"unsupported method {method!r}")
        route = self.server.routes.get((method, path))
        if route is None:
            return self._send_json(
                404, {"error": f"unknown endpoint {path!r}"}
            )
        trace_context = tracecontext.parse_traceparent(
            headers.get(tracecontext.TRACEPARENT_HEADER)
        )
        with tracecontext.trace_scope(trace_context):
            response = route(path, document, headers)
        if response is None:
            return False
        return self._send_json(*response)

    def _fail(self, status: int, message: str) -> bool:
        """Answer a request the front refuses, then close."""
        self._keep_alive = False
        return self._send_json(status, {"error": message})

    def _send_json(
        self,
        status: int,
        payload: Payload,
        headers: Optional[Dict[str, str]] = None,
    ) -> bool:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        return self._send(status, body, _JSON_TYPE, headers)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> bool:
        """Write one response in one ``sendall``; ``False`` closes."""
        # Access logs go through obs, never bare stderr writes.
        obs.event("service.http", message=f'"{self._request_line}" {status} -')
        fields = [
            ("Server", _SERVER),
            ("Date", self.server.date()),
            ("Content-Type", content_type),
            ("Content-Length", str(len(body))),
        ]
        if headers:
            fields.extend(headers.items())
        if not self._keep_alive:
            fields.append(("Connection", "close"))
        start = _STATUS_LINES.get(status) or f"HTTP/1.1 {status} "
        try:
            self.connection.sendall(_encode(start, fields, body))
        except (BrokenPipeError, ConnectionResetError):
            # The client abandoned the socket — typically a deadline
            # timeout on a request that was still queued (the batcher
            # cannot cancel it, so the orphan was processed anyway).
            # Nobody is listening; drop the response without letting
            # socketserver splat a traceback per zombie request.
            obs.counter("service_responses_orphaned_total").inc()
            return False
        return self._keep_alive


class FrontServer(socketserver.ThreadingTCPServer):
    """Thread-per-connection server carrying the core and its routes."""

    daemon_threads = True
    allow_reuse_address = True
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
        self._date = (0, "")
        #: Open connections and the handler thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        # ThreadingMixIn's, plus the connection table: the entry is made
        # on the accept thread, so once shutdown() has returned every
        # connection this server took is in it.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=self.daemon_threads,
        )
        with self._connections_lock:
            self._connections[request] = thread
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self._connections_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def end_connections(self, timeout: float) -> None:
        """End every open connection; call after :meth:`shutdown`.

        Reads stop first, so a handler parked between requests sees EOF
        and closes its socket at once.  A handler whose request is
        inside the core gets ``timeout`` seconds to answer; after that
        its socket is shut both ways, so the client sees the connection
        close, and the handler ends when the core returns.
        """
        with self._connections_lock:
            connections = list(self._connections.items())
        for request, _ in connections:
            _shutdown_socket(request, socket.SHUT_RD)
        deadline = time.monotonic() + timeout
        for request, thread in connections:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                _shutdown_socket(request, socket.SHUT_RDWR)

    def date(self) -> str:
        """The ``Date`` header value, formatted once per second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            self._date = (now, text)
        return text

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


def _shutdown_socket(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:  # already closed by its handler
        pass


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
        """Stop accepting, end every open connection, close the core.

        Idle keep-alive clients read EOF at once.  A request already
        inside the core is answered if it finishes within
        :data:`CLOSE_TIMEOUT_SECONDS`; otherwise its client sees the
        connection close unanswered.
        """
        # serve_forever() polls its stop flag every 0.5 s.  On Linux,
        # SHUT_RD on the listening socket wakes its select at once, and
        # the accept that follows fails with EINVAL, which socketserver
        # ignores; the socket stays readable, so the loop turns over
        # until shutdown() sets the flag (one thread switch, about
        # 5 ms at most).  Elsewhere the poll still ends the loop.
        _shutdown_socket(self._httpd.socket, socket.SHUT_RD)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.end_connections(CLOSE_TIMEOUT_SECONDS)
        self._httpd.core.close()

    def __enter__(self) -> "HttpFront":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
