"""Exception hierarchy for the evaluation service.

Every service-side failure derives from
:class:`~repro.exceptions.ReproError` via :class:`ServiceError`, so
embedding callers can keep a single ``except ReproError`` clause.  The
HTTP layer maps these onto status codes:

* :class:`BadRequest` -> 400 (malformed or invalid request document);
* :class:`Overloaded` -> 429 with a ``Retry-After`` header (the bounded
  work queue or heavy-endpoint slots are full — load is shed instead of
  queueing unboundedly);
* anything else -> 500.

The client raises the mirror-image :class:`ServiceClientError` /
:class:`ServiceUnavailable` when it receives those statuses back.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ReproError


class ServiceError(ReproError):
    """Base class for every error raised by :mod:`repro.service`."""


class BadRequest(ServiceError):
    """The request document is malformed or references unknown fields."""


class Overloaded(ServiceError):
    """The server's bounded work queue is full; retry after a delay."""

    def __init__(self, message: str, retry_after_seconds: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_seconds = float(retry_after_seconds)


class SchedulerStopped(ServiceError):
    """A request was submitted to a scheduler that has been shut down."""


class ServiceConnectionError(ServiceError):
    """The transport failed before an HTTP status arrived.

    Wraps every raw ``socket``-level failure the client can see —
    connection refused, connection reset, the server closing the socket
    without a response, a response the codec cannot frame — so retry
    logic and tests can match one typed error instead of the whole
    ``OSError`` zoo.  The original exception is attached as
    :attr:`cause` (and chained as ``__cause__``).
    """

    def __init__(
        self, message: str, cause: Optional[BaseException] = None
    ) -> None:
        super().__init__(message)
        self.cause = cause


class ServiceTimeout(ServiceConnectionError):
    """The request exceeded the client's configured timeout."""


class ServiceClientError(ServiceError):
    """The server answered with an error status.

    Attributes:
        status: HTTP status code.
        payload: Decoded error document (``{"error": ...}``) when the
            body was JSON, else ``None``.
    """

    def __init__(
        self,
        message: str,
        status: int,
        payload: Optional[dict] = None,
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.payload = payload
        # A server-provided Retry-After hint, on any status that
        # carried one (the cluster router sends it on 503 too).  None
        # when the header was absent or unusable.
        self.retry_after_seconds = (
            float(retry_after_seconds)
            if retry_after_seconds is not None
            else None
        )


class ServiceUnavailable(ServiceClientError):
    """The server shed this request (429); honor ``retry_after_seconds``."""

    def __init__(
        self,
        message: str,
        retry_after_seconds: float = 1.0,
        payload: Optional[dict] = None,
    ) -> None:
        super().__init__(
            message,
            status=429,
            payload=payload,
            retry_after_seconds=retry_after_seconds,
        )
