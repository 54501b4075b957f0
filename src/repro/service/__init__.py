"""repro.service — a batching availability-evaluation server.

The ROADMAP's north star is a system that serves heavy query traffic,
and availability evaluation *is* an online workload (Bibartiu et al.,
arXiv:2306.13334): dashboards poll configurations, planners sweep
parameters, CI pipelines re-assess deployments.  This package exposes
the JSAS/hierarchical model stack as a long-running, overload-safe
evaluation server instead of an in-process library call:

* :mod:`~repro.service.fingerprint` — content-addressed request hashes
  over canonically serialized models + parameters;
* :mod:`~repro.service.cache` — a thread-safe LRU solve cache with
  single-flight compute and JSONL spill/warm-start;
* :mod:`~repro.service.scheduler` — a work-conserving micro-batcher
  that turns queued same-shape requests into one ``solve_batch``
  dispatch;
* :mod:`~repro.service.server` — the JSON API (``/v1/solve``,
  ``/v1/sweep``, ``/v1/uncertainty``, ``/healthz``, ``/metrics``) with
  bounded queues that shed load with 429 + ``Retry-After`` rather than
  queueing unboundedly (metastable overload is a failure mode in its
  own right — Alvaro et al., arXiv:2510.03551);
* :mod:`~repro.service.http` — the small HTTP/1.1 codec every hop
  speaks, and the thread-per-connection JSON front end that a shard
  server and the cluster router both run on;
* :mod:`~repro.service.client` — the keep-alive client (and the
  connection pool the router forwards through) on the same codec.

Start one with ``repro-avail serve`` or embed it::

    from repro.service import AvailabilityServer, ServiceClient, ServiceConfig

    with AvailabilityServer(ServiceConfig(port=0)) as server:
        client = ServiceClient(server.url)
        print(client.solve()["availability"])

Service responses are bit-identical to direct
:meth:`~repro.hierarchy.HierarchicalModel.solve` calls (the compiled
one-point solve); see ``docs/service_guide.md``.
"""

from repro.service.cache import SolveCache
from repro.service.client import (
    HttpConnectionPool,
    RetryPolicy,
    ServiceClient,
    idempotency_key,
)
from repro.service.cluster import ClusterConfig, ClusterServer, ClusterService
from repro.service.config import ServiceConfig
from repro.service.errors import (
    BadRequest,
    Overloaded,
    SchedulerStopped,
    ServiceClientError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.fingerprint import (
    hierarchy_fingerprint,
    model_fingerprint,
    parameter_fingerprint,
    solve_fingerprint,
)
from repro.service.ring import ConsistentHashRing
from repro.service.scheduler import MicroBatcher, Ticket
from repro.service.server import (
    AvailabilityServer,
    AvailabilityService,
)

__all__ = [
    "AvailabilityServer",
    "AvailabilityService",
    "BadRequest",
    "ClusterConfig",
    "ClusterServer",
    "ClusterService",
    "ConsistentHashRing",
    "HttpConnectionPool",
    "MicroBatcher",
    "Overloaded",
    "RetryPolicy",
    "SchedulerStopped",
    "ServiceClient",
    "ServiceClientError",
    "ServiceConfig",
    "ServiceConnectionError",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "SolveCache",
    "Ticket",
    "hierarchy_fingerprint",
    "idempotency_key",
    "model_fingerprint",
    "parameter_fingerprint",
    "solve_fingerprint",
]
