"""Consistent-hash sharded service cluster: router, shards, failover.

One :class:`ClusterServer` process fronts *N* shard processes, each a
full :class:`~repro.service.server.AvailabilityServer` (micro-batcher,
content-addressed solve cache, optional pre-forked solver pool).  The
router consistent-hashes every request's ``Idempotency-Key`` — the
SHA-256 the client already computes over ``(path, body)`` — onto the
shard ring, so repeated and retried requests land on the *same* shard
and the solve caches are shard-local partitions instead of N duplicated
copies.  Aggregate cache capacity therefore scales with the shard
count, which is where the cluster's throughput win comes from on a
machine whose CPU is already saturated by one solver.

Failure handling:

* a **health monitor** thread polls shard liveness every
  ``health_interval_seconds``; a dead shard is evicted from the ring,
  respawned, and re-admitted once its replacement answers ``/healthz``;
* the **forward path** treats a connection error as evidence, not
  proof: if the shard process is alive the router flushes that shard's
  keep-alive pool (a stale socket) and retries it once; if it is dead
  the router evicts it, kicks off the respawn, and retries the next
  distinct node clockwise — exactly the shard that inherits the key
  after eviction, so the failover request warms the entry's new home;
* a **timeout** is not failover (slow is not dead): the router answers
  504 and leaves membership alone;
* an **empty ring** (every shard mid-respawn) answers 503 with
  ``Retry-After`` so the client's normal retry policy carries it over
  the gap.

Requests are idempotent end to end (content-addressed solves plus the
``Idempotency-Key`` header), which is what makes the router's retries
safe.

Observability: ``GET /healthz`` aggregates every shard's health
document under the router's own; ``GET /metrics`` concatenates the
shards' Prometheus expositions with an injected ``shard="shard-N"``
label (:func:`repro.obs.sinks.relabel_prometheus`) plus the router's
own counters labeled ``shard="router"``; ``GET /cluster/status``
reports ring membership and shard lifecycle (pid, port, generation,
respawn count).

Chaos: with ``ClusterConfig(chaos=True)`` the router installs its own
:class:`~repro.chaos.injector.ChaosInjector` and exposes
``/chaos/arm`` + ``/chaos/status`` for the *cluster-level* point
``shard.death`` — when armed, the router SIGKILLs the tagged shard
right before forwarding a request, which must then survive via
failover (the contract :mod:`repro.chaos.failover` drills).
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import chaos, obs
from repro.chaos.injector import (
    CLUSTER_INJECTION_POINTS,
    NULL_INJECTOR,
    POINT_SHARD_DEATH,
    ChaosInjector,
)
from repro.obs import tracecontext
from repro.obs.recorder import NULL_RECORDER
from repro.obs.sinks import relabel_prometheus, render_prometheus
from repro.service.client import HttpConnectionPool, idempotency_key
from repro.service.config import ServiceConfig
from repro.service.errors import BadRequest, ServiceError
from repro.service.http import HttpFront, Response, Route
from repro.service.ring import DEFAULT_REPLICAS, ConsistentHashRing
from repro.service.server import V1_ENDPOINTS


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for one :class:`ClusterServer` (router + N shards).

    Attributes:
        host: Router bind address.
        port: Router TCP port; ``0`` asks the OS (tests).
        n_shards: Shard processes to spawn and keep alive.
        shard: Template :class:`ServiceConfig` every shard is built
            from; each shard gets ``host="127.0.0.1"``, ``port=0`` (the
            OS picks) and ``chaos=False`` (chaos lives at the router —
            single-server campaigns drill the in-shard points).
        replicas: Virtual nodes per shard on the consistent-hash ring.
        health_interval_seconds: Liveness poll period of the monitor.
        shard_start_timeout_seconds: How long to wait for a (re)spawned
            shard's ready handshake before declaring the spawn failed.
        forward_timeout_seconds: Socket timeout per forwarded request.
        chaos: Install a router-side injector and expose the
            ``/chaos`` endpoints for cluster-level points.
        chaos_seed: Seed for that injector's rate-mode streams.
        trace_dir: Distributed-trace directory shared by the whole
            cluster: the router and every shard (and every shard's
            pre-forked workers) write their per-process span files
            here, and :mod:`repro.obs.collect` merges them back into
            cross-process trace trees.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    n_shards: int = 2
    shard: ServiceConfig = field(default_factory=ServiceConfig)
    replicas: int = DEFAULT_REPLICAS
    health_interval_seconds: float = 0.25
    shard_start_timeout_seconds: float = 30.0
    forward_timeout_seconds: float = 30.0
    chaos: bool = False
    chaos_seed: Optional[int] = None
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise BadRequest(f"invalid port {self.port}")
        if self.n_shards < 1:
            raise BadRequest(f"n_shards must be >= 1, got {self.n_shards}")
        if self.replicas < 1:
            raise BadRequest(f"replicas must be >= 1, got {self.replicas}")
        if self.health_interval_seconds <= 0:
            raise BadRequest(
                f"health_interval_seconds must be positive, "
                f"got {self.health_interval_seconds}"
            )
        if self.shard_start_timeout_seconds <= 0:
            raise BadRequest(
                f"shard_start_timeout_seconds must be positive, "
                f"got {self.shard_start_timeout_seconds}"
            )
        if self.forward_timeout_seconds <= 0:
            raise BadRequest(
                f"forward_timeout_seconds must be positive, "
                f"got {self.forward_timeout_seconds}"
            )

    def shard_config(self, name: Optional[str] = None) -> ServiceConfig:
        """The per-shard :class:`ServiceConfig` derived from the template.

        ``name`` (e.g. ``"shard-2"``) becomes the shard's process label
        in cross-process traces; the cluster's ``trace_dir`` overrides
        the template's so all per-process files land in one directory.
        """
        return dataclasses.replace(
            self.shard,
            host="127.0.0.1",
            port=0,
            chaos=False,
            trace_dir=(
                self.trace_dir
                if self.trace_dir is not None
                else self.shard.trace_dir
            ),
            process_label=(
                name if name is not None else self.shard.process_label
            ),
        )


def _shard_main(conn: Any, config: ServiceConfig) -> None:
    """Entry point of one forked shard process.

    Fork hygiene first: the child inherits the router's globally
    installed recorder and injector; both are reset so the shard's
    :class:`AvailabilityService` builds its own registry and the
    router's chaos arms never leak into shards.  Then the shard boots a
    full server on an OS-assigned port, reports ``("ready", port)``
    through the pipe, and serves until killed.
    """
    obs.set_recorder(NULL_RECORDER)
    chaos.set_injector(NULL_INJECTOR)
    signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
    # The router spawns shards daemonic (so a crashed router never
    # leaks them), but a daemonic process may not fork children — which
    # a shard with ``worker_processes > 0`` must (its solver pool).
    # Clearing the flag inside the child lifts that restriction without
    # changing how the *router* tracks or reaps this process.
    import multiprocessing

    multiprocessing.current_process()._config["daemon"] = False
    from repro.service.server import AvailabilityServer

    try:
        server = AvailabilityServer(config)
    except Exception as exc:  # noqa: BLE001 - reported to the router
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    # Re-bind SIGTERM now that the server exists: a plain ``os._exit``
    # would orphan the shard's pre-forked solver workers (they only
    # notice a *vanished* parent on their poll loop; a clean router
    # shutdown should not rely on that).
    def _terminate(*_: Any) -> None:
        pool = server.service.pool
        if pool is not None:
            pool.terminate()
        os._exit(0)

    signal.signal(signal.SIGTERM, _terminate)
    conn.send(("ready", server.address[1]))
    conn.close()
    server.serve_forever()


class Shard:
    """Lifecycle record of one shard process slot.

    The *name* is the ring identity and survives respawns — the
    replacement process inherits the dead shard's arcs, so the keys it
    owned come back to the same slot (with a cold cache).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.process: Any = None
        self.port: int = 0
        self.generation = 0
        self.respawns = 0
        self.started_at = 0.0
        #: Serializes recovery: the health monitor and the forward path
        #: can both notice the same death; only one may respawn.
        self.respawn_lock = threading.Lock()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def status(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
            "generation": self.generation,
            "respawns": self.respawns,
        }


class ClusterService:
    """The HTTP-agnostic router core: ring, shard lifecycle, forwarding.

    The HTTP layer (:class:`ClusterServer`) only parses and serializes;
    every decision — routing, failover, respawn, aggregation — lives
    here so tests can drive it directly.
    """

    #: Headers copied from a shard response to the client.
    _FORWARD_HEADERS = ("Retry-After",)

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.started_at = time.time()
        if self.config.trace_dir is not None:
            obs.set_process_label("router")
        self._recorder, self._restore_recorder = obs.install_process_recorder(
            self.config.trace_dir, "router"
        )
        self.injector: Optional[ChaosInjector] = None
        self._previous_injector = None
        if self.config.chaos:
            self.injector = ChaosInjector(seed=self.config.chaos_seed)
            self._previous_injector = chaos.set_injector(self.injector)
        for name in (
            "cluster_requests_total",
            "cluster_failovers_total",
            "cluster_shard_deaths_detected_total",
            "cluster_shard_respawns_total",
            "cluster_shed_total",
        ):
            obs.counter(name)
        # Router-local request latency, exported from /metrics under
        # component="router" (shards report their own service_request_
        # seconds; without this the router's own latency was invisible).
        obs.histogram("cluster_request_seconds")
        import multiprocessing

        self._context = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._ring = ConsistentHashRing(replicas=self.config.replicas)
        self._shards: Dict[str, Shard] = {}
        self._pools: Dict[str, HttpConnectionPool] = {}
        #: Set by close(); the health monitor waits on it, so a close
        #: never waits out a poll interval.
        self._closing = threading.Event()
        try:
            for index in range(self.config.n_shards):
                shard = Shard(f"shard-{index}")
                self._shards[shard.name] = shard
                self._spawn(shard)
        except Exception:
            self.close()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop,
            name="repro-cluster-monitor",
            daemon=True,
        )
        self._monitor.start()

    # Shard lifecycle -----------------------------------------------------

    def _spawn(self, shard: Shard) -> None:
        """Start (or restart) ``shard``'s process and admit it to the ring.

        Called under no particular lock for the initial boot (still
        single-threaded) and with :attr:`_lock` *not* held on respawns —
        the fork plus ready handshake can take a while and must not
        block routing of traffic to the surviving shards.
        """
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_shard_main,
            args=(child_conn, self.config.shard_config(shard.name)),
            name=f"repro-{shard.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = time.monotonic() + self.config.shard_start_timeout_seconds
        try:
            if not parent_conn.poll(max(0.0, deadline - time.monotonic())):
                process.kill()
                raise ServiceError(
                    f"{shard.name} did not report ready within "
                    f"{self.config.shard_start_timeout_seconds}s"
                )
            kind, value = parent_conn.recv()
        finally:
            parent_conn.close()
        if kind != "ready":
            raise ServiceError(f"{shard.name} failed to boot: {value}")
        with self._lock:
            old_pool = self._pools.pop(shard.name, None)
            shard.process = process
            shard.port = int(value)
            shard.generation += 1
            shard.started_at = time.time()
            self._pools[shard.name] = HttpConnectionPool(
                "127.0.0.1", shard.port, self.config.forward_timeout_seconds
            )
            self._ring.add(shard.name)
        if old_pool is not None:
            old_pool.close()
        obs.event(
            "cluster.shard.ready",
            shard=shard.name,
            port=shard.port,
            generation=shard.generation,
        )

    def _evict(self, shard: Shard) -> None:
        """Drop a dead shard from the ring and its pooled connections."""
        with self._lock:
            evicted = shard.name in self._ring
            self._ring.remove(shard.name)
            pool = self._pools.pop(shard.name, None)
        if pool is not None:
            pool.close()
        if evicted:
            obs.counter("cluster_shard_deaths_detected_total").inc()
            obs.event("cluster.shard.dead", shard=shard.name, pid=shard.pid)

    def _recover(self, shard: Shard) -> None:
        """Evict-and-respawn one dead shard, exactly once per death."""
        with shard.respawn_lock:
            if self._closing.is_set() or shard.alive:
                return
            self._evict(shard)
            shard.respawns += 1
            obs.counter("cluster_shard_respawns_total").inc()
            try:
                self._spawn(shard)
            except ServiceError as exc:  # pragma: no cover - spawn race
                obs.event(
                    "cluster.shard.respawn_failed",
                    shard=shard.name,
                    error=str(exc),
                )

    def _monitor_loop(self) -> None:
        """Evict and respawn dead shards until the router closes."""
        while not self._closing.wait(self.config.health_interval_seconds):
            for shard in list(self._shards.values()):
                if self._closing.is_set():
                    return
                if not shard.alive:
                    self._recover(shard)

    def kill_shard(self, name: str) -> int:
        """SIGKILL one shard process (chaos / drills); returns its pid.

        Eviction and respawn are left to the normal detection paths —
        this is exactly the black-box crash the failover machinery must
        notice on its own.
        """
        shard = self._shards.get(name)
        if shard is None:
            raise BadRequest(f"unknown shard {name!r}")
        if shard.process is None or not shard.alive:
            raise ServiceError(f"{name} is not running")
        pid = shard.process.pid
        # Emitted BEFORE the SIGKILL: the health monitor can notice the
        # death (cluster.shard.dead) within its poll interval, and the
        # measurement pipeline derives the detect phase from the
        # killed->dead gap — which must never come out negative.
        obs.event("cluster.shard.killed", shard=name, pid=pid)
        shard.process.kill()
        shard.process.join(timeout=5.0)
        return pid

    # Routing -------------------------------------------------------------

    def routing_key(
        self, path: str, document: Mapping[str, Any], header_key: Optional[str]
    ) -> str:
        """The consistent-hash key for one request.

        The client's ``Idempotency-Key`` header when present (so a
        retry routes identically even if the body re-serializes
        differently), else the same digest computed server-side.
        """
        return header_key or idempotency_key(path, document)

    def route(self, key: str) -> str:
        """Current owner shard for ``key`` (diagnostics/tests)."""
        with self._lock:
            return self._ring.route(key)

    def forward(
        self,
        path: str,
        document: Mapping[str, Any],
        header_key: Optional[str] = None,
    ) -> Response:
        """Route one ``/v1/*`` request to its owner shard, failing over.

        Returns ``(status, payload, headers)`` like
        :meth:`AvailabilityService.handle`, except that a shard's answer
        is its response body bytes, relayed verbatim.  Under an active
        trace scope (the HTTP front opens the client's ``Traceparent``)
        a ``router.forward`` span wraps the whole walk, each try gets a
        ``router.attempt`` child (the failover hop is the attempt with
        ``failover=True``), and the header forwarded to the shard names
        the attempt span, so shard and worker spans parent under it.
        """
        obs.counter("cluster_requests_total", endpoint=path).inc()
        started = time.perf_counter()
        with obs.span("router.forward", endpoint=path):
            result = self._forward_with_failover(path, document, header_key)
        obs.histogram("cluster_request_seconds", endpoint=path).observe(
            time.perf_counter() - started
        )
        return result

    def _forward_with_failover(
        self,
        path: str,
        document: Mapping[str, Any],
        header_key: Optional[str],
    ) -> Response:
        key = self.routing_key(path, document, header_key)
        body = json.dumps(dict(document)).encode("utf-8")
        base_headers = {
            "Content-Type": "application/json",
            "Idempotency-Key": key,
        }
        injection = chaos.fire(POINT_SHARD_DEATH) if self.injector else None
        if injection is not None:
            self._inject_shard_death(injection, key)
        # Bounded walk: every shard once, plus one retry against a
        # respawned owner; beyond that the cluster is genuinely down.
        attempts = 2 * max(1, len(self._shards)) + 1
        retried_alive: set = set()
        failed_over = False
        for attempt_number in range(attempts):
            with self._lock:
                try:
                    owner = self._ring.route(key)
                except ServiceError:
                    owner = None
                pool = self._pools.get(owner) if owner else None
            if owner is None or pool is None:
                time.sleep(self.config.health_interval_seconds)
                continue
            shard = self._shards[owner]
            try:
                with obs.span(
                    "router.attempt",
                    shard=owner,
                    attempt=attempt_number + 1,
                    failover=failed_over,
                ):
                    headers = dict(base_headers)
                    # Rebuilt per attempt: each try is its own span, and
                    # the shard must parent under the try that reached it.
                    attempt_context = tracecontext.current()
                    if (
                        attempt_context is not None
                        and attempt_context.span_ref is not None
                    ):
                        headers[tracecontext.TRACEPARENT_HEADER] = (
                            tracecontext.format_traceparent(attempt_context)
                        )
                    status, reply_headers, payload = pool.exchange(
                        "POST", path, body, headers
                    )
                    return status, payload, {
                        name: reply_headers[name]
                        for name in self._FORWARD_HEADERS
                        if reply_headers.get(name)
                    }
            except TimeoutError:
                # Slow is not dead: answer 504, leave membership alone.
                return (
                    504,
                    {"error": f"{owner} timed out after "
                              f"{self.config.forward_timeout_seconds}s"},
                    {},
                )
            except ConnectionError:
                if shard.alive and owner not in retried_alive:
                    # A live process behind a failed socket: the pooled
                    # keep-alive connection went stale.  Flush the pool
                    # and retry the same owner once.
                    retried_alive.add(owner)
                    pool.close()
                    with self._lock:
                        if self._pools.get(owner) is pool:
                            self._pools[owner] = HttpConnectionPool(
                                "127.0.0.1",
                                shard.port,
                                self.config.forward_timeout_seconds,
                            )
                    continue
                failed_over = True
                obs.counter("cluster_failovers_total").inc()
                # Evict inline so the very next route() already skips
                # the dead shard; recovery (respawn + re-admission) runs
                # off-path so surviving shards keep taking traffic.
                self._evict(shard)
                threading.Thread(
                    target=self._recover, args=(shard,), daemon=True
                ).start()
        obs.counter("cluster_shed_total").inc()
        return (
            503,
            {"error": "no shard available", "retry_after_seconds": 1},
            {"Retry-After": "1"},
        )

    def _inject_shard_death(self, injection: Any, key: str) -> None:
        """Act on an armed ``shard.death``: kill the tagged shard.

        The injection's ``tag`` names the victim (``"shard-2"``); with
        no tag the key's current owner dies — the worst case, since the
        in-flight request must then fail over.
        """
        victim = injection.tag
        if victim not in self._shards:
            with self._lock:
                try:
                    victim = self._ring.route(key)
                except ServiceError:
                    return
        try:
            self.kill_shard(victim)
        except ServiceError:
            pass

    # Aggregation ---------------------------------------------------------

    def _shard_get(self, shard: Shard, path: str) -> Optional[Any]:
        """Best-effort GET against one shard; ``None`` when unreachable."""
        with self._lock:
            pool = self._pools.get(shard.name)
        if pool is None:
            return None
        try:
            status, headers, payload = pool.exchange("GET", path)
        except (TimeoutError, ConnectionError):
            return None
        if status != 200:
            return None
        text = payload.decode("utf-8")
        if headers.get("Content-Type", "").startswith("application/json"):
            return json.loads(text)
        return text

    def healthz(self) -> Response:
        """Cluster health: the router's view plus every shard's own."""
        shards: Dict[str, Any] = {}
        healthy = 0
        for shard in self._shards.values():
            health = self._shard_get(shard, "/healthz") if shard.alive else None
            if health is not None:
                healthy += 1
                shards[shard.name] = health
            else:
                shards[shard.name] = {"status": "unreachable"}
        with self._lock:
            ring_nodes = list(self._ring.nodes)
        status = "ok" if healthy == len(self._shards) else (
            "degraded" if healthy else "down"
        )
        payload = {
            "status": status,
            "role": "router",
            "uptime_seconds": time.time() - self.started_at,
            "n_shards": len(self._shards),
            "shards_healthy": healthy,
            "ring": ring_nodes,
            "shards": shards,
        }
        return (200 if healthy else 503), payload, {}

    def metrics_text(self) -> str:
        """Shard expositions with ``shard`` labels, router's last.

        Every sample also carries a ``component`` label (``"shard"`` /
        ``"router"``), so the router's own instruments — notably the
        ``cluster_request_seconds`` latency histogram — are queryable
        without knowing the magic ``shard="router"`` value.
        """
        sections = []
        for shard in self._shards.values():
            if not shard.alive:
                continue
            text = self._shard_get(shard, "/metrics")
            if isinstance(text, str) and text:
                sections.append(
                    relabel_prometheus(
                        text, shard=shard.name, component="shard"
                    )
                )
        sections.append(
            relabel_prometheus(
                render_prometheus(self._recorder.metrics),
                shard="router",
                component="router",
            )
        )
        return "".join(
            section if section.endswith("\n") else section + "\n"
            for section in sections if section
        )

    def cluster_status(self) -> Dict[str, Any]:
        """Ring membership and shard lifecycle (``/cluster/status``).

        Each live shard's entry additionally reports its current
        ``queue_depth`` and ``cache_hit_rate`` (from the shard's own
        ``/healthz``), so an availability dip in the measurement report
        can be correlated with load shedding or cache-cold shards.
        """
        with self._lock:
            ring_nodes = list(self._ring.nodes)
        shards: Dict[str, Any] = {}
        for shard in self._shards.values():
            entry = shard.status()
            health = (
                self._shard_get(shard, "/healthz") if shard.alive else None
            )
            if isinstance(health, dict):
                entry["queue_depth"] = health.get("queue_depth")
                entry["cache_hit_rate"] = health.get("cache_hit_rate")
                entry["cache_entries"] = health.get("cache_entries")
            else:
                entry["queue_depth"] = None
                entry["cache_hit_rate"] = None
                entry["cache_entries"] = None
            shards[shard.name] = entry
        return {
            "role": "router",
            "uptime_seconds": time.time() - self.started_at,
            "n_shards": len(self._shards),
            "replicas": self.config.replicas,
            "ring": ring_nodes,
            "shards": shards,
        }

    def routes(self) -> Dict[Tuple[str, str], Route]:
        """The ``(method, path)`` table the shared HTTP front dispatches on.

        The ``/chaos`` endpoints exist only when the config opted into
        chaos, as on a shard.
        """
        table: Dict[Tuple[str, str], Route] = {
            ("GET", "/healthz"): lambda *_: self.healthz(),
            ("GET", "/cluster/status"): lambda *_: (
                200, self.cluster_status(), {}
            ),
        }
        for path in V1_ENDPOINTS:
            table["POST", path] = self._serve_forward
        if self.injector is not None:
            injector = self.injector
            table["GET", "/chaos/status"] = lambda *_: (
                200, injector.status(), {}
            )
            table["POST", "/chaos/arm"] = lambda path, document, headers: (
                *self.chaos_arm(document), {}
            )
        return table

    def _serve_forward(
        self, path: str, document: Any, headers: Mapping[str, str]
    ) -> Response:
        if not isinstance(document, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        return self.forward(path, document, headers.get("Idempotency-Key"))

    def chaos_arm(self, document: Any) -> Tuple[int, Dict[str, Any]]:
        """Arm a cluster-level injection point (``/chaos/arm``)."""
        if self.injector is None:
            return 404, {"error": "chaos surface is disabled"}
        if not isinstance(document, dict):
            return 400, {"error": "request body must be a JSON object"}
        point = document.get("point")
        if point not in CLUSTER_INJECTION_POINTS:
            return 400, {
                "error": (
                    f"unknown cluster injection point {point!r}; expected "
                    f"one of {list(CLUSTER_INJECTION_POINTS)} (in-shard "
                    "points are armed on a single server)"
                )
            }
        count = document.get("count", 1)
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            return 400, {"error": f"'count' must be a positive int: {count!r}"}
        tag = document.get("tag")
        if tag is not None and not isinstance(tag, str):
            return 400, {"error": f"'tag' must be a string, got {tag!r}"}
        self.injector.arm(point, count=count, tag=tag)
        return 200, {"armed": point, "count": count, **self.injector.status()}

    def close(self) -> None:
        """Stop the monitor, terminate every shard, restore globals."""
        self._closing.set()
        monitor = getattr(self, "_monitor", None)
        if monitor is not None and monitor.is_alive():
            monitor.join(
                timeout=self.config.health_interval_seconds * 4 + 1.0
            )
        for shard in self._shards.values():
            # The respawn lock serializes this sweep with any in-flight
            # _recover thread: without it, a recovery that passed its
            # _closing check could finish spawning a replacement right
            # after this loop read the old (dead) process and leak the
            # new one until interpreter exit.
            with shard.respawn_lock:
                if shard.process is not None and shard.process.is_alive():
                    shard.process.terminate()
        for shard in self._shards.values():
            if shard.process is not None:
                shard.process.join(timeout=5.0)
                if shard.process.is_alive():  # pragma: no cover - stuck child
                    shard.process.kill()
                    shard.process.join(timeout=5.0)
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()
        if self.injector is not None:
            chaos.set_injector(self._previous_injector)
            self.injector = None
        if self._restore_recorder is not None:
            self._restore_recorder()
            self._restore_recorder = None


class ClusterServer(HttpFront):
    """Socket lifecycle around one :class:`ClusterService`.

    Usage (embedded / tests)::

        with ClusterServer(ClusterConfig(port=0, n_shards=4)) as router:
            client = ServiceClient(router.url)
            client.solve()          # routed to the key's owner shard

    or blocking (``repro-avail serve --shards N``)::

        ClusterServer(config).serve_forever()
    """

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        self.cluster = ClusterService(self.config)
        super().__init__(
            self.cluster,
            self.config.host,
            self.config.port,
            self.config.shard.max_body_bytes,
        )
