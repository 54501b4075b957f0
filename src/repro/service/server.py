"""The availability-evaluation server.

Two layers:

* :class:`AvailabilityService` — the HTTP-agnostic core.  It owns the
  solve cache, the micro-batcher, the heavy-endpoint admission slots
  and the metrics recorder, and maps request documents to response
  documents.  Tests drive it directly; the HTTP layer stays thin.
* :class:`AvailabilityServer` — the JSON API on top, served by the
  shared front end in :mod:`repro.service.http`: ``POST /v1/solve``,
  ``POST /v1/sweep``, ``POST /v1/uncertainty``, ``GET /healthz``,
  ``GET /metrics`` (Prometheus text exposition re-using
  :mod:`repro.obs.sinks`).

Request lifecycle for ``/v1/solve``:

1. the request is fingerprinted
   (:mod:`repro.service.fingerprint`) — a content hash over the fully
   serialized hierarchy, method/abstraction, and normalized parameters;
2. the solve cache answers hits immediately and single-flights
   concurrent identical requests;
3. misses are submitted to the micro-batcher, which coalesces
   concurrent requests against the same compiled hierarchy into one
   ``solve_batch`` dispatch;
4. when the scheduler's bounded queue (or the heavy-endpoint slots for
   sweep/uncertainty) is full, the request is shed with **429** and a
   ``Retry-After`` header instead of queueing unboundedly.

Results are bit-identical to direct :meth:`HierarchicalModel.solve`
calls, the compiled one-point solve — enforced by
``tests/service/test_server.py`` against the fig7 Config 1 oracle.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro import chaos, obs
from repro.chaos.injector import INJECTION_POINTS, ChaosInjector
from repro.ctmc.batch import BATCH_METHODS
from repro.ctmc.rewards import ABSTRACTIONS
from repro.exceptions import ReproError
from repro.hierarchy import HierarchicalResult
from repro.models.jsas import PAPER_PARAMETERS, JsasConfiguration
from repro.obs import tracecontext
from repro.obs.sinks import render_prometheus
from repro.service.cache import SolveCache
from repro.service.config import ServiceConfig
from repro.service.errors import BadRequest, Overloaded, ServiceError
from repro.service.fingerprint import (
    HierarchyFingerprinter,
    parameter_fingerprint,
    solve_fingerprint,
)
from repro.service.http import HttpFront, Response, Route
from repro.service.scheduler import MicroBatcher

#: Version of the response payload layout.
RESPONSE_SCHEMA = 1


def _valid_cached_payload(payload: Any) -> bool:
    """Read-time integrity check for cached response payloads.

    Every payload the service stores is a dict stamped with
    ``RESPONSE_SCHEMA``; anything else (a corrupted entry injected by
    chaos, or garbage replayed from a damaged spill file) is dropped by
    the cache and recomputed instead of served.
    """
    return isinstance(payload, dict) and payload.get("schema") == RESPONSE_SCHEMA

_CONFIG_KEYS = ("n_instances", "n_pairs", "n_spares", "repair_policy")
_COMMON_KEYS = _CONFIG_KEYS + ("parameters", "method", "abstraction")
_ALLOWED_KEYS = {
    "/v1/solve": frozenset(_COMMON_KEYS),
    "/v1/sweep": frozenset(
        _COMMON_KEYS + ("parameter", "start", "stop", "points", "grid",
                        "metric")
    ),
    "/v1/uncertainty": frozenset(
        _COMMON_KEYS + ("samples", "seed", "metric")
    ),
}
#: The ``POST`` API a shard serves and the cluster router forwards.
V1_ENDPOINTS = tuple(_ALLOWED_KEYS)


def _require_document(document: Any) -> Dict[str, Any]:
    if not isinstance(document, dict):
        raise BadRequest(
            f"request body must be a JSON object, got "
            f"{type(document).__name__}"
        )
    return document


def _check_keys(endpoint: str, document: Mapping[str, Any]) -> None:
    unknown = set(document) - _ALLOWED_KEYS[endpoint]
    if unknown:
        raise BadRequest(
            f"unknown field(s) {sorted(unknown)} for {endpoint}; "
            f"allowed: {sorted(_ALLOWED_KEYS[endpoint])}"
        )


def _configuration_names(config: JsasConfiguration) -> Set[str]:
    """Parameters the configuration sets itself: the rates its
    hierarchy binds to submodel outputs, and what ``merged_values``
    supplies (``N_pair``).  A request may neither set nor sweep them."""
    names = {binding.parameter for binding in config.hierarchy().bindings}
    names.update(config.merged_values({}))
    return names


def _as_int(document: Mapping[str, Any], key: str, default: int) -> int:
    value = document.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"field {key!r} must be an integer, got {value!r}")
    return value


def _as_float(document: Mapping[str, Any], key: str, default: float) -> float:
    value = document.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequest(f"field {key!r} must be a number, got {value!r}")
    return float(value)


class _SolveGroup:
    """One batchable target: a configuration shape + solve semantics."""

    def __init__(
        self,
        config: JsasConfiguration,
        method: str,
        abstraction: str,
        names: Tuple[str, ...],
    ) -> None:
        self.config = config
        self.method = method
        self.abstraction = abstraction
        self.names = names

    def key(self) -> Tuple:
        return (
            self.config.n_instances,
            self.config.n_pairs,
            self.config.n_spares,
            self.config.repair_policy,
            self.method,
            self.abstraction,
            self.names,
        )

    def solve_many(
        self, values_list: Sequence[Mapping[str, float]]
    ) -> Sequence[HierarchicalResult]:
        """Solve every request in one stacked ``solve_batch`` call; a
        lone request is a one-point solve (``JsasConfiguration.solve``),
        which gives the same result without NumPy."""
        k = len(values_list)
        if k == 1:
            return [
                self.config.solve(
                    values_list[0],
                    method=self.method,
                    abstraction=self.abstraction,
                )
            ]
        columns = {
            name: np.array([values[name] for values in values_list])
            for name in self.names
        }
        solution = self.config.solve_batch(
            columns,
            n_samples=k,
            method=self.method,
            abstraction=self.abstraction,
        )
        return [solution.result_at(i) for i in range(k)]

    def solve_cores(
        self, values_list: Sequence[Mapping[str, float]]
    ) -> Sequence[Dict[str, Any]]:
        """Solve a batch and return JSON-able result cores.

        The core is the serving-independent part of the solve payload;
        it is what pre-forked workers ship back over their pipes
        (plain dicts of floats, so pickling preserves bits).
        """
        return [_result_core(result) for result in self.solve_many(values_list)]


class AvailabilityService:
    """HTTP-agnostic request handling: documents in, documents out.

    :meth:`handle` returns ``(status, payload, headers)``; the HTTP
    layer only serializes.  Construction installs a live metrics
    recorder globally when observability is off (restored by
    :meth:`close`), so ``/metrics`` always has a registry to expose.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.started_at = time.time()
        label = self.config.process_label or "service"
        if (
            self.config.process_label is not None
            or self.config.trace_dir is not None
        ):
            obs.set_process_label(label)
        self._recorder, self._restore_recorder = obs.install_process_recorder(
            self.config.trace_dir, label
        )
        #: Live injector when the config opts into chaos; ``None`` keeps
        #: every injection point a no-op and hides the /chaos endpoints.
        self.injector: Optional[ChaosInjector] = None
        self._previous_injector = None
        if self.config.chaos:
            self.injector = ChaosInjector(
                rates=(
                    dict(self.config.chaos_rates)
                    if self.config.chaos_rates is not None
                    else None
                ),
                seed=self.config.chaos_seed,
                stall_seconds=self.config.chaos_stall_seconds,
            )
            self._previous_injector = chaos.set_injector(self.injector)
        self.cache = SolveCache(
            max_entries=self.config.cache_size,
            spill_path=self.config.cache_file,
            validator=_valid_cached_payload,
        )
        if self.config.cache_file is not None:
            loaded = self.cache.warm_start()
            if loaded:
                obs.event("service.cache.warm_started", entries=loaded)
        #: Pre-forked solver pool; ``None`` solves in-process.  Created
        #: before the micro-batcher so no dispatch threads exist at fork
        #: time.
        self.pool = None
        if self.config.worker_processes > 0:
            from repro.service import prefork

            if prefork.fork_available():
                self.pool = prefork.SolverPool(
                    self.config.worker_processes,
                    trace_dir=self.config.trace_dir,
                    label=label,
                )
            else:  # pragma: no cover - non-fork platform
                obs.event(
                    "service.prefork.unavailable",
                    requested=self.config.worker_processes,
                )
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            queue_limit=self.config.queue_limit,
            workers=self.config.workers,
            retry_after_seconds=self.config.retry_after_seconds,
        )
        self._heavy_slots = threading.BoundedSemaphore(
            self.config.heavy_slots
        )
        self._fingerprinter = HierarchyFingerprinter()
        self._base_values = PAPER_PARAMETERS.to_dict()
        # Prime the instruments the handlers update, while still
        # single-threaded, so handler threads only ever look up
        # existing dict entries.
        for name in (
            "service_requests_total", "service_errors_total",
            "service_shed_total", "service_cache_hits_total",
            "service_cache_misses_total", "service_cache_shared_total",
            "service_cache_evictions_total", "service_batches_total",
            "service_coalesced_batches_total",
            "service_coalesced_requests_total",
            "service_cache_invalid_dropped_total",
            "service_faults_injected_total",
            "service_worker_deaths_total", "service_worker_respawns_total",
            "service_responses_dropped_total",
            "service_retries_observed_total",
            "service_prefork_batches_total",
            "service_prefork_worker_deaths_total",
            "service_prefork_worker_respawns_total",
        ):
            obs.counter(name)
        # Bounded memo of recently seen Idempotency-Key headers: a
        # repeated key is a client retry, surfaced in /metrics.
        self._idempotency_seen: "OrderedDict[str, None]" = OrderedDict()
        self._idempotency_lock = threading.Lock()
        obs.gauge("service_queue_depth")
        obs.gauge("service_cache_size")
        obs.histogram("service_batch_size")
        obs.histogram("service_queue_wait_seconds")

    # Request plumbing ----------------------------------------------------

    def _configuration(
        self, document: Mapping[str, Any]
    ) -> JsasConfiguration:
        try:
            return JsasConfiguration(
                n_instances=_as_int(document, "n_instances", 2),
                n_pairs=_as_int(document, "n_pairs", 2),
                n_spares=_as_int(document, "n_spares", 2),
                repair_policy=document.get("repair_policy", "sequential"),
            )
        except ReproError as exc:
            raise BadRequest(str(exc)) from exc

    def _merged_values(
        self, config: JsasConfiguration, document: Mapping[str, Any]
    ) -> Dict[str, float]:
        overrides = document.get("parameters") or {}
        if not isinstance(overrides, dict):
            raise BadRequest(
                f"'parameters' must be an object, got "
                f"{type(overrides).__name__}"
            )
        reserved = _configuration_names(config).intersection(overrides)
        if reserved:
            raise BadRequest(
                f"parameter(s) {sorted(reserved)} are set by the "
                "configuration, not the request"
            )
        values = dict(self._base_values)
        values.update(overrides)
        merged = config.merged_values(values)
        return parameter_fingerprint(merged)

    def _method(self, document: Mapping[str, Any]) -> Tuple[str, str]:
        method = document.get("method", "auto")
        abstraction = document.get("abstraction", "mttf")
        if not isinstance(method, str) or not isinstance(abstraction, str):
            raise BadRequest("'method' and 'abstraction' must be strings")
        if method not in BATCH_METHODS:
            raise BadRequest(
                f"unknown method {method!r}; expected one of {BATCH_METHODS}"
            )
        if abstraction not in ABSTRACTIONS:
            raise BadRequest(
                f"unknown abstraction {abstraction!r}; expected one of "
                f"{ABSTRACTIONS}"
            )
        return method, abstraction

    def _structure(
        self, config: JsasConfiguration
    ) -> str:
        key = (
            config.n_instances, config.n_pairs,
            config.n_spares, config.repair_policy,
        )
        return self._fingerprinter.structure(key, config.hierarchy())

    # Endpoints -----------------------------------------------------------

    def handle(
        self, endpoint: str, document: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Dispatch one request; always returns a JSON-able payload."""
        started = time.perf_counter()
        handlers = {
            "/v1/solve": self._handle_solve,
            "/v1/sweep": self._handle_sweep,
            "/v1/uncertainty": self._handle_uncertainty,
            "/healthz": self._handle_healthz,
        }
        if self.injector is not None:
            # The chaos surface only exists when the config opted in; a
            # production server 404s these paths like any other unknown.
            handlers["/chaos/arm"] = self._handle_chaos_arm
            handlers["/chaos/status"] = self._handle_chaos_status
        handler = handlers.get(endpoint)
        if handler is None:
            return 404, {"error": f"unknown endpoint {endpoint!r}"}, {}
        obs.counter("service_requests_total", endpoint=endpoint).inc()
        try:
            with obs.span("service.request", endpoint=endpoint):
                payload = handler(document)
        except Overloaded as exc:
            retry_after = max(1, int(round(exc.retry_after_seconds)))
            return (
                429,
                {"error": str(exc), "retry_after_seconds": retry_after},
                {"Retry-After": str(retry_after)},
            )
        except BadRequest as exc:
            obs.counter("service_errors_total", endpoint=endpoint).inc()
            return 400, {"error": str(exc)}, {}
        except ReproError as exc:
            obs.counter("service_errors_total", endpoint=endpoint).inc()
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        except Exception as exc:  # noqa: BLE001 - a server answers, not crashes
            obs.counter("service_errors_total", endpoint=endpoint).inc()
            obs.event(
                "service.internal_error",
                endpoint=endpoint,
                error=f"{type(exc).__name__}: {exc}",
            )
            return 500, {"error": f"internal error: {type(exc).__name__}"}, {}
        duration_ms = (time.perf_counter() - started) * 1000.0
        obs.histogram(
            "service_request_seconds", endpoint=endpoint
        ).observe(duration_ms / 1000.0)
        serving = payload.setdefault("serving", {})
        serving["duration_ms"] = duration_ms
        return 200, payload, {}

    def routes(self) -> Dict[Tuple[str, str], Route]:
        """The ``(method, path)`` table the shared HTTP front dispatches on.

        The ``/chaos`` endpoints exist only when the config opted into
        chaos; a production server 404s them like any other unknown.
        """
        routes = [("GET", "/healthz")]
        routes += [("POST", path) for path in V1_ENDPOINTS]
        if self.injector is not None:
            routes += [("GET", "/chaos/status"), ("POST", "/chaos/arm")]
        return {route: self._serve for route in routes}

    def _serve(
        self, path: str, document: Any, headers: Mapping[str, str]
    ) -> Optional[Response]:
        idempotency_key = headers.get("Idempotency-Key")
        if idempotency_key:
            self.note_idempotency(idempotency_key)
        response = self.handle(path, document)
        if (
            path.startswith("/v1/")
            and chaos.enabled()
            and chaos.fire(chaos.POINT_RESPONSE_DROP) is not None
        ):
            # The request WAS processed (any solve is already cached);
            # only the response vanishes.  Closing without writing makes
            # the client see a connection error — its retry must succeed
            # from the cache, which is the recovery the campaign scores.
            obs.counter("service_responses_dropped_total").inc()
            obs.event("chaos.response_drop", path=path, status=response[0])
            return None
        return response

    def _handle_solve(self, document: Any) -> Dict[str, Any]:
        document = _require_document(document)
        _check_keys("/v1/solve", document)
        config = self._configuration(document)
        method, abstraction = self._method(document)
        values = self._merged_values(config, document)
        fingerprint = self._fingerprinter.request(
            self._structure(config), values,
            method=method, abstraction=abstraction, kind="solve",
        )
        group = _SolveGroup(
            config, method, abstraction, tuple(sorted(values))
        )
        batch_size = 0

        if self.pool is not None:
            pool = self.pool
            spec = group.key()

            def executor(batch: Sequence[Any]) -> Sequence[Any]:
                # Runs on a batcher dispatch thread, where the scheduler
                # has re-activated the batch's lead trace context — read
                # it here, per batch, never bake it into the closure
                # (executors are cached per group key).
                return pool.execute(
                    spec, batch, trace=tracecontext.current()
                )

        else:
            executor = group.solve_cores

        def compute() -> Dict[str, Any]:
            nonlocal batch_size
            ticket = self.batcher.submit(
                group.key(), values, executor=executor
            )
            core = ticket.result()
            batch_size = ticket.batch_size
            return _solve_envelope(
                fingerprint, config, method, abstraction, core
            )

        payload, source = self.cache.get_or_compute(fingerprint, compute)
        response = dict(payload)
        response["serving"] = {"cache": source, "batch_size": batch_size}
        return response

    def _handle_sweep(self, document: Any) -> Dict[str, Any]:
        from repro.models.jsas.configs import (
            CONFIG_METRICS,
            HierarchicalConfigMetric,
        )
        from repro.sensitivity import parametric_sweep

        document = _require_document(document)
        _check_keys("/v1/sweep", document)
        config = self._configuration(document)
        method, abstraction = self._method(document)
        values = self._merged_values(config, document)
        parameter = document.get("parameter", "Tstart_long_as")
        if not isinstance(parameter, str):
            raise BadRequest(f"'parameter' must be a string: {parameter!r}")
        if parameter in _configuration_names(config):
            raise BadRequest(
                f"cannot sweep {parameter!r}: it is set by the configuration"
            )
        metric = document.get("metric", "availability")
        if metric not in CONFIG_METRICS:
            raise BadRequest(
                f"unknown metric {metric!r}; expected one of "
                f"{CONFIG_METRICS}"
            )
        if "grid" in document:
            grid_field = document["grid"]
            if (
                not isinstance(grid_field, list)
                or not grid_field
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in grid_field
                )
            ):
                raise BadRequest("'grid' must be a non-empty number array")
            grid = [float(x) for x in grid_field]
        else:
            points = _as_int(document, "points", 11)
            if points < 2:
                raise BadRequest(f"'points' must be >= 2, got {points}")
            grid = [
                float(x)
                for x in np.linspace(
                    _as_float(document, "start", 0.5),
                    _as_float(document, "stop", 3.0),
                    points,
                )
            ]
        fingerprint = solve_fingerprint(
            self._structure(config), values,
            method=method, abstraction=abstraction, kind="sweep",
            parameter=parameter, grid=grid, metric=metric,
        )

        def compute() -> Dict[str, Any]:
            with self._heavy_admission():
                sweep = parametric_sweep(
                    HierarchicalConfigMetric(
                        config, metric=metric,
                        abstraction=abstraction, method=method,
                    ),
                    parameter,
                    grid,
                    # The metric solves the full hierarchy itself; drop
                    # bound/derived names the top model computes.
                    {
                        name: value for name, value in values.items()
                        if name != "N_pair"
                    },
                    metric_name=metric,
                )
                return {
                    "schema": RESPONSE_SCHEMA,
                    "kind": "sweep",
                    "fingerprint": fingerprint,
                    "configuration": _config_payload(config),
                    "method": method,
                    "abstraction": abstraction,
                    "parameter": parameter,
                    "metric": metric,
                    "points": [
                        {parameter: x, metric: y}
                        for x, y in sweep.as_rows()
                    ],
                }

        payload, source = self.cache.get_or_compute(fingerprint, compute)
        response = dict(payload)
        response["serving"] = {"cache": source, "batch_size": len(grid)}
        return response

    def _handle_uncertainty(self, document: Any) -> Dict[str, Any]:
        from repro.models.jsas.configs import (
            CONFIG_METRICS,
            MIN_UNCERTAINTY_SAMPLES,
            build_uncertainty_analysis,
        )

        document = _require_document(document)
        _check_keys("/v1/uncertainty", document)
        config = self._configuration(document)
        method, abstraction = self._method(document)
        values = self._merged_values(config, document)
        samples = _as_int(document, "samples", 1000)
        if samples < MIN_UNCERTAINTY_SAMPLES:
            raise BadRequest(
                f"'samples' must be >= {MIN_UNCERTAINTY_SAMPLES}, "
                f"got {samples}"
            )
        seed = document.get("seed")
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int)
        ):
            raise BadRequest(f"'seed' must be an integer, got {seed!r}")
        metric = document.get("metric", "yearly_downtime_minutes")
        if metric not in CONFIG_METRICS:
            raise BadRequest(
                f"unknown metric {metric!r}; expected one of "
                f"{CONFIG_METRICS}"
            )

        def compute() -> Dict[str, Any]:
            with self._heavy_admission():
                analysis = build_uncertainty_analysis(
                    config,
                    values={
                        name: value for name, value in values.items()
                        if name != "N_pair"
                    },
                    metric=metric,
                    abstraction=abstraction,
                    method=method,
                )
                result = analysis.run(
                    n_samples=samples, seed=seed, keep_snapshots=False
                )
                return {
                    "schema": RESPONSE_SCHEMA,
                    "kind": "uncertainty",
                    "fingerprint": fingerprint,
                    "configuration": _config_payload(config),
                    "method": method,
                    "abstraction": abstraction,
                    "metric": metric,
                    "samples": samples,
                    "seed": seed,
                    "mean": result.mean,
                    "std": result.std,
                    "median": result.percentile(50),
                    "minimum": float(min(result.values)),
                    "maximum": float(max(result.values)),
                    "fraction_below_five_nines": result.fraction_below(5.25),
                }

        if seed is None:
            # Unseeded runs are non-deterministic; caching one would
            # freeze a single draw forever.
            fingerprint = None
            with obs.span("service.uncertainty_uncached"):
                obs.counter("service_cache_misses_total").inc()
                payload = compute()
                source = "uncached"
        else:
            fingerprint = solve_fingerprint(
                self._structure(config), values,
                method=method, abstraction=abstraction, kind="uncertainty",
                samples=samples, seed=seed, metric=metric,
            )
            payload, source = self.cache.get_or_compute(fingerprint, compute)
        response = dict(payload)
        response["serving"] = {"cache": source, "batch_size": samples}
        return response

    def _handle_chaos_arm(self, document: Any) -> Dict[str, Any]:
        """Arm one injection point for a deterministic number of firings.

        Only reachable when the config opted into chaos (the endpoint is
        not registered otherwise).  Body::

            {"point": "solver.exception", "count": 1,
             "delay_seconds": 0.05, "tag": "trial-17"}

        ``count``, ``delay_seconds`` and ``tag`` are optional.
        """
        document = _require_document(document)
        unknown = set(document) - {"point", "count", "delay_seconds", "tag"}
        if unknown:
            raise BadRequest(
                f"unknown field(s) {sorted(unknown)} for /chaos/arm"
            )
        point = document.get("point")
        if point not in INJECTION_POINTS:
            raise BadRequest(
                f"unknown injection point {point!r}; expected one of "
                f"{list(INJECTION_POINTS)}"
            )
        count = _as_int(document, "count", 1)
        if count < 1:
            raise BadRequest(f"'count' must be >= 1, got {count}")
        delay = document.get("delay_seconds")
        if delay is not None:
            delay = _as_float(document, "delay_seconds", 0.0)
            if delay < 0:
                raise BadRequest(f"negative delay_seconds {delay}")
        tag = document.get("tag")
        if tag is not None and not isinstance(tag, str):
            raise BadRequest(f"'tag' must be a string, got {tag!r}")
        assert self.injector is not None  # endpoint only registered then
        self.injector.arm(point, count=count, delay_seconds=delay, tag=tag)
        return {"armed": point, "count": count, **self.injector.status()}

    def _handle_chaos_status(self, document: Any) -> Dict[str, Any]:
        """Armed/fired tallies for every injection point (chaos only)."""
        assert self.injector is not None
        return self.injector.status()

    def note_idempotency(self, key: str) -> bool:
        """Record an ``Idempotency-Key``; True when it was seen before.

        A repeated key means the client retried a request it may already
        have been served (e.g. the response was dropped on the wire), so
        the repeat is surfaced in ``service_retries_observed_total``.
        The memo is bounded — this is an observability aid, not an
        exactly-once ledger; true dedup comes from the content-addressed
        solve cache, which makes retried solves idempotent anyway.
        """
        with self._idempotency_lock:
            seen = key in self._idempotency_seen
            if seen:
                self._idempotency_seen.move_to_end(key)
            else:
                self._idempotency_seen[key] = None
                while len(self._idempotency_seen) > 4096:
                    self._idempotency_seen.popitem(last=False)
        if seen:
            obs.counter("service_retries_observed_total").inc()
        return seen

    def _handle_healthz(self, document: Any) -> Dict[str, Any]:
        from repro import kernels

        hits = self._recorder.metrics.counter(
            "service_cache_hits_total"
        ).value
        misses = self._recorder.metrics.counter(
            "service_cache_misses_total"
        ).value
        lookups = hits + misses
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": self.batcher.queue_depth,
            "queue_limit": self.config.queue_limit,
            "cache_entries": len(self.cache),
            "cache_size": self.config.cache_size,
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "workers": self.config.workers,
            "max_batch": self.config.max_batch,
            "worker_processes": self.config.worker_processes,
            "solver_workers_alive": (
                self.pool.alive_count() if self.pool is not None else 0
            ),
            "kernel_backend": kernels.backend_name(),
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the live metrics registry."""
        return render_prometheus(self._recorder.metrics)

    def _heavy_admission(self):
        """Bounded admission for whole-batch endpoints (context manager)."""
        service = self

        class _Slot:
            def __enter__(self) -> None:
                if not service._heavy_slots.acquire(blocking=False):
                    obs.counter("service_shed_total").inc()
                    raise Overloaded(
                        f"all {service.config.heavy_slots} heavy-query "
                        "slots are busy",
                        retry_after_seconds=(
                            service.config.retry_after_seconds
                        ),
                    )

            def __exit__(self, exc_type, exc, tb) -> None:
                service._heavy_slots.release()

        return _Slot()

    def close(self) -> None:
        """Stop the scheduler, restore the global recorder and injector."""
        self.batcher.shutdown()
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.injector is not None:
            chaos.set_injector(self._previous_injector)
            self.injector = None
        if self._restore_recorder is not None:
            self._restore_recorder()
            self._restore_recorder = None


def _config_payload(config: JsasConfiguration) -> Dict[str, Any]:
    return {
        "n_instances": config.n_instances,
        "n_pairs": config.n_pairs,
        "n_spares": config.n_spares,
        "repair_policy": config.repair_policy,
    }


def _result_core(result: HierarchicalResult) -> Dict[str, Any]:
    """The result-dependent half of a solve payload (JSON-able floats)."""
    system = result.system
    return {
        "availability": system.availability,
        "yearly_downtime_minutes": system.yearly_downtime_minutes,
        "mtbf_hours": system.mtbf_hours,
        "mttr_hours": system.mttr_hours,
        "failure_rate": system.failure_rate,
        "recovery_rate": system.recovery_rate,
        "state_probabilities": dict(system.state_probabilities),
        "downtime_by_state": dict(system.downtime_by_state),
        "bound_parameters": dict(result.bound_parameters),
        "submodels": {
            name: {
                "failure_rate": report.interface.failure_rate,
                "recovery_rate": report.interface.recovery_rate,
                "availability": report.interface.availability,
                "downtime_minutes": report.downtime_minutes,
                "downtime_fraction": report.downtime_fraction,
            }
            for name, report in result.submodels.items()
        },
    }


def _solve_envelope(
    fingerprint: str,
    config: JsasConfiguration,
    method: str,
    abstraction: str,
    core: Mapping[str, Any],
) -> Dict[str, Any]:
    """The cacheable (JSON-able, serving-independent) solve response."""
    return {
        "schema": RESPONSE_SCHEMA,
        "kind": "solve",
        "fingerprint": fingerprint,
        "configuration": _config_payload(config),
        "method": method,
        "abstraction": abstraction,
        **core,
    }


class AvailabilityServer(HttpFront):
    """Socket lifecycle around one :class:`AvailabilityService`.

    Usage (embedded / tests)::

        with AvailabilityServer(ServiceConfig(port=0)) as server:
            client = ServiceClient(server.url)
            client.solve()

    or blocking (the ``repro-avail serve`` subcommand)::

        AvailabilityServer(config).serve_forever()
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = AvailabilityService(self.config)
        super().__init__(
            self.service,
            self.config.host,
            self.config.port,
            self.config.max_body_bytes,
        )
