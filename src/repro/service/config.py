"""Service configuration.

One frozen dataclass carries every knob the server, scheduler and cache
need, so the CLI, tests and embedding code construct the whole stack
from a single value.  Defaults are sized for a laptop-class deployment
of the paper's Config 1/2 shapes; ``docs/service_guide.md`` discusses
how to size the cache and the batch and queue bounds for heavier
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.service.errors import BadRequest


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one :class:`~repro.service.server.AvailabilityServer`.

    Attributes:
        host: Bind address (use ``127.0.0.1`` unless you mean to expose
            the service).
        port: TCP port; ``0`` asks the OS for a free port (tests).
        workers: Batch-dispatch worker threads in the micro-batcher.
        cache_size: Maximum entries held by the LRU solve cache.
        max_batch: Largest coalesced batch one dispatch may carry.
        queue_limit: Bound on requests waiting in the scheduler; beyond
            it the server sheds load with 429 + ``Retry-After``.
        heavy_slots: Concurrent ``/v1/sweep`` + ``/v1/uncertainty``
            evaluations admitted before shedding (these run whole
            batches per request and bypass the micro-batcher).
        cache_file: Optional JSONL spill/warm-start file for the solve
            cache; loaded on boot, appended to on every insert.
        retry_after_seconds: Value advertised in ``Retry-After`` when
            shedding.
        max_body_bytes: Reject request bodies larger than this (413).
        chaos: Enable the fault-injection harness: installs a live
            :class:`~repro.chaos.injector.ChaosInjector` and exposes the
            ``/chaos/arm`` / ``/chaos/status`` endpoints.  **Off by
            default** — a production server has no chaos surface and the
            injection points are no-ops.
        chaos_seed: Seed for the injector's rate-mode RNG streams
            (campaign reproducibility).
        chaos_stall_seconds: Default stall duration injected at
            delay-style points when an ``arm`` request does not override
            it.
        chaos_rates: Per-point background firing probabilities handed to
            the injector at boot (e.g. ``{"scheduler.stall": 1.0}`` to
            stall every dispatch — a deterministic service-rate knob for
            metastable-trigger campaigns).  Accepts a mapping or
            ``(point, rate)`` pairs; stored as a sorted tuple of pairs
            so the config stays hashable.  Requires ``chaos=True``.
        worker_processes: Pre-forked solver worker processes.  ``0``
            (default) solves in-process on the micro-batcher's dispatch
            threads; ``N >= 1`` forks N solver processes at boot and
            routes every ``/v1/solve`` batch through the shared dispatch
            queue (see :mod:`repro.service.prefork`).  Payloads are
            bit-identical either way.
        trace_dir: Directory for per-process distributed-trace JSONL
            files.  When set (and no recorder is already installed),
            the server boots a recorder writing spans to
            ``{label}.{pid}.jsonl`` under this directory, and pre-forked
            workers each write their own ``{label}.workerN.{pid}.jsonl``
            beside it.  ``repro.obs.collect`` merges them back into
            cross-process trace trees.
        process_label: Name this process carries in cross-process trace
            records (e.g. ``"shard-2"``).  Defaults to ``"service"``
            when ``trace_dir`` is set.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    cache_size: int = 1024
    max_batch: int = 32
    queue_limit: int = 256
    heavy_slots: int = 4
    cache_file: Optional[str] = None
    retry_after_seconds: float = 1.0
    max_body_bytes: int = 1 << 20
    chaos: bool = False
    chaos_seed: Optional[int] = None
    chaos_stall_seconds: float = 0.05
    chaos_rates: Optional[Tuple[Tuple[str, float], ...]] = None
    worker_processes: int = 0
    trace_dir: Optional[str] = None
    process_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise BadRequest(f"invalid port {self.port}")
        if self.workers < 1:
            raise BadRequest(f"need at least one worker, got {self.workers}")
        if self.cache_size < 0:
            raise BadRequest(f"negative cache size {self.cache_size}")
        if self.max_batch < 1:
            raise BadRequest(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_limit < 1:
            raise BadRequest(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )
        if self.heavy_slots < 1:
            raise BadRequest(
                f"heavy_slots must be >= 1, got {self.heavy_slots}"
            )
        if self.retry_after_seconds <= 0:
            raise BadRequest(
                f"retry_after_seconds must be positive, "
                f"got {self.retry_after_seconds}"
            )
        if self.max_body_bytes < 1:
            raise BadRequest(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )
        if self.chaos_stall_seconds < 0:
            raise BadRequest(
                f"negative chaos_stall_seconds {self.chaos_stall_seconds}"
            )
        if self.chaos_rates is not None:
            items = (
                self.chaos_rates.items()
                if isinstance(self.chaos_rates, Mapping)
                else self.chaos_rates
            )
            normalized = []
            for entry in items:
                try:
                    point, rate = entry
                except (TypeError, ValueError):
                    raise BadRequest(
                        f"chaos_rates entries must be (point, rate) "
                        f"pairs, got {entry!r}"
                    ) from None
                rate = float(rate)
                if not 0.0 <= rate <= 1.0:
                    raise BadRequest(
                        f"chaos rate for {point!r} must be in [0, 1], "
                        f"got {rate}"
                    )
                normalized.append((str(point), rate))
            if not self.chaos:
                raise BadRequest(
                    "chaos_rates requires chaos=True; a production "
                    "config has no injection surface"
                )
            object.__setattr__(
                self, "chaos_rates", tuple(sorted(normalized))
            )
        if self.worker_processes < 0:
            raise BadRequest(
                f"worker_processes must be >= 0, got {self.worker_processes}"
            )
