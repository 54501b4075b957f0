"""Seeded cluster shard-kill drill: every request survives failover.

The single-server campaign (:mod:`repro.chaos.campaign`) measures
recovery *inside* one process; this drill measures the recovery layer
above it — the consistent-hash router of
:mod:`repro.service.cluster`.  The experiment:

1. boot a router with ``n_shards`` shard processes and a router-side
   chaos injector (``ClusterConfig(chaos=True)``);
2. send a seeded workload of distinct solve requests through one
   retrying client;
3. at seeded request indices, arm ``shard.death`` tagged with a seeded
   victim shard — the router SIGKILLs that shard right before
   forwarding, so the in-flight request must fail over to the next ring
   owner while the monitor respawns and re-admits the victim;
4. the drill passes only when **zero** requests fail and the ring ends
   at full strength.

Everything the seed controls — victim shards, kill indices, request
parameters — reproduces bit-for-bit; wall-clock fields are excluded
from :meth:`FailoverReport.deterministic_dict` just like the campaign
report.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro import obs
from repro.artifacts import SCHEMAS
from repro.chaos.injector import POINT_SHARD_DEATH, ChaosError

#: Parameter swept to make every drill request distinct (same knob the
#: campaign sweeps, so both harnesses stress the same solve surface).
DRILL_PARAMETER = "Tstart_long_as"


@dataclass
class FailoverReport:
    """Outcome of one :func:`run_failover_drill` run.

    Attributes:
        seed: The drill seed; same seed, same kills and workload.
        n_shards: Shards in the drilled cluster.
        requests: Requests sent.
        succeeded: Requests that returned a correct solve payload.
        failed: Requests that errored (must be 0 for a passing drill).
        kills: Shard kills injected.
        kill_events: One entry per kill: which shard died before which
            request, and its respawn generation afterwards.
        client_retries: Extra client attempts beyond one per request
            (0 when the router absorbed every failover internally).
        ring_size_after: Ring membership at drill end (== ``n_shards``
            when every victim was re-admitted).
        duration_ms: Wall clock for the whole drill (excluded from the
            deterministic dict).
        measurement: The availability measurement report built by
            :func:`repro.obs.monitor.build_measurement_report` when the
            drill ran with probing enabled (``probes > 0``); ``None``
            otherwise, and then absent from :meth:`to_dict` so
            probe-less reports keep their historical layout.
    """

    seed: int
    n_shards: int
    requests: int
    succeeded: int
    failed: int
    kills: int
    kill_events: List[Dict[str, Any]] = field(default_factory=list)
    client_retries: int = 0
    ring_size_after: int = 0
    duration_ms: float = 0.0
    measurement: Optional[Dict[str, Any]] = None

    def deterministic_dict(self) -> Dict[str, Any]:
        """The seed-determined part: same seed -> bit-identical dict.

        A passing drill has no timing-dependent content here: the kill
        schedule is seeded and every request succeeds, so the dict is a
        pure function of the drill parameters.
        """
        return {
            "schema": SCHEMAS["failover-drill"],
            "kind": "failover-drill",
            "seed": self.seed,
            "n_shards": self.n_shards,
            "requests": self.requests,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "kills": self.kills,
            "kill_events": [
                {
                    "shard": event["shard"],
                    "request_index": event["request_index"],
                }
                for event in self.kill_events
            ],
            "ring_size_after": self.ring_size_after,
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-able report (the ``--report`` artifact)."""
        document = self.deterministic_dict()
        document["kill_events"] = self.kill_events
        document["client_retries"] = self.client_retries
        document["duration_ms"] = self.duration_ms
        if self.measurement is not None:
            document["measurement"] = self.measurement
        return document


def _kill_schedule(
    rng: random.Random, requests: int, kills: int, n_shards: int
) -> Dict[int, str]:
    """Seeded map of request index -> victim shard name.

    Kills land in the middle three fifths of the workload so each one
    has traffic before it (caches warm, ring settled) and after it
    (re-admission observed under load).
    """
    lo = max(1, requests // 5)
    hi = max(lo + 1, (4 * requests) // 5)
    indices = rng.sample(range(lo, hi), min(kills, hi - lo))
    return {
        index: f"shard-{rng.randrange(n_shards)}"
        for index in sorted(indices)
    }


def _probe_schedule(requests: int, probes: int) -> Dict[int, int]:
    """Request index → probe index: probes evenly interleaved.

    Deterministic and seed-free — the *timing* of probes relative to
    kills is fixed by construction, so every same-seed drill runs the
    identical interleaving.
    """
    return {(p * requests) // probes: p for p in range(probes)}


def run_failover_drill(
    n_shards: int = 4,
    requests: int = 32,
    kills: int = 1,
    seed: int = 2004,
    timeout: float = 30.0,
    readmit_timeout: float = 30.0,
    shard_cache_size: int = 64,
    probes: int = 0,
    probe_deadline_seconds: float = 10.0,
    min_failures: int = 2,
    trace_dir: Union[str, pathlib.Path, None] = None,
    shard_worker_processes: Optional[int] = None,
) -> FailoverReport:
    """Drill shard death under live traffic; zero failures required.

    Args:
        n_shards: Shard processes behind the drilled router.
        requests: Solve requests in the seeded workload.
        kills: ``shard.death`` injections to schedule.
        seed: Drives victims, kill indices and request parameters.
        timeout: Client socket timeout per request.
        readmit_timeout: How long to wait at drill end for every killed
            shard to be respawned and re-admitted to the ring.
        shard_cache_size: Solve-cache entries per shard (small, so the
            drill boots fast).
        probes: Synthetic availability probes interleaved evenly with
            the workload (:mod:`repro.obs.monitor`); ``0`` disables the
            measurement pipeline entirely.
        probe_deadline_seconds: Deadline per probe (single attempt).
        min_failures: Consecutive probe failures that constitute a
            service-level outage episode.
        trace_dir: Distributed-trace directory: every cluster process
            (this drill process included, labeled ``"router"``) writes
            per-process span files there for ``obs report --cluster``.
        shard_worker_processes: Pre-forked solver workers per shard;
            defaults to 1 when ``trace_dir`` is set (so probe traces
            include worker spans), else 0.

    Returns:
        The :class:`FailoverReport`.
    """
    if n_shards < 2:
        raise ChaosError(
            f"failover needs at least 2 shards, got {n_shards}"
        )
    if requests < 4:
        raise ChaosError(f"need at least 4 requests, got {requests}")
    if kills < 0 or kills > requests // 4:
        raise ChaosError(
            f"kills must be in [0, requests // 4], got {kills}"
        )
    if probes < 0 or probes > requests:
        raise ChaosError(
            f"probes must be in [0, requests], got {probes}"
        )
    from repro.obs import monitor
    from repro.obs.recorder import Recorder
    from repro.obs.sinks import InMemorySink, process_trace_sink
    from repro.service.client import RetryPolicy, ServiceClient
    from repro.service.cluster import ClusterConfig, ClusterServer
    from repro.service.config import ServiceConfig
    from repro.service.errors import ServiceError

    rng = random.Random(f"failover:{seed}")
    schedule = _kill_schedule(rng, requests, kills, n_shards)
    probe_at = _probe_schedule(requests, probes) if probes else {}
    measuring = probes > 0 or trace_dir is not None
    worker_processes = (
        shard_worker_processes
        if shard_worker_processes is not None
        else (1 if trace_dir is not None else 0)
    )
    config = ClusterConfig(
        port=0,
        n_shards=n_shards,
        shard=ServiceConfig(
            port=0,
            workers=1,
            cache_size=shard_cache_size,
            worker_processes=worker_processes,
        ),
        chaos=True,
        chaos_seed=seed,
        trace_dir=str(trace_dir) if trace_dir is not None else None,
    )
    # The measurement pipeline needs the router's lifecycle events
    # (killed/dead/ready): collect them in memory regardless of whether
    # a recorder was already installed, and — when tracing — give this
    # drill process (which hosts the client and router spans) its own
    # per-process trace file, labeled "router".
    event_sink: Optional[InMemorySink] = None
    own_recorder: Optional[Recorder] = None
    previous_recorder = None
    previous_label: Optional[str] = None
    if measuring:
        event_sink = InMemorySink()
        sinks: List[Any] = [event_sink]
        if trace_dir is not None:
            sinks.append(process_trace_sink(trace_dir, "router"))
            previous_label = obs.set_process_label("router")
        if obs.enabled():
            for sink in sinks:
                obs.get_recorder().add_sink(sink)
        else:
            own_recorder = Recorder(sinks=tuple(sinks), keep_records=False)
            previous_recorder = obs.set_recorder(own_recorder)
    started = time.perf_counter()
    succeeded = 0
    failures: List[Dict[str, Any]] = []
    kill_events: List[Dict[str, Any]] = []
    probe_records: List[Dict[str, Any]] = []
    client_retries = 0
    try:
        with obs.span(
            "chaos.failover", n_shards=n_shards, requests=requests, seed=seed
        ), ClusterServer(config) as router:
            client = ServiceClient(
                router.url,
                timeout=timeout,
                # 503 (ring momentarily empty) is retryable here; the
                # drill counts these retries to show how much the router
                # absorbed.
                retry=RetryPolicy(max_attempts=5, retry_statuses=(503,)),
                rng=random.Random(f"failover-client:{seed}"),
            )
            prober = (
                monitor.ProbeRunner(
                    router.url,
                    deadline_seconds=probe_deadline_seconds,
                    seed=seed,
                )
                if probes
                else None
            )
            for index in range(requests):
                victim = schedule.get(index)
                if victim is not None:
                    client.chaos_arm(
                        POINT_SHARD_DEATH, count=1, tag=victim
                    )
                    kill_events.append(
                        {"shard": victim, "request_index": index}
                    )
                value = round(0.5 + 0.05 * index, 12)
                try:
                    response = client.solve(
                        parameters={DRILL_PARAMETER: value}
                    )
                except ServiceError as exc:
                    failures.append(
                        {
                            "request_index": index,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    obs.event(
                        "chaos.failover.request_failed",
                        index=index,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    client_retries += client.last_attempts - 1
                    if isinstance(response.get("availability"), float):
                        succeeded += 1
                    else:
                        failures.append(
                            {
                                "request_index": index,
                                "error": f"malformed payload: {response!r}",
                            }
                        )
                if prober is not None and index in probe_at:
                    probe_records.append(prober.probe(probe_at[index]))
            if prober is not None:
                prober.close()
            # Every victim must come back: wait for full ring
            # re-admission.
            deadline = time.monotonic() + readmit_timeout
            ring_size = 0
            while time.monotonic() < deadline:
                status = router.cluster.cluster_status()
                ring_size = len(status["ring"])
                if ring_size == n_shards and all(
                    shard["alive"] for shard in status["shards"].values()
                ):
                    break
                time.sleep(0.1)
            for event in kill_events:
                shard_status = router.cluster.cluster_status()["shards"][
                    event["shard"]
                ]
                event["respawns"] = shard_status["respawns"]
                event["generation"] = shard_status["generation"]
    finally:
        if event_sink is not None:
            if own_recorder is not None:
                obs.set_recorder(previous_recorder)
                own_recorder.close()
            else:
                recorder = obs.get_recorder()
                recorder.remove_sink(event_sink)
                for sink in sinks[1:]:
                    recorder.remove_sink(sink)
                    sink.close()
        if previous_label is not None:
            obs.set_process_label(previous_label)
    measurement: Optional[Dict[str, Any]] = None
    if probes:
        measurement = monitor.build_measurement_report(
            probe_records,
            event_sink.records if event_sink is not None else (),
            seed=seed,
            n_shards=n_shards,
            min_failures=min_failures,
        )
    report = FailoverReport(
        seed=seed,
        n_shards=n_shards,
        requests=requests,
        succeeded=succeeded,
        failed=len(failures),
        kills=len(kill_events),
        kill_events=kill_events,
        client_retries=client_retries,
        ring_size_after=ring_size,
        duration_ms=(time.perf_counter() - started) * 1000.0,
        measurement=measurement,
    )
    obs.event(
        "chaos.failover.complete",
        requests=report.requests,
        succeeded=report.succeeded,
        failed=report.failed,
        kills=report.kills,
        ring_size_after=report.ring_size_after,
    )
    if failures:
        obs.event("chaos.failover.failures", failures=failures)
    return report
