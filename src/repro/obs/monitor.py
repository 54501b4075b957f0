"""Availability measurement: probe loop, episode detection, reports.

This module plays the paper's *measurement client* against a live
cluster (PAPER.md §3: instrument the server, log outage episodes, fit
models from observed timings).  Three layers:

* **Probes** — periodic synthetic solves with a hard deadline
  (:class:`ProbeRunner` / :func:`run_probe_campaign`).  Each probe is a
  single attempt (``RetryPolicy(max_attempts=1)`` — a probe measures
  the service, it does not mask it), carries a *deterministic* trace id
  (``sha256("probe:{seed}:{index}")``) so two same-seed campaigns name
  identical traces, and uses a parameter value outside any drill
  workload's range so every probe is a genuine solve, not a cache hit.
* **Episode detection** — :func:`detect_service_episodes` turns runs of
  ``min_failures``-or-more consecutive probe failures into timestamped
  outage episodes (down-at, detected-at, restored-at), and
  :func:`join_shard_episodes` replays the cluster's shard lifecycle
  event log (``cluster.shard.killed`` → ``.dead`` → ``.ready``) into
  per-kill recovery episodes with the paper's three phases: *detect*
  (killed→dead), *respawn* (dead→ready) and *restore* (killed→ready).
* **The measurement report** — :func:`build_measurement_report` emits a
  schema-versioned JSON document: empirical availability, MTTR/MTBF,
  and per-phase recovery-timing samples as plain float lists, i.e.
  exactly the shape
  :func:`repro.estimation.recovery_time.summarize_recovery_times` and
  :func:`~repro.estimation.recovery_time.exponential_rate_mle` consume.

The two episode kinds are deliberately separate, mirroring the paper's
component-vs-service outage distinction: every kill produces a **shard
episode** (the component went down and recovered), while a **service
episode** requires probes to actually fail — a healthy cluster masks
shard deaths behind failover, so a drill's shard-episode count equals
its kill count while its service-episode count is usually zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.artifacts import SCHEMAS
from repro.obs.tracecontext import (
    TraceContext,
    deterministic_trace_id,
    trace_scope,
)

#: Parameter the synthetic probes vary.  Same knob the drills sweep,
#: but probed at values far outside the drill workload's range
#: (``0.5 + 0.05 i``), so probes never collide with workload cache
#: entries and always exercise the full solve path.
PROBE_PARAMETER = "Tstart_long_as"
# Drill values are 0.5 + 0.05 i — always a multiple of 0.005 with a
# zero third decimal; the 0.003 offset makes collision impossible by
# construction, for any drill length.
PROBE_BASE_VALUE = 5.003
PROBE_VALUE_STEP = 0.01

#: Clamp applied to recovery-phase samples: the estimation layer
#: rejects non-positive durations, and two timestamps taken on either
#: side of a fast transition can coincide at clock resolution.
_MIN_PHASE_SECONDS = 1e-9


def probe_trace_id(seed: int, index: int) -> str:
    """The deterministic trace id of probe ``index`` in a campaign."""
    return deterministic_trace_id(f"probe:{seed}:{index}")


def probe_value(index: int) -> float:
    """The probe's swept parameter value (distinct per index)."""
    return round(PROBE_BASE_VALUE + PROBE_VALUE_STEP * index, 12)


class ProbeRunner:
    """Sends deadline-bounded synthetic solves to one cluster URL.

    Args:
        url: Router (or single-server) base URL.
        deadline_seconds: Probe deadline — the socket timeout; a probe
            that has not answered by then counts as failed.
        seed: Names the campaign's deterministic trace ids.

    Each :meth:`probe` opens a ``probe.request`` span under the probe's
    trace scope, so the span tree merged by :mod:`repro.obs.collect`
    has one root per probe with the full router→shard→worker chain
    beneath it.
    """

    def __init__(
        self, url: str, deadline_seconds: float = 5.0, seed: int = 2004
    ) -> None:
        from repro.service.client import RetryPolicy, ServiceClient

        self.seed = seed
        self.deadline_seconds = float(deadline_seconds)
        self._client = ServiceClient(
            url,
            timeout=self.deadline_seconds,
            retry=RetryPolicy(max_attempts=1),
        )

    def probe(self, index: int) -> Dict[str, Any]:
        """Send probe ``index``; never raises — failure is data."""
        trace_id = probe_trace_id(self.seed, index)
        value = probe_value(index)
        started = time.time()
        t0 = time.perf_counter()
        ok = False
        error: Optional[str] = None
        try:
            with trace_scope(TraceContext(trace_id)):
                with obs.span("probe.request", index=index):
                    response = self._client.solve(
                        parameters={PROBE_PARAMETER: value}
                    )
            ok = isinstance(response.get("availability"), float)
            if not ok:
                error = "malformed payload"
        except Exception as exc:  # noqa: BLE001 - probes record, not raise
            error = f"{type(exc).__name__}: {exc}"
        duration = time.perf_counter() - t0
        record = {
            "index": index,
            "trace_id": trace_id,
            "t": started,
            "duration_s": duration,
            "ok": ok,
            "error": error,
            "value": value,
        }
        obs.event(
            "monitor.probe", index=index, ok=ok, duration_s=duration
        )
        return record

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "ProbeRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_probe_campaign(
    url: str,
    count: int = 8,
    interval_seconds: float = 0.1,
    deadline_seconds: float = 5.0,
    seed: int = 2004,
) -> List[Dict[str, Any]]:
    """A fixed-count probe campaign against a live service.

    Fixed *count*, not fixed duration: the number of probes (and every
    probe's trace id and parameter value) is a pure function of the
    arguments, which is what lets CI diff two same-seed campaigns.
    """
    if count < 1:
        raise ValueError(f"need at least one probe, got {count}")
    if interval_seconds < 0:
        raise ValueError(f"negative interval {interval_seconds}")
    probes: List[Dict[str, Any]] = []
    with ProbeRunner(url, deadline_seconds, seed) as runner:
        for index in range(count):
            if index and interval_seconds:
                time.sleep(interval_seconds)
            probes.append(runner.probe(index))
    return probes


# Episode detection --------------------------------------------------------


def detect_service_episodes(
    probes: Sequence[Mapping[str, Any]], min_failures: int = 2
) -> List[Dict[str, Any]]:
    """Consecutive probe failures → service-level outage episodes.

    A run of ``min_failures`` or more failed probes becomes one episode:
    ``down_at`` is the first failed probe's start, ``detected_at`` is
    when the ``min_failures``-th failure *completed* (the moment a
    monitor applying this rule would have alarmed), ``restored_at`` is
    the next successful probe's start — ``None`` when the campaign
    ended mid-outage (the episode is reported with
    ``"complete": False`` and excluded from downtime sums).
    """
    if min_failures < 1:
        raise ValueError(f"min_failures must be >= 1, got {min_failures}")
    ordered = sorted(probes, key=lambda p: p["index"])
    episodes: List[Dict[str, Any]] = []
    run: List[Mapping[str, Any]] = []

    def flush(restored_at: Optional[float]) -> None:
        if len(run) >= min_failures:
            trigger = run[min_failures - 1]
            episodes.append(
                {
                    "kind": "service",
                    "down_at": run[0]["t"],
                    "detected_at": trigger["t"] + trigger["duration_s"],
                    "restored_at": restored_at,
                    "complete": restored_at is not None,
                    "n_failed_probes": len(run),
                    "probe_indices": [p["index"] for p in run],
                }
            )
        run.clear()

    for probe in ordered:
        if probe["ok"]:
            flush(restored_at=probe["t"])
        else:
            run.append(probe)
    flush(restored_at=None)
    return episodes


_KILLED = "cluster.shard.killed"
_DEAD = "cluster.shard.dead"
_READY = "cluster.shard.ready"


def join_shard_episodes(
    records: Sequence[Mapping[str, Any]],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Join the shard lifecycle event log into per-kill episodes.

    Consumes trace records (only ``kind == "event"`` entries matter)
    and matches, per shard, each ``cluster.shard.killed`` with the
    following ``cluster.shard.dead`` (the monitor/forward path noticed)
    and ``cluster.shard.ready`` (the replacement was re-admitted).
    Boot-time ``ready`` events that answer no kill are ignored.

    Returns ``(complete, incomplete)`` episode lists; incomplete means
    the observation window closed before the shard came back.
    """
    events = sorted(
        (
            record
            for record in records
            if record.get("kind") == "event"
            and record.get("name") in (_KILLED, _DEAD, _READY)
        ),
        key=lambda record: record.get("t", 0.0),
    )
    pending: Dict[str, List[Dict[str, Any]]] = {}
    complete: List[Dict[str, Any]] = []
    for event in events:
        fields = event.get("fields", {})
        shard = fields.get("shard")
        when = float(event.get("t", 0.0))
        if event["name"] == _KILLED:
            pending.setdefault(shard, []).append(
                {
                    "kind": "shard",
                    "shard": shard,
                    "pid": fields.get("pid"),
                    "killed_at": when,
                    "dead_at": None,
                    "ready_at": None,
                }
            )
        elif event["name"] == _DEAD:
            for episode in pending.get(shard, []):
                if episode["dead_at"] is None:
                    episode["dead_at"] = when
                    break
        elif event["name"] == _READY:
            queue = pending.get(shard, [])
            for position, episode in enumerate(queue):
                if episode["ready_at"] is None:
                    episode["ready_at"] = when
                    episode["generation"] = fields.get("generation")
                    complete.append(queue.pop(position))
                    break
    incomplete = [
        episode for queue in pending.values() for episode in queue
    ]
    complete.sort(key=lambda episode: episode["killed_at"])
    incomplete.sort(key=lambda episode: episode["killed_at"])
    return complete, incomplete


def recovery_phase_samples(
    episodes: Sequence[Mapping[str, Any]],
) -> Dict[str, List[float]]:
    """Per-phase duration samples from shard episodes.

    Plain float-list samples, directly consumable by
    :func:`repro.estimation.recovery_time.summarize_recovery_times`.
    Phases whose boundary event was never observed are skipped rather
    than fabricated.
    """
    phases: Dict[str, List[float]] = {
        "detect": [], "respawn": [], "restore": [],
    }
    for episode in episodes:
        killed = episode.get("killed_at")
        dead = episode.get("dead_at")
        ready = episode.get("ready_at")
        if killed is None:
            continue
        if dead is not None:
            phases["detect"].append(max(dead - killed, _MIN_PHASE_SECONDS))
            if ready is not None:
                phases["respawn"].append(
                    max(ready - dead, _MIN_PHASE_SECONDS)
                )
        if ready is not None:
            phases["restore"].append(max(ready - killed, _MIN_PHASE_SECONDS))
    return phases


# The report ---------------------------------------------------------------


def build_measurement_report(
    probes: Sequence[Mapping[str, Any]],
    records: Sequence[Mapping[str, Any]] = (),
    seed: int = 2004,
    n_shards: int = 0,
    min_failures: int = 2,
) -> Dict[str, Any]:
    """Assemble the schema-versioned availability measurement report.

    Args:
        probes: Probe records from :class:`ProbeRunner`.
        records: Trace records holding the cluster's shard lifecycle
            events (e.g. an :class:`~repro.obs.sinks.InMemorySink`'s
            ``records``); empty for probe-only campaigns.
        seed: Campaign seed (stamped into the deterministic block).
        n_shards: Cluster size, for the deterministic block.
        min_failures: Consecutive-failure threshold of the service
            episode detector.

    The ``"deterministic"`` sub-document contains only seed-pure fields
    (no timestamps, no durations, nothing probe-outcome-dependent), so
    two same-seed runs produce bit-identical bytes for it — that block
    is what CI diffs.  The kill count is seed-pure (a drill's schedule
    is a function of its seed) and lives there; exposure is wall-clock
    and lives in the top-level ``"exposure"`` block instead.
    """
    probes = sorted(probes, key=lambda p: p["index"])
    service_episodes = detect_service_episodes(probes, min_failures)
    shard_episodes, incomplete = join_shard_episodes(records)
    kill_count = sum(
        1
        for record in records
        if record.get("kind") == "event" and record.get("name") == _KILLED
    )
    phases = recovery_phase_samples(shard_episodes + incomplete)
    n_probes = len(probes)
    failures = sum(1 for probe in probes if not probe["ok"])
    probe_availability = (
        (n_probes - failures) / n_probes if n_probes else None
    )
    if probes:
        campaign_start = probes[0]["t"]
        campaign_end = max(p["t"] + p["duration_s"] for p in probes)
        campaign_seconds = max(campaign_end - campaign_start, 0.0)
    else:
        campaign_start = campaign_end = None
        campaign_seconds = 0.0
    downtime = sum(
        episode["restored_at"] - episode["down_at"]
        for episode in service_episodes
        if episode["complete"]
    )
    empirical_availability = (
        1.0 - downtime / campaign_seconds if campaign_seconds > 0 else None
    )
    restore_samples = phases["restore"]
    mttr = (
        sum(restore_samples) / len(restore_samples)
        if restore_samples
        else None
    )
    total_episodes = len(shard_episodes) + len(incomplete)
    mtbf = (
        campaign_seconds / total_episodes
        if total_episodes and campaign_seconds > 0
        else None
    )
    return {
        "schema": SCHEMAS["measurement"],
        "kind": "measurement",
        "deterministic": {
            "schema": SCHEMAS["measurement"],
            "kind": "measurement",
            "seed": seed,
            "n_shards": n_shards,
            "n_probes": n_probes,
            "probe_parameter": PROBE_PARAMETER,
            "probe_trace_ids": [probe["trace_id"] for probe in probes],
            "min_failures": min_failures,
            "kill_count": kill_count,
            "shard_episode_count": total_episodes,
            "shard_episode_victims": sorted(
                episode["shard"]
                for episode in shard_episodes + incomplete
            ),
        },
        "seed": seed,
        "n_shards": n_shards,
        "n_probes": n_probes,
        "exposure": {
            # Life-test inputs for repro.estimation.estimate_failure_rate
            # (paper Eq. 2): total unit-time under observation and the
            # failures (kills) seen during it.  shard_seconds sums the
            # campaign window over every shard under observation.
            "campaign_seconds": campaign_seconds,
            "shard_seconds": campaign_seconds * max(n_shards, 1),
            "kill_count": kill_count,
        },
        "probe_failures": failures,
        "probe_availability": probe_availability,
        "empirical_availability": empirical_availability,
        "mttr_seconds": mttr,
        "mtbf_seconds": mtbf,
        "campaign": {
            "started_at": campaign_start,
            "finished_at": campaign_end,
            "duration_s": campaign_seconds,
            "downtime_s": downtime,
        },
        "probes": list(probes),
        "service_episodes": service_episodes,
        "shard_episodes": shard_episodes,
        "incomplete_shard_episodes": incomplete,
        "recovery_phases": phases,
    }


def render_measurement_report(report: Mapping[str, Any]) -> str:
    """Human-readable summary of one measurement report."""

    def fmt(value: Optional[float], pattern: str = "{:.6f}") -> str:
        return pattern.format(value) if value is not None else "n/a"

    lines = [
        f"availability measurement (schema {report['schema']}, "
        f"seed {report['seed']})",
        f"probes: {report['n_probes']} "
        f"({report['probe_failures']} failed), "
        f"probe availability {fmt(report['probe_availability'])}",
        f"empirical availability: {fmt(report['empirical_availability'])}",
        f"MTTR: {fmt(report['mttr_seconds'], '{:.4f}')} s, "
        f"MTBF: {fmt(report['mtbf_seconds'], '{:.4f}')} s",
        f"shard episodes: {len(report['shard_episodes'])} complete, "
        f"{len(report['incomplete_shard_episodes'])} incomplete; "
        f"service episodes: {len(report['service_episodes'])}",
    ]
    phases = report.get("recovery_phases", {})
    for phase in ("detect", "respawn", "restore"):
        samples = phases.get(phase, [])
        if samples:
            mean = sum(samples) / len(samples)
            lines.append(
                f"  {phase}: n={len(samples)} mean={mean * 1000.0:.1f} ms "
                f"max={max(samples) * 1000.0:.1f} ms"
            )
        else:
            lines.append(f"  {phase}: no samples")
    return "\n".join(lines)


@dataclass(frozen=True)
class EstimationInputs:
    """The measurement report's bridge into :mod:`repro.estimation`.

    Carries the per-phase recovery duration samples (seconds) plus the
    life-test exposure (total shard-seconds under observation and the
    kill count), i.e. every number :mod:`repro.selfmodel` needs to fit
    the cluster model's rates — one object, no report re-parsing.
    """

    detect: Tuple[float, ...]
    respawn: Tuple[float, ...]
    restore: Tuple[float, ...]
    shard_exposure_seconds: float = 0.0
    kill_count: int = 0

    @classmethod
    def from_report(
        cls, report: Mapping[str, Any]
    ) -> "EstimationInputs":
        phases = report.get("recovery_phases", {})
        exposure = report.get("exposure", {})
        if not exposure:
            # v1 artifact: same derivation as the v1 upgrade in
            # repro.artifacts.
            campaign = report.get("campaign", {})
            seconds = float(campaign.get("duration_s") or 0.0)
            exposure = {
                "shard_seconds": seconds
                * max(int(report.get("n_shards") or 0), 1),
                "kill_count": len(report.get("shard_episodes", ()))
                + len(report.get("incomplete_shard_episodes", ())),
            }
        return cls(
            detect=tuple(phases.get("detect", ())),
            respawn=tuple(phases.get("respawn", ())),
            restore=tuple(phases.get("restore", ())),
            shard_exposure_seconds=float(
                exposure.get("shard_seconds") or 0.0
            ),
            kill_count=int(exposure.get("kill_count") or 0),
        )

    def summaries(self) -> Dict[str, Any]:
        """Per-phase :class:`RecoveryTimeSummary` (phases with samples)."""
        from repro.estimation.recovery_time import summarize_recovery_times

        return {
            phase: summarize_recovery_times(samples)
            for phase, samples in (
                ("detect", self.detect),
                ("respawn", self.respawn),
                ("restore", self.restore),
            )
            if samples
        }

    def rates(self, confidence: float = 0.95) -> Dict[str, Any]:
        """Per-phase fitted exponential rates with exact CIs (per second).

        Returns a dict of phase name to
        :class:`~repro.estimation.recovery_time.ExponentialRateEstimate`
        for every phase with at least one sample (a single sample yields
        a very wide — but exact — chi-squared interval).  Zero-duration
        samples never occur here: the episode join clamps phase
        durations to a positive floor, and the estimator would reject
        them anyway.
        """
        from repro.estimation.recovery_time import exponential_rate_estimate

        return {
            phase: exponential_rate_estimate(samples, confidence)
            for phase, samples in (
                ("detect", self.detect),
                ("respawn", self.respawn),
                ("restore", self.restore),
            )
            if samples
        }

    def failure_rate(self, confidence: float = 0.95) -> Any:
        """Shard failure-rate estimate (per second) from kills + exposure.

        Paper Eq. 2 over the campaign's life test: ``kill_count``
        failures across ``shard_exposure_seconds`` of summed shard
        observation time.

        Raises:
            EstimationError: When the exposure is zero (no campaign
                window to attribute failures to).
        """
        from repro.estimation.failure_rate import estimate_failure_rate

        return estimate_failure_rate(
            self.kill_count, self.shard_exposure_seconds, confidence
        )
