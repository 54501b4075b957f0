"""Seeded fault-injection campaigns with paper-style coverage estimation.

The paper's Section 4 estimates recovery coverage by firing thousands of
software-implemented fault injections at a live application server and
counting successful automatic recoveries; Eq. 1 turns the tally into a
lower confidence bound on coverage.  :func:`run_campaign` is that
experiment for our own serving stack:

1. start (or connect to) an :class:`~repro.service.server.AvailabilityServer`
   running with ``ServiceConfig(chaos=True)``;
2. for each of ``injections`` trials, pick an injection point from a
   seeded RNG, **arm exactly one fault** via ``POST /chaos/arm``, send a
   solve request that must traverse the armed site, and classify the
   outcome;
3. a trial is *recovered* when the client (with retries enabled) still
   obtains the bit-correct solve result and the server still answers
   ``/healthz`` — the same "system keeps delivering correct service"
   criterion the paper uses;
4. the recovered/total tallies — per point and overall — feed
   :func:`repro.estimation.coverage.estimate_coverage` (paper Eq. 1).

Every trial solves a unique parameter point so armed faults cannot be
masked by cache hits from earlier trials, and each trial verifies the
injection actually fired by diffing ``/chaos/status`` around the
request.  Given the same seed, the point sequence, tallies and coverage
bounds are bit-for-bit reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import obs
from repro.artifacts import SCHEMAS
from repro.chaos.injector import (
    INJECTION_POINTS,
    POINT_CACHE_CORRUPT,
    ChaosError,
)
from repro.estimation.coverage import CoverageEstimate, estimate_coverage

#: Parameter swept to make every trial's solve request unique.
TRIAL_PARAMETER = "Tstart_long_as"

#: Relative tolerance when checking the recovered response against the
#: direct-solve oracle.  The service path is bit-identical to a direct
#: solve for the default method, so this is generous.
ORACLE_RTOL = 1e-9


@dataclass(frozen=True)
class TrialOutcome:
    """One classified fault injection.

    Attributes:
        index: Trial number (0-based).
        point: Injection point that was armed.
        activated: Whether ``/chaos/status`` confirmed the fault fired.
        recovered: Whether correct service survived the fault.
        detail: Classification note (``"ok"``, ``"wrong-result"``,
            ``"no-response: ..."``, ``"not-activated"``,
            ``"unhealthy: ..."``).
        attempts: Client attempts the solve needed (1 = no retry).
        duration_ms: Wall-clock time for the trial's solve.
    """

    index: int
    point: str
    activated: bool
    recovered: bool
    detail: str
    attempts: int
    duration_ms: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "point": self.point,
            "activated": self.activated,
            "recovered": self.recovered,
            "detail": self.detail,
            "attempts": self.attempts,
            "duration_ms": self.duration_ms,
        }


def _estimate_payload(estimate: CoverageEstimate) -> Dict[str, Any]:
    return {
        "n_trials": estimate.n_trials,
        "n_successes": estimate.n_successes,
        "point": estimate.point,
        "coverage_lower": estimate.lower,
        "fir_upper": estimate.fir_upper,
        "confidence": estimate.confidence,
    }


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` run.

    ``overall`` and ``by_point`` are paper-Eq.-1 coverage estimates over
    the recovered/total tallies; ``trials`` holds every classified
    injection.  Deterministic given the campaign seed (modulo the
    ``duration_ms`` timing fields, which are excluded from
    :meth:`deterministic_dict`).
    """

    seed: int
    confidence: float
    url: str
    overall: CoverageEstimate
    by_point: Dict[str, CoverageEstimate]
    trials: List[TrialOutcome] = field(default_factory=list)

    @property
    def injections(self) -> int:
        return self.overall.n_trials

    @property
    def recovered(self) -> int:
        return self.overall.n_successes

    def to_dict(self) -> Dict[str, Any]:
        """Full JSON-able report (the ``--report`` artifact)."""
        document = self.deterministic_dict()
        document["url"] = self.url
        document["trials"] = [trial.to_dict() for trial in self.trials]
        return document

    def deterministic_dict(self) -> Dict[str, Any]:
        """The seed-determined part: same seed -> bit-identical dict."""
        return {
            "schema": SCHEMAS["chaos-campaign"],
            "kind": "chaos-campaign",
            "seed": self.seed,
            "confidence": self.confidence,
            "injections": self.injections,
            "recovered": self.recovered,
            "overall": _estimate_payload(self.overall),
            "by_point": {
                point: _estimate_payload(estimate)
                for point, estimate in sorted(self.by_point.items())
            },
        }


class _Oracle:
    """Direct-solve ground truth for trial verification (memoized)."""

    def __init__(self) -> None:
        from repro.models.jsas import PAPER_PARAMETERS, JsasConfiguration

        self._config = JsasConfiguration(n_instances=2, n_pairs=2)
        self._base = PAPER_PARAMETERS.to_dict()
        self._memo: Dict[float, float] = {}

    def availability(self, value: float) -> float:
        cached = self._memo.get(value)
        if cached is None:
            values = dict(self._base)
            values[TRIAL_PARAMETER] = value
            cached = self._config.solve(values).system.availability
            self._memo[value] = cached
        return cached


def _fired_counts(status: Mapping[str, Any]) -> Dict[str, int]:
    points = status.get("points", {})
    return {
        point: int(points.get(point, {}).get("fired", 0))
        for point in INJECTION_POINTS
    }


def run_campaign(
    injections: int = 200,
    seed: int = 2004,
    url: Optional[str] = None,
    confidence: float = 0.95,
    stall_seconds: float = 0.02,
    timeout: float = 30.0,
) -> CampaignReport:
    """Fire ``injections`` seeded faults and estimate recovery coverage.

    Args:
        injections: Number of fault-injection trials.
        seed: Drives the injection-point sequence, the trial parameters
            and the server-side rate RNGs; same seed, same campaign.
        url: Base URL of a server already running with
            ``ServiceConfig(chaos=True)``.  ``None`` (the default)
            self-hosts one on a loopback port for the campaign's
            duration.
        confidence: Confidence level for the Eq. 1 coverage bounds.
        stall_seconds: Delay used by the ``scheduler.stall`` injections.
        timeout: Client socket timeout per request.

    Returns:
        The :class:`CampaignReport`.
    """
    if injections < 1:
        raise ChaosError(f"need at least one injection, got {injections}")
    if url is not None:
        return _run_against(
            url, injections, seed, confidence, stall_seconds, timeout,
        )
    from repro.service.config import ServiceConfig
    from repro.service.server import AvailabilityServer

    config = ServiceConfig(port=0, chaos=True, chaos_seed=seed)
    with AvailabilityServer(config) as server:
        return _run_against(
            server.url, injections, seed, confidence, stall_seconds,
            timeout,
        )


def _run_against(
    url: str,
    injections: int,
    seed: int,
    confidence: float,
    stall_seconds: float,
    timeout: float,
) -> CampaignReport:
    from repro.service.client import RetryPolicy, ServiceClient

    client = ServiceClient(
        url,
        timeout=timeout,
        # Retries are the recovery mechanism under test: transient 500s
        # (injected solver faults) and transport drops must be retried;
        # jitter is seeded so backoff draws reproduce too.
        retry=RetryPolicy(max_attempts=5, retry_statuses=(500, 503)),
        rng=random.Random(f"campaign-client:{seed}"),
    )
    status = client.chaos_status()
    if not status.get("enabled"):
        raise ChaosError(
            f"server at {url} does not have an enabled chaos injector"
        )
    oracle = _Oracle()
    rng = random.Random(f"campaign:{seed}")
    trials: List[TrialOutcome] = []
    tallies: Dict[str, List[int]] = {
        point: [0, 0] for point in INJECTION_POINTS
    }
    with obs.span("chaos.campaign", injections=injections, seed=seed):
        for index in range(injections):
            point = rng.choice(INJECTION_POINTS)
            # A unique parameter per trial keeps the solve a cache miss,
            # so scheduler/solver faults cannot be masked by a hit.
            value = round(0.5 + 0.01 * index + 0.001 * rng.random(), 12)
            outcome = _run_trial(
                client, oracle, index, point, value, stall_seconds
            )
            trials.append(outcome)
            tallies[point][0] += 1
            tallies[point][1] += int(outcome.recovered)
            obs.counter(
                "chaos_campaign_trials_total",
                point=point,
                recovered=str(outcome.recovered).lower(),
            ).inc()
            if not outcome.recovered:
                obs.event(
                    "chaos.campaign.not_recovered",
                    index=index,
                    point=point,
                    detail=outcome.detail,
                )
    overall = estimate_coverage(
        len(trials),
        sum(1 for trial in trials if trial.recovered),
        confidence,
    )
    by_point = {
        point: estimate_coverage(n, s, confidence)
        for point, (n, s) in tallies.items()
        if n > 0
    }
    report = CampaignReport(
        seed=seed,
        confidence=confidence,
        url=url,
        overall=overall,
        by_point=by_point,
        trials=trials,
    )
    obs.event(
        "chaos.campaign.complete",
        injections=report.injections,
        recovered=report.recovered,
        coverage_lower=overall.lower,
        fir_upper=overall.fir_upper,
    )
    return report


def _run_trial(
    client: "Any",
    oracle: _Oracle,
    index: int,
    point: str,
    value: float,
    stall_seconds: float,
) -> TrialOutcome:
    from repro.service.errors import ServiceError

    parameters = {TRIAL_PARAMETER: value}
    tag = f"trial-{index}"
    if point == POINT_CACHE_CORRUPT:
        # The corruption site is a cache *read* of an existing entry:
        # populate the entry first, then arm, then read it back.
        client.solve(parameters=parameters)
    before = _fired_counts(client.chaos_status())
    client.chaos_arm(
        point, count=1, delay_seconds=stall_seconds, tag=tag
    )
    started = time.perf_counter()
    recovered = True
    detail = "ok"
    attempts = 0
    try:
        response = client.solve(parameters=parameters)
        attempts = client.last_attempts
        expected = oracle.availability(value)
        got = response.get("availability")
        if not isinstance(got, float) or abs(got - expected) > abs(
            expected
        ) * ORACLE_RTOL:
            recovered = False
            detail = f"wrong-result: got {got!r}, expected {expected!r}"
    except ServiceError as exc:
        attempts = client.last_attempts
        recovered = False
        detail = f"no-response: {type(exc).__name__}: {exc}"
    duration_ms = (time.perf_counter() - started) * 1000.0
    after = _fired_counts(client.chaos_status())
    activated = after[point] > before[point]
    if recovered and not activated:
        # An armed fault that never fired proves nothing about
        # recovery; classify it as a failed trial so it cannot
        # silently inflate the coverage bound.
        recovered = False
        detail = "not-activated"
    if recovered:
        try:
            health = client.healthz()
        except ServiceError as exc:
            recovered = False
            detail = f"unhealthy: {type(exc).__name__}: {exc}"
        else:
            if health.get("status") != "ok":
                recovered = False
                detail = f"unhealthy: {health!r}"
    return TrialOutcome(
        index=index,
        point=point,
        activated=activated,
        recovered=recovered,
        detail=detail,
        attempts=attempts,
        duration_ms=duration_ms,
    )
