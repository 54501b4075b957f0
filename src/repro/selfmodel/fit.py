"""Fit the cluster model's rates from a measurement report.

The paper's Table 1 step: turn observed data into model parameters with
uncertainty attached.  Sources, per parameter (all rates per hour):

========== ==================== =========================================
parameter  measurement           estimator
========== ==================== =========================================
La_shard   kills over exposure  :func:`repro.estimation.estimate_failure_rate`
                                (Eq. 2 life test; exact chi-squared CI)
Mu_detect  detect phase samples :func:`repro.estimation.exponential_rate_estimate`
Mu_restore respawn phase samples                 (same, exact chi-squared CI)
La_worker  (none observed)      Eq. 2 n=0 conservative upper bound
Mu_worker  (not measured)       tied to ``Mu_restore``
La_cache   kills (a respawned   same life test as ``La_shard``
           shard restarts cold)
Mu_cache   (not measured)       tied to ``Mu_restore``
========== ==================== =========================================

The composite ``restore`` phase (killed -> ready) is *not* a parameter —
the model's Failed -> Restoring -> Up path already composes it — but it
is fitted as a consistency diagnostic: ``1/Mu_detect + 1/Mu_restore``
should track the measured mean restore time.

Kill schedules are seeded, so a drill's ``kill_count`` is seed-pure;
exposure is wall-clock.  Every fitted *point* value is therefore
deterministic only given the same artifact — which is why prediction
reports put parameter *names*, never values, in their deterministic
block.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.model import (
    CACHE_PARAMETERS,
    SHARD_PARAMETERS,
    WORKER_PARAMETERS,
)

SECONDS_PER_HOUR = 3600.0

#: Floor for interval lower bounds (per hour): keeps corner solves away
#: from exactly-zero rates (a zero failure rate makes the up state
#: absorbing, which is fine analytically but degenerate numerically).
RATE_FLOOR = 1e-9


@dataclass(frozen=True)
class FittedRate:
    """One model parameter with its fitted value and interval.

    Attributes:
        name: Model parameter name (e.g. ``"Mu_detect"``).
        point: Fitted point value (per hour) — what the point solve uses.
        lower / upper: Confidence bounds (per hour); equal to ``point``
            when no interval could be fitted.
        n: Observations behind the fit (samples or failures).
        confidence: Level of ``[lower, upper]``.
        source: Where the number came from (``"phase:detect"``,
            ``"life-test"``, ``"tied:Mu_restore"``).
        method: Estimator used (``"exponential_mle"``,
            ``"eq2_life_test"``, ``"tied"``).
        conservative: True when the point is itself a conservative
            bound (the paper's n=0 practice), not an MLE.
    """

    name: str
    point: float
    lower: float
    upper: float
    n: int
    confidence: float
    source: str
    method: str
    conservative: bool = False

    def __post_init__(self) -> None:
        if not self.point > 0.0:
            raise SelfModelError(
                f"fitted rate {self.name!r} must be positive, "
                f"got {self.point}"
            )
        if not self.lower <= self.point <= self.upper:
            raise SelfModelError(
                f"fitted rate {self.name!r} has an inconsistent interval "
                f"[{self.lower}, {self.upper}] around {self.point}"
            )

    @property
    def has_interval(self) -> bool:
        """True when the bounds genuinely bracket the point."""
        return self.lower < self.upper

    @property
    def mean_hours(self) -> float:
        """Implied mean sojourn, hours."""
        return 1.0 / self.point

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "point": self.point,
            "lower": self.lower,
            "upper": self.upper,
            "n": self.n,
            "confidence": self.confidence,
            "source": self.source,
            "method": self.method,
            "conservative": self.conservative,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FittedRate":
        return cls(
            name=str(document["name"]),
            point=float(document["point"]),
            lower=float(document["lower"]),
            upper=float(document["upper"]),
            n=int(document["n"]),
            confidence=float(document["confidence"]),
            source=str(document["source"]),
            method=str(document["method"]),
            conservative=bool(document.get("conservative", False)),
        )


@dataclass(frozen=True)
class FittedParameters:
    """The full fitted parameter set plus fit diagnostics."""

    seed: int
    n_shards: int
    confidence: float
    rates: Dict[str, FittedRate]
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def point_values(self) -> Dict[str, float]:
        """Parameter name -> point value, ready for a hierarchy solve."""
        return {name: rate.point for name, rate in self.rates.items()}

    def interval_parameters(self) -> Tuple[str, ...]:
        """Names of parameters with a genuine interval, sorted."""
        return tuple(
            sorted(
                name
                for name, rate in self.rates.items()
                if rate.has_interval
            )
        )

    def require(self, names: Tuple[str, ...]) -> None:
        missing = [name for name in names if name not in self.rates]
        if missing:
            raise SelfModelError(
                f"fitted parameters missing {missing}; available: "
                f"{sorted(self.rates)}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": artifacts.SCHEMAS["selfmodel-fit"],
            "kind": "selfmodel-fit",
            "seed": self.seed,
            "n_shards": self.n_shards,
            "confidence": self.confidence,
            "rates": {
                name: rate.to_dict() for name, rate in self.rates.items()
            },
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FittedParameters":
        """Rebuild from a ``selfmodel-fit`` document checked by
        :func:`repro.artifacts.load`."""
        return cls(
            seed=int(document.get("seed", 0)),
            n_shards=int(document.get("n_shards", 0)),
            confidence=float(document.get("confidence", 0.95)),
            rates={
                name: FittedRate.from_dict(rate)
                for name, rate in document.get("rates", {}).items()
            },
            diagnostics=dict(document.get("diagnostics", {})),
        )

    def summary(self) -> str:
        lines = [
            f"fitted cluster parameters (seed {self.seed}, "
            f"{self.confidence:.0%} intervals)"
        ]
        for name in sorted(self.rates):
            rate = self.rates[name]
            marker = " [conservative]" if rate.conservative else ""
            lines.append(
                f"  {name}: {rate.point:.4g}/h "
                f"[{rate.lower:.4g}, {rate.upper:.4g}] "
                f"(n={rate.n}, {rate.source}){marker}"
            )
        return "\n".join(lines)


def _phase_rate(
    name: str, estimate: Any, phase: str
) -> FittedRate:
    """Per-hour :class:`FittedRate` from a per-second phase estimate."""
    hourly = estimate.scaled(SECONDS_PER_HOUR)
    return FittedRate(
        name=name,
        point=hourly.rate,
        lower=max(hourly.lower, RATE_FLOOR),
        upper=hourly.upper,
        n=hourly.n,
        confidence=hourly.confidence,
        source=f"phase:{phase}",
        method="exponential_mle",
    )


def fit_parameters(
    measurement: Union[str, pathlib.Path, Mapping[str, Any]],
    confidence: float = 0.95,
    include_workers: bool = False,
    include_cache: bool = False,
    worker_processes: int = 0,
) -> FittedParameters:
    """Fit every cluster-model rate from one measurement report.

    Args:
        measurement: Path to a measurement report JSON, or the parsed
            report (read by :func:`repro.artifacts.load`, which
            upgrades v1 artifacts).
        confidence: Level for every fitted interval.
        include_workers: Also fit the worker-pool tier's rates.  No
            worker deaths are observed in a kill drill, so ``La_worker``
            is the Eq. 2 n=0 conservative upper bound over the summed
            worker exposure — useful for what-if sweeps, deliberately
            pessimistic for prediction.
        include_cache: Also fit the cache tier's rates (cache loss
            piggybacks on shard kills: a respawned shard restarts cold).
        worker_processes: Workers per shard (needed for the worker
            exposure when ``include_workers``).

    Raises:
        ArtifactError: When the measurement is not a readable
            measurement report.
        SelfModelError: When the report lacks the phase samples or
            exposure the shard fit needs.
    """
    from repro.estimation.failure_rate import estimate_failure_rate
    from repro.obs.monitor import EstimationInputs

    report = artifacts.load(measurement, "measurement")
    inputs = EstimationInputs.from_report(report)
    if not inputs.detect or not inputs.respawn:
        raise SelfModelError(
            "measurement report has no complete shard recovery episodes "
            "(need detect + respawn phase samples); run the drill with "
            "kills >= 1 and probes > 0"
        )
    if inputs.shard_exposure_seconds <= 0.0:
        raise SelfModelError(
            "measurement report has zero shard exposure; cannot fit a "
            "failure rate (paper Eq. 2 needs T > 0)"
        )
    phase_rates = inputs.rates(confidence)
    rates: Dict[str, FittedRate] = {}
    rates["Mu_detect"] = _phase_rate(
        "Mu_detect", phase_rates["detect"], "detect"
    )
    rates["Mu_restore"] = _phase_rate(
        "Mu_restore", phase_rates["respawn"], "respawn"
    )

    exposure_hours = inputs.shard_exposure_seconds / SECONDS_PER_HOUR
    # estimate_failure_rate's bounds are each one-sided; pass the
    # central-interval equivalent so [lower, upper] matches the phase
    # estimates' central `confidence` convention.
    one_sided = 1.0 - (1.0 - confidence) / 2.0
    life_test = estimate_failure_rate(
        inputs.kill_count, exposure_hours, one_sided
    )
    if inputs.kill_count > 0:
        rates["La_shard"] = FittedRate(
            name="La_shard",
            point=life_test.point,
            lower=max(life_test.lower, RATE_FLOOR),
            upper=life_test.upper,
            n=inputs.kill_count,
            confidence=confidence,
            source="life-test",
            method="eq2_life_test",
        )
    else:
        # The paper's n=0 practice: no failures observed, use the
        # conservative upper bound as the modeled rate.
        rates["La_shard"] = FittedRate(
            name="La_shard",
            point=life_test.upper,
            lower=RATE_FLOOR,
            upper=life_test.upper,
            n=0,
            confidence=confidence,
            source="life-test",
            method="eq2_life_test",
            conservative=True,
        )

    if include_workers:
        workers = worker_processes or 1
        worker_exposure = exposure_hours * workers
        worker_test = estimate_failure_rate(0, worker_exposure, confidence)
        rates["La_worker"] = FittedRate(
            name="La_worker",
            point=worker_test.upper,
            lower=RATE_FLOOR,
            upper=worker_test.upper,
            n=0,
            confidence=confidence,
            source="life-test:workers",
            method="eq2_life_test",
            conservative=True,
        )
        rates["Mu_worker"] = FittedRate(
            name="Mu_worker",
            point=rates["Mu_restore"].point,
            lower=rates["Mu_restore"].point,
            upper=rates["Mu_restore"].point,
            n=rates["Mu_restore"].n,
            confidence=confidence,
            source="tied:Mu_restore",
            method="tied",
        )
    if include_cache:
        rates["La_cache"] = FittedRate(
            name="La_cache",
            point=rates["La_shard"].point,
            lower=rates["La_shard"].lower,
            upper=rates["La_shard"].upper,
            n=rates["La_shard"].n,
            confidence=confidence,
            source="tied:La_shard",
            method="tied",
            conservative=rates["La_shard"].conservative,
        )
        rates["Mu_cache"] = FittedRate(
            name="Mu_cache",
            point=rates["Mu_restore"].point,
            lower=rates["Mu_restore"].point,
            upper=rates["Mu_restore"].point,
            n=rates["Mu_restore"].n,
            confidence=confidence,
            source="tied:Mu_restore",
            method="tied",
        )

    diagnostics = _diagnostics(report, inputs, phase_rates, rates)
    return FittedParameters(
        seed=int(report.get("seed", 0)),
        n_shards=int(report.get("n_shards", 0)),
        confidence=confidence,
        rates=rates,
        diagnostics=diagnostics,
    )


def _diagnostics(
    report: Mapping[str, Any],
    inputs: Any,
    phase_rates: Mapping[str, Any],
    rates: Mapping[str, FittedRate],
) -> Dict[str, Any]:
    """Consistency checks between the fit and the raw measurement."""
    diagnostics: Dict[str, Any] = {
        "phase_rates_per_second": {
            phase: estimate.to_dict()
            for phase, estimate in phase_rates.items()
        },
        "shard_exposure_seconds": inputs.shard_exposure_seconds,
        "kill_count": inputs.kill_count,
    }
    # Composite-phase cross-check: the model's Failed -> Restoring -> Up
    # path implies a mean outage of 1/Mu_detect + 1/Mu_restore, which
    # should track the directly-measured killed -> ready mean.
    restore = phase_rates.get("restore")
    if restore is not None:
        composed = (
            1.0 / phase_rates["detect"].rate
            + 1.0 / phase_rates["respawn"].rate
        )
        measured = restore.mean_duration
        diagnostics["composed_mean_outage_seconds"] = composed
        diagnostics["measured_mean_restore_seconds"] = measured
        diagnostics["restore_consistency_ratio"] = (
            composed / measured if measured > 0 else None
        )
    mttr = report.get("mttr_seconds")
    if mttr:
        model_mttr = (
            1.0 / rates["Mu_detect"].point + 1.0 / rates["Mu_restore"].point
        ) * SECONDS_PER_HOUR
        diagnostics["measured_mttr_seconds"] = mttr
        diagnostics["model_shard_mttr_seconds"] = model_mttr
    return diagnostics


def parameters_for(
    fitted: FittedParameters,
    include_workers: bool = False,
    include_cache: bool = False,
) -> Dict[str, FittedRate]:
    """The subset of fitted rates one hierarchy variant consumes."""
    names = list(SHARD_PARAMETERS)
    if include_workers:
        names.extend(WORKER_PARAMETERS)
    if include_cache:
        names.extend(CACHE_PARAMETERS)
    fitted.require(tuple(names))
    return {name: fitted.rates[name] for name in names}
