"""Failure-rate estimation from life-test data (paper Eq. 2).

For an exponential failure process observed for total exposure time ``T``
(summed over all units under test) with ``n`` failures, the upper
``1 - alpha`` confidence bound on the failure rate is::

    lambda_up = chi2.ppf(1 - alpha, 2 n + 2) / (2 T)

This is the classic time-censored (Type-I) bound from Kececioglu's
handbook, and it is well-defined even when **no failure was observed**
(``n = 0``) — the case the paper uses to bound the AS instance failure
rate from a 24-day two-instance test: 1/16 days at 95% confidence and
1/9 days at 99.5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import EstimationError


@dataclass(frozen=True)
class FailureRateEstimate:
    """Point estimate and confidence bounds for a failure rate.

    All rates are in "failures per unit of the exposure time's unit" —
    pass exposure in hours to get per-hour rates.

    Attributes:
        n_failures: Observed failure count.
        exposure: Total exposure time (unit-time summed over units).
        point: MLE ``n / T`` (0.0 when no failures were seen).
        upper: Upper confidence bound at ``confidence``.
        lower: Lower confidence bound (0.0 when ``n == 0``).
        confidence: The confidence level used for the bounds.
    """

    n_failures: int
    exposure: float
    point: float
    upper: float
    lower: float
    confidence: float

    @property
    def mtbf_point(self) -> float:
        """Mean time between failures implied by the point estimate."""
        return float("inf") if self.point == 0.0 else 1.0 / self.point

    @property
    def mtbf_lower(self) -> float:
        """Conservative (shortest) MTBF implied by the upper rate bound."""
        return 1.0 / self.upper


def _validate(n_failures: int, exposure: float, confidence: float) -> None:
    if n_failures < 0:
        raise EstimationError(f"failure count must be >= 0, got {n_failures}")
    if exposure <= 0.0:
        raise EstimationError(f"exposure must be positive, got {exposure}")
    if not 0.0 < confidence < 1.0:
        raise EstimationError(
            f"confidence must be in (0, 1), got {confidence}"
        )


def failure_rate_upper_bound(
    n_failures: int, exposure: float, confidence: float = 0.95
) -> float:
    """Paper Eq. 2: upper confidence bound on an exponential failure rate.

    >>> # The paper's AS bound: 0 failures in 2 instances x 24 days.
    >>> round(1.0 / failure_rate_upper_bound(0, 2 * 24, 0.95))  # days
    16
    >>> round(1.0 / failure_rate_upper_bound(0, 2 * 24, 0.995))
    9
    """
    from scipy import stats

    _validate(n_failures, exposure, confidence)
    quantile = stats.chi2.ppf(confidence, 2 * n_failures + 2)
    return float(quantile) / (2.0 * exposure)


def failure_rate_lower_bound(
    n_failures: int, exposure: float, confidence: float = 0.95
) -> float:
    """Lower confidence bound; zero when no failures were observed."""
    from scipy import stats

    _validate(n_failures, exposure, confidence)
    if n_failures == 0:
        return 0.0
    quantile = stats.chi2.ppf(1.0 - confidence, 2 * n_failures)
    return float(quantile) / (2.0 * exposure)


def estimate_failure_rate(
    n_failures: int,
    exposure: float,
    confidence: float = 0.95,
) -> FailureRateEstimate:
    """Full estimate: MLE point value plus two-sided-style bounds.

    The upper and lower bounds are each one-sided at ``confidence``
    (matching the paper's usage); callers wanting a central interval
    should pass ``confidence = 1 - alpha/2``.
    """
    _validate(n_failures, exposure, confidence)
    return FailureRateEstimate(
        n_failures=n_failures,
        exposure=float(exposure),
        point=n_failures / exposure,
        upper=failure_rate_upper_bound(n_failures, exposure, confidence),
        lower=failure_rate_lower_bound(n_failures, exposure, confidence),
        confidence=confidence,
    )


def required_exposure_for_bound(
    target_rate: float, confidence: float = 0.95, n_failures: int = 0
) -> float:
    """How much failure-free exposure demonstrates a rate below target.

    Inverse of :func:`failure_rate_upper_bound` in ``exposure``: the
    minimum total test time such that, if at most ``n_failures`` failures
    occur, the upper bound at ``confidence`` is below ``target_rate``.
    Useful for planning longevity campaigns.
    """
    from scipy import stats

    if target_rate <= 0.0:
        raise EstimationError(f"target rate must be positive, got {target_rate}")
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    if n_failures < 0:
        raise EstimationError(f"failure count must be >= 0, got {n_failures}")
    quantile = stats.chi2.ppf(confidence, 2 * n_failures + 2)
    return float(quantile) / (2.0 * target_rate)
