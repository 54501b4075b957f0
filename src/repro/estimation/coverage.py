"""Recovery-coverage estimation from fault-injection campaigns (Eq. 1).

The paper models imperfect recovery with the parameter FIR ("Fraction of
Imperfect Recovery"): the probability that an automatic recovery fails
and takes the system down.  Coverage is ``C = 1 - FIR``.

From a campaign of ``n`` injections with ``s`` successful recoveries, the
lower ``1 - alpha`` confidence bound on C is the Clopper–Pearson bound
expressed through the F distribution (paper Eq. 1)::

    C_low = s / (s + (n - s + 1) * F[1 - alpha; 2(n - s) + 2; 2 s])

The paper's numbers: 3,287 injections, all successful, give
FIR <= 0.091% at 95% confidence (quoted as "below 0.1%") and
FIR <= 0.161% at 99.5% (quoted as "below 0.2%").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import EstimationError


@dataclass(frozen=True)
class CoverageEstimate:
    """Point estimate and lower bound for a coverage probability.

    Attributes:
        n_trials: Total fault injections.
        n_successes: Injections with successful automatic recovery.
        point: MLE ``s / n``.
        lower: Lower confidence bound on coverage at ``confidence``.
        confidence: Confidence level used.
    """

    n_trials: int
    n_successes: int
    point: float
    lower: float
    confidence: float

    @property
    def fir_point(self) -> float:
        """Point estimate of the fraction of imperfect recovery."""
        return 1.0 - self.point

    @property
    def fir_upper(self) -> float:
        """Upper bound on FIR implied by the coverage lower bound."""
        return 1.0 - self.lower


def _validate(n_trials: int, n_successes: int, confidence: float) -> None:
    if n_trials <= 0:
        raise EstimationError(f"trial count must be positive, got {n_trials}")
    if not 0 <= n_successes <= n_trials:
        raise EstimationError(
            f"success count {n_successes} must be in [0, {n_trials}]"
        )
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")


def coverage_lower_bound(
    n_trials: int, n_successes: int, confidence: float = 0.95
) -> float:
    """Paper Eq. 1: lower confidence bound on coverage ``C = s/n``.

    Handles the all-successes case (``s == n``) that dominates real
    campaigns, and the degenerate all-failures case (bound is 0).

    >>> bound = coverage_lower_bound(3287, 3287, 0.95)
    >>> round((1 - bound) * 100, 3)  # FIR upper bound, percent
    0.091
    """
    from scipy import stats

    _validate(n_trials, n_successes, confidence)
    if n_successes == 0:
        return 0.0
    alpha = 1.0 - confidence
    dfn = 2 * (n_trials - n_successes) + 2
    dfd = 2 * n_successes
    f_quantile = float(stats.f.ppf(1.0 - alpha, dfn, dfd))
    return n_successes / (
        n_successes + (n_trials - n_successes + 1) * f_quantile
    )


def fir_upper_bound(
    n_trials: int, n_successes: int, confidence: float = 0.95
) -> float:
    """Upper confidence bound on FIR (``1 - coverage_lower_bound``)."""
    return 1.0 - coverage_lower_bound(n_trials, n_successes, confidence)


def estimate_coverage(
    n_trials: int, n_successes: int, confidence: float = 0.95
) -> CoverageEstimate:
    """Full coverage estimate from a fault-injection campaign."""
    _validate(n_trials, n_successes, confidence)
    return CoverageEstimate(
        n_trials=n_trials,
        n_successes=n_successes,
        point=n_successes / n_trials,
        lower=coverage_lower_bound(n_trials, n_successes, confidence),
        confidence=confidence,
    )


def required_injections_for_fir(
    target_fir: float, confidence: float = 0.95
) -> int:
    """Campaign size demonstrating FIR below target if all recoveries succeed.

    Solves for the smallest all-success campaign whose FIR upper bound at
    ``confidence`` is at most ``target_fir``.  For the all-success case
    the bound reduces to ``1 - n/(n + F)`` with ``F = F[1-alpha; 2, 2n]``,
    so we search the integer n directly (the function is monotone).
    """
    if not 0.0 < target_fir < 1.0:
        raise EstimationError(f"target FIR must be in (0, 1), got {target_fir}")
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    low, high = 1, 2
    while fir_upper_bound(high, high, confidence) > target_fir:
        high *= 2
        if high > 10**9:
            raise EstimationError(
                "campaign size exceeds 1e9; target FIR is impractically small"
            )
    while low < high:
        mid = (low + high) // 2
        if fir_upper_bound(mid, mid, confidence) <= target_fir:
            high = mid
        else:
            low = mid + 1
    return low
