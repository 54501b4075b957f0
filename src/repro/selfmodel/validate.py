"""Compare the model's prediction against the measured availability.

The paper's validation step: the model is considered to *agree* with
the measurement when the predicted availability interval (rate CIs
propagated through the model) overlaps the measured availability
interval.  The measured side gets a Clopper-Pearson binomial interval
over the probe outcomes — the same exact machinery as the paper's
Eq. 1 coverage bound, two-sided — because a short campaign's point
estimate (often exactly 1.0 from a handful of probes) says much less
than its interval.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple, Union

import pathlib

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.fit import SECONDS_PER_HOUR


def binomial_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided binomial confidence interval.

    The beta-quantile form of the paper's Eq. 1 bound: the lower edge
    is 0 when no successes were seen and the upper edge 1 when no
    failures were — both exact, not approximations.
    """
    from scipy import stats

    if trials < 1:
        raise SelfModelError(
            f"binomial interval needs at least one trial, got {trials}"
        )
    if not 0 <= successes <= trials:
        raise SelfModelError(
            f"successes must be in [0, trials]; got {successes}/{trials}"
        )
    if not 0.0 < confidence < 1.0:
        raise SelfModelError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    alpha = 1.0 - confidence
    lower = (
        0.0
        if successes == 0
        else float(
            stats.beta.ppf(alpha / 2.0, successes, trials - successes + 1)
        )
    )
    upper = (
        1.0
        if successes == trials
        else float(
            stats.beta.ppf(
                1.0 - alpha / 2.0, successes + 1, trials - successes
            )
        )
    )
    return lower, upper


def intervals_overlap(
    a: Tuple[float, float], b: Tuple[float, float]
) -> bool:
    """True when closed intervals ``a`` and ``b`` intersect."""
    return a[0] <= b[1] and b[0] <= a[1]


def validate_prediction(
    prediction: Mapping[str, Any],
    measurement: Union[str, pathlib.Path, Mapping[str, Any]],
    confidence: float = 0.95,
) -> Dict[str, Any]:
    """The agreement verdict between a prediction and a measurement.

    Args:
        prediction: A selfmodel prediction report (parsed).
        measurement: The measurement report (path or parsed; read by
            :func:`repro.artifacts.load`, which upgrades v1 artifacts).
        confidence: Level of the measured-side binomial interval.

    Returns:
        The validation document: measured interval, predicted interval,
        overlap flag, MTTR cross-check, and the ``"verdict"``
        (``"agree"`` / ``"disagree"``).
    """
    report = artifacts.load(measurement, "measurement")
    n_probes = int(report.get("n_probes") or 0)
    if n_probes < 1:
        raise SelfModelError(
            "measurement report has no probes; cannot validate a "
            "prediction against it (run the drill with probes > 0)"
        )
    failures = int(report.get("probe_failures") or 0)
    successes = n_probes - failures
    measured_interval = binomial_interval(successes, n_probes, confidence)
    predicted = prediction["predicted"]["availability"]
    predicted_interval = (
        float(predicted["lower"]),
        float(predicted["upper"]),
    )
    overlap = intervals_overlap(predicted_interval, measured_interval)

    # MTTR cross-check: the shard submodel's mean outage vs the
    # measured killed -> ready mean (both in seconds).
    model_mttr: Optional[float] = None
    fitted = prediction.get("fitted", {})
    if "Mu_detect" in fitted and "Mu_restore" in fitted:
        model_mttr = (
            1.0 / float(fitted["Mu_detect"]["point"])
            + 1.0 / float(fitted["Mu_restore"]["point"])
        ) * SECONDS_PER_HOUR
    measured_mttr = report.get("mttr_seconds")
    mttr_ratio = (
        model_mttr / measured_mttr
        if model_mttr is not None and measured_mttr
        else None
    )

    notes = []
    if successes == n_probes:
        notes.append(
            f"all {n_probes} probes succeeded; the measured point is "
            "1.0 and only the binomial interval's lower edge "
            f"({measured_interval[0]:.6f}) constrains the comparison"
        )
    if not overlap:
        notes.append(
            "predicted and measured intervals are disjoint; check the "
            "fit diagnostics (restore_consistency_ratio) and whether "
            "the drill's exposure is long enough for a stable Eq. 2 fit"
        )
    return {
        "kind": "selfmodel-validation",
        "confidence": confidence,
        "predicted_interval": list(predicted_interval),
        "measured": {
            "n_probes": n_probes,
            "probe_failures": failures,
            "probe_availability": successes / n_probes,
            "interval": list(measured_interval),
            "empirical_availability": report.get("empirical_availability"),
            "mttr_seconds": measured_mttr,
            "mtbf_seconds": report.get("mtbf_seconds"),
        },
        "model": {
            "mttr_seconds": model_mttr,
            "mttr_ratio": mttr_ratio,
        },
        "overlap": overlap,
        "verdict": "agree" if overlap else "disagree",
        "notes": notes,
    }
