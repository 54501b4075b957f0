"""Generic confidence-interval helpers shared across the library."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import EstimationError


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float, float]:
    """Mean and a t-based central confidence interval.

    Returns ``(mean, low, high)``.  With a single sample the interval
    degenerates to the point value.
    """
    from scipy import stats

    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise EstimationError("cannot form an interval from an empty sample")
    mean = float(data.mean())
    if data.size == 1:
        return mean, mean, mean
    sem = float(data.std(ddof=1)) / math.sqrt(data.size)
    if sem == 0.0:
        return mean, mean, mean
    half = float(stats.t.ppf(0.5 + confidence / 2.0, data.size - 1)) * sem
    return mean, mean - half, mean + half


def percentile_interval(
    samples: Sequence[float], confidence: float = 0.80
) -> Tuple[float, float]:
    """Central empirical percentile interval (the paper's "80% CI").

    The paper's uncertainty plots report, for the sampled population of
    systems, the interval containing the central ``confidence`` mass —
    e.g. an 80% CI is the (10th, 90th) percentile pair.
    """
    if not 0.0 < confidence < 1.0:
        raise EstimationError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        raise EstimationError("cannot form an interval from an empty sample")
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(data, [tail, 100.0 - tail])
    return float(low), float(high)
