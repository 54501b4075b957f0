"""Configuration comparison (paper Table 3) and uncertainty setup.

Table 3 compares six configurations: a single instance without HADB and
then N instances with N HADB pairs for N in {2, 4, 6, 8, 10}.  This
module sweeps them and formats the comparison, and builds the
distribution set for the Figs. 7-8 uncertainty analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.compiled import ColumnLike
from repro.exceptions import EstimationError
from repro.hierarchy import HierarchicalResult
from repro.models.jsas.parameters import (
    PAPER_PARAMETERS,
    UNCERTAINTY_RANGES,
)
from repro.models.jsas.system import JsasConfiguration

if TYPE_CHECKING:
    from repro.uncertainty import (
        Uniform, UncertaintyAnalysis, UncertaintyResult,
    )

#: Metrics a batch-capable configuration metric can report.
CONFIG_METRICS = ("availability", "yearly_downtime_minutes", "mtbf_hours")

#: Fewest samples an uncertainty run accepts, on the CLI and on
#: ``/v1/uncertainty``: one sample has no spread to report.
MIN_UNCERTAINTY_SAMPLES = 2

#: The (n_instances, n_pairs) rows of the paper's Table 3.
TABLE3_CONFIGURATIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (2, 2),
    (4, 4),
    (6, 6),
    (8, 8),
    (10, 10),
)


@dataclass(frozen=True)
class ConfigurationComparison:
    """One row of the Table 3 comparison."""

    n_instances: int
    n_pairs: int
    availability: float
    yearly_downtime_minutes: float
    mtbf_hours: float
    result: HierarchicalResult

    def as_row(self) -> Tuple[str, str, str, str, str]:
        pairs = str(self.n_pairs) if self.n_pairs else "N/A"
        return (
            str(self.n_instances),
            pairs,
            f"{self.availability:.5%}",
            f"{self.yearly_downtime_minutes:.2f} min",
            f"{self.mtbf_hours:,.0f}",
        )


class HierarchicalConfigMetric:
    """A batch-capable metric over one JSAS configuration.

    Instances are plain callables (``metric(params) -> float``, one
    ``config.solve`` per call) and additionally expose
    :meth:`evaluate_batch`, which the drivers in
    :mod:`repro.uncertainty.analysis` and
    :mod:`repro.sensitivity.parametric` detect to solve whole sample
    batches in one ``config.solve_batch`` call.  A batch sample equals
    the per-snapshot one-point solve of its values bit for bit.
    """

    def __init__(
        self,
        config: JsasConfiguration,
        metric: str = "yearly_downtime_minutes",
        abstraction: str = "mttf",
        method: str = "auto",
    ) -> None:
        if metric not in CONFIG_METRICS:
            raise EstimationError(
                f"unknown configuration metric {metric!r}; expected one of "
                f"{CONFIG_METRICS}"
            )
        self.config = config
        self.metric = metric
        self.abstraction = abstraction
        self.method = method

    def __call__(self, sampled: Mapping[str, float]) -> float:
        result = self.config.solve(
            sampled, method=self.method, abstraction=self.abstraction
        )
        return float(getattr(result, self.metric))

    def evaluate_batch(
        self, columns: Mapping[str, ColumnLike], n_samples: int
    ) -> np.ndarray:
        solution = self.config.solve_batch(
            columns,
            n_samples=n_samples,
            method=self.method,
            abstraction=self.abstraction,
        )
        return solution.metric_array(self.metric)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalConfigMetric({self.config.name!r}, "
            f"metric={self.metric!r})"
        )


def compare_configurations(
    configurations: Sequence[Tuple[int, int]] = TABLE3_CONFIGURATIONS,
    values: Optional[Mapping[str, float]] = None,
    abstraction: str = "mttf",
    method: str = "auto",
) -> List[ConfigurationComparison]:
    """Solve each configuration and collect the Table 3 metrics.

    Args:
        method: Steady-state method; the default ``"auto"`` picks the
            structured banded solver for large-N AS submodels, so a
            configuration sweep can include ``n_instances`` in the
            hundreds without falling off the dense-solver cliff.
    """
    values = dict(values) if values is not None else PAPER_PARAMETERS.to_dict()
    rows: List[ConfigurationComparison] = []
    for n_instances, n_pairs in configurations:
        config = JsasConfiguration(n_instances=n_instances, n_pairs=n_pairs)
        result = config.solve(values, method=method, abstraction=abstraction)
        rows.append(
            ConfigurationComparison(
                n_instances=n_instances,
                n_pairs=n_pairs,
                availability=result.availability,
                yearly_downtime_minutes=result.yearly_downtime_minutes,
                mtbf_hours=result.mtbf_hours,
                result=result,
            )
        )
    return rows


def optimal_configuration(
    rows: Sequence[ConfigurationComparison],
) -> ConfigurationComparison:
    """The availability-optimal row (the paper finds 4 AS + 4 pairs)."""
    if not rows:
        raise ValueError("no configurations to compare")
    return max(rows, key=lambda row: row.availability)


def uncertainty_distributions() -> Dict[str, Uniform]:
    """Uniform distributions over the paper's Section 7 ranges."""
    from repro.uncertainty import Uniform

    return {
        name: Uniform(low, high)
        for name, (low, high) in UNCERTAINTY_RANGES.items()
    }


def build_uncertainty_analysis(
    config: JsasConfiguration,
    values: Optional[Mapping[str, float]] = None,
    metric: str = "yearly_downtime_minutes",
    abstraction: str = "mttf",
    method: str = "auto",
) -> UncertaintyAnalysis:
    """The paper's Figs. 7-8 analysis for a configuration.

    ``metric`` may be ``"yearly_downtime_minutes"`` (the figures' y-axis),
    ``"availability"`` or ``"mtbf_hours"``.
    """
    from repro.uncertainty import UncertaintyAnalysis

    base = dict(values) if values is not None else PAPER_PARAMETERS.to_dict()
    return UncertaintyAnalysis(
        metric=HierarchicalConfigMetric(
            config, metric=metric, abstraction=abstraction, method=method
        ),
        distributions=uncertainty_distributions(),
        base_values=base,
        metric_name=metric,
    )


def run_uncertainty(
    config: JsasConfiguration,
    n_samples: int = 1000,
    seed: Optional[int] = None,
    **kwargs,
) -> UncertaintyResult:
    """One-call version of the paper's uncertainty runs (1000 samples)."""
    analysis = build_uncertainty_analysis(config, **kwargs)
    return analysis.run(n_samples=n_samples, seed=seed)
