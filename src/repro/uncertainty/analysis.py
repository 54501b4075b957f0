"""The uncertainty analysis driver.

Given a *solver function* (any callable mapping a parameter dict to a
metric value — typically a closure over a hierarchical model), a set of
parameter distributions, and base values for everything not varied, the
driver samples N snapshots, evaluates the metric for each, and returns an
:class:`~repro.uncertainty.results.UncertaintyResult`.

This mirrors the paper's Figs. 7–8 runs: six varied parameters, 1,000
snapshots, metric = yearly downtime in minutes.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

import numpy as np

from repro import obs
from repro.exceptions import EstimationError
from repro.uncertainty.distributions import Distribution
from repro.uncertainty.results import UncertaintyResult
from repro.uncertainty.sampling import (
    latin_hypercube_matrix,
    monte_carlo_matrix,
    snapshots_from_columns,
)

MetricFunction = Callable[[Dict[str, float]], float]

#: Protocol for batch-capable metrics: any callable that additionally
#: exposes ``evaluate_batch(columns, n_samples) -> (n_samples,) array``,
#: where ``columns`` maps parameter names to scalars or sample arrays.
#: ``repro.models.jsas.configs.HierarchicalConfigMetric`` is the
#: canonical implementation.


class UncertaintyAnalysis:
    """Configurable random-sampling uncertainty analysis.

    Example::

        analysis = UncertaintyAnalysis(
            metric=lambda p: solve_config1(p).yearly_downtime_minutes,
            metric_name="yearly downtime (minutes)",
            distributions={
                "La_as": Uniform(10 / 8760, 50 / 8760),
                "FIR": Uniform(0.0, 0.002),
            },
            base_values=PAPER_PARAMETERS.to_dict(),
        )
        result = analysis.run(n_samples=1000, seed=7)
        print(result.summary())
    """

    def __init__(
        self,
        metric: MetricFunction,
        distributions: Mapping[str, Distribution],
        base_values: Mapping[str, float],
        metric_name: str = "metric",
        sampler: str = "monte_carlo",
    ) -> None:
        if not callable(metric):
            raise EstimationError("metric must be callable")
        if sampler not in ("monte_carlo", "latin_hypercube"):
            raise EstimationError(
                f"unknown sampler {sampler!r}; expected 'monte_carlo' or "
                "'latin_hypercube'"
            )
        # Varied parameters need not pre-exist in base_values.
        self.metric = metric
        self.metric_name = metric_name
        self.distributions = dict(distributions)
        self.base_values = dict(base_values)
        self.sampler = sampler

    def run(
        self,
        n_samples: int = 1000,
        seed: Optional[int] = None,
        keep_snapshots: bool = True,
    ) -> UncertaintyResult:
        """Sample, solve, and summarize.

        A metric with ``evaluate_batch`` solves all snapshots in one
        batched call; a plain callable is called once per snapshot.

        Args:
            n_samples: Number of parameter snapshots (the paper uses 1000).
            seed: RNG seed for reproducibility.
            keep_snapshots: Store the sampled parameter dicts in the
                result (needed for scatter plots and importance
                post-processing; disable to save memory on huge runs).
        """
        use_batch = callable(getattr(self.metric, "evaluate_batch", None))
        with obs.span(
            "uncertainty.run",
            metric=self.metric_name,
            n_samples=n_samples,
            sampler=self.sampler,
            path="batch" if use_batch else "scalar",
        ):
            rng = np.random.default_rng(seed)
            with obs.span("uncertainty.sample", sampler=self.sampler):
                if self.sampler == "monte_carlo":
                    columns = monte_carlo_matrix(
                        self.distributions, n_samples, rng
                    )
                else:
                    columns = latin_hypercube_matrix(
                        self.distributions, n_samples, rng
                    )
            if use_batch:
                merged_columns: Dict[str, object] = dict(self.base_values)
                merged_columns.update(columns)
                with obs.span("uncertainty.solve", path="batch"):
                    raw = self.metric.evaluate_batch(merged_columns, n_samples)
                with obs.span("uncertainty.summarize"):
                    values = tuple(
                        float(v) for v in np.asarray(raw, dtype=float)
                    )
                    # With keep_snapshots=False the per-sample dicts are
                    # never materialized at all — the batched path works
                    # on columns.
                    snapshots = (
                        tuple(snapshots_from_columns(columns, n_samples))
                        if keep_snapshots
                        else ()
                    )
                    return UncertaintyResult(
                        metric_name=self.metric_name,
                        values=values,
                        snapshots=snapshots,
                    )
            snapshot_dicts = snapshots_from_columns(columns, n_samples)
            with obs.span("uncertainty.solve", path="scalar"):
                # One merged dict, updated in place: every snapshot
                # carries the same key set, so overlaying each one on
                # the previous state is equivalent to re-copying
                # base_values per snapshot.
                merged = dict(self.base_values)
                scalar_values = []
                for snapshot in snapshot_dicts:
                    merged.update(snapshot)
                    scalar_values.append(float(self.metric(merged)))
            with obs.span("uncertainty.summarize"):
                return UncertaintyResult(
                    metric_name=self.metric_name,
                    values=tuple(scalar_values),
                    snapshots=tuple(snapshot_dicts) if keep_snapshots else (),
                )

    def run_at_means(self) -> float:
        """Evaluate the metric with every varied parameter at its mean.

        Useful as a cheap sanity anchor: for mildly nonlinear metrics the
        sampled mean should land near this value.
        """
        merged = dict(self.base_values)
        for name, dist in self.distributions.items():
            merged[name] = dist.mean
        return float(self.metric(merged))
