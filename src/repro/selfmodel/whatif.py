"""What-if interface: the fitted cluster model as a first-class config.

:class:`ClusterSelfModel` gives the fitted cluster the same surface as
the paper's Config 1-4 (:class:`~repro.models.jsas.JsasConfiguration`):
``solve`` / ``solve_batch`` with baked-in base values, a batch-capable
metric for :func:`~repro.sensitivity.parametric.parametric_sweep`, and
an :class:`~repro.uncertainty.analysis.UncertaintyAnalysis` whose
distributions come straight from the fitted rate intervals.  That is
what lets the ``solve`` / ``sweep`` / ``uncertainty`` CLI paths load
*our own stack* next to the paper's configurations — sweep the respawn
rate, resize the shard count, and read the availability consequences
off the same engines.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, Mapping, Optional, Union

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.fit import (
    FittedParameters,
    fit_parameters,
    parameters_for,
)
from repro.selfmodel.model import build_cluster_hierarchy
from repro.selfmodel.topology import ClusterTopology


class ClusterSelfModel:
    """The fitted cluster hierarchy with its base parameter values.

    Duck-type compatible with
    :class:`~repro.models.jsas.JsasConfiguration` where the generic
    drivers need it (``solve``, ``solve_batch``, ``name``), so
    :class:`~repro.models.jsas.configs.HierarchicalConfigMetric` routes
    sweeps and uncertainty batches through the compiled engine
    unchanged.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        fitted: FittedParameters,
        include_workers: Optional[bool] = None,
        include_cache: Optional[bool] = None,
    ) -> None:
        if include_workers is None:
            include_workers = (
                topology.worker_processes >= 1
                and "La_worker" in fitted.rates
            )
        if include_cache is None:
            include_cache = "La_cache" in fitted.rates
        self.topology = topology
        self.fitted = fitted
        self.include_workers = include_workers
        self.include_cache = include_cache
        self.rates = parameters_for(
            fitted,
            include_workers=include_workers,
            include_cache=include_cache,
        )
        self.hierarchy = build_cluster_hierarchy(
            topology,
            include_workers=include_workers,
            include_cache=include_cache,
        )
        self.base_values: Dict[str, float] = {
            name: rate.point for name, rate in self.rates.items()
        }

    @property
    def name(self) -> str:
        return f"cluster-{self.topology.quorum}of{self.topology.n_shards}"

    @classmethod
    def from_artifact(
        cls,
        source: Union[str, pathlib.Path, Mapping[str, Any]],
        quorum: Optional[int] = None,
        n_shards: Optional[int] = None,
        confidence: float = 0.95,
    ) -> "ClusterSelfModel":
        """Build from any selfmodel artifact on disk (or parsed).

        Accepts, by ``"kind"``:

        * ``selfmodel-prediction`` — topology and fitted rates are both
          embedded; the round-trip artifact of choice.
        * ``selfmodel-fit`` — fitted rates; the topology is rebuilt
          from the fit's shard count (override with ``n_shards``).
        * ``measurement`` — fits on the fly from the raw measurement.
        * ``failover-drill`` — uses the embedded measurement block.

        Raises:
            ArtifactError: If ``source`` is not a readable artifact of
                one of these kinds at a schema this library reads.
        """
        document = artifacts.load(
            source,
            "selfmodel-prediction",
            "selfmodel-fit",
            "measurement",
            "failover-drill",
        )
        kind = document["kind"]
        if kind == "selfmodel-prediction":
            topology = ClusterTopology.from_dict(
                document["deterministic"]["topology"]
            )
            fitted = FittedParameters(
                seed=int(document.get("seed", 0)),
                n_shards=topology.n_shards,
                confidence=float(document.get("confidence", confidence)),
                rates={
                    name: _rate_from_dict(rate)
                    for name, rate in document.get("fitted", {}).items()
                },
                diagnostics=dict(document.get("diagnostics", {})),
            )
        elif kind == "selfmodel-fit":
            fitted = FittedParameters.from_dict(document)
            topology = ClusterTopology(
                n_shards=n_shards or fitted.n_shards or 1,
                quorum=quorum or 1,
                source="fit-artifact",
            )
        elif kind == "measurement":
            fitted = fit_parameters(document, confidence=confidence)
            topology = ClusterTopology(
                n_shards=n_shards or fitted.n_shards or 1,
                quorum=quorum or 1,
                source="measurement",
            )
        else:  # failover-drill
            measurement = document.get("measurement")
            if not measurement:
                raise SelfModelError(
                    "drill report carries no measurement block; rerun "
                    "the drill with --probes > 0"
                )
            fitted = fit_parameters(measurement, confidence=confidence)
            topology = ClusterTopology(
                n_shards=n_shards or int(document.get("n_shards") or 0),
                quorum=quorum or 1,
                source="failover-drill",
            )
        if quorum is not None and topology.quorum != quorum:
            topology = ClusterTopology.from_dict(
                {**topology.to_dict(), "quorum": quorum}
            )
        return cls(topology, fitted)

    def solve(
        self,
        values: Optional[Mapping[str, float]] = None,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> Any:
        """Solve at the fitted base values, with optional overrides."""
        merged = dict(self.base_values)
        if values:
            merged.update(
                (name, value)
                for name, value in values.items()
                if name in self.base_values
            )
        return self.hierarchy.solve(
            merged, method=method, abstraction=abstraction
        )

    def solve_batch(
        self,
        values: Mapping[str, Any],
        n_samples: Optional[int] = None,
        method: str = "auto",
        abstraction: str = "mttf",
    ) -> Any:
        """Batched solve; non-overridden parameters stay at base values."""
        merged: Dict[str, Any] = dict(self.base_values)
        merged.update(
            (name, value)
            for name, value in values.items()
            if name in self.base_values
        )
        return self.hierarchy.solve_batch(
            merged,
            n_samples=n_samples,
            method=method,
            abstraction=abstraction,
        )

    def metric(
        self, metric: str = "availability", method: str = "auto"
    ) -> Any:
        """A batch-capable metric callable for sweeps / uncertainty."""
        from repro.models.jsas.configs import HierarchicalConfigMetric

        return HierarchicalConfigMetric(self, metric=metric, method=method)

    def uncertainty_analysis(
        self, metric: str = "yearly_downtime_minutes", method: str = "auto"
    ) -> Any:
        """Uncertainty analysis over the fitted rate intervals.

        Each parameter with a genuine interval varies uniformly over
        ``[lower, upper]`` (the paper's §7 treatment of its own ranged
        parameters); point-only parameters stay fixed.
        """
        from repro.uncertainty.analysis import UncertaintyAnalysis
        from repro.uncertainty.distributions import Uniform

        distributions = {
            name: Uniform(rate.lower, rate.upper)
            for name, rate in self.rates.items()
            if rate.has_interval
        }
        if not distributions:
            raise SelfModelError(
                "no fitted parameter carries an interval; nothing to vary"
            )
        return UncertaintyAnalysis(
            metric=self.metric(metric=metric, method=method),
            distributions=distributions,
            base_values=dict(self.base_values),
            metric_name=metric,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterSelfModel({self.topology.describe()!r}, "
            f"parameters={sorted(self.base_values)})"
        )


def _rate_from_dict(document: Mapping[str, Any]) -> Any:
    from repro.selfmodel.fit import FittedRate

    return FittedRate.from_dict(document)
