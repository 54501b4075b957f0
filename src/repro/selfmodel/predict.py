"""Solve the fitted cluster model and put an interval on the prediction.

Point prediction: solve the hierarchy at the fitted point values.
Interval: propagate each fitted rate's confidence interval through the
model with a *corner sweep* — steady-state availability is monotone in
every individual rate of this topology (failure rates push it down,
recovery rates pull it up), so the extremes over the hyper-rectangle of
rate intervals are attained at its corners.  All ``2^m`` corners plus
the point solve go through one compiled
:meth:`~repro.hierarchy.composer.HierarchicalModel.solve_batch` call —
the same batch engine the paper-model sweeps use, and fully
deterministic (no sampling), so same-seed runs produce bit-identical
deterministic blocks.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro import artifacts
from repro.exceptions import SelfModelError
from repro.selfmodel.fit import FittedParameters, parameters_for
from repro.selfmodel.model import (
    build_cluster_hierarchy,
    model_shape,
    required_parameters,
)
from repro.selfmodel.topology import ClusterTopology

#: Corner sweeps double per interval parameter; cap the blow-up.
MAX_INTERVAL_PARAMETERS = 12


def predict_availability(
    topology: ClusterTopology,
    fitted: FittedParameters,
    method: str = "auto",
    include_workers: Optional[bool] = None,
    include_cache: Optional[bool] = None,
    measurement: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Predict steady-state availability (point + interval) for a cluster.

    Args:
        topology: Shape of the modeled cluster.
        fitted: Rates from :func:`repro.selfmodel.fit.fit_parameters`.
        method: Steady-state method for every constituent solve
            (``"auto"`` routes through the compiled engines).
        include_workers / include_cache: Override which optional tiers
            the model includes; by default a tier is included exactly
            when its rates were fitted *and* the topology carries it.
        measurement: The source measurement report; when given, its
            seed-pure fields are stamped into the deterministic block
            and the measured availability is echoed for validation.

    Returns:
        The schema-versioned prediction report (a plain dict, ready for
        :func:`repro.artifacts.write`).
    """
    if include_workers is None:
        include_workers = (
            topology.worker_processes >= 1 and "La_worker" in fitted.rates
        )
    if include_cache is None:
        include_cache = "La_cache" in fitted.rates
    rates = parameters_for(
        fitted,
        include_workers=include_workers,
        include_cache=include_cache,
    )
    hierarchy = build_cluster_hierarchy(
        topology,
        include_workers=include_workers,
        include_cache=include_cache,
    )
    interval_names = sorted(
        name for name, rate in rates.items() if rate.has_interval
    )
    if len(interval_names) > MAX_INTERVAL_PARAMETERS:
        raise SelfModelError(
            f"{len(interval_names)} interval parameters would need "
            f"{2 ** len(interval_names)} corner solves (cap "
            f"{2 ** MAX_INTERVAL_PARAMETERS}); reduce the interval set"
        )
    n_corners = 2 ** len(interval_names)
    n_samples = 1 + n_corners

    # Sample 0 is the point solve; samples 1.. are the interval corners.
    columns: Dict[str, Any] = {}
    for name, rate in rates.items():
        if name in interval_names:
            column = np.full(n_samples, rate.point)
            for corner, choice in enumerate(
                itertools.product((0, 1), repeat=len(interval_names))
            ):
                bits = dict(zip(interval_names, choice))
                column[1 + corner] = (
                    rate.upper if bits[name] else rate.lower
                )
            columns[name] = column
        else:
            columns[name] = rate.point

    solution = hierarchy.solve_batch(
        columns, n_samples=n_samples, method=method
    )
    point = solution.result_at(0)

    def band(values: np.ndarray) -> Dict[str, float]:
        return {
            "point": float(values[0]),
            "lower": float(values.min()),
            "upper": float(values.max()),
        }

    submodels: Dict[str, Any] = {}
    for name, report in point.submodels.items():
        submodels[name] = {
            "availability": report.interface.availability,
            "failure_rate_per_hour": report.interface.failure_rate,
            "recovery_rate_per_hour": report.interface.recovery_rate,
            "downtime_minutes": report.downtime_minutes,
            "downtime_fraction": report.downtime_fraction,
            "masked": not hierarchy.attributions.get(name),
        }

    shape = model_shape(
        topology,
        include_workers=include_workers,
        include_cache=include_cache,
    )
    deterministic: Dict[str, Any] = {
        "schema": artifacts.SCHEMAS["selfmodel-prediction"],
        "kind": "selfmodel-prediction",
        "seed": fitted.seed,
        "confidence": fitted.confidence,
        "method": method,
        "topology": topology.to_dict(),
        "model": shape,
        "parameters": sorted(
            required_parameters(
                include_workers=include_workers,
                include_cache=include_cache,
            )
        ),
        "interval_parameters": interval_names,
        "n_samples": n_samples,
    }
    if measurement is not None:
        source = measurement.get("deterministic", {})
        deterministic["measurement"] = {
            "seed": source.get("seed"),
            "n_shards": source.get("n_shards"),
            "n_probes": source.get("n_probes"),
            "kill_count": source.get("kill_count"),
            "schema": source.get("schema"),
        }

    report: Dict[str, Any] = {
        "schema": artifacts.SCHEMAS["selfmodel-prediction"],
        "kind": "selfmodel-prediction",
        "deterministic": deterministic,
        "seed": fitted.seed,
        "confidence": fitted.confidence,
        "fitted": {
            name: rate.to_dict() for name, rate in fitted.rates.items()
        },
        "diagnostics": fitted.diagnostics,
        "predicted": {
            "availability": band(solution.availability),
            "yearly_downtime_minutes": band(
                solution.yearly_downtime_minutes
            ),
            "mtbf_hours": band(solution.mtbf_hours),
            "mttr_hours": band(solution.system.mttr_hours),
        },
        "submodels": submodels,
        "bound_parameters": {
            name: float(column[0])
            for name, column in solution.bound_parameters.items()
        },
    }
    if measurement is not None:
        report["measured"] = {
            "probe_availability": measurement.get("probe_availability"),
            "n_probes": measurement.get("n_probes"),
            "probe_failures": measurement.get("probe_failures"),
            "empirical_availability": measurement.get(
                "empirical_availability"
            ),
            "mttr_seconds": measurement.get("mttr_seconds"),
            "mtbf_seconds": measurement.get("mtbf_seconds"),
        }
    return report


def render_prediction_report(report: Mapping[str, Any]) -> str:
    """Human-readable summary of one prediction report."""
    predicted = report["predicted"]
    availability = predicted["availability"]
    downtime = predicted["yearly_downtime_minutes"]
    topology = report["deterministic"]["topology"]
    lines = [
        f"selfmodel prediction (schema {report['schema']}, "
        f"seed {report['seed']})",
        f"topology: {topology['quorum']}-of-{topology['n_shards']} shards",
        f"predicted availability: {availability['point']:.9f} "
        f"[{availability['lower']:.9f}, {availability['upper']:.9f}] "
        f"({report['confidence']:.0%} rate CIs, corner propagation)",
        f"predicted downtime: {downtime['point']:.4g} min/yr "
        f"[{downtime['lower']:.4g}, {downtime['upper']:.4g}]",
    ]
    for name, sub in sorted(report.get("submodels", {}).items()):
        masked = " (masked)" if sub.get("masked") else ""
        lines.append(
            f"  {name}{masked}: A={sub['availability']:.6f}, "
            f"Lambda={sub['failure_rate_per_hour']:.4g}/h, "
            f"Mu={sub['recovery_rate_per_hour']:.4g}/h, "
            f"downtime share {sub['downtime_fraction']:.1%}"
        )
    validation = report.get("validation")
    if validation is not None:
        measured = validation["measured"]
        lines.append(
            f"measured probe availability: "
            f"{measured['probe_availability']:.6f} "
            f"[{measured['interval'][0]:.6f}, "
            f"{measured['interval'][1]:.6f}] "
            f"({measured['n_probes']} probes)"
        )
        lines.append(f"verdict: {validation['verdict'].upper()}")
    return "\n".join(lines)
